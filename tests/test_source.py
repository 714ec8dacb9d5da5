"""Source hygiene: no module of the package carries a name it never uses,
and no public function or class is there for tests alone."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "scenofuzz"
MODULES = sorted(SOURCE.rglob("*.py"))
# what users read: a public name they are told about is in use
DOCUMENTS = [ROOT / "README.md"] + sorted(
    p for p in (ROOT / "docs").rglob("*") if p.is_file())


def _exported(tree) -> set[str]:
    """The names listed in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _private_assigned(tree) -> set[str]:
    """Private names the module body binds at its top level, by assignment
    or by a ``def`` or ``class`` statement."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AnnAssign,
                                               ast.AugAssign)) else []
        for target in targets:
            names.update(n.id for n in ast.walk(target)
                         if isinstance(n, ast.Name))
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def _read(tree) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SOURCE)) for p in MODULES])
def test_every_module_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    unused_imports = _imported(tree) - read - _exported(tree)
    assert not unused_imports, f"imported, never used: {sorted(unused_imports)}"
    unread = _private_assigned(tree) - read
    assert not unread, f"assigned, never read: {sorted(unread)}"


def _unnamed(texts: dict[str, str], documents: str) -> list[str]:
    """``module:name`` of each public top-level ``def`` or ``class`` that no
    text names outside its own definition: not the rest of its module, not
    another module, and not ``documents``."""
    unnamed = []
    for module, text in texts.items():
        lines = text.splitlines(keepends=True)
        others = [documents] + [t for m, t in texts.items() if m != module]
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "".join(lines[:start - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in [rest] + others):
                unnamed.append(f"{module}:{node.name}")
    return unnamed


def test_every_public_definition_is_named_outside_tests():
    texts = {str(p.relative_to(SOURCE)): p.read_text(encoding="utf-8")
             for p in MODULES}
    documents = "\n".join(p.read_text(encoding="utf-8") for p in DOCUMENTS)
    unnamed = _unnamed(texts, documents)
    assert not unnamed, f"named only by its definition or tests: {unnamed}"


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("import os, a.b\nfrom m import x as y, z\n"
                     "__all__ = ['z']\n_kept = 1\n_lost = 2\n"
                     "def _unused():\n    return a, _kept\n")
    assert _imported(tree) - _read(tree) - _exported(tree) == {"os", "y"}
    assert _private_assigned(tree) - _read(tree) == {"_lost", "_unused"}
    texts = {"a.py": "def used():\n    return kept()\n\n"
                     "def kept():\n    return kept\n\n"
                     "@cache\ndef only_tests():\n    return only_tests\n\n"
                     "class Told:\n    pass\n\ndef _private():\n    pass\n",
             "b.py": "from a import used\n"}
    assert _unnamed(texts, "see Told") == ["a.py:only_tests"]
