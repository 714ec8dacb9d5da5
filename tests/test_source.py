"""Source hygiene: no module of the package carries a name it never uses."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "scenofuzz"
MODULES = sorted(SOURCE.rglob("*.py"))


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


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("import os, a.b\nfrom m import x as y, z\n"
                     "__all__ = ['z']\n_kept = 1\n_lost = 2\n"
                     "def _unused():\n    return a, _kept\n")
    assert _imported(tree) - _read(tree) - _exported(tree) == {"os", "y"}
    assert _private_assigned(tree) - _read(tree) == {"_lost", "_unused"}
