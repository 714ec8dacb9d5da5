"""Source hygiene: no module of the package carries a name it never uses,
no public function or class is there for tests alone, no function imports,
and the package's modules import each other one way only."""

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


def _referenced(nodes) -> set[str]:
    """The names code under ``nodes`` reads, takes as an attribute or
    imports; a comment or a docstring names nothing here."""
    names = set()
    for node in nodes:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                names.add(inner.id)
            elif isinstance(inner, ast.Attribute):
                names.add(inner.attr)
            elif isinstance(inner, (ast.Import, ast.ImportFrom)):
                names.update(a.name.split(".")[-1] for a in inner.names)
    return names


def _unnamed(texts: dict[str, str], documents: str) -> list[str]:
    """``module:name`` of each public top-level ``def`` or ``class`` that no
    code of the package refers to outside its own definition, and that
    ``documents`` do not name."""
    trees = {module: ast.parse(text) for module, text in texts.items()}
    unnamed = []
    for module, tree in trees.items():
        elsewhere = _referenced(t for m, t in trees.items() if m != module)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            rest = _referenced(n for n in tree.body if n is not node)
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if node.name not in rest | elsewhere \
                    and not word.search(documents):
                unnamed.append(f"{module}:{node.name}")
    return unnamed


def test_every_public_definition_is_named_outside_tests():
    texts = {str(p.relative_to(SOURCE)): p.read_text(encoding="utf-8")
             for p in MODULES}
    documents = "\n".join(p.read_text(encoding="utf-8") for p in DOCUMENTS)
    unnamed = _unnamed(texts, documents)
    assert not unnamed, f"named only by its definition or tests: {unnamed}"


def _function_imports(tree) -> list[str]:
    """``name:line`` of each import statement inside a function."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{node.name}:{inner.lineno}" for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return found


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SOURCE)) for p in MODULES])
def test_no_function_imports(path):
    """A hidden import hides a module's dependencies from its header."""
    found = _function_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"imports inside functions: {found}"


def _module_name(relative: str) -> str:
    """``a/b.py`` as ``scenofuzz.a.b``, ``a/__init__.py`` as ``scenofuzz.a``."""
    parts = ["scenofuzz"] + relative[:-len(".py")].split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _import_graph(texts: dict[str, str]) -> dict[str, set[str]]:
    """The package modules each module imports, at any level of its code;
    ``texts`` maps each module's path below the package to its source."""
    modules = {_module_name(relative): relative for relative in texts}
    graph: dict[str, set[str]] = {}
    for name, relative in modules.items():
        package = name if relative.endswith("__init__.py") \
            else name.rpartition(".")[0]
        edges = set()
        for node in ast.walk(ast.parse(texts[relative])):
            if isinstance(node, ast.Import):
                edges.update(a.name for a in node.names if a.name in modules)
            elif isinstance(node, ast.ImportFrom):
                base = package.rsplit(".", node.level - 1)[0] \
                    if node.level else ""
                base = ".".join(filter(None, [base, node.module]))
                for alias in node.names:  # a name may be a submodule
                    target = f"{base}.{alias.name}"
                    edges.add(target if target in modules else base)
        graph[name] = {edge for edge in edges if edge in modules}
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of ``graph`` as the list of its modules, first repeated
    last, or an empty list."""
    done: set[str] = set()
    path: list[str] = []

    def visit(name: str) -> list[str]:
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return []
        path.append(name)
        for target in sorted(graph[name]):
            found = visit(target)
            if found:
                return found
        path.pop()
        done.add(name)
        return []

    for name in sorted(graph):
        found = visit(name)
        if found:
            return found
    return []


def test_imports_run_one_way():
    """No package module imports, at any level of its code, a module that
    imports it back, however far round."""
    texts = {p.relative_to(SOURCE).as_posix(): p.read_text(encoding="utf-8")
             for p in MODULES}
    cycle = _cycle(_import_graph(texts))
    assert not cycle, f"import cycle: {' -> '.join(cycle)}"


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("import os, a.b\nfrom m import x as y, z\n"
                     "__all__ = ['z']\n_kept = 1\n_lost = 2\n"
                     "def _unused():\n    return a, _kept\n")
    assert _imported(tree) - _read(tree) - _exported(tree) == {"os", "y"}
    assert _private_assigned(tree) - _read(tree) == {"_lost", "_unused"}
    texts = {"a.py": "def used():\n    return kept()\n\n"
                     "def kept():\n    return kept\n\n"
                     "@cache\ndef only_tests():\n    return only_tests\n\n"
                     "def in_prose():\n    pass\n\n"
                     "class Told:\n    pass\n\ndef _private():\n    pass\n",
             "b.py": '"""in_prose is named in a docstring."""\n'
                     "from a import used\n# and in_prose in a comment\n"}
    assert _unnamed(texts, "see Told") == ["a.py:only_tests", "a.py:in_prose"]
    assert _function_imports(ast.parse(
        "import os\ndef f():\n    import json\n"
        "class C:\n    def g(self):\n        from . import x\n")) == \
        ["f:3", "g:6"]
    texts = {"__init__.py": "",
             "low.py": "def f():\n    from .top import g\n",
             "top.py": "from . import low\nimport scenofuzz.sub.leaf\n",
             "sub/__init__.py": "from .leaf import x\nfrom .. import low\n",
             "sub/leaf.py": "import os\nfrom ..low import f\n"}
    graph = _import_graph(texts)
    assert graph == {"scenofuzz": set(),
                     "scenofuzz.low": {"scenofuzz.top"},
                     "scenofuzz.top": {"scenofuzz.low",
                                       "scenofuzz.sub.leaf"},
                     "scenofuzz.sub": {"scenofuzz.sub.leaf", "scenofuzz.low"},
                     "scenofuzz.sub.leaf": {"scenofuzz.low"}}
    assert _cycle(graph) == ["scenofuzz.low", "scenofuzz.top",
                             "scenofuzz.low"]
    del texts["low.py"]
    assert _cycle(_import_graph(texts)) == []
