"""Every name a module of the package imports is used in that module, every
module-level private name of the package is used somewhere in it, every
public module-level function is used in it or named in the README, and every
public method of its classes is used in it, read by the benchmark scripts or
named in the README.

Stdlib stand-ins for a linter's unused-import and dead-code rules.  The
import scan leaves __init__.py out: it imports to re-export.  So does the
public-function scan, for the same reason.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eil"
BENCH_SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_import_scan_sees_every_form():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from . import checks as _checks\nfrom .graphs import Graph, emit_graph6\n"
              "def f(G: Graph):\n    return os.path.sep, emit_graph6(G)\n")
    assert _unused_imports(source) == ["_checks", "j"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _top_level_names(stmt) -> set[str]:
    """Names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _read_names(node, exports: bool):
    """The names one node reads: by name, as an attribute, in an import or as
    a whole string (a getattr key); the strings of __all__ export and do not
    read."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [a.name for a in node.names]
    if isinstance(node, ast.Constant) and not exports:
        return [node.value]
    return []


def _unread_names(sources: dict[str, str], defines,
                  readers: dict[str, str] | None = None) -> list[str]:
    """module:name for each (name, home) that defines(stmt) yields for a
    module-level statement of sources and that nothing outside home reads,
    in sources or in readers (whose keys must differ from those of sources)."""
    defined, reads = [], {}
    for module, source in [*sources.items(), *(readers or {}).items()]:
        for stmt in ast.parse(source).body:
            if module in sources:
                defined += [(module, name, home) for name, home
                            in sorted(defines(stmt), key=lambda pair: pair[0])]
            exports = "__all__" in _top_level_names(stmt)
            for node in ast.walk(stmt):
                for name in _read_names(node, exports):
                    reads.setdefault(name, []).append(node)
    return [f"{module}:{name}" for module, name, home in defined
            if not set(reads.get(name, ())) - set(ast.walk(home))]


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (one leading _, no dunder) no other
    statement reads."""
    return _unread_names(sources, lambda stmt: {
        (name, stmt) for name in _top_level_names(stmt)
        if name.startswith("_") and not name.startswith("__")})


def _undocumented(hits: list[str], readme: str) -> list[str]:
    return [hit for hit in hits if not re.search(rf"\b{hit.split(':')[1]}\b", readme)]


def _unused_public_functions(sources: dict[str, str], readme: str) -> list[str]:
    """The public module-level functions no other statement reads and the
    README does not name: each is either dead or undocumented API."""
    def public_function(stmt):
        is_function = isinstance(stmt, ast.FunctionDef)
        return {(stmt.name, stmt)} if is_function and not stmt.name.startswith("_") else set()
    return _undocumented(_unread_names(sources, public_function), readme)


def _unused_public_methods(sources: dict[str, str], readers: dict[str, str],
                           readme: str) -> list[str]:
    """The public methods, properties and classmethods of the classes of
    sources (dunders are not public) that nothing but their own body reads,
    in sources or in readers, and the README does not name."""
    def public_methods(stmt):
        body = stmt.body if isinstance(stmt, ast.ClassDef) else []
        return {(f.name, f) for f in body
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    return _undocumented(_unread_names(sources, public_methods, readers), readme)


def test_private_name_scan_sees_every_form():
    sources = {
        "a": ("_used = 1\n_orphan: int = 2\n__dunder__ = 3\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "def _helper():\n    return _used\nclass _Dead:\n    pass\n"),
        "b": "from .a import _helper\nimport a\nX = a._via_attr\n",
        "c": "def _via_attr():\n    pass\n",
    }
    assert _unreferenced_private_names(sources) == [
        "a:_orphan", "a:_recursive", "a:_Dead"]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_private_names(sources) == []


def test_public_function_scan_sees_every_form():
    sources = {
        "a": ("def dead():\n    return dead()\ndef documented():\n    pass\n"
              "def _private():\n    pass\nclass Unused:\n    pass\n"
              "__all__ = ['dead', 'documented', 'via_attr']\n"),
        "b": "import c\nX = c.via_attr\nY = getattr(c, 'by_key')\nZ = 'deadly, said'\n",
        "c": ("def via_attr():\n    pass\ndef by_key():\n    pass\n"
              "def deadly():\n    pass\n"),
    }
    readme = "Call `documented()`; `dead_end` and `undead` are other words."
    assert _unused_public_functions(sources, readme) == ["a:dead", "c:deadly"]


def test_no_unused_public_functions():
    sources = {p.name: p.read_text() for p in MODULES}
    assert _unused_public_functions(sources, (ROOT / "README.md").read_text()) == []


def test_public_method_scan_sees_every_form():
    sources = {
        "a": ("class A:\n    def dead(self):\n        return self.dead()\n"
              "    def helper(self):\n        pass\n"
              "    def caller(self):\n        return self.helper()\n"
              "    @property\n    def prop(self):\n        pass\n"
              "    @classmethod\n    def by_key(cls):\n        pass\n"
              "    def documented(self):\n        pass\n"
              "    def benched(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n"
              "    def _private(self):\n        pass\n"
              "def unread_function():\n    pass\n"),
        "b": "import a\nX = a.A().prop\nY = getattr(a.A, 'by_key')\n",
    }
    readers = {"bench.py": "TARGETS = (('a', 'A', 'benched'),)\n"}
    readme = "Call `A.documented()`; `dead_end` and `undead` are other words."
    assert _unused_public_methods(sources, readers, readme) == ["a:caller", "a:dead"]


def test_no_unused_public_methods():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = {f"perfbench/{p.name}": p.read_text() for p in BENCH_SCRIPTS}
    assert _unused_public_methods(sources, readers, (ROOT / "README.md").read_text()) == []
