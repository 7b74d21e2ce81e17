"""Every name a module of the package imports is used in that module.

A stdlib stand-in for a linter's unused-import rule.  __init__.py is left
out: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eil"
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
