"""Every imported name in src/ and tests/ is read somewhere in its module.

A name counts as read when it is loaded (``Name`` in load context, which
covers attribute access and decorators) or listed in the module's
``__all__``.  ``from __future__`` imports bind nothing and are skipped.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def _imported(tree):
    """(bound name, line) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield (a.asname or a.name), node.lineno


def _read(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def unread_imports(source):
    tree = ast.parse(source)
    read = _read(tree)
    return [(name, line) for name, line in _imported(tree) if name not in read]


def test_scan_sees_an_unread_import():
    src = "import os\nimport sys\nfrom a import b as c, d\n__all__ = ['d']\nsys.exit()\n"
    assert unread_imports(src) == [("os", 1), ("c", 3)]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unread_imports(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
