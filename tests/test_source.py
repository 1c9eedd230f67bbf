"""Checks on the source of the thpsolve package itself."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thpsolve"


def _unread_imports(source: str) -> list:
    """Names bound by a module-level import that the module never reads
    (``from __future__`` imports aside)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    # __init__.py is left out: its imports are the package's re-exports
    assert _unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from .a import b, c as d\nprint(b)\n")
    assert _unread_imports(source) == ["line 2: os", "line 3: d"]
