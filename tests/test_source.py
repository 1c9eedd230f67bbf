"""Checks on the source of the thpsolve package itself."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from thpsolve import ProblemSpec

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


def _least_squares_calls(source: str) -> list:
    """(function, line) of every call of a name or attribute ``lstsq`` or
    ``svd``, the function being the innermost def around it."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in ("lstsq", "svd"):
                    found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_one_least_squares_solver():
    # the inner fit, the search step and the initial-guess projection each
    # had their own solver and rank policy; solve_linear is now the only one
    calls = {path.name: _least_squares_calls(path.read_text())
             for path in PACKAGE.glob("*.py")}
    assert [function for function, _ in calls.pop("assemble.py")] == ["solve_linear"]
    assert {name: found for name, found in calls.items() if found} == {}


def test_a_least_squares_call_is_found():
    source = ("import numpy as np\nfrom numpy.linalg import svd\n"
              "def f(a):\n    return np.linalg.lstsq(a, a)\n"
              "x = svd(np.eye(2))\n")
    assert _least_squares_calls(source) == [("f", 4), (None, 5)]


# the ProblemSpec fields that are data, not numbers
DATA = {f.name for f in fields(ProblemSpec)} - {"L", "l", "T"}


def _datum_calls(source: str) -> list:
    """Lines of every call of an attribute named like a datum, such as
    ``spec.g3(t)``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in DATA)


def test_data_become_values_only_through_tabulate():
    # numerics.tabulate is the one place a datum is called, so every datum
    # gets the same checks of shape, dtype and finiteness
    assert DATA == {"q", "g1", "g2", "g3", "flux_data",
                    "gamma11", "gamma12", "gamma21", "gamma22"}
    calls = {path.name: _datum_calls(path.read_text())
             for path in PACKAGE.glob("*.py")}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def test_a_datum_call_is_found():
    source = ("g3 = tabulate(spec.g3, t, 'g3')\nif callable(self.q):\n"
              "    q = self.spec.q(x)\nrhs = spec.flux_data(t) + spec.T\n")
    assert _datum_calls(source) == [3, 4]
