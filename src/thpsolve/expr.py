"""Single-variable arithmetic expressions for problem config files.

The grammar (documented in docs/config.md) is the subset of Python
expressions that Python's own parser reads once each ``^`` is written
``**``: finite real numbers, the declared variable, the constants ``pi``
and ``e``, ``+ - * / ^``, unary minus and one-argument calls to exp, log,
sqrt, sin, cos, sinh, cosh and abs.  Any other node of the syntax tree is
rejected.
An expression is evaluated with numpy ufuncs over a whole array of points.
"""

from __future__ import annotations

import ast
import sys

import numpy as np

from .errors import ExpressionEvalError, ExpressionSyntaxError

__all__ = ["Expression", "parse"]

_FUNCTIONS = {name: getattr(np, name)
              for name in ("exp", "log", "sqrt", "sin", "cos", "sinh", "cosh", "abs")}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_OPERATORS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
              ast.Div: np.divide, ast.Pow: np.power}


class Expression:
    """Parsed single-variable expression; immutable and callable."""

    def __init__(self, tree: ast.Expression, fn, variable: str, text: str):
        self._tree = tree
        self._fn = fn
        self.variable = variable
        self.text = text

    def __call__(self, x):
        """Value at ``x``: a float for a scalar, an array of the same shape
        for an array.  A domain violation at any point (log or sqrt out of
        range, division by zero, overflow, fractional power of a negative
        base) raises ExpressionEvalError; underflow to zero does not."""
        x = np.asarray(x, dtype=float)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise",
                             under="ignore"):
                values = np.broadcast_to(self._fn(x), x.shape).astype(float)
        except FloatingPointError as exc:
            raise ExpressionEvalError(f"{exc} in {self.text!r}") from exc
        return float(values) if values.ndim == 0 else values

    def source(self) -> str:
        """Normalized text that re-parses to an equivalent expression."""
        return ast.unparse(self._tree).replace("**", "^")

    def __repr__(self):
        return f"Expression({self.text!r}, variable={self.variable!r})"


def _position(source: str, offset: int) -> int:
    """Index in ``source`` of the character at ``offset`` in the text that
    Python parses: ``source`` without its leading blanks, which would be an
    indentation error, and with each ``^`` written as ``**``."""
    offset += len(source) - len(source.lstrip())
    for i, ch in enumerate(source):
        offset -= 2 if ch == "^" else 1
        if offset < 0:
            return i
    return len(source)


def _compile(node: ast.AST, variable: str, source: str):
    """Function of the point array that evaluates ``node``; raises
    ExpressionSyntaxError for a node outside the grammar."""
    if (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and abs(node.value) <= sys.float_info.max):
        value = float(node.value)
        return lambda x: value
    if isinstance(node, ast.Name) and node.id == variable:
        return lambda x: x
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        value = _CONSTANTS[node.id]
        return lambda x: value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _compile(node.operand, variable, source)
        return lambda x: np.negative(operand(x))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        op = _OPERATORS[type(node.op)]
        left = _compile(node.left, variable, source)
        right = _compile(node.right, variable, source)
        return lambda x: op(left(x), right(x))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1
            and not node.keywords):
        fn = _FUNCTIONS[node.func.id]
        arg = _compile(node.args[0], variable, source)
        return lambda x: fn(arg(x))
    raise ExpressionSyntaxError(
        f"{ast.unparse(node).replace('**', '^')!r} is not allowed in an "
        f"expression in {variable!r}", _position(source, node.col_offset))


def parse(source: str, variable_name: str) -> Expression:
    """Parse ``source`` as an expression in the single variable
    ``variable_name``."""
    if not source.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    if "**" in source:
        raise ExpressionSyntaxError("'**' is not an operator; write '^'",
                                    source.index("**"))
    try:
        tree = ast.parse(source.lstrip().replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        offset = exc.offset - 1 if exc.offset else 2 * len(source)
        raise ExpressionSyntaxError(exc.msg, _position(source, offset)) from None
    return Expression(tree, _compile(tree.body, variable_name, source),
                      variable_name, source)
