"""Uniform meshes, high-order cumulative quadrature and spline interpolation.

Everything downstream (particular solution, recursive integrals, basis
functions) is tabulated on a :class:`UniformMesh` and integrated with the
composite six-point Newton-Cotes rule, which is exact for polynomials of
degree five.  Splines provide off-node evaluation and first derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "UniformMesh",
    "SampledFunction",
    "Interpolant",
    "cumulative_integral",
]

_BLOCK = 5  # intervals per Newton-Cotes block (6 nodes)


def _cumulative_weights() -> np.ndarray:
    """Exact weights W[j, i] = integral from 0 to j of the i-th Lagrange
    basis polynomial on the unit-spaced nodes 0..5 (rational arithmetic,
    converted to float once)."""
    nodes = range(_BLOCK + 1)
    w = np.zeros((_BLOCK + 1, _BLOCK + 1))
    for i in nodes:
        # Lagrange basis coefficients (ascending powers) as Fractions.
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for m in nodes:
            if m == i:
                continue
            denom *= Fraction(i - m)
            # multiply poly by (x - m)
            new = [Fraction(0)] * (len(coeffs) + 1)
            for p, c in enumerate(coeffs):
                new[p] -= c * m
                new[p + 1] += c
            coeffs = new
        coeffs = [c / denom for c in coeffs]
        anti = [Fraction(0)] + [c / (p + 1) for p, c in enumerate(coeffs)]
        for j in nodes:
            w[j, i] = float(sum(c * Fraction(j) ** p for p, c in enumerate(anti)))
    return w


_W = _cumulative_weights()


@dataclass(frozen=True)
class UniformMesh:
    """Equispaced nodes on [x_start, x_end].

    The node count must leave a number of intervals divisible by 5 so that
    the six-point quadrature rule tiles the mesh exactly.
    """

    x_start: float
    x_end: float
    n_points: int

    def __post_init__(self):
        if not self.x_start < self.x_end:
            raise ConfigurationError(
                f"mesh requires x_start < x_end, got [{self.x_start}, {self.x_end}]"
            )
        if self.n_points < _BLOCK + 1 or (self.n_points - 1) % _BLOCK != 0:
            raise ConfigurationError(
                f"n_points must be >= 6 with (n_points - 1) divisible by 5, "
                f"got {self.n_points}"
            )

    @property
    def h(self) -> float:
        return (self.x_end - self.x_start) / (self.n_points - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_start, self.x_end, self.n_points)


@dataclass(frozen=True)
class SampledFunction:
    """Complex values tabulated at the nodes of a uniform mesh."""

    mesh: UniformMesh
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.mesh.n_points,):
            raise ConfigurationError(
                f"values shape {vals.shape} does not match mesh with "
                f"{self.mesh.n_points} points"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, mesh: UniformMesh, func) -> "SampledFunction":
        return cls(mesh, np.asarray([func(x) for x in mesh.nodes], dtype=complex))

    @classmethod
    def constant(cls, mesh: UniformMesh, value: complex) -> "SampledFunction":
        return cls(mesh, np.full(mesh.n_points, value, dtype=complex))


class Interpolant:
    """Cubic not-a-knot spline over a mesh; supports values and first
    derivatives at arbitrary points of the mesh interval.  ``values`` has
    the mesh along its first axis and any shape after it, which evaluation
    results carry as their trailing shape."""

    # slack for floating-point noise at the interval ends
    _EDGE_TOL = 1e-12

    def __init__(self, mesh: UniformMesh, values: np.ndarray):
        # imported here so that commands which build no spline never load
        # scipy, whose import costs more than the whole basis construction
        from scipy.interpolate import CubicSpline, PPoly

        self.mesh = mesh
        values = np.asarray(values, dtype=complex)
        # fit one column at a time: CubicSpline's temporaries for a whole
        # stack of columns cost about twice the coefficients themselves
        columns = values.reshape(mesh.n_points, -1)
        coeffs = np.empty((4, mesh.n_points - 1, columns.shape[1]), dtype=complex)
        for j in range(columns.shape[1]):
            coeffs[:, :, j] = CubicSpline(mesh.nodes, columns[:, j],
                                          bc_type="not-a-knot").c
        self._spline = PPoly.construct_fast(
            coeffs.reshape(coeffs.shape[:2] + values.shape[1:]), mesh.nodes)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.mesh.x_start, self.mesh.x_end
        tol = self._EDGE_TOL * (1.0 + abs(lo) + abs(hi))
        if np.any(x < lo - tol) or np.any(x > hi + tol):
            raise DomainError(
                f"evaluation point outside [{lo}, {hi}]"
            )
        return np.clip(x, lo, hi)

    def __call__(self, x):
        return self._spline(self._check(x))

    def derivative(self, x):
        return self._spline(self._check(x), 1)


def cumulative_integral(sf: SampledFunction) -> SampledFunction:
    """Antiderivative of a tabulated function, vanishing at the left end.

    Within each block of five intervals the degree-5 interpolant of the six
    node values is integrated exactly, so node values of the result are exact
    (to rounding) whenever ``sf`` samples a polynomial of degree <= 5.
    """
    mesh = sf.mesh
    n_blocks = (mesh.n_points - 1) // _BLOCK
    # overlapping view: block k covers nodes 5k .. 5k+5
    idx = _BLOCK * np.arange(n_blocks)[:, None] + np.arange(_BLOCK + 1)[None, :]
    blocks = sf.values[idx]                          # (n_blocks, 6)
    inc = mesh.h * blocks @ _W.T                     # (n_blocks, 6), inc[:,0] = 0
    offsets = np.concatenate(([0.0], np.cumsum(inc[:, _BLOCK])[:-1]))
    out = np.empty(mesh.n_points, dtype=complex)
    out[0] = 0.0
    out[idx[:, 1:]] = offsets[:, None] + inc[:, 1:]
    return SampledFunction(mesh, out)
