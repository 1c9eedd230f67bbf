"""Uniform meshes, high-order cumulative quadrature and Hermite interpolation.

Everything downstream (particular solution, recursive integrals, basis
functions) is tabulated on a :class:`UniformMesh` and integrated with the
composite six-point Newton-Cotes rule, which is exact for polynomials of
degree five.  Piecewise cubic Hermite interpolation from node values and
slopes provides off-node evaluation and first derivatives, with no solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, require_count

__all__ = [
    "UniformMesh",
    "SampledFunction",
    "tabulate",
    "Interpolant",
    "cumulative_integral",
]

_BLOCK = 5  # intervals per Newton-Cotes block (6 nodes)


# W[j, i] = integral from 0 to j of the i-th Lagrange basis polynomial on
# the unit-spaced nodes 0..5; 1440 W is an integer matrix, so this literal is
# the exact rational table rounded once (tests derive it in rationals)
_W = np.array([[0, 0, 0, 0, 0, 0],
               [475, 1427, -798, 482, -173, 27],
               [448, 2064, 224, 224, -96, 16],
               [459, 1971, 1026, 1026, -189, 27],
               [448, 2048, 768, 2048, 448, 0],
               [475, 1875, 1250, 1250, 1875, 475]]) / 1440
# its rows j = 1..5 as the (6, 5) right factor of the block product, copied
# to C order: numpy's matrix product is faster with it than with the
# transposed view, and gives the same bits from two blocks on
_WT = np.ascontiguousarray(_W[1:].T)


@dataclass(frozen=True)
class UniformMesh:
    """Equispaced nodes on [0, x_end].

    The node count must leave a number of intervals divisible by 5 so that
    the six-point quadrature rule tiles the mesh exactly.
    """

    x_end: float
    n_points: int

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 < self.x_end < np.inf:
            raise ConfigurationError(
                f"mesh end must be finite and positive, got x_end={self.x_end}")
        require_count("n_points", self.n_points, _BLOCK + 1)
        if (self.n_points - 1) % _BLOCK != 0:
            raise ConfigurationError(
                f"n_points must be >= 6 with (n_points - 1) divisible by 5, "
                f"got {self.n_points}"
            )

    @property
    def h(self) -> float:
        return self.x_end / (self.n_points - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.x_end, self.n_points)


def tabulate(datum, points: np.ndarray, what: str) -> np.ndarray:
    """Float values of the problem datum ``what`` at ``points``.  The datum
    is a callable applied once to the whole point array (a scalar result is
    the constant).  Any other datum, a result of any other shape, complex
    values, or a NaN or infinite value are a ConfigurationError naming the
    datum."""
    if not callable(datum):
        raise ConfigurationError(
            f"{what} must be a callable, got {type(datum).__name__}")
    values = np.asarray(datum(points))
    if values.ndim and values.shape != points.shape:
        raise ConfigurationError(
            f"{what} has values of shape {values.shape}, expected "
            f"{points.shape}: one per point, or a scalar")
    if np.iscomplexobj(values):   # a cast to float would drop Im with a warning
        raise ConfigurationError(f"{what} must be real, got complex values")
    values = np.full(points.shape, values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{what} must be finite, got NaN or inf")
    return values


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Float64 values tabulated at the nodes of a uniform mesh."""

    mesh: UniformMesh
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals):
            raise ConfigurationError("sampled values must be real, got complex")
        vals = vals.astype(float, copy=False)
        if vals.shape != (self.mesh.n_points,):
            raise ConfigurationError(
                f"values shape {vals.shape} does not match mesh with "
                f"{self.mesh.n_points} points"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, mesh: UniformMesh, datum,
                      what: str = "function") -> "SampledFunction":
        """Tabulate the datum ``what`` on the nodes with :func:`tabulate`."""
        return cls(mesh, tabulate(datum, mesh.nodes, what))


class Interpolant:
    """Piecewise cubic Hermite interpolant over a uniform mesh; supports
    values and first derivatives at arbitrary points of the mesh interval.

    ``values`` has the mesh along its first axis and any shape after it,
    which evaluation results carry as their trailing shape.  ``slopes``, of
    the same shape, are the derivatives at the nodes.  There is no build
    step: a point's cell is found by division, and the four nodal data of
    that cell give its cubic.
    """

    # slack for floating-point noise at the interval ends
    _EDGE_TOL = 1e-12

    def __init__(self, mesh: UniformMesh, values: np.ndarray, slopes: np.ndarray):
        self.mesh = mesh
        self.values = np.asarray(values)
        self.slopes = np.asarray(slopes)
        if self.values.shape[:1] != (mesh.n_points,):
            raise ConfigurationError(
                f"values shape {self.values.shape} does not have the mesh's "
                f"{mesh.n_points} nodes along its first axis")
        if self.slopes.shape != self.values.shape:
            raise ConfigurationError(
                f"slopes shape {self.slopes.shape} does not match values "
                f"shape {self.values.shape}")

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        hi = self.mesh.x_end
        tol = self._EDGE_TOL * (1.0 + hi)
        # written so that NaN fails too: it has no cell to look up
        if not np.all((x >= -tol) & (x <= hi + tol)):
            raise DomainError(f"evaluation point outside [0.0, {hi}]")
        return np.clip(x, 0.0, hi)

    def _cubic(self, x):
        """Local coordinate s in [0, 1] of each point in its cell, shaped to
        broadcast against the trailing value shape, and the coefficients
        (c0, c1, c2, c3) of the cell's cubic c0 + c1 s + c2 s^2 + c3 s^3."""
        u = self._check(x) / self.mesh.h
        i = np.minimum(np.floor(u).astype(int), self.mesh.n_points - 2)
        s = u - i
        y0, y1 = self.values[i], self.values[i + 1]
        d0, d1 = self.mesh.h * self.slopes[i], self.mesh.h * self.slopes[i + 1]
        return (s.reshape(s.shape + (1,) * (self.values.ndim - 1)),
                (y0, d0, 3 * (y1 - y0) - 2 * d0 - d1, 2 * (y0 - y1) + d0 + d1))

    def __call__(self, x):
        s, (c0, c1, c2, c3) = self._cubic(x)
        return c0 + s * (c1 + s * (c2 + s * c3))

    def derivative(self, x):
        s, (_, c1, c2, c3) = self._cubic(x)
        return (c1 + s * (2 * c2 + 3 * s * c3)) / self.mesh.h


def cumulative_integral(values: np.ndarray, h: float) -> np.ndarray:
    """Antiderivatives of functions tabulated on a uniform mesh of spacing
    ``h``, vanishing at the left end.  The mesh runs along the last axis of
    ``values``, and each row along the leading axes is integrated alone,
    bit for bit as it would be on its own.

    Within each block of five intervals the degree-5 interpolant of the six
    node values is integrated exactly, so node values of the result are exact
    (to rounding) wherever a row samples a polynomial of degree <= 5.  One
    matrix product writes every block's five partial integrals straight into
    the result, and the running sum of the whole blocks before each block is
    then added as one vector.

    Complex values, and a last axis that five-interval blocks do not tile
    (length n with n - 1 not divisible by 5), are a ConfigurationError;
    only the dtype and shape are checked, not the data.
    """
    if np.iscomplexobj(values):   # the float result would drop Im with a warning
        raise ConfigurationError("cumulative_integral needs real values, got complex")
    if values.ndim == 0 or (values.shape[-1] - 1) % _BLOCK:
        raise ConfigurationError(
            f"cumulative_integral needs a last axis of 5k + 1 nodes, got shape "
            f"{values.shape}")
    lead, n_blocks = values.shape[:-1], (values.shape[-1] - 1) // _BLOCK
    # block k covers nodes 5k .. 5k+5: the first five are a reshape of the
    # values, the sixth every fifth value from node 5
    blocks = np.empty(lead + (n_blocks, _BLOCK + 1))
    blocks[..., :_BLOCK] = values[..., :-1].reshape(lead + (n_blocks, _BLOCK))
    blocks[..., _BLOCK] = values[..., _BLOCK::_BLOCK]
    blocks *= h
    out = np.empty(values.shape)
    out[..., 0] = 0.0
    # a view: nodes 5k+1 .. 5k+5
    body = out[..., 1:].reshape(lead + (n_blocks, _BLOCK))
    # a single block is a vector-matrix product, whose BLAS kernel sums in
    # a different order for each layout of the factor: keep the view there
    factor = _WT if n_blocks > 1 else _W[1:].T
    np.matmul(blocks, factor, out=body)     # integral from 5k to 5k + j
    # nodes from 6 on lie in blocks 1.., each after the blocks before it
    out[..., _BLOCK + 1:] += np.repeat(body[..., :-1, -1].cumsum(axis=-1),
                                       _BLOCK, axis=-1)
    return out
