"""Collocation of the boundary conditions into a linear least-squares
problem for the basis coefficients.

For a fixed boundary candidate the four condition blocks (initial data,
data at x = 0, Dirichlet data on the moving boundary, flux balance on the
moving boundary) stack into an overdetermined system B a ~ g, solved in the
least-squares sense with each column of B scaled to unit length (minimum
norm in the scaled coefficients).  The fit quality is summarized by the
value function F = I1^2 + I2^2 + I3^2 + I4^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .boundary import BoundaryModel
from .errors import ConfigurationError, DegenerateSystemError
from .expr import Expression
from .formal_powers import FormalPowerTable
from .thp import basis

__all__ = [
    "ProblemSpec",
    "CollocationGrid",
    "LinearSystem",
    "FitResult",
    "solve_linear",
    "InnerSolver",
]

RANK_TOL = 1e-12

DataFunc = Union[Expression, Callable[[np.ndarray], Union[np.ndarray, complex]]]
BoundaryData = Union[DataFunc, np.ndarray]


def _tabulate(fn: Optional[BoundaryData], points: np.ndarray, what: str,
              default: Optional[complex] = None) -> np.ndarray:
    """Evaluate a function-like problem datum on a point set in one call;
    arrays are accepted only when their length matches the point set
    exactly.  A missing datum is the constant ``default``, or an error
    without one."""
    if fn is None:
        if default is None:
            raise ConfigurationError(f"{what} is required but missing")
        return np.full(points.shape, default, dtype=complex)
    if isinstance(fn, np.ndarray):
        if fn.shape != points.shape:
            raise ConfigurationError(
                f"tabulated {what} has {fn.shape[0] if fn.ndim else 0} values, "
                f"expected {points.shape[0]} (one per collocation point)"
            )
        return fn.astype(complex)
    return np.full(points.shape, fn(points), dtype=complex)


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one free boundary problem instance.

    Each function-like datum is either an array of its values at the
    points where it is used (the quadrature mesh for ``q``, the collocation
    points for the rest) or a callable.  A callable is applied once to the
    whole point array and returns an array of that shape or a scalar, which
    stands for the constant.

    ``g1``/``g2`` may be None when the corresponding condition is absent.
    ``g3`` (Dirichlet data on the moving boundary) is mandatory, as is the
    flux condition; when ``flux_data`` is None the flux right-hand side is
    the melt-rate form -s'(t), otherwise the given data are used (linear
    generalization of the flux condition; also drives manufactured tests).
    """

    q: BoundaryData
    L: float
    l: float
    T: float
    gamma11: Optional[DataFunc] = None   # defaults: identity trace operator
    gamma12: Optional[DataFunc] = None
    gamma21: Optional[DataFunc] = None   # defaults: pure derivative at x=0
    gamma22: Optional[DataFunc] = None
    g1: Optional[BoundaryData] = None
    g2: Optional[BoundaryData] = None
    g3: Optional[BoundaryData] = None
    flux_data: Optional[BoundaryData] = None

    def __post_init__(self):
        if not (0 < self.l <= self.L):
            raise ConfigurationError(f"need 0 < l <= L, got l={self.l}, L={self.L}")
        if self.T <= 0:
            raise ConfigurationError(f"need T > 0, got T={self.T}")
        if self.g3 is None:
            raise ConfigurationError(
                "Dirichlet data g3 on the free boundary is required"
            )

    @property
    def has_initial(self) -> bool:
        return self.g1 is not None

    @property
    def has_lateral(self) -> bool:
        return self.g2 is not None


@dataclass(frozen=True)
class CollocationGrid:
    """Sample points: x on [0, l] for the initial condition, t on [0, T]
    for the three time-dependent conditions."""

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        t = np.asarray(self.t, dtype=float)
        for arr, name in ((x, "x"), (t, "t")):
            if arr.ndim != 1 or len(arr) < 2 or np.any(np.diff(arr) <= 0):
                raise ConfigurationError(f"{name} grid must be strictly increasing")
        if x[0] != 0.0:
            raise ConfigurationError("x grid must start at 0")
        if t[0] != 0.0:
            raise ConfigurationError("t grid must start at 0")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)

    @classmethod
    def equidistant(cls, l: float, T: float, n_x: int = 100, n_t: int = 100):
        return cls(np.linspace(0.0, l, n_x + 1), np.linspace(0.0, T, n_t + 1))


@dataclass(frozen=True)
class LinearSystem:
    """Stacked collocation matrix and right-hand side, with named slices
    for the four condition blocks (absent blocks map to empty slices)."""

    matrix: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    blocks: dict = field(repr=False)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one inner least-squares fit."""

    a: np.ndarray
    boundary: BoundaryModel
    F: float
    residual_norms: tuple    # (I1, I2, I3, I4); zero for absent blocks
    residual_maxima: tuple   # per-block max abs residual
    residual: np.ndarray = field(repr=False)   # stacked B a - g

    @property
    def b(self) -> np.ndarray:
        return self.boundary.coefficients


def _trace(table: FormalPowerTable, x, t, value_w: np.ndarray,
           deriv_w: np.ndarray) -> np.ndarray:
    """Collocation block of a weighted trace value_w * H_n + deriv_w * d/dx H_n
    at the points (x, t), one row per point and one column per H_n."""
    h = basis(table, x, t)
    return value_w[:, None] * h[:, 0] + deriv_w[:, None] * h[:, 1]


class InnerSolver:
    """Caches the boundary-independent blocks and solves the inner linear
    least-squares problem for each boundary candidate."""

    def __init__(self, spec: ProblemSpec, grid: CollocationGrid,
                 table: FormalPowerTable):
        if spec.l > table.mesh.x_end:
            raise ConfigurationError("initial boundary l lies outside the mesh")
        if abs(grid.x[-1] - spec.l) > 1e-12 * max(1.0, spec.l):
            raise ConfigurationError("x grid must end at the initial boundary l")
        if abs(grid.t[-1] - spec.T) > 1e-12 * max(1.0, spec.T):
            raise ConfigurationError("t grid must end at the final time T")
        self.spec = spec
        self.grid = grid
        self.table = table

        # initial condition at (x, 0), lateral condition at (0, t); the
        # defaults are the trace u(x, 0) and the derivative u_x(0, t)
        self._b_block = self._g1 = None
        if spec.has_initial:
            self._b_block = _trace(
                table, grid.x, 0.0,
                _tabulate(spec.gamma11, grid.x, "gamma11", 1.0),
                _tabulate(spec.gamma12, grid.x, "gamma12", 0.0))
            self._g1 = _tabulate(spec.g1, grid.x, "g1")
        self._c_block = self._g2 = None
        if spec.has_lateral:
            self._c_block = _trace(
                table, 0.0, grid.t,
                _tabulate(spec.gamma21, grid.t, "gamma21", 0.0),
                _tabulate(spec.gamma22, grid.t, "gamma22", 1.0))
            self._g2 = _tabulate(spec.g2, grid.t, "g2")
        self._g3 = _tabulate(spec.g3, grid.t, "g3")
        self._g4 = (None if spec.flux_data is None
                    else _tabulate(spec.flux_data, grid.t, "flux data"))

    def system_for(self, model: BoundaryModel, clamp: bool = False) -> LinearSystem:
        s_vals = np.atleast_1d(model.s_eval(self.grid.t))
        if clamp:
            s_vals = np.clip(s_vals, 1e-8, self.spec.L)
        elif model.constraint_violation(self.grid.t, self.spec.L) > 0:
            raise ConfigurationError(
                "boundary candidate violates 0 < s(t) <= L on the grid"
            )
        h = basis(self.table, s_vals, self.grid.t)
        flux_rhs = (-model.s_dot_eval(self.grid.t) if self._g4 is None
                    else self._g4)
        mats, rhss, blocks = [], [], {}
        row = 0

        def push(name, mat, rhs):
            nonlocal row
            if mat is None:
                blocks[name] = slice(row, row)
                return
            mats.append(mat)
            rhss.append(np.asarray(rhs, dtype=complex))
            blocks[name] = slice(row, row + mat.shape[0])
            row += mat.shape[0]

        push("initial", self._b_block, self._g1)
        push("lateral", self._c_block, self._g2)
        push("dirichlet", h[:, 0], self._g3)
        push("flux", h[:, 1], flux_rhs)
        return LinearSystem(np.vstack(mats), np.concatenate(rhss), blocks)

    def fit(self, model: BoundaryModel, a=None, clamp: bool = False) -> FitResult:
        system = self.system_for(model, clamp=clamp)
        if a is None:
            a = solve_linear(system)
        a = np.asarray(a, dtype=complex)
        residual = system.matrix @ a - system.rhs
        norms, maxima = [], []
        for name in ("initial", "lateral", "dirichlet", "flux"):
            block = residual[system.blocks[name]]
            norms.append(float(np.linalg.norm(block)) if block.size else 0.0)
            maxima.append(float(np.max(np.abs(block))) if block.size else 0.0)
        value = float(sum(v * v for v in norms))
        return FitResult(a=a, boundary=model, F=value,
                         residual_norms=tuple(norms),
                         residual_maxima=tuple(maxima), residual=residual)


def solve_linear(system: LinearSystem) -> np.ndarray:
    """Least-squares solution via SVD of the column-equilibrated matrix:
    each column is scaled to unit 2-norm (a zero column keeps scale 1), and
    singular values below RANK_TOL * sigma_max are treated as zero.  The
    unscaled column norms span many decades (phi_n grows like x^n, H_n like
    t^(n/2)); from N = 18 their condition number passes 1/RANK_TOL and the
    cut would drop directions the fit needs."""
    if not np.any(system.matrix):
        raise DegenerateSystemError("collocation matrix is identically zero")
    scale = np.linalg.norm(system.matrix, axis=0)
    scale[scale == 0.0] = 1.0
    a, *_ = np.linalg.lstsq(system.matrix / scale, system.rhs, rcond=RANK_TOL)
    return a / scale

