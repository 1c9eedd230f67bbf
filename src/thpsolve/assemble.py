"""Collocation of the boundary conditions into a linear least-squares
problem for the basis coefficients.

For a fixed boundary candidate the four condition blocks (initial data,
data at x = 0, Dirichlet data on the moving boundary, flux balance on the
moving boundary) stack into an overdetermined system B a ~ g, solved in the
least-squares sense with each column of B scaled to unit length (minimum
norm in the scaled coefficients).  The fit quality is summarized by the
value function F = I1^2 + I2^2 + I3^2 + I4^2.  The same factorization
gives the derivative of the residual in the boundary coefficients
(``InnerSolver.jacobian``), which the outer search steps on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .boundary import CONSTRAINT_MARGIN, BoundaryModel
from .errors import ConfigurationError, require_count
from .expr import Expression
from .formal_powers import FormalPowerTable
from .numerics import tabulate
from .thp import basis

__all__ = [
    "ProblemSpec",
    "FitResult",
    "solve_linear",
    "InnerSolver",
]

RANK_TOL = 1e-14

DataFunc = Union[Expression, Callable[[np.ndarray], Union[np.ndarray, float]]]


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Full description of one free boundary problem instance.

    Each datum is a callable of the whole point array, None only where it
    marks an absent condition or the melt-rate flux, and becomes values at
    the points where it is used (the
    quadrature mesh and the boundary points s(t) for ``q``, the collocation
    points for the rest) through :func:`thpsolve.numerics.tabulate`, so no
    datum depends on a grid.  ``q`` must be a callable: node values alone
    cannot be read at s(t).

    ``g1``/``g2`` may be None when the corresponding condition is absent.
    The weights of the initial condition gamma11 u + gamma12 u_x = g1
    default to the trace u(x, 0), those of the lateral condition
    gamma21 u + gamma22 u_x = g2 to the derivative u_x(0, t).
    ``g3`` (Dirichlet data on the moving boundary) is mandatory, as is the
    flux condition; when ``flux_data`` is None the flux right-hand side is
    the melt-rate form -s'(t), otherwise the given data are used (linear
    generalization of the flux condition; also drives manufactured tests).
    """

    q: DataFunc
    L: float
    l: float
    T: float
    gamma11: DataFunc = np.ones_like
    gamma12: DataFunc = np.zeros_like
    gamma21: DataFunc = np.zeros_like
    gamma22: DataFunc = np.ones_like
    g1: Optional[DataFunc] = None
    g2: Optional[DataFunc] = None
    g3: Optional[DataFunc] = None
    flux_data: Optional[DataFunc] = None

    def __post_init__(self):
        if not callable(self.q):
            raise ConfigurationError(
                f"q must be a callable of x, got {type(self.q).__name__}: it "
                f"is read at the mesh nodes and at the boundary points s(t)")
        for name in ("L", "l", "T"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {name}={getattr(self, name)}")
        # s(0) = l must lie in the band that every boundary is held to
        if not (CONSTRAINT_MARGIN <= self.l <= self.L):
            raise ConfigurationError(f"need {CONSTRAINT_MARGIN:g} <= l <= L, "
                                     f"got l={self.l}, L={self.L}")
        if self.T <= 0:
            raise ConfigurationError(f"need T > 0, got T={self.T}")
        if self.g3 is None:
            raise ConfigurationError(
                "Dirichlet data g3 on the free boundary is required"
            )


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of one inner least-squares fit."""

    a: np.ndarray
    boundary: BoundaryModel
    F: float                 # residual @ residual = I1^2 + I2^2 + I3^2 + I4^2
    residual_norms: tuple    # (I1, I2, I3, I4); zero for absent blocks
    residual_maxima: tuple   # per-block max abs residual
    residual: np.ndarray = field(repr=False)   # stacked B a - g
    matrix: np.ndarray = field(repr=False)     # B
    blocks: dict = field(repr=False)           # condition -> its rows of B
    t: np.ndarray = field(repr=False)          # the collocation times
    s: np.ndarray = field(repr=False)          # s at the times, clipped
    violation: np.ndarray = field(repr=False)  # s - clipped s
    # orthonormal basis of the column space that a solved fit projects g
    # onto, so that residual = -(I - U U^T) g; None when a was given
    range_basis: Optional[np.ndarray] = field(default=None, repr=False)

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
    """Lays out the collocation rows once and solves the inner linear
    least-squares problem for each boundary candidate.  It owns the
    collocation grid: n_x + 1 equidistant points on [0, l] for the initial
    condition, n_t + 1 equidistant times on [0, T] for the other three."""

    def __init__(self, spec: ProblemSpec, table: FormalPowerTable,
                 n_x: int = 100, n_t: int = 100):
        require_count("n_x", n_x, 1)
        require_count("n_t", n_t, 1)
        if spec.l > table.mesh.x_end:
            raise ConfigurationError("initial boundary l lies outside the mesh")
        self.spec = spec
        self.table = table
        self.x = x = np.linspace(0.0, spec.l, n_x + 1)
        self.t = t = np.linspace(0.0, spec.T, n_t + 1)

        # the row blocks in stacking order; an absent condition has no rows
        self.blocks, row = {}, 0
        for name, size in (("initial", len(x) if spec.g1 is not None else 0),
                           ("lateral", len(t) if spec.g2 is not None else 0),
                           ("dirichlet", len(t)), ("flux", len(t))):
            self.blocks[name] = slice(row, row + size)
            row += size
        # B and g with the rows no boundary moves: initial condition at
        # (x, 0), lateral at (0, t), and the data g1, g2, g3 and the flux data
        self._matrix = np.zeros((row, table.degree + 1))
        self._rhs = np.zeros(row)
        if spec.g1 is not None:
            self._matrix[self.blocks["initial"]] = _trace(
                table, x, 0.0,
                tabulate(spec.gamma11, x, "gamma11"),
                tabulate(spec.gamma12, x, "gamma12"))
            self._rhs[self.blocks["initial"]] = tabulate(spec.g1, x, "g1")
        if spec.g2 is not None:
            self._matrix[self.blocks["lateral"]] = _trace(
                table, 0.0, t,
                tabulate(spec.gamma21, t, "gamma21"),
                tabulate(spec.gamma22, t, "gamma22"))
            self._rhs[self.blocks["lateral"]] = tabulate(spec.g2, t, "g2")
        self._rhs[self.blocks["dirichlet"]] = tabulate(spec.g3, t, "g3")
        if spec.flux_data is not None:
            self._rhs[self.blocks["flux"]] = tabulate(
                spec.flux_data, t, "flux data")

    def system_for(self, model: BoundaryModel, clamp: bool = False) -> tuple:
        """Collocation system (matrix, rhs, s, violation) of ``model``:
        copies of the fixed rows with the Dirichlet and flux rows at
        x = s(t) and, without flux data, the melt-rate rhs -s'(t) written
        in; s at the times clipped into its admissible band (``clamp``) or
        required to lie inside it, and the violation s - clipped."""
        s, violation = model.clamp(self.t, self.spec.L)
        if not clamp:
            self._require_band(s, violation)
        h = basis(self.table, s, self.t)
        matrix, rhs = self._matrix.copy(), self._rhs.copy()
        matrix[self.blocks["dirichlet"]] = h[:, 0]
        matrix[self.blocks["flux"]] = h[:, 1]
        if self.spec.flux_data is None:
            rhs[self.blocks["flux"]] = -model.s_dot_eval(self.t)
        return matrix, rhs, s, violation

    def _require_band(self, s: np.ndarray, violation: np.ndarray):
        """Refuse s at the collocation times, clipped to ``s`` with the
        ``violation`` s - clipped, unless it lies in the band."""
        if violation.any():
            i = np.argmax(np.abs(violation))
            raise ConfigurationError(
                f"need {CONSTRAINT_MARGIN:g} <= s(t) <= L at the collocation "
                f"times, got s({self.t[i]:g})={s[i] + violation[i]:g}, "
                f"L={self.spec.L}")

    def fit(self, model: BoundaryModel, a=None, clamp: bool = False) -> FitResult:
        matrix, rhs, s, violation = self.system_for(model, clamp=clamp)
        range_basis = None
        if a is None:
            a, range_basis = solve_linear(matrix, rhs)
        a = np.asarray(a)
        residual = matrix @ a - rhs
        blocks = [residual[rows] for rows in self.blocks.values()]
        with np.errstate(over="ignore"):    # past the float range is inf
            F = float(residual @ residual)
            norms = tuple(float(np.linalg.norm(r)) for r in blocks)
        maxima = tuple(float(np.abs(r).max(initial=0.0)) for r in blocks)
        return FitResult(a=a, boundary=model, F=F,
                         residual_norms=norms, residual_maxima=maxima,
                         residual=residual, matrix=matrix, blocks=self.blocks,
                         t=self.t, s=s, violation=violation,
                         range_basis=range_basis)

    def jacobian(self, fit: FitResult) -> np.ndarray:
        """Kaufman's (1975) variable-projection Jacobian of the residual of
        a solved fit in the boundary coefficients b_1..b_K, one column each:
        (I - U U^T)(dB/db_j a - dg/db_j), with U the fit's ``range_basis``.
        It leaves out a term of the exact derivative that lies in the
        column space of B, orthogonal to the residual, so its transpose
        times the residual is the exact gradient of |residual|^2 / 2.  A
        fit with s clipped into the band (a nonzero ``violation``) is a
        ConfigurationError: its residual is not that of its boundary.

        The moving rows need only the Dirichlet and flux blocks already built:
        d/ds H_n(s, t) is the flux block, and
        d^2/ds^2 H_n = (q(s) + c) H_n + n (n-1) H_(n-2), with c the table's
        shift, from phi_m'' = (q + c) phi_m + m (m-1) phi_(m-2) and
        c_k^n (n-2k) (n-2k-1) = n (n-1) c_k^(n-2); the factor e^(c t) of
        every H_n passes through unchanged.
        """
        self._require_band(fit.s, fit.violation)
        a, t, model, rows = fit.a, fit.t, fit.boundary, self.blocks
        h = fit.matrix[rows["dirichlet"]]
        h_x = fit.matrix[rows["flux"]]
        n = np.arange(len(a))
        q = tabulate(self.spec.q, fit.s, "q") + self.table.f.shift
        h_xx_a = q * (h @ a) + h[:, :-2] @ (n * (n - 1) * a)[2:]
        powers = model.shape(t).T                         # (K, times)
        # rows of dr/db^T; g depends on b only through -s' in the flux rows
        d = np.zeros((model.K, len(fit.residual)))
        d[:, rows["dirichlet"]] = powers * (h_x @ a)
        d[:, rows["flux"]] = powers * h_xx_a
        if self.spec.flux_data is None:
            d[:, rows["flux"]] += model.shape_dot(t).T
        u = fit.range_basis
        d -= (d @ u) @ u.T
        return d.T


def solve_linear(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solution via SVD of the column-equilibrated matrix:
    each column is scaled to unit 2-norm (a zero column keeps scale 1), and
    singular values below RANK_TOL * sigma_max are treated as zero.  The
    unscaled column norms span many decades (phi_n grows like x^n, H_n like
    t^(n/2)); from N = 18 their condition number passed 1e12, and a cut on
    them would drop directions the fit needs.

    It is the package's one least-squares solver: the inner fit
    (``InnerSolver.fit``), the damped step of the boundary search
    (``optimize._step``) and the projection of an initial boundary guess
    (``cli._fit_initial_boundary``) all call it.

    Returns the solution a and the left singular vectors kept, an
    orthonormal basis U of the column space the fit projects onto."""
    scale = np.linalg.norm(matrix, axis=0)
    scale[scale == 0.0] = 1.0
    u, sigma, vh = np.linalg.svd(matrix / scale, full_matrices=False)
    keep = sigma > RANK_TOL * sigma[0]
    u, sigma, vh = u[:, keep], sigma[keep], vh[keep]
    # a solution past the float range is not finite, and so is the fit's
    # residual, which the search refuses
    with np.errstate(over="ignore", invalid="ignore"):
        a = vh.T @ ((u.T @ rhs) / sigma)
        return a / scale, u
