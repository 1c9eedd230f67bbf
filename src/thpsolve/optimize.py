"""Outer search for the boundary coefficients by variable projection.

For a fixed boundary the basis coefficients enter the collocation residual
linearly, so the inner least-squares fit eliminates them and leaves a
residual vector in the boundary coefficients alone (Golub & Pereyra 1973;
Kaufman 1975).  That projected residual, extended by the weighted per-time
violations of the admissibility constraint, is minimized by Gauss-Newton
steps on Kaufman's analytic variable-projection Jacobian, built from the
factorization the fit has already made, with Levenberg-Marquardt damping
(More 1978) added only after a step that fails to lower the objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assemble import FitResult, InnerSolver
from .boundary import BoundaryModel
from .errors import (ConfigurationError, OptimizationError, SolverError,
                     require_count)

__all__ = ["OptimizerSettings", "minimize_boundary"]

# weight of the squared admissibility violation against the value function F
PENALTY_WEIGHT = 1e6

# convergence: a step short relative to b, or an accepted step that lowers
# the objective by a small share (scipy's least_squares defaults for xtol
# and ftol)
XTOL = FTOL = 1e-8
# damping after a rejected undamped step, relative to each squared column
# norm of the Jacobian; every further rejection multiplies it by 10
INITIAL_DAMPING = 1e-3


@dataclass(frozen=True, eq=False)
class OptimizerSettings:
    """Knobs of the boundary search."""

    K: int = 6
    initial_b: Optional[np.ndarray] = None     # default (0.1, 0, ..., 0)
    # Gauss-Newton iterations, each one trial point (the start is the first),
    # i.e. one inner fit; the Jacobian reuses the fit's factorization
    max_iterations: int = 400

    def __post_init__(self):
        require_count("K", self.K, 1)
        require_count("max_iterations", self.max_iterations, 1)
        b0 = self.initial_b
        if b0 is None:
            b0 = np.zeros(self.K)
            b0[0] = 0.1
        b0 = np.asarray(b0, dtype=float)
        if len(b0) != self.K:
            raise ConfigurationError(f"initial_b must have length K={self.K}")
        if not np.all(np.isfinite(b0)):
            raise ConfigurationError(f"initial_b must be finite, got {b0.tolist()}")
        object.__setattr__(self, "initial_b", b0)


def _residual(fit: FitResult) -> np.ndarray:
    """Search residual of a clamped fit: the projected collocation residual,
    then the weighted per-time violations of the admissibility constraint."""
    return np.concatenate([fit.residual,
                           np.sqrt(PENALTY_WEIGHT) * fit.violation])


def _residual_jacobian(solver: InnerSolver, fit: FitResult) -> np.ndarray:
    """Jacobian of ``_residual`` in the boundary coefficients: the inner
    solver's variable-projection rows, then d/db_j of the penalty rows,
    sqrt(PENALTY_WEIGHT) t^j at the times whose violation is nonzero (the
    times where the Jacobian's s does not move)."""
    live = fit.violation != 0
    return np.vstack([solver.jacobian(fit), np.sqrt(PENALTY_WEIGHT)
                      * live[:, None] * fit.boundary.shape(fit.t)])


def _step(jac: np.ndarray, r: np.ndarray, damping: float) -> np.ndarray:
    """Levenberg-Marquardt step: least-squares solution of J p = -r, with
    the rows sqrt(damping) D p = 0 added, D the column norms of J (the
    Gauss-Newton step when damping is 0).  Solved in the columns scaled
    by D, so that the damping is relative to each column's norm."""
    norms = np.linalg.norm(jac, axis=0)
    norms[norms == 0] = 1.0
    k = jac.shape[1]
    lhs = np.vstack([jac / norms, np.sqrt(damping) * np.eye(k)])
    rhs = np.concatenate([-r, np.zeros(k)])
    return np.linalg.lstsq(lhs, rhs, rcond=None)[0] / norms


def minimize_boundary(solver: InnerSolver,
                      settings: OptimizerSettings = OptimizerSettings(),
                      trace: Optional[Callable[[int, float, np.ndarray], None]] = None,
                      ) -> FitResult:
    """Minimize the reduced value function of ``solver`` over boundary
    coefficients.

    Returns the converged fit; deterministic for fixed settings.  Each
    iteration evaluates the objective at one trial point (the start is the
    first), one inner fit; after a point that lowers it, the next step
    takes the Jacobian from that fit.  Raises ``OptimizationError`` when
    ``max_iterations`` trial points do not reach convergence, and
    ``ConfigurationError`` when fewer collocation rows than the N + 1 + K
    unknowns leave the boundary undetermined.  The
    ``trace`` callback, when given, receives (evaluation count, penalized
    objective, coefficients) for every objective evaluation.
    """
    rows = solver.blocks["flux"].stop        # the flux block is stacked last
    degree = solver.table.degree
    unknowns = degree + 1 + settings.K
    if rows < unknowns:
        raise ConfigurationError(
            f"{rows} collocation rows cannot determine the N + 1 + K = "
            f"{unknowns} unknowns (N = {degree}, K = {settings.K}); "
            f"raise n_x or n_t, or lower n or k")
    count = 0

    def evaluate(b):
        nonlocal count
        count += 1
        try:
            fit = solver.fit(BoundaryModel(solver.spec.l, b), clamp=True)
        except (SolverError, np.linalg.LinAlgError) as exc:
            raise OptimizationError(
                f"inner fit failed ({type(exc).__name__}: {exc})") from exc
        # a residual past the float range is not finite: a rejected step,
        # or a start the search refuses below
        with np.errstate(over="ignore"):
            r = _residual(fit)
            value = r @ r
        if trace is not None:
            trace(count, float(value), np.asarray(b, float))
        return fit, r, value

    b = settings.initial_b.copy()
    fit, r, value = evaluate(b)
    if not np.isfinite(value):
        raise OptimizationError(
            f"search residual is not finite at the initial point b = {b.tolist()}")
    jac, damping = None, 0.0
    for _ in range(settings.max_iterations - 1):
        if jac is None:
            jac = _residual_jacobian(solver, fit)
        step = _step(jac, r, damping)
        trial = b + step
        fit_trial, r_trial, trial_value = evaluate(trial)
        done = np.linalg.norm(step) <= XTOL * (XTOL + np.linalg.norm(b))
        if trial_value < value:
            done |= value - trial_value <= FTOL * value
            b, fit, r, value = trial, fit_trial, r_trial, trial_value
            jac, damping = None, 0.0
        else:
            damping = max(10.0 * damping, INITIAL_DAMPING)
        if done:
            break
    else:
        raise OptimizationError(
            f"boundary search did not converge within max_iterations = "
            f"{settings.max_iterations} (objective {value:.6e})")
    # an admissible boundary lies inside the band, where the clamp of the
    # last accepted fit changed nothing: that fit is the answer
    if fit.violation.any():
        raise OptimizationError("optimizer returned an inadmissible boundary")
    return fit
