"""Outer search for the boundary coefficients by variable projection.

For a fixed boundary the basis coefficients enter the collocation residual
linearly, so the inner least-squares fit eliminates them and leaves a
residual vector in the boundary coefficients alone (Golub & Pereyra 1973;
Kaufman 1975).  That projected residual is minimized by Gauss-Newton steps
on Kaufman's analytic variable-projection Jacobian, built from the
factorization the fit has already made, with Levenberg-Marquardt damping
(More 1978) added only after a step that fails to lower the objective.  A
trial point whose s(t) leaves the admissible band at a collocation time
has the objective inf, so it is such a step; a start outside the band
restarts once from the constant boundary s = l.

The steps run in Chebyshev coordinates c on [0, T], b = M c: the monomial
columns t^j and t^(j+1) of the Jacobian are nearly parallel, the Chebyshev
ones are not (Trefethen 2013).  The boundary itself stays monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assemble import FitResult, InnerSolver, solve_linear
from .boundary import BoundaryModel
from .errors import (ConfigurationError, DomainError, OptimizationError,
                     SolverError, require_count)

__all__ = ["OptimizerSettings", "minimize_boundary"]

# convergence: a step short relative to the Chebyshev coordinates c, or an
# accepted step that lowers the objective by a small share (scipy's
# least_squares defaults for xtol and ftol)
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


def _step(jac: np.ndarray, r: np.ndarray, damping: float) -> np.ndarray:
    """Levenberg-Marquardt step: least-squares solution of J p = -r, with
    the rows sqrt(damping) D p = 0 added, D the column norms of J (the
    Gauss-Newton step when damping is 0), so that the damping is relative
    to each column's norm."""
    norms = np.linalg.norm(jac, axis=0)
    lhs = np.vstack([jac, np.sqrt(damping) * np.diag(norms)])
    return solve_linear(lhs, np.concatenate([-r, np.zeros(len(norms))]))[0]


def _chebyshev_map(K: int, T: float) -> np.ndarray:
    """K x K matrix M whose column k - 1 holds the coefficients of
    t^1..t^K in T_k(2t/T - 1) - (-1)^k, k = 1..K, so that b = M c takes
    Chebyshev coordinates c to monomial boundary coefficients b.  Built by
    T_(k+1) = 2 tau T_k - T_(k-1), tau = 2t/T - 1, on coefficient arrays in
    t; the constant term T_k(-1) = (-1)^k cancels.  DomainError where the
    coefficients, up to 2^(2K-1) / T^K, leave the float range."""
    powers = np.zeros((K + 1, K + 1))     # row k: T_k(tau) in t^0..t^K
    powers[0, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            # roll multiplies by t: the t^K entry of T_k, k < K, is 0
            tau_t_k = 2.0 / T * np.roll(powers[k], 1) - powers[k]
            powers[k + 1] = tau_t_k if k == 0 else 2.0 * tau_t_k - powers[k - 1]
    if not np.isfinite(powers).all():
        raise DomainError(f"Chebyshev search coordinates exceed the float "
                          f"range (T = {T:g}, K = {K})")
    return powers[1:, 1:].T


def minimize_boundary(solver: InnerSolver,
                      settings: OptimizerSettings = OptimizerSettings(),
                      trace: Optional[Callable[[int, float, np.ndarray], None]] = None,
                      ) -> FitResult:
    """Minimize the reduced value function of ``solver`` over boundary
    coefficients.

    Returns the converged fit; deterministic for fixed settings.  Each
    iteration evaluates the objective at one trial point (the start is the
    first), one inner fit; after a point that lowers it, the next step
    takes the Jacobian from that fit.  A trial point whose s leaves the
    admissible band at a collocation time has the objective inf: a
    rejected step.  A start outside the band restarts once from b = 0
    (s = l), which counts as a trial point.  Raises ``OptimizationError``
    when ``max_iterations`` trial points do not reach convergence, and
    ``ConfigurationError`` when fewer collocation rows than the N + 1 + K
    unknowns, or fewer collocation times after t = 0 than the K boundary
    coefficients, leave the boundary undetermined.  The ``trace``
    callback, when given, receives (evaluation count, objective,
    coefficients) for every objective evaluation.
    """
    rows = solver.blocks["flux"].stop        # the flux block is stacked last
    degree = solver.table.degree
    unknowns = degree + 1 + settings.K
    if rows < unknowns:
        raise ConfigurationError(
            f"{rows} collocation rows cannot determine the N + 1 + K = "
            f"{unknowns} unknowns (N = {degree}, K = {settings.K}); "
            f"raise n_x or n_t, or lower n or k")
    # s(0) = l is fixed: s at the n_t later times must pin the K coefficients
    n_t = len(solver.t) - 1
    if n_t < settings.K:
        raise ConfigurationError(
            f"n_t = {n_t} collocation times after t = 0 cannot determine the "
            f"K = {settings.K} boundary coefficients; raise n_t or lower k")
    count = 0

    def evaluate(b):
        nonlocal count
        count += 1
        try:
            fit = solver.fit(BoundaryModel(solver.spec.l, b), clamp=True)
        except (SolverError, np.linalg.LinAlgError) as exc:
            raise OptimizationError(
                f"inner fit failed ({type(exc).__name__}: {exc})") from exc
        # a point outside the band, or a residual past the float range, is
        # not finite: a rejected step, or a start the search refuses below
        with np.errstate(over="ignore"):
            value = np.inf if fit.violation.any() else fit.residual @ fit.residual
        if trace is not None:
            trace(count, float(value), np.asarray(b, float))
        return fit, value

    b = settings.initial_b.copy()
    fit, value = evaluate(b)
    if fit.violation.any() and count < settings.max_iterations:
        b = np.zeros(settings.K)       # s = l, inside the band
        fit, value = evaluate(b)
    if not np.isfinite(value):
        raise OptimizationError(
            f"search residual is not finite at the initial point b = {b.tolist()}")
    # built after the start evaluates: a T past the float range, which that
    # evaluation refuses, would leave M singular
    cheb = _chebyshev_map(settings.K, solver.spec.T)
    c = np.linalg.solve(cheb, b)
    jac, damping = None, 0.0
    for _ in range(settings.max_iterations - count):
        if jac is None:
            jac = solver.jacobian(fit) @ cheb
        step = _step(jac, fit.residual, damping)
        trial = c + step
        fit_trial, trial_value = evaluate(cheb @ trial)
        done = np.linalg.norm(step) <= XTOL * (XTOL + np.linalg.norm(c))
        if trial_value < value:
            done |= value - trial_value <= FTOL * value
            c, fit, value = trial, fit_trial, trial_value
            jac, damping = None, 0.0
        else:
            damping = max(10.0 * damping, INITIAL_DAMPING)
        if done:
            break
    else:
        raise OptimizationError(
            f"boundary search did not converge within max_iterations = "
            f"{settings.max_iterations} (objective {value:.6e})")
    return fit
