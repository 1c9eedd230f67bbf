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

from typing import Callable, Optional

import numpy as np

from .assemble import FitResult, InnerSolver, solve_linear
from .boundary import CONSTRAINT_MARGIN, BoundaryModel
from .errors import (ConfigurationError, DomainError, OptimizationError,
                     SolverError, require_count)

__all__ = ["DEFAULT_K", "minimize_boundary"]

# the default degree K of the boundary polynomial, which the command line
# also reads to project an initial guess and to head the trace
DEFAULT_K = 6

# convergence: a step short relative to the Chebyshev coordinates c, or an
# accepted step that lowers the objective by a small share (scipy's
# least_squares defaults for xtol and ftol)
XTOL = FTOL = 1e-8
# damping after a rejected undamped step, relative to each squared column
# norm of the Jacobian; every further rejection multiplies it by 10
INITIAL_DAMPING = 1e-3
# a search whose final point has a trial that left the band after moving s
# by at most this share of L, and no shorter step that lowered the
# objective, ended pressed against the band.  Measured: the last such trial
# of a stalled search moved s by 4.6e-6 L, one from a fit at rounding
# noise, which every step leaves no lower, by 0.4 L
PRESSED_STEP = 1e-4


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


def minimize_boundary(solver: InnerSolver, K: int = DEFAULT_K,
                      initial_b=None, max_iterations: int = 400,
                      trace: Optional[Callable[[int, float, np.ndarray], None]] = None,
                      ) -> FitResult:
    """Minimize the reduced value function of ``solver`` over the K
    coefficients of a boundary polynomial, from ``initial_b`` (default
    (0.1, 0, ..., 0)), in at most ``max_iterations`` trial points.

    Returns the converged fit; deterministic for fixed arguments.  Each
    iteration evaluates the objective at one trial point (the start is the
    first), one inner fit; after a point that lowers it, the next step
    takes the Jacobian from that fit.  A trial point whose s leaves the
    admissible band at a collocation time has the objective inf: a
    rejected step.  A start outside the band restarts once from b = 0
    (s = l), which counts as a trial point.  Raises ``OptimizationError``
    when ``max_iterations`` trial points do not reach convergence or the
    search ends pressed against the band (``_refuse_stall``), and
    ``ConfigurationError`` when fewer collocation rows than the N + 1 + K
    unknowns, or fewer collocation times after t = 0 than the K boundary
    coefficients, leave the boundary undetermined.  The ``trace``
    callback, when given, receives (evaluation count, objective,
    coefficients) for every objective evaluation.  A K or max_iterations
    that is not an integer >= 1, and an initial_b not of length K or not
    finite, are a ``ConfigurationError``.
    """
    require_count("K", K, 1)
    require_count("max_iterations", max_iterations, 1)
    if initial_b is None:
        initial_b = np.zeros(K)
        initial_b[0] = 0.1
    b = np.array(initial_b, dtype=float)
    if b.shape != (K,):
        raise ConfigurationError(f"initial_b must have length K={K}")
    if not np.all(np.isfinite(b)):
        raise ConfigurationError(f"initial_b must be finite, got {b.tolist()}")
    rows = solver.blocks["flux"].stop        # the flux block is stacked last
    degree = solver.table.degree
    unknowns = degree + 1 + K
    if rows < unknowns:
        raise ConfigurationError(
            f"{rows} collocation rows cannot determine the N + 1 + K = "
            f"{unknowns} unknowns (N = {degree}, K = {K}); "
            f"raise n_x or n_t, or lower n or k")
    # s(0) = l is fixed: s at the n_t later times must pin the K coefficients
    n_t = len(solver.t) - 1
    if n_t < K:
        raise ConfigurationError(
            f"n_t = {n_t} collocation times after t = 0 cannot determine the "
            f"K = {K} boundary coefficients; raise n_t or lower k")
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
        value = np.inf if fit.violation.any() else fit.F
        if trace is not None:
            trace(count, float(value), np.asarray(b, float))
        return fit, value

    fit, value = evaluate(b)
    if fit.violation.any() and count < max_iterations:
        b = np.zeros(K)       # s = l, inside the band
        fit, value = evaluate(b)
    if not np.isfinite(value):
        raise OptimizationError(
            f"search residual is not finite at the initial point b = {b.tolist()}")
    # built after the start evaluates: a T past the float range, which that
    # evaluation refuses, would leave M singular
    cheb = _chebyshev_map(K, solver.spec.T)
    c = np.linalg.solve(cheb, b)
    jac, damping = None, 0.0
    # the last trial from the current point that left the band, None once a
    # step is accepted: with the damping growing, the shortest such trial
    pressed = None
    for _ in range(max_iterations - count):
        if jac is None:
            jac = solver.jacobian(fit) @ cheb
        step = _step(jac, fit.residual, damping)
        trial = c + step
        fit_trial, trial_value = evaluate(cheb @ trial)
        done = np.linalg.norm(step) <= XTOL * (XTOL + np.linalg.norm(c))
        if trial_value < value:
            done |= value - trial_value <= FTOL * value
            c, fit, value = trial, fit_trial, trial_value
            jac, damping, pressed = None, 0.0, None
        else:
            damping = max(10.0 * damping, INITIAL_DAMPING)
            if fit_trial.violation.any():
                pressed = fit_trial
        if done:
            break
    else:
        raise OptimizationError(
            f"boundary search did not converge within max_iterations = "
            f"{max_iterations} (objective {value:.6e})")
    if pressed is not None:
        _refuse_stall(fit, pressed, solver.spec.L)
    return fit


def _refuse_stall(fit: FitResult, trial: FitResult, L: float):
    """Raise the OptimizationError of a search that ended within its last
    step of a bound of the band: ``trial``, a step from the final ``fit``
    that moved s by at most PRESSED_STEP * L at every collocation time,
    left the band, and no shorter step lowered the objective.  Such a point
    is stationary for the problem held to the band (Kanzow, Yamashita &
    Fukushima 2004), not a solution of the free boundary problem.  The
    error names the bound and the time where the trial crossed it
    furthest.  A longer step that left the band says nothing of where the
    search ended."""
    move = trial.s + trial.violation - fit.s
    if np.abs(move).max() > PRESSED_STEP * L:
        return
    i = np.argmax(np.abs(trial.violation))
    bound = f"L = {L:g}" if trial.violation[i] > 0 else f"{CONSTRAINT_MARGIN:g}"
    raise OptimizationError(
        f"boundary search stalled against the band [{CONSTRAINT_MARGIN:g}, L]: "
        f"s = {fit.s[i]:.9g} at t = {fit.t[i]:.6g} lies within the last step "
        f"of the bound {bound} (objective {fit.F:.6e}); raise l_domain or "
        f"lower t_final")
