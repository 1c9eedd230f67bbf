"""Outer search for the boundary coefficients by variable projection.

For a fixed boundary the basis coefficients enter the collocation residual
linearly, so the inner least-squares fit eliminates them and leaves a
residual vector in the boundary coefficients alone (Golub & Pereyra 1973;
Kaufman 1975).  That projected residual, extended by the weighted per-time
violations of the admissibility constraint, is minimized by one trust-region
least-squares solve with a finite-difference Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assemble import CollocationGrid, FitResult, InnerSolver, ProblemSpec
from .boundary import BoundaryModel
from .errors import ConfigurationError, OptimizationError, SolverError
from .formal_powers import FormalPowerTable

__all__ = ["OptimizerSettings", "minimize_boundary"]

# weight of the squared admissibility violation against the value function F
PENALTY_WEIGHT = 1e6


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs of the boundary search."""

    K: int = 6
    initial_b: Optional[np.ndarray] = None     # default (0.1, 0, ..., 0)
    max_iterations: int = 400                  # trust-region iterations

    def __post_init__(self):
        if self.K < 1:
            raise ConfigurationError("K must be >= 1")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        b0 = self.initial_b
        if b0 is None:
            b0 = np.zeros(self.K)
            b0[0] = 0.1
        b0 = np.asarray(b0, dtype=float)
        if len(b0) != self.K:
            raise ConfigurationError(f"initial_b must have length K={self.K}")
        object.__setattr__(self, "initial_b", b0)


def minimize_boundary(spec: ProblemSpec, grid: CollocationGrid,
                      table: FormalPowerTable,
                      settings: OptimizerSettings = OptimizerSettings(),
                      trace: Optional[Callable[[int, int, float, np.ndarray], None]] = None,
                      ) -> FitResult:
    """Minimize the reduced value function over boundary coefficients.

    Returns the converged fit; deterministic for fixed settings.  Raises
    ``OptimizationError`` when the search uses up ``max_iterations``.  Each
    trust-region iteration costs at most 2K + 1 inner fits (one trial point
    and a central-difference Jacobian).  The ``trace`` callback, when given,
    receives (K, evaluation count, penalized objective, coefficients) for
    every objective evaluation.
    """
    from scipy.optimize import least_squares

    solver = InnerSolver(spec, grid, table)
    weight = np.sqrt(PENALTY_WEIGHT)
    count = 0

    def residuals(b):
        nonlocal count
        count += 1
        model = BoundaryModel(spec.l, b)
        try:
            fit = solver.fit(model, clamp=True)
        except (SolverError, np.linalg.LinAlgError) as exc:
            raise OptimizationError(
                f"inner fit failed ({type(exc).__name__}: {exc})") from exc
        r = np.concatenate([fit.residual.real, fit.residual.imag,
                            weight * model.violations(grid.t, spec.L)])
        if trace is not None:
            trace(settings.K, count, float(r @ r), np.asarray(b, float))
        return r

    result = least_squares(residuals, settings.initial_b, method="trf",
                           jac="3-point", max_nfev=settings.max_iterations)
    if result.status == 0:
        raise OptimizationError(
            f"boundary search did not converge within max_iterations = "
            f"{settings.max_iterations} (objective {2 * result.cost:.6e})")
    model = BoundaryModel(spec.l, result.x)
    if model.constraint_violation(grid.t, spec.L) > 0:
        raise OptimizationError("optimizer returned an inadmissible boundary")
    return solver.fit(model)
