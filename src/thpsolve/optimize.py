"""Outer derivative-free search for the boundary coefficients.

The inner least-squares fit turns the value function into a function of the
boundary coefficients alone; that reduced objective is minimized by
Nelder-Mead with a quadratic penalty on the admissibility constraint,
staged over increasing polynomial degree (warm starting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize

from .assemble import CollocationGrid, FitResult, InnerSolver, ProblemSpec
from .boundary import BoundaryModel
from .errors import ConfigurationError, OptimizationError, SolverError
from .formal_powers import FormalPowerTable

__all__ = ["OptimizerSettings", "minimize_boundary"]

INITIAL_SIMPLEX_SCALE = 0.05


def _default_schedule(k: int) -> tuple:
    sched = sorted({min(2, k), min(4, k), k})
    return tuple(sched)


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs of the staged Nelder-Mead search."""

    K: int = 6
    warm_start_schedule: Optional[tuple] = None
    initial_b: Optional[np.ndarray] = None     # default (0.1, 0, ..., 0)
    max_iterations: int = 400                  # per stage
    step_tolerance: float = 1e-10
    value_tolerance: float = 1e-12
    penalty_weight: float = 1e6

    def __post_init__(self):
        if self.K < 1:
            raise ConfigurationError("K must be >= 1")
        sched = self.warm_start_schedule
        if sched is None:
            sched = _default_schedule(self.K)
        sched = tuple(int(k) for k in sched)
        if list(sched) != sorted(set(sched)) or sched[-1] != self.K:
            raise ConfigurationError(
                "warm start schedule must be strictly increasing and end at K"
            )
        object.__setattr__(self, "warm_start_schedule", sched)
        b0 = self.initial_b
        if b0 is None:
            b0 = np.zeros(self.K)
            b0[0] = 0.1
        b0 = np.asarray(b0, dtype=float)
        if len(b0) != self.K:
            raise ConfigurationError(f"initial_b must have length K={self.K}")
        object.__setattr__(self, "initial_b", b0)
        if self.step_tolerance <= 0 or self.value_tolerance <= 0:
            raise ConfigurationError("tolerances must be positive")


def minimize_boundary(spec: ProblemSpec, grid: CollocationGrid,
                      table: FormalPowerTable,
                      settings: OptimizerSettings = OptimizerSettings(),
                      trace: Optional[Callable[[int, int, float, np.ndarray], None]] = None,
                      ) -> FitResult:
    """Minimize the reduced value function over boundary coefficients.

    Returns the best fit found; deterministic for fixed settings.  The
    ``trace`` callback, when given, receives (stage K, evaluation count,
    penalized objective, coefficients) for every objective evaluation.
    """
    solver = InnerSolver(spec, grid, table)
    mu = settings.penalty_weight
    last_error = None

    def objective_for(stage: int):
        count = [0]

        def objective(b):
            nonlocal last_error
            count[0] += 1
            model = BoundaryModel(spec.l, b)
            violation = model.constraint_violation(grid.t, spec.L)
            try:
                fit = solver.fit(model, clamp=True)
            except (SolverError, np.linalg.LinAlgError) as exc:
                # a numeric failure rejects this vertex; anything else is a bug
                last_error = exc
                return np.inf
            value = fit.F + mu * violation
            if not np.isfinite(value):
                return np.inf
            if trace is not None:
                trace(stage, count[0], value, np.asarray(b, float))
            return value

        return objective

    best_b = settings.initial_b
    best_value = np.inf
    for stage_k in settings.warm_start_schedule:
        b0 = np.zeros(stage_k)
        take = min(stage_k, len(best_b))
        b0[:take] = best_b[:take]
        objective = objective_for(stage_k)
        simplex = np.vstack([b0] + [b0 + INITIAL_SIMPLEX_SCALE * e
                                    for e in np.eye(stage_k)])
        result = minimize(
            objective, b0, method="Nelder-Mead",
            options={
                "maxiter": settings.max_iterations,
                "maxfev": 50 * settings.max_iterations,
                "xatol": settings.step_tolerance,
                "fatol": settings.value_tolerance,
                "initial_simplex": simplex,
            },
        )
        if np.isfinite(result.fun) and (result.fun <= best_value
                                        or stage_k > len(best_b)):
            best_b = np.asarray(result.x, dtype=float)
            best_value = float(result.fun)
    if not np.isfinite(best_value):
        raise OptimizationError(
            f"inner solve failed at every trial point "
            f"(last error: {last_error or 'none'})"
        )
    final = np.zeros(settings.K)
    final[:len(best_b)] = best_b
    model = BoundaryModel(spec.l, final)
    if model.constraint_violation(grid.t, spec.L) > 0:
        raise OptimizationError("optimizer returned an inadmissible boundary")
    return solver.fit(model)
