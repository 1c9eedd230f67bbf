import numpy as np
import pytest

import thpsolve as T
from thpsolve import ConfigurationError, OptimizerSettings


def test_settings_validation():
    with pytest.raises(ConfigurationError):
        OptimizerSettings(K=0)
    with pytest.raises(ConfigurationError):
        OptimizerSettings(K=4, warm_start_schedule=(4, 2))
    with pytest.raises(ConfigurationError):
        OptimizerSettings(K=4, warm_start_schedule=(2, 3))  # must end at K
    with pytest.raises(ConfigurationError):
        OptimizerSettings(K=3, initial_b=[0.1])
    s = OptimizerSettings(K=6)
    assert s.warm_start_schedule == (2, 4, 6)
    assert s.initial_b[0] == 0.1


def test_recovers_manufactured_boundary(manufactured):
    work, _ = manufactured
    settings = OptimizerSettings(K=2, initial_b=[0.1, 0.0])
    fit = T.solve_free_boundary(work, settings)
    assert abs(fit.b[0] - 0.5) < 1e-4
    assert abs(fit.b[1]) < 1e-4


def test_restart_at_optimum_is_stable(manufactured):
    work, _ = manufactured
    first = T.solve_free_boundary(work, OptimizerSettings(K=2, initial_b=[0.1, 0.0]))
    again = T.solve_free_boundary(work, OptimizerSettings(K=2, initial_b=first.b))
    assert again.F <= first.F + 1e-12


def test_stage_monotonicity(manufactured):
    work, _ = manufactured
    stage_best = {}

    def trace(stage, _it, value, _b):
        stage_best[stage] = min(stage_best.get(stage, np.inf), value)

    settings = OptimizerSettings(K=4, warm_start_schedule=(1, 2, 4),
                                 initial_b=[0.1, 0.0, 0.0, 0.0])
    T.minimize_boundary(work.spec, work.grid, work.table, settings, trace=trace)
    stages = sorted(stage_best)
    for prev, nxt in zip(stages, stages[1:]):
        assert stage_best[nxt] <= stage_best[prev] + 1e-12


def test_feasibility_of_result(manufactured):
    work, _ = manufactured
    fit = T.solve_free_boundary(work, OptimizerSettings(K=2))
    assert fit.boundary.constraint_violation(work.grid.t, work.spec.L) == 0.0


def test_determinism(manufactured):
    work, _ = manufactured
    settings = OptimizerSettings(K=2)
    b1 = T.solve_free_boundary(work, settings).b
    b2 = T.solve_free_boundary(work, settings).b
    assert np.array_equal(b1, b2)


def test_only_numeric_failures_reject_a_vertex(manufactured, monkeypatch):
    work, _ = manufactured
    settings = OptimizerSettings(K=2)

    def failing_fit(exc):
        def fit(self, model, a=None, clamp=False):
            raise exc
        return fit

    # a numeric failure rejects the vertex and is reported as the last error
    monkeypatch.setattr(T.InnerSolver, "fit",
                        failing_fit(T.DegenerateSystemError("all zero")))
    with pytest.raises(T.OptimizationError, match="all zero"):
        T.minimize_boundary(work.spec, work.grid, work.table, settings)
    # a programming error propagates instead of becoming "failed everywhere"
    monkeypatch.setattr(T.InnerSolver, "fit", failing_fit(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        T.minimize_boundary(work.spec, work.grid, work.table, settings)
