import numpy as np
import pytest

import thpsolve as T
from thpsolve import ConfigurationError, OptimizerSettings


def test_settings_validation():
    with pytest.raises(ConfigurationError):
        OptimizerSettings(K=0)
    with pytest.raises(ConfigurationError):
        OptimizerSettings(K=3, initial_b=[0.1])
    with pytest.raises(ConfigurationError):
        OptimizerSettings(K=2, max_iterations=0)
    s = OptimizerSettings(K=6)
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


def test_evaluations_bounded_by_iterations(manufactured):
    # each trust-region iteration costs one trial point and a central-
    # difference Jacobian, i.e. at most 2K + 1 inner fits; three iterations
    # do not reach convergence, which the search reports as an error
    work, _ = manufactured
    seen = []

    def trace(k, it, value, b):
        seen.append((k, it, len(b)))

    settings = OptimizerSettings(K=2, max_iterations=3)
    with pytest.raises(T.OptimizationError, match="max_iterations = 3"):
        T.minimize_boundary(work.spec, work.grid, work.table, settings, trace=trace)
    assert 0 < len(seen) <= (2 * 2 + 1) * 3
    assert [it for _, it, _ in seen] == list(range(1, len(seen) + 1))
    assert all(k == 2 and n == 2 for k, _, n in seen)


def test_reference_problem_at_K8(benchmark_solution):
    # a degree-8 boundary must fit the reference problem at least as well
    # as the published degree 6 does
    _, work, _, _ = benchmark_solution
    fit = T.solve_free_boundary(work, OptimizerSettings(K=8))
    assert fit.F <= 1e-9


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

    # a numeric failure ends the search as an OptimizationError naming it
    monkeypatch.setattr(T.InnerSolver, "fit",
                        failing_fit(T.DegenerateSystemError("all zero")))
    with pytest.raises(T.OptimizationError, match="all zero") as info:
        T.minimize_boundary(work.spec, work.grid, work.table, settings)
    assert isinstance(info.value.__cause__, T.DegenerateSystemError)
    # a programming error propagates instead of becoming "failed everywhere"
    monkeypatch.setattr(T.InnerSolver, "fit", failing_fit(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        T.minimize_boundary(work.spec, work.grid, work.table, settings)


def test_reference_problem_at_N18():
    # without column equilibration the inner fits at N = 18 lost rank and
    # the boundary error was 1.5e-2
    bench = T.exact_benchmark()
    work = T.prepare(bench.spec, degree=18)
    fit = T.solve_free_boundary(work, OptimizerSettings(K=6))
    ts = np.linspace(0.0, 1.0, 101)
    err = max(abs(float(fit.boundary.s_eval(t)) - bench.exact_s(t)) for t in ts)
    assert err <= 1e-4
