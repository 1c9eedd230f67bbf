import math

import numpy as np
import pytest

import thpsolve.special as special
from thpsolve import (DomainError, InnerSolver, ei, ei_inv, exact_benchmark,
                      hermite_benchmark, prepare, solve_free_boundary)


def ei_oracle(x, terms=200):
    """Independent high-precision summation with the Fraction-free kahan-ish
    accumulation done in reverse order."""
    contributions = []
    term = 1.0
    for k in range(1, terms):
        term *= x / k
        contributions.append(term / k)
    total = 0.0
    for c in reversed(contributions):
        total += c
    return 0.5772156649015328606 + math.log(x) + total


def test_ei_against_series_oracle():
    xs = np.geomspace(1e-3, 30.0, 400)
    want = np.array([ei_oracle(x) for x in xs])
    # absolute near the root of Ei at x ~ 0.3725, relative elsewhere
    assert np.all(np.abs(ei(xs) - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))


def test_ei_far_out():
    assert ei(100.0) == pytest.approx(2.71555274485388e41, rel=1e-13)


def test_ei_at_half():
    assert abs(ei(0.5) - 0.4542199049) < 1e-9
    assert abs(ei(0.5) - ei_oracle(0.5)) < 1e-14


def test_constant_value():
    assert abs(ei(0.5) / 2 + 1 - 1.2271) < 5e-5


def test_monotonicity():
    assert ei(1.0) > ei(0.5)


def test_ei_domain():
    with pytest.raises(DomainError):
        ei(0.0)
    with pytest.raises(DomainError):
        ei(-1.0)
    with pytest.raises(DomainError):
        ei(np.nan)


def test_ei_inv_roundtrip():
    assert abs(ei_inv(ei(1.0)) - 1.0) < 1e-10
    xs = np.linspace(0.3, 1.2, 50)
    assert np.all(np.abs(ei_inv(ei(xs)) - xs) <= 1e-8)


def test_ei_inv_array_matches_scalar_calls():
    y = ei(np.linspace(0.05, 1.5, 24)).reshape(4, 6)
    x = ei_inv(y)
    assert x.shape == (4, 6)
    assert np.array_equal(x, [[ei_inv(v) for v in row] for row in y])


def test_ei_inv_newton_call_count(monkeypatch):
    # Newton in ln x from the top of the bracket: 300 targets across the
    # default bracket took 38 Ei evaluations with the midpoint start and
    # bisection fallback
    xs = np.linspace(0.05, 1.5, 300)
    y = ei(xs)
    calls = []

    def counted(x):
        calls.append(1)
        return ei(x)

    monkeypatch.setattr(special, "ei", counted)
    x = ei_inv(y)
    assert len(calls) <= 12
    assert np.max(np.abs(x - xs) / xs) <= 1e-15


def test_ei_inv_bracket_check():
    with pytest.raises(DomainError):
        ei_inv(1e9)
    for bad in (1e9, np.nan):
        with pytest.raises(DomainError):
            ei_inv(np.array([0.0, bad, 1.0]))


def test_ei_inv_of_constant_data():
    bench = exact_benchmark()
    c = 0.5 * ei(0.5) + 1.0
    assert abs(ei_inv(2 * c - 2.0) - 0.5) < 1e-9
    # self-consistency at t = 1
    lhs = ei_inv(2 * c - 2.0 * math.exp(-1.0))
    assert lhs == pytest.approx(bench.exact_s(1.0) ** 2 / 2.0, abs=1e-10)


def test_exact_solution_values():
    bench = exact_benchmark()
    assert bench.exact_u(0.0, 0.0) == pytest.approx(1.0)
    assert bench.exact_s(0.0) == pytest.approx(1.0, abs=1e-9)


def test_pde_residual_of_exact_solution():
    bench = exact_benchmark()
    h = 1e-4  # second differences at smaller steps hit rounding noise
    t = np.linspace(0.05, 0.95, 50)
    x = np.linspace(0.01, bench.exact_s(t) - 0.01, 50)   # column j at t[j]
    u = bench.exact_u(x, t)
    u_xx = (bench.exact_u(x + h, t) - 2 * u + bench.exact_u(x - h, t)) / h ** 2
    u_t = (bench.exact_u(x, t + h) - bench.exact_u(x, t - h)) / (2 * h)
    assert np.max(np.abs(u_xx - x * x * u - u_t)) <= 1e-6


@pytest.mark.parametrize("beta, t_final", [(0.0, 1.0), (20.0, 0.5)])
def test_hermite_benchmark_data(beta, t_final):
    bench = hermite_benchmark(beta, t_final)
    spec, u = bench.spec, bench.exact_u
    h = 1e-4
    t = np.linspace(0.05, t_final - 0.05, 40)
    s = bench.exact_s(t)
    x = np.linspace(0.01, s - 0.01, 40)   # column j at t[j]
    q = spec.q(x)
    u_xx = (u(x + h, t) - 2 * u(x, t) + u(x - h, t)) / h ** 2
    u_t = (u(x, t + h) - u(x, t - h)) / (2 * h)
    # the central differences in t of e^((beta - 1) t) are good to about
    # 1e-5 at beta = 20
    assert np.max(np.abs(u_xx - q * u(x, t) - u_t)) <= 1e-4 * np.max(np.abs(u(x, t)))
    u_x = (u(s + h, t) - u(s - h, t)) / (2 * h)
    assert np.max(np.abs(spec.flux_data(t) - u_x)) <= 1e-6 * np.max(np.abs(u_x))
    assert np.array_equal(spec.g3(t), u(s, t))
    assert u(0.3, 0.0) == spec.g1(0.3)
    assert (u(h, t) - u(-h, t)).tolist() == [0.0] * len(t)   # u_x(0, t) = 0
    assert bench.exact_s(0.0) == spec.l


def test_boundary_data_consistency():
    times = np.linspace(0.0, 1.0, 101)
    bench = exact_benchmark()
    want = [bench.exact_u(bench.exact_s(t), t) for t in times]
    assert np.max(np.abs(bench.spec.g3(times) - want)) < 1e-10


def test_benchmark_data_fit_another_collocation_grid():
    # g3 was tabulated at the 101 default times, so n_t = 50 was refused
    # as "g3 has values of shape (101,), expected (51,)"
    bench = exact_benchmark()
    solution = solve_free_boundary(
        InnerSolver(bench.spec, prepare(bench.spec), 100, 50))
    ts = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(solution.s_eval(ts) - bench.exact_s(ts))) <= 1e-5


def test_stefan_identity():
    bench = exact_benchmark()
    h = 1e-6
    t = np.linspace(0.01, 0.99, 101)
    s_dot = (bench.exact_s(t + h) - bench.exact_s(t - h)) / (2 * h)
    s_t = bench.exact_s(t)
    u_x = -s_t * bench.exact_u(s_t, t)  # d/dx e^(-x^2/2 - t) = -x u
    assert np.max(np.abs(u_x + s_dot)) <= 1e-6
