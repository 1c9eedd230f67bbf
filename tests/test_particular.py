import itertools
import math

import numpy as np
import pytest

from thpsolve import (ConvergenceError, Interpolant, SampledFunction,
                      UniformMesh, build_formal_powers, pde_residual,
                      solution_eval, solve_particular)
from thpsolve.particular import TOLERANCE


def rk4_second_order(q, x_end, h):
    """Independent oracle: classical RK4 for y'' = q(x) y, y(0)=1, y'(0)=0."""
    y, yp, x = 1.0, 0.0, 0.0
    n = round(x_end / h)
    for _ in range(n):
        k1y, k1p = yp, q(x) * y
        k2y, k2p = yp + 0.5 * h * k1p, q(x + 0.5 * h) * (y + 0.5 * h * k1y)
        k3y, k3p = yp + 0.5 * h * k2p, q(x + 0.5 * h) * (y + 0.5 * h * k2y)
        k4y, k4p = yp + h * k3p, q(x + h) * (y + h * k3y)
        y += h * (k1y + 2 * k2y + 2 * k3y + k4y) / 6.0
        yp += h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
        x += h
    return y


# fourth-order first-derivative stencils over five nodes, in units of
# 1/(12 h): one-sided at the two nodes nearest the left end (the right end
# mirrors them) and centred elsewhere; all are exact for quartics
FD4_LEFT = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                     [-3.0, -10.0, 18.0, -6.0, 1.0]])
FD4_CENTRED = np.array([1.0, -8.0, 0.0, 8.0, -1.0])


def fd4_derivative(values, h):
    """Fourth-order finite-difference derivative at every node of a uniform
    mesh."""
    n = len(values)
    out = np.empty(n)
    out[2:-2] = sum(w * values[j:n - 4 + j] for j, w in enumerate(FD4_CENTRED))
    out[:2] = FD4_LEFT @ values[:5]
    out[:-3:-1] = -(FD4_LEFT @ values[:-6:-1])
    return out / (12.0 * h)


def test_zero_potential():
    m = UniformMesh(1.0, 101)
    sol = solve_particular(SampledFunction(m, np.full(m.n_points, 0.0)))
    assert np.allclose(sol.f.values, 1.0)
    assert sol.f_prime.values[0] == 0.0


def test_unit_potential_is_cosh():
    m = UniformMesh(1.0, 2001)
    sol = solve_particular(SampledFunction(m, np.full(m.n_points, 1.0)))
    assert abs(sol.f.values[-1] - 1.5430806348) < 1e-8
    assert np.max(np.abs(sol.f.values - np.cosh(m.nodes))) < 1e-10
    assert np.max(np.abs(sol.f_prime.values - np.sinh(m.nodes))) < 1e-10


def test_quadratic_potential_vs_rk4():
    m = UniformMesh(1.5, 2001)
    sol = solve_particular(SampledFunction(m, m.nodes ** 2))
    assert sol.f.values[0] == 1.0
    assert abs(sol.f_prime.values[0]) == 0.0
    oracle = rk4_second_order(lambda x: x * x, 1.0, 1e-5)
    at_one = Interpolant(m, sol.f.values, sol.f_prime.values)(1.0)
    assert abs(at_one - oracle) < 1e-7


def test_residual_invariant():
    m = UniformMesh(1.5, 2001)
    q = SampledFunction(m, m.nodes ** 2)
    sol = solve_particular(q)
    fpp = fd4_derivative(sol.f_prime.values, m.h)
    resid = np.max(np.abs(fpp - q.values * sol.f.values))
    assert resid <= 1e-6 * (1.0 + np.max(np.abs(sol.f.values)))


def test_normalization_matches_spline_derivative():
    m = UniformMesh(1.0, 2001)
    sol = solve_particular(SampledFunction(m, np.sin(3 * m.nodes)))
    assert sol.f.values[0] == 1.0
    fd_deriv = FD4_LEFT[0] @ sol.f.values[:5] / (12.0 * m.h)
    assert abs(fd_deriv - sol.f_prime.values[0]) < 1e-8


def test_nonconvergence_reported():
    # q = 3600: the 50th term, (60 x)^100 / 100! ~ 1e20 at x = 1, is far
    # from the tolerance
    m = UniformMesh(1.0, 101)
    with pytest.raises(ConvergenceError):
        solve_particular(SampledFunction(m, np.full(m.n_points, 3600.0)))


def test_overflowing_series_is_a_convergence_error():
    # q = 1e200 overflows at the second term; the series then ran 50 NaN
    # terms after numpy RuntimeWarnings, which the suite turns into errors
    m = UniformMesh(2.0, 201)
    with pytest.raises(ConvergenceError, match="overflows at term 2"):
        solve_particular(SampledFunction(m, np.full(m.n_points, 1e200)))


@pytest.mark.parametrize("q, shift", [(0.0, 0.0), (4.0, 0.0), (-20.0, 20.0)])
def test_shift_makes_the_potential_nonnegative(q, shift):
    # c = max(0, -min q): q >= 0 keeps its table bit for bit; q = -20 is
    # solved as q + c = 0, where f = 1
    m = UniformMesh(2.0, 201)
    potential = SampledFunction(m, np.full(m.n_points, q))
    sol = solve_particular(potential)
    assert sol.shift == shift
    assert np.array_equal(sol.q.values, potential.values + shift)
    assert sol.f.values.dtype == np.float64
    assert np.min(sol.f.values) >= 1.0


def test_complex_branch_when_real_y1_changes_sign_between_nodes():
    # q = -20 on [0, 2]: the unshifted y1 = cos(sqrt(20) x) changes sign
    # three times without touching a node, and its basis failed
    # u_xx - q u = u_t by ~1e6; this input once took the y1 + i y2 branch.
    # The shifted table is real and its basis solves the equation to
    # rounding relative to |u| (measured 1.3e-7)
    m = UniformMesh(2.0, 2001)
    sol = solve_particular(SampledFunction(m, np.full(m.n_points, -20.0)))
    assert sol.shift == 20.0 and sol.f.values.dtype == np.float64
    table = build_formal_powers(sol, 4)
    pts = [(x, 0.5) for x in np.linspace(0.05, 1.95, 39)]
    x, t = np.array(pts).T
    u_max = np.max(np.abs(solution_eval(table, [0, 1], x, t)))
    assert pde_residual(table, lambda x: -20.0, [0, 1], pts) <= 1e-6 * u_max


def test_basis_solves_the_equation_where_unshifted_y1_vanishes():
    # q = x^2 - 20 on [0, 2]: the unshifted y1 vanishes in the interval; the
    # shifted basis e^(c t) H_n[q + c] solves u_xx - q u = u_t for each n
    # (measured at most 9.3e-8 relative to max |u|)
    m = UniformMesh(2.0, 2001)
    sol = solve_particular(SampledFunction(m, m.nodes ** 2 - 20.0))
    assert sol.shift == 20.0
    table = build_formal_powers(sol, 12)
    x, t = np.meshgrid(np.linspace(0.05, 1.95, 20), np.linspace(0.05, 0.5, 5))
    x, t = x.ravel(), t.ravel()
    pts = np.column_stack([x, t])
    for n in range(13):
        a = np.zeros(n + 1)
        a[n] = 1.0
        u_max = np.max(np.abs(solution_eval(table, a, x, t)))
        resid = pde_residual(table, lambda x: x * x - 20.0, a, pts)
        assert resid <= 1e-6 * u_max, n


def test_two_integrals_per_series_term(mesh01, integral_calls):
    solve_particular(SampledFunction(mesh01, np.full(mesh01.n_points, 0.0)))
    one_row = (mesh01.n_points,)
    assert integral_calls == []   # q = 0: f = 1 with no series term
    # q = 1 on [0, 1]: term k has sup-norm 1/(2k)!, and the series stops at
    # the first term below the tolerance times max |f| = cosh(1)
    terms = next(k for k in itertools.count(1)
                 if 1.0 / math.factorial(2 * k) <= TOLERANCE * math.cosh(1.0))
    integral_calls.clear()
    solve_particular(SampledFunction(mesh01, np.full(mesh01.n_points, 1.0)))
    assert integral_calls == [one_row] * (2 * terms)


@pytest.mark.parametrize("q", [0.0, -20.0])
def test_vanishing_shifted_potential_skips_the_series(q, integral_calls):
    # q + c = 0 at every node (c = 20 for q = -20): f = 1 and f' = +0.0
    # exactly, the bits the series gave after one term, with no integral
    m = UniformMesh(2.0, 2001)
    sol = solve_particular(SampledFunction(m, np.full(m.n_points, q)))
    assert np.all(sol.f.values == 1.0)
    assert np.all(sol.f_prime.values == 0.0)
    assert not np.signbit(sol.f_prime.values).any()
    assert integral_calls == []


def test_one_nonzero_node_runs_the_series(integral_calls):
    # q + c = 0 at every node but one interior node is not the skip
    m = UniformMesh(2.0, 2001)
    q = np.zeros(m.n_points)
    q[1000] = 1e-3
    sol = solve_particular(SampledFunction(m, q))
    assert integral_calls
    assert np.all(sol.f.values[1001:] > 1.0)


def test_unresolved_potential_gives_f_below_one():
    # q >= 0 makes the exact f at least 1, but the Newton-Cotes weights have
    # negative entries: a spike that the mesh does not resolve pulls f below
    # 1 at the node before it (measured min f = 0.7517 at node 8)
    m = UniformMesh(2.0, 21)
    q = np.zeros(m.n_points)
    q[9] = 100.0
    sol = solve_particular(SampledFunction(m, q))
    assert sol.shift == 0.0
    assert 0.0 < np.min(sol.f.values) < 1.0
