from functools import partial

import numpy as np
import pytest

import thpsolve as T
from thpsolve import ConfigurationError
from thpsolve.boundary import CONSTRAINT_MARGIN
from thpsolve.optimize import PRESSED_STEP, _chebyshev_map, _refuse_stall


def _solve(spec, degree, K):
    """The boundary search on ``spec`` at basis degree ``degree`` and
    boundary degree ``K``, on 100 collocation intervals in x and in t."""
    solver = T.InnerSolver(spec, T.prepare(spec, degree=degree), 100, 100)
    return T.solve_free_boundary(solver, K=K)


def _benchmark_solver(benchmark_solution):
    """The InnerSolver of the shared reference solve."""
    bench, solution, _ = benchmark_solution
    return T.InnerSolver(bench.spec, solution.table, 100, 100)


def test_settings_validation(manufactured):
    # each is refused before the first trial point
    solver, _ = manufactured
    rows = []
    search = partial(T.minimize_boundary, solver,
                     trace=lambda *row: rows.append(row))
    with pytest.raises(ConfigurationError, match="K must be an integer >= 1"):
        search(K=0)
    # a scalar start was a bare TypeError from len()
    for bad in ([0.1], 0.1, [[0.1], [0.0], [0.0]]):
        with pytest.raises(ConfigurationError,
                           match=r"initial_b must have length K=3"):
            search(K=3, initial_b=bad)
    with pytest.raises(ConfigurationError, match="max_iterations must be an integer"):
        search(K=2, max_iterations=0)
    # a NaN start failed only inside the search, as a DomainError
    with pytest.raises(ConfigurationError, match="initial_b must be finite"):
        search(K=2, initial_b=[np.nan, 0.0])
    # K = 2.5 failed inside numpy, max_iterations = 2.5 inside range()
    for bad in (2.5, 2.0, "2", True, None):
        with pytest.raises(ConfigurationError, match="K must be an integer"):
            search(K=bad)
        with pytest.raises(ConfigurationError,
                           match="max_iterations must be an integer"):
            search(K=2, max_iterations=bad)
    assert rows == []
    # numpy integers are counts, and the default start is (0.1, 0, ..., 0)
    search(K=np.int64(2), max_iterations=np.int32(50))
    assert np.array_equal(rows[0][2], [0.1, 0.0])
    rows.clear()
    with pytest.raises(T.OptimizationError):
        search(max_iterations=1)
    assert np.array_equal(rows[0][2], [0.1, 0, 0, 0, 0, 0])


def test_recovers_manufactured_boundary(manufactured):
    solver, _ = manufactured
    fit = T.solve_free_boundary(solver, K=2, initial_b=[0.1, 0.0]).fit
    assert abs(fit.b[0] - 0.5) < 1e-4
    assert abs(fit.b[1]) < 1e-4


def test_u_eval_takes_the_shape_of_its_points():
    # the README's library example: u_eval(0.5, 0.7) gave array([2.65]),
    # and a meshgrid raised numpy's broadcast ValueError
    spec = T.ProblemSpec(
        q=lambda x: 0.0, L=2.0, l=1.0, T=1.0,
        g1=lambda x: 1.0 + x**2, g2=lambda t: 0.0,
        g3=lambda t: 1.0 + (1 + t / 2)**2 + 2 * t,
        flux_data=lambda t: 2.0 * (1 + t / 2),
    )
    sol = _solve(spec, 6, 2)
    assert isinstance(sol.u_eval(0.5, 0.7), float)
    X, Tt = np.meshgrid([0.2, 0.5, 0.9], [0.3, 0.7])
    u = sol.u_eval(X, Tt)
    assert u.shape == (2, 3)
    assert np.max(np.abs(u - (1.0 + X**2 + 2.0 * Tt))) <= 1e-12


def test_restart_at_optimum_is_stable(manufactured):
    solver, _ = manufactured
    first = T.solve_free_boundary(solver, K=2, initial_b=[0.1, 0.0]).fit
    again = T.solve_free_boundary(solver, K=2, initial_b=first.b).fit
    assert again.F <= first.F + 1e-12


def test_evaluations_bounded_by_iterations(manufactured):
    # each Gauss-Newton iteration costs one trial point, i.e. one inner fit
    # (the Jacobian reuses that fit's factorization); three iterations do
    # not reach convergence, which the search reports as an error
    solver, _ = manufactured
    seen = []

    def trace(it, value, b):
        seen.append((it, len(b)))

    with pytest.raises(T.OptimizationError, match="max_iterations = 3"):
        T.minimize_boundary(solver, K=2, max_iterations=3, trace=trace)
    assert len(seen) == 3
    assert [it for it, _ in seen] == list(range(1, len(seen) + 1))
    assert all(n == 2 for _, n in seen)


def test_start_outside_the_band_restarts_from_s_equal_l(manufactured):
    # s = 1 + 1.2 t passes L = 2 before t = 1: that start is a rejected
    # point, objective inf, and the search restarts once from b = 0, a
    # trial point of its own
    solver, exact = manufactured
    rows = []
    search = {"K": 2, "initial_b": [1.2, 0.0]}
    fit = T.minimize_boundary(solver, **search,
                              trace=lambda *row: rows.append(row))
    assert rows[0][1] == np.inf and np.isfinite(rows[1][1])
    assert np.array_equal(rows[1][2], [0.0, 0.0])
    assert np.allclose(fit.b, exact.coefficients, rtol=0, atol=1e-10)
    # the start and the restart use up two trial points
    rows.clear()
    with pytest.raises(T.OptimizationError, match="max_iterations = 2"):
        T.minimize_boundary(solver, **search, max_iterations=2,
                            trace=lambda *row: rows.append(row))
    assert len(rows) == 2
    rows.clear()
    with pytest.raises(T.OptimizationError, match="not finite at the initial"):
        T.minimize_boundary(solver, **search, max_iterations=1,
                            trace=lambda *row: rows.append(row))
    assert len(rows) == 1


def test_search_stalled_against_the_band_is_refused():
    # flux beta = 20 over T = 1.5 at 24/8: the search ended with s within
    # 1e-6 of L = 2, after 121 of its 152 trial points left the band, and
    # returned F = 5.4e16 with a boundary off by up to 0.93
    bench = T.hermite_benchmark(20.0, 1.5)
    with pytest.raises(T.OptimizationError,
                       match=r"stalled against the band \[1e-06, L\]: s = "
                             r"1\.99999\d+ at t = 1\.425 lies within the last "
                             r"step of the bound L = 2 "):
        _solve(bench.spec, 24, 8)


@pytest.mark.parametrize("move, refused", [(2e-5, True), (1e-3, False)])
def test_stall_refusal_reads_the_length_of_the_step(move, refused, manufactured):
    # a final s = 1 - a t that ends 1e-5 above the margin 1e-6 at t = 1, and
    # a trial from it that moves s(1) by ``move`` to below the margin; a
    # trial that moved s further says nothing of where the search ended
    solver, _ = manufactured
    end = 1.0 - CONSTRAINT_MARGIN - 1e-5
    fit, trial = (solver.fit(T.BoundaryModel(1.0, [-a, 0.0]), clamp=True)
                  for a in (end, end + move))
    assert trial.violation[-1] < 0
    assert (move <= PRESSED_STEP * solver.spec.L) == refused
    if refused:
        with pytest.raises(T.OptimizationError,
                           match=r"s = 1\.1e-05 at t = 1 lies within the last "
                                 r"step of the bound 1e-06 "):
            _refuse_stall(fit, trial, solver.spec.L)
    else:
        assert _refuse_stall(fit, trial, solver.spec.L) is None


@pytest.mark.parametrize("n_t", [3, 4, 5])
def test_fewer_times_than_boundary_coefficients_is_a_config_error(
        n_t, neumann_stefan):
    # s(0) = l is fixed, so n_t < K later times leave the K coefficients
    # undetermined between them; at 24/6 these searches returned boundary
    # errors of 0.78, 0.24 and 0.71 with no error raised
    spec, _, _ = neumann_stefan(0.5, 1.0, 1.0)
    solver = T.InnerSolver(spec, T.prepare(spec, degree=24), 100, n_t)
    with pytest.raises(ConfigurationError,
                       match=f"n_t = {n_t} collocation times after t = 0 "
                             f"cannot determine the K = 6 boundary"):
        T.minimize_boundary(solver, K=6)


def test_collocation_time_floor_sits_above_k(neumann_stefan):
    # the n_t >= K refusal lets n_t = K = 6 through, but at 24/6 that search
    # used up its 400 trial points at objective 2.274209e-07; n_t = 8
    # converged to a boundary error of 2.3e-6
    spec, exact_s, _ = neumann_stefan(0.5, 1.0, 1.0)
    table = T.prepare(spec, degree=24)
    with pytest.raises(T.OptimizationError,
                       match=r"did not converge within max_iterations = 400"):
        T.minimize_boundary(T.InnerSolver(spec, table, 100, 6), K=6)
    solution = T.solve_free_boundary(T.InnerSolver(spec, table, 100, 8), K=6)
    ts = np.linspace(0.0, 1.0, 201)
    assert np.max(np.abs(solution.s_eval(ts) - exact_s(ts))) <= 1e-5


def test_search_fits_once_per_trial_point(benchmark_solution, monkeypatch):
    # the search returned a refit at the converged b, one inner fit more
    # than its trial points (7 against 6 on the reference problem); the
    # last accepted fit is that same fit.  In Chebyshev coordinates the
    # reference search takes 5 trial points
    solver = _benchmark_solver(benchmark_solution)
    fits, rows = [], []
    fit = T.InnerSolver.fit

    def counted(self, *args, **kwargs):
        fits.append(1)
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(T.InnerSolver, "fit", counted)
    result = T.minimize_boundary(solver, trace=lambda *row: rows.append(row))
    assert len(fits) == len(rows) == 5
    refit = fit(solver, result.boundary)
    assert np.array_equal(result.a, refit.a)
    assert result.F == refit.F
    assert np.array_equal(result.residual, refit.residual)
    assert result.residual_maxima == refit.residual_maxima


def test_search_clamps_once_per_fit(benchmark_solution, monkeypatch):
    # the collocation system, its Jacobian, the penalized search residual
    # and its Jacobian and a final admissibility check each clamped s
    # again: 23 clamps for the 6 fits that the reference search took then.
    # The search now reads the band from each fit's violation alone
    solver = _benchmark_solver(benchmark_solution)
    calls = {"fit": 0, "clamp": 0}
    for cls, name in ((T.InnerSolver, "fit"), (T.BoundaryModel, "clamp")):
        def counted(*args, _name=name, _method=getattr(cls, name), **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    T.minimize_boundary(solver)
    assert calls == {"fit": 5, "clamp": 5}


@pytest.mark.parametrize("K", [1, 6, 16])
@pytest.mark.parametrize("t_final", [0.5, 1.0, 3.0])
def test_chebyshev_map_holds_the_shifted_chebyshev_polynomials(t_final, K):
    # column k - 1 holds t^1..t^K of T_k(2t/T - 1) - (-1)^k; numpy's
    # conversion is the independent reference
    from numpy.polynomial import Chebyshev, Polynomial
    cheb = _chebyshev_map(K, t_final)
    assert cheb.shape == (K, K)
    for k in range(1, K + 1):
        power = Chebyshev.basis(k, domain=[0.0, t_final]).convert(kind=Polynomial)
        want = np.zeros(K + 1)
        want[:k + 1] = power.coef
        assert want[0] == pytest.approx((-1.0) ** k, rel=1e-12)
        np.testing.assert_allclose(cheb[:, k - 1], want[1:], rtol=1e-12)


def test_chebyshev_map_past_float_range_is_a_domain_error():
    # the leading coefficient 2^(2K-1) / T^K of T_K overflows
    with pytest.raises(T.DomainError, match="Chebyshev search coordinates"):
        _chebyshev_map(6, 1e-60)


def test_reference_problem_at_K8(benchmark_solution):
    # a degree-8 boundary must fit the reference problem at least as well
    # as the published degree 6 does
    solver = _benchmark_solver(benchmark_solution)
    fit = T.solve_free_boundary(solver, K=8).fit
    assert fit.F <= 1e-9


def test_feasibility_of_result(manufactured):
    solver, _ = manufactured
    fit = T.solve_free_boundary(solver, K=2).fit
    assert not fit.boundary.clamp(fit.t, solver.spec.L)[1].any()


def test_determinism(manufactured):
    solver, _ = manufactured
    b1 = T.solve_free_boundary(solver, K=2).fit.b
    b2 = T.solve_free_boundary(solver, K=2).fit.b
    assert np.array_equal(b1, b2)


def test_only_numeric_failures_reject_a_vertex(manufactured, monkeypatch):
    solver, _ = manufactured

    def failing_fit(exc):
        def fit(self, model, a=None, clamp=False):
            raise exc
        return fit

    # a numeric failure ends the search as an OptimizationError naming it
    monkeypatch.setattr(T.InnerSolver, "fit",
                        failing_fit(T.SolverError("all zero")))
    with pytest.raises(T.OptimizationError, match="all zero") as info:
        T.minimize_boundary(solver, K=2)
    assert type(info.value.__cause__) is T.SolverError
    # a programming error propagates instead of becoming "failed everywhere"
    monkeypatch.setattr(T.InnerSolver, "fit", failing_fit(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        T.minimize_boundary(solver, K=2)


def test_reference_problem_at_N18():
    # without column equilibration the inner fits at N = 18 lost rank and
    # the boundary error was 1.5e-2
    bench = T.exact_benchmark()
    solution = _solve(bench.spec, 18, 6)
    ts = np.linspace(0.0, 1.0, 101)
    err = np.max(np.abs(solution.s_eval(ts) - bench.exact_s(ts)))
    assert err <= 1e-4


@pytest.mark.parametrize("beta, t_final, degree, K, gate", [
    pytest.param(0.0, 1.0, 24, 12, 1e-6, id="0.0-1.0"),
    pytest.param(20.0, 0.5, 24, 12, 1e-6, id="20.0-0.5"),
    # a rank cut of 1e-12 set this at 6.2e-7; the cut of 1e-14 gave 6.6e-11
    pytest.param(20.0, 0.5, 28, 12, 1e-9, id="20.0-0.5-N28"),
    # the monomial search coordinates set this at 7.6e-2; Chebyshev ones
    # gave 3.3e-7
    pytest.param(20.0, 0.5, 32, 16, 1e-6, id="20.0-0.5-N32"),
])
def test_hermite_modes_gate(beta, t_final, degree, K, gate):
    # non-constant q, a boundary that is not a polynomial and, at beta = 20,
    # a shift c = 20 with a non-trivial f; errors were 4.9e-7 and 1.1e-8
    bench = T.hermite_benchmark(beta, t_final)
    solution = _solve(bench.spec, degree, K)
    assert solution.table.f.shift == beta
    ts = np.linspace(0.0, t_final, 201)
    err = np.max(np.abs(solution.s_eval(ts) - bench.exact_s(ts)))
    assert err <= gate


@pytest.mark.parametrize("beta, t_final, eps", [(0.0, 1.0, 1.0),
                                                (20.0, 0.5, 2e-4)])
def test_melt_rate_reference_halves_to_1e_12(beta, t_final, eps,
                                             melt_rate_hermite):
    # the RK4 reference s of the melt-rate gates: 20,000 against 40,000
    # steps, at the nodes and between them; measured 1.8e-14 and 9.1e-15
    ts = np.linspace(0.0, t_final, 2001)
    _, coarse = melt_rate_hermite(beta, t_final, eps)
    _, fine = melt_rate_hermite(beta, t_final, eps, steps=40_000)
    assert np.max(np.abs(coarse(ts) - fine(ts))) <= 1e-12


@pytest.mark.parametrize("beta, t_final, eps, degree, K, gate", [
    pytest.param(0.0, 1.0, 1.0, 32, 16, 1e-8, id="beta=0"),
    pytest.param(20.0, 0.5, 2e-4, 32, 12, 1e-10, id="beta=20",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "the search stops after 400 iterations at F = 7.9e-7"))),
])
def test_melt_rate_hermite_gate(beta, t_final, eps, degree, K, gate,
                                melt_rate_hermite):
    # the Stefan condition u_x(s, t) = -s'(t) with non-constant q and an s
    # known only through its ODE; beta = 0 measured 2.9e-9
    spec, exact_s = melt_rate_hermite(beta, t_final, eps)
    solution = _solve(spec, degree, K)
    ts = np.linspace(0.0, t_final, 201)
    assert np.max(np.abs(solution.s_eval(ts) - exact_s(ts))) <= gate


@pytest.mark.parametrize("lam, t0, degree, K, gate", [
    pytest.param(0.5, 1.0, 24, 12, 1e-10, id="lam=0.5"),
    pytest.param(1.0, 0.25, 32, 12, 1e-6, id="lam=1"),
])
def test_neumann_stefan_gate(lam, t0, degree, K, gate, neumann_stefan):
    # the classical Stefan problem in one window, against Neumann's
    # similarity solution; measured 3.4e-11 and 5.4e-7
    spec, exact_s, _ = neumann_stefan(lam, t0, 1.0)
    solution = _solve(spec, degree, K)
    ts = np.linspace(0.0, 1.0, 201)
    assert np.max(np.abs(solution.s_eval(ts) - exact_s(ts))) <= gate


def test_neumann_stefan_solution(neumann_stefan):
    # u on the 50 x 50 solution grid; measured 2.2e-10
    spec, _, exact_u = neumann_stefan(0.5, 1.0, 1.0)
    solution = _solve(spec, 24, 12)
    x, t, u = solution.grid.T
    assert np.max(np.abs(u - exact_u(x, t))) <= 1e-8


def _closed_form_q_minus_2():
    # u = cos(x) e^t solves u_xx + 2 u = u_t; the unshifted y1 =
    # cos(sqrt(2) x) vanishes in [0, 2], so the basis is e^(2t) H_n[q + 2]
    def s(t):
        return 1.0 + 0.5 * t + 0.3 * t * t

    spec = T.ProblemSpec(
        q=lambda x: -2.0, L=2.0, l=1.0, T=0.5,
        g1=lambda x: np.cos(x), g2=lambda t: 0.0,
        g3=lambda t: np.cos(s(t)) * np.exp(t),
        flux_data=lambda t: -np.sin(s(t)) * np.exp(t))
    return T.InnerSolver(spec, T.prepare(spec, degree=12), 100, 100)


@pytest.mark.parametrize("case, b", [
    ("reference", [0.1, 0.0, 0.0, 0.0, 0.0, 0.0]),
    ("manufactured", [0.3, 0.1]),
    ("q=-2", [0.4, 0.1]),
])
def test_jacobian_gives_the_exact_gradient(case, b, manufactured,
                                           benchmark_solution):
    # Kaufman's Jacobian leaves out a term that lies in the column space of
    # the collocation matrix, orthogonal to the residual: so J^T r is the
    # gradient of |r|^2 / 2, and J is the finite-difference Jacobian
    # projected off that column space.  The oracle is central differences
    # at a non-optimal b.
    if case == "reference":
        solver = _benchmark_solver(benchmark_solution)
    elif case == "q=-2":
        solver = _closed_form_q_minus_2()
    else:
        solver = manufactured[0]

    def residual_at(b):
        return solver.fit(T.BoundaryModel(solver.spec.l, b), clamp=True).residual

    b = np.asarray(b, float)
    fit = solver.fit(T.BoundaryModel(solver.spec.l, b), clamp=True)
    if case == "q=-2":
        assert solver.table.f.shift == 2.0
    r, jac = fit.residual, solver.jacobian(fit)
    oracle_gradient = np.empty_like(b)
    oracle_jac = np.empty_like(jac)
    for j in range(len(b)):
        step = np.zeros_like(b)
        step[j] = np.finfo(float).eps ** (1 / 3) * max(1.0, abs(b[j]))
        hi, lo = residual_at(b + step), residual_at(b - step)
        oracle_gradient[j] = (hi @ hi - lo @ lo) / (4 * step[j])
        oracle_jac[:, j] = (hi - lo) / (2 * step[j])
    gradient = jac.T @ r
    assert (np.linalg.norm(gradient - oracle_gradient)
            <= 1e-6 * np.linalg.norm(oracle_gradient))
    # the finite differences, projected with I - U U^T
    u = fit.range_basis
    projected = oracle_jac - u @ (u.T @ oracle_jac)
    assert np.linalg.norm(projected - jac) <= 1e-6 * np.linalg.norm(jac)


@pytest.mark.parametrize("b, message", [
    ([-2.3, 0.0], r"got s\(1\)=-1\.3, L=2\.0"),
    ([3.0, -0.5], r"got s\(1\)=3\.5, L=2\.0"),
], ids=["below-0", "above-L"])
def test_jacobian_refuses_a_clipped_fit(b, message, manufactured):
    # s(t) = 1 - 2.3 t passes 0 near t = 0.435 and 1 + 3 t - 0.5 t^2 passes
    # L = 2 near t = 0.35: the fit's s is clipped into the band, so its
    # residual is not that of its boundary.  The search never asks for the
    # Jacobian of such a fit, whose objective is inf
    solver, _ = manufactured
    fit = solver.fit(T.BoundaryModel(solver.spec.l, b), clamp=True)
    assert fit.violation.any()
    with pytest.raises(ConfigurationError,
                       match=r"need 1e-06 <= s\(t\) <= L at the collocation "
                             r"times, " + message):
        solver.jacobian(fit)


@pytest.mark.parametrize("degree, gate", [(16, 1e-9), (20, 1e-10)])
def test_reference_problem_at_K12_from_a_cold_start(degree, gate):
    # with a central-difference Jacobian these searches took 3068 (N = 16)
    # and 4136 (N = 20) fits and ended at boundary errors of 5.3e-5 and
    # 8.5e-4; they converged only when started from the K = 10 optimum
    bench = T.exact_benchmark()
    solution = _solve(bench.spec, degree, 12)
    ts = np.linspace(0.0, 1.0, 1001)
    err = np.max(np.abs(solution.s_eval(ts) - bench.exact_s(ts)))
    assert err <= gate
