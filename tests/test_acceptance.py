"""Acceptance gate: every headline requirement checked at its tolerance.

Each test prints a PASS/FAIL line so the suite doubles as a report:
run with ``pytest tests/test_acceptance.py -s``.
"""

import time

import numpy as np
import pytest

import thpsolve as T


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_classical_reduction(table_q0, heat_poly):
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 20)
    x, t = (v.ravel() for v in np.meshgrid(grid, grid, indexing="ij"))
    thp = T.basis(table_q0, x, t)[:, 0]
    hp = np.array([[heat_poly(n, xi, ti) for n in range(13)]
                   for xi, ti in zip(x, t)])
    worst = np.max(np.abs(thp - hp) / (1.0 + np.abs(hp)))
    elapsed = time.perf_counter() - t0
    report("criterion 1: classical reduction",
           worst <= 1e-8 and elapsed < 5.0,
           f"max relative deviation {worst:.3e}, {elapsed:.1f} s")


def test_criterion_2_formal_power_oracles(table_q1):
    t0 = time.perf_counter()
    xs = np.linspace(0.0, 1.0, 500)
    phi = table_q1.spline(xs)[:, 0]
    err_phi1 = np.max(np.abs(phi[:, 1] - np.sinh(xs)))
    err_phi0 = np.max(np.abs(phi[:, 0] - np.cosh(xs)))

    from test_particular import rk4_second_order
    mesh = T.UniformMesh(1.5, 2001)
    sol = T.solve_particular(T.SampledFunction(mesh, mesh.nodes ** 2))
    oracle = rk4_second_order(lambda x: x * x, 1.0, 1e-5)
    err_f = abs(T.Interpolant(mesh, sol.f.values, sol.f_prime.values)(1.0)
                - oracle)
    elapsed = time.perf_counter() - t0
    report("criterion 2: formal-power oracles",
           err_phi1 <= 1e-8 and err_phi0 <= 1e-8 and err_f <= 1e-7
           and elapsed < 5.0,
           f"|phi1-sinh| {err_phi1:.2e}, |phi0-cosh| {err_phi0:.2e}, "
           f"|f(1)-RK4| {err_f:.2e}, {elapsed:.1f} s")


def test_criterion_3_inner_problem_exactness(manufactured):
    solver, model = manufactured
    fit = solver.fit(model)
    expected = np.zeros(7)
    expected[0] = expected[2] = 1.0
    coeff_err = np.max(np.abs(fit.a - expected))
    report("criterion 3: inner-problem exactness",
           coeff_err <= 1e-6 and fit.F <= 1e-10,
           f"coefficient error {coeff_err:.2e}, F {fit.F:.2e}")


def test_criterion_4_benchmark_coefficients(benchmark_solution):
    _, solution, _ = benchmark_solution
    a = solution.fit.a
    targets = {0: (1.00000201, 1e-3), 2: (-0.50002066, 1e-3),
               4: (1.0 / 24.0, 2e-3), 6: (-1.0 / 720.0, 5e-4)}
    errs = {n: abs(a[n] - ref) for n, (ref, _) in targets.items()}
    ok = all(errs[n] <= tol for n, (_, tol) in targets.items())
    report("criterion 4: benchmark coefficients", ok,
           ", ".join(f"a_{n} err {errs[n]:.2e}" for n in targets))


def test_criterion_4_cli_validate_example(tmp_path):
    from thpsolve.cli import main
    out = tmp_path / "val"
    code = main(["validate-example", "--out", str(out)])
    report("criterion 4/7: validate-example exit code", code == 0,
           f"exit {code}")
    text = (out / "residuals.txt").read_text()
    report("criterion 7: residuals reported",
           all(f"I_{i}" in text for i in (1, 2, 3, 4)) and "F =" in text,
           "residuals.txt lists I_1..I_4 and F")


def test_criterion_5_boundary_accuracy(benchmark_solution):
    bench, solution, _ = benchmark_solution
    ts = np.linspace(0.0, 1.0, 1001)
    err = np.max(np.abs(solution.s_eval(ts) - bench.exact_s(ts)))
    report("criterion 5: boundary accuracy", err <= 1e-2,
           f"max |s_K - s_exact| = {err:.3e}")


def test_criterion_6_solution_accuracy(benchmark_solution):
    bench, solution, _ = benchmark_solution
    ts = np.linspace(0.0, 1.0, 50)
    x = np.concatenate([np.linspace(0.0, solution.s_eval(t), 50) for t in ts])
    t = np.repeat(ts, 50)
    u = solution.u_eval(x, t)
    err = np.max(np.abs(u - bench.exact_u(x, t)))
    report("criterion 6: solution accuracy", err <= 1e-2,
           f"max |u_N - u_exact| = {err:.3e}")


def test_criterion_7_condition_residual_maxima(benchmark_solution):
    maxima = benchmark_solution[1].fit.residual_maxima
    ok = all(mx <= 1e-2 for mx in maxima)
    report("criterion 7: boundary-condition residual maxima", ok,
           ", ".join(f"{mx:.2e}" for mx in maxima))


def test_criterion_8_runtime(benchmark_solution):
    _, _, elapsed = benchmark_solution
    report("criterion 8: runtime", elapsed <= 60.0, f"{elapsed:.1f} s")


def test_criterion_9_property_suite(benchmark_solution, table_q1):
    # quadrature degree-5 exactness
    mesh = T.UniformMesh(1.0, 16)
    quad_ok = True
    for k in range(6):
        F = T.cumulative_integral(mesh.nodes ** k, mesh.h)
        exact = mesh.nodes ** (k + 1) / (k + 1)
        err = np.max(np.abs(F - exact)[1:]
                     / np.maximum(np.abs(exact[1:]), 1e-30))
        quad_ok = quad_ok and err < 1e-12
    report("criterion 9a: quadrature degree-5 exactness", quad_ok, "")

    # spline cubic reproduction
    m = T.UniformMesh(2.0, 21)
    cube = lambda x: x ** 3 - 2 * x
    interp = T.Interpolant(m, cube(m.nodes), 3 * m.nodes ** 2 - 2)
    xs = np.linspace(0.0, 2.0, 777)
    spline_err = np.max(np.abs(interp(xs) - cube(xs)))
    report("criterion 9b: spline cubic reproduction", spline_err < 1e-12,
           f"max error {spline_err:.2e}")

    # Ei inverse roundtrip
    xs = np.linspace(0.3, 1.2, 200)
    round_err = np.max(np.abs(T.ei_inv(T.ei(xs)) - xs))
    report("criterion 9c: Ei inverse roundtrip", round_err <= 1e-8,
           f"max error {round_err:.2e}")

    # flux identity of the exact pair
    bench = benchmark_solution[0]
    h = 1e-6
    ts = np.linspace(0.01, 0.99, 101)
    s_t = bench.exact_s(ts)
    s_dot = (bench.exact_s(ts + h) - bench.exact_s(ts - h)) / (2 * h)
    flux_err = np.max(np.abs(-s_t * bench.exact_u(s_t, ts) + s_dot))
    report("criterion 9d: exact-pair flux identity", flux_err <= 1e-6,
           f"max error {flux_err:.2e}")

    # each basis function solves the evolution equation
    rng = np.random.default_rng(1)
    # small times keep |H_n| on the scale of |phi_n|, matching the bound
    pts = list(zip(rng.uniform(0.1, 0.9, 6), rng.uniform(0.02, 0.2, 6)))
    basis_ok = True
    worst = 0.0
    for n in range(13):
        coeffs = np.zeros(13)
        coeffs[n] = 1.0
        resid = T.pde_residual(table_q1, lambda x: 1.0, coeffs, pts)
        bound = 1e-3 * (1.0 + np.max(np.abs(table_q1.values[n, 0])))
        worst = max(worst, resid / bound)
        basis_ok = basis_ok and resid <= bound
    report("criterion 9e: basis functions solve the equation", basis_ok,
           f"worst ratio to bound {worst:.2f}")

    # determinism of the boundary search
    _, solution, _ = benchmark_solution
    repeat = T.solve_free_boundary(T.InnerSolver(bench.spec, solution.table,
                                                 100, 100), K=6)
    report("criterion 9f: optimizer determinism",
           np.array_equal(repeat.fit.b, solution.fit.b), "bit-identical coefficients")


@pytest.mark.parametrize("q, u, u_x, t_final, degree, K, gate, dtype", [
    # q = +4 (real branch): u = cosh(x) e^(-3t)
    pytest.param(4.0, lambda x, t: np.cosh(x) * np.exp(-3.0 * t),
                 lambda x, t: np.sinh(x) * np.exp(-3.0 * t),
                 0.5, 16, 4, 1e-6, np.float64, id="q=+4"),
    # q = -2 (the unshifted y1 = cos(sqrt(2) x) vanishes in [0, 2]; with
    # the shift c = 2 the table is real): u = cos(x) e^t
    pytest.param(-2.0, lambda x, t: np.cos(x) * np.exp(t),
                 lambda x, t: -np.sin(x) * np.exp(t),
                 0.5, 16, 2, 1e-10, np.float64, id="q=-2"),
    # q = -20: u = cos(x) e^(19t) grows fast in t.  Unshifted, the
    # polynomial t-part of H_n (degree n // 2) had to resolve that growth:
    # boundary errors 6.4e-6 at N = 20 and 6.1e-11 at N = 28 (T = 0.2), and
    # 0.67 at N = 20 (T = 0.5); the factor e^(20 t) now carries it
    pytest.param(-20.0, lambda x, t: np.cos(x) * np.exp(19.0 * t),
                 lambda x, t: -np.sin(x) * np.exp(19.0 * t),
                 0.2, 28, 2, 1e-9, np.float64, id="q=-20"),
    pytest.param(-20.0, lambda x, t: np.cos(x) * np.exp(19.0 * t),
                 lambda x, t: -np.sin(x) * np.exp(19.0 * t),
                 0.5, 20, 2, 1e-10, np.float64, id="q=-20,T=0.5"),
])
def test_high_degree_closed_form_boundary(q, u, u_x, t_final, degree, K,
                                          gate, dtype):
    # u solves u_xx - q u = u_t with u_x(0, t) = 0; the data are its traces
    # on the boundary s(t) = 1 + 0.5 t + 0.3 t^2
    def s(t):
        return 1.0 + 0.5 * t + 0.3 * t * t

    spec = T.ProblemSpec(
        q=lambda x: q, L=2.0, l=1.0, T=t_final,
        g1=lambda x: u(x, 0.0),
        g2=lambda t: 0.0,
        g3=lambda t: u(s(t), t),
        flux_data=lambda t: u_x(s(t), t),
    )
    table = T.prepare(spec, degree=degree)
    solution = T.solve_free_boundary(T.InnerSolver(spec, table, 100, 100), K=K)
    fit = solution.fit
    ts = np.linspace(0.0, t_final, 201)
    err = np.max(np.abs(solution.s_eval(ts) - s(ts)))
    report(f"closed form: q = {q:+g}, T = {t_final:g} boundary at N = {degree}, "
           f"K = {K}",
           err <= gate and max(fit.residual_maxima) <= 1e-2
           and table.values.dtype == dtype,
           f"max |s_K - s_exact| = {err:.3e}, F {fit.F:.2e}, residual maxima "
           f"{max(fit.residual_maxima):.2e}, table {table.values.dtype}")
