import numpy as np
import pytest

import thpsolve as T
from thpsolve import (BoundaryModel, CollocationGrid, ConfigurationError,
                      DegenerateSystemError, InnerSolver, LinearSystem,
                      ProblemSpec, basis, solve_linear)


def make_spec(**overrides):
    base = dict(
        q=lambda x: 0.0, L=2.0, l=1.0, T=1.0,
        g1=lambda x: 1.0 + x * x,
        g2=lambda t: 0.0,
        g3=lambda t: 1.0 + (1.0 + 0.5 * t) ** 2 + 2.0 * t,
        flux_data=lambda t: 2.0 * (1.0 + 0.5 * t),
    )
    base.update(overrides)
    return ProblemSpec(**base)


def test_spec_invariants():
    with pytest.raises(ConfigurationError):
        make_spec(l=3.0)  # l > L
    with pytest.raises(ConfigurationError):
        make_spec(T=0.0)
    with pytest.raises(ConfigurationError):
        make_spec(g3=None)


def condition_rows(table, spec, x, t):
    """Row of the initial block at (x, 0) and row of the lateral block at
    (0, t) in the collocation matrix of a grid that holds x and t."""
    grid = CollocationGrid(np.array([0.0, x, spec.l]), np.array([0.0, t, spec.T]))
    system = InnerSolver(spec, grid, table).system_for(BoundaryModel(spec.l, [0.0]))
    return (system.matrix[system.blocks["initial"]][1],
            system.matrix[system.blocks["lateral"]][1])


def test_initial_block_identity_operator(table_q1):
    spec = make_spec(q=lambda x: 1.0)
    row, _ = condition_rows(table_q1, spec, 0.4, 0.5)
    for n in (0, 1, 4):
        assert abs(row[n] - table_q1.spline(0.4)[0, n]) < 1e-14


def test_initial_block_derivative_operator(table_q0):
    spec = make_spec(gamma11=lambda x: 0.0, gamma12=lambda x: 1.0)
    row, _ = condition_rows(table_q0, spec, 0.7, 0.5)
    for n in (1, 2, 5):
        assert abs(row[n] - n * 0.7 ** (n - 1)) < 1e-8


def test_initial_block_zeroth_column(table_q1):
    spec = make_spec(gamma11=lambda x: 2.0, gamma12=lambda x: 3.0)
    x = 0.6
    phi, phi_prime = table_q1.spline(x)
    expected = 2.0 * phi[0] + 3.0 * phi_prime[0]
    row, _ = condition_rows(table_q1, spec, x, 0.5)
    assert abs(row[0] - expected) < 1e-12


def test_lateral_block_odd(table_q1):
    spec = make_spec()  # gamma21 = 0, gamma22 = 1
    _, row = condition_rows(table_q1, spec, 0.4, 0.5)
    assert abs(row[3] - 6 * 0.5) < 1e-12


def test_lateral_block_even_vanishes_with_zero_slope(table_q1):
    spec = make_spec()
    _, row = condition_rows(table_q1, spec, 0.4, 0.7)
    for n in (0, 2, 4, 6):
        assert abs(row[n]) < 1e-12


def test_lateral_block_even_with_trace_operator(table_q1):
    spec = make_spec(gamma21=lambda t: 1.0, gamma22=lambda t: 0.0)
    _, row = condition_rows(table_q1, spec, 0.4, 0.5)
    assert abs(row[4] - 12 * 0.25) < 1e-12


def test_lateral_block_on_complex_branch():
    # q = -20 on [0, 2] takes the branch f = y1 + i y2, so f'(0) = i; at
    # x = 0 only phi_0 = f, phi_0' = f' and phi_1' = 1 are nonzero, and
    # gamma21 H_n + gamma22 d/dx H_n collapses to one power of t
    mesh = T.UniformMesh(0.0, 2.0, 2001)
    f = T.solve_particular(T.SampledFunction.constant(mesh, -20.0))
    table = T.build_formal_powers(f, 8)
    f_prime_0 = f.f_prime.values[0]
    assert abs(f_prime_0 - 1j) < 1e-12
    spec = make_spec(gamma21=lambda t: 2.0 + t, gamma22=lambda t: 0.5 - t)
    grid = CollocationGrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 11))
    system = InnerSolver(spec, grid, table).system_for(BoundaryModel(1.0, [0.0]))
    block = system.matrix[system.blocks["lateral"]]
    for t, row in zip(grid.t, block):
        g21, g22 = 2.0 + t, 0.5 - t
        for n in range(table.degree + 1):
            k = n // 2
            weight = g22 if n % 2 else g21 + g22 * f_prime_0
            expected = weight * T.heat_coeff(n, k) * t ** k
            assert abs(row[n] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_rows_D_E_basics(table_q1):
    # D/E rows at x = s(t): H_n and its x-derivative
    (d, e), = basis(table_q1, 0.9, 0.8)
    phi, phi_prime = table_q1.spline(0.9)
    assert abs(d[0] - phi[0]) < 1e-14
    expected = phi[2] + 2 * 0.8 * phi[0]
    assert abs(d[2] - expected) < 1e-12
    expected_e = phi_prime[2] + 2 * 0.8 * phi_prime[0]
    assert abs(e[2] - expected_e) < 1e-12


def test_rows_D_E_reduce_classically(table_q0):
    s_val, t = 0.7, 0.4
    (d_row, e_row), = basis(table_q0, s_val, t)
    for n in (2, 3, 5):
        d, e = d_row[n], e_row[n]
        assert abs(d - T.heat_poly(n, s_val, t)) < 1e-8
        h = 1e-6
        fd = (T.heat_poly(n, s_val + h, t) - T.heat_poly(n, s_val - h, t)) / (2 * h)
        assert abs(e - fd) < 1e-6


def test_rows_D_E_domain_check(table_q0):
    from thpsolve import DomainError
    with pytest.raises(DomainError):
        basis(table_q0, -0.1, 0.5)
    with pytest.raises(DomainError):
        basis(table_q0, 1.4, 0.5)  # mesh ends at 1


def test_system_shape(manufactured):
    work, model = manufactured
    system = InnerSolver(work.spec, work.grid, work.table).system_for(model)
    assert system.matrix.shape == (101 + 3 * 101, 7)
    assert system.rhs.shape == (404,)


def test_system_shape_without_initial_block(manufactured):
    work, model = manufactured
    spec = make_spec(g1=None)
    system = InnerSolver(spec, work.grid, work.table).system_for(model)
    assert system.matrix.shape == (3 * 101, 7)


def test_inadmissible_boundary_rejected(manufactured):
    work, _ = manufactured
    bad = BoundaryModel(1.0, [5.0, 0.0])  # exceeds L = 2 for large t
    with pytest.raises(ConfigurationError):
        InnerSolver(work.spec, work.grid, work.table).system_for(bad)


def test_manufactured_recovery(manufactured):
    work, model = manufactured
    fit = InnerSolver(work.spec, work.grid, work.table).fit(model)
    expected = np.zeros(7)
    expected[0] = expected[2] = 1.0
    assert np.max(np.abs(fit.a.real - expected)) < 1e-8
    assert fit.F <= 1e-8


def test_solve_linear_identity():
    eye = np.eye(3, dtype=complex)
    rhs = np.array([1.0, 0.0, 0.0], dtype=complex)
    system = LinearSystem(eye, rhs, {})
    assert np.allclose(solve_linear(system), rhs)


def test_solve_linear_stacked_consistent():
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    rhs = np.array([3.0, 1.0], dtype=complex)
    system = LinearSystem(np.vstack([a, a]), np.concatenate([rhs, rhs]), {})
    sol = solve_linear(system)
    assert np.allclose(a @ sol, rhs, atol=1e-12)


def test_solve_linear_minimum_norm():
    mat = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    rhs = np.array([2.0, 2.0], dtype=complex)
    sol = solve_linear(LinearSystem(mat, rhs, {}))
    assert np.allclose(sol, [1.0, 1.0], atol=1e-12)


def test_solve_linear_degenerate():
    with pytest.raises(DegenerateSystemError):
        solve_linear(LinearSystem(np.zeros((3, 2)), np.ones(3), {}))


def test_value_function_zero_coefficients(manufactured):
    work, model = manufactured
    solver = InnerSolver(work.spec, work.grid, work.table)
    system = solver.system_for(model)
    fit = solver.fit(model, a=np.zeros(7))
    blocks = [system.rhs[system.blocks[name]]
              for name in ("initial", "lateral", "dirichlet", "flux")]
    expected = sum(float(np.linalg.norm(b)) ** 2 for b in blocks)
    assert fit.F == pytest.approx(expected, rel=1e-12)


def test_block_consistency(manufactured):
    work, model = manufactured
    fit = InnerSolver(work.spec, work.grid, work.table).fit(model,
                                                            a=np.full(7, 0.3))
    assert fit.F == pytest.approx(sum(v * v for v in fit.residual_norms),
                                  rel=1e-12)


def test_separability(manufactured):
    rng = np.random.default_rng(17)
    work, model = manufactured
    solver = InnerSolver(work.spec, work.grid, work.table)
    best = solver.fit(model)
    for _ in range(100):
        perturbed = best.a + 1e-3 * (rng.normal(size=7)
                                     + 1j * rng.normal(size=7))
        other = solver.fit(model, a=perturbed)
        assert other.F >= best.F - 1e-15


def test_normal_equation_equivalence(manufactured):
    work, model = manufactured
    system = InnerSolver(work.spec, work.grid, work.table).system_for(model)
    a = solve_linear(system)
    mat = system.matrix
    lhs = mat.conj().T @ (mat @ a)
    rhs = mat.conj().T @ system.rhs
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))


def test_even_column_restriction_on_benchmark(benchmark_solution):
    bench, work, fit, _ = benchmark_solution
    solver = T.InnerSolver(bench.spec, work.grid, work.table)
    system = solver.system_for(fit.boundary)
    even = np.arange(0, work.table.degree + 1, 2)
    sub = system.matrix[:, even]
    a_even, *_ = np.linalg.lstsq(sub, system.rhs, rcond=1e-12)
    f_even = float(np.linalg.norm(sub @ a_even - system.rhs)) ** 2
    assert f_even <= 10.0 * fit.F


@pytest.mark.parametrize("degree", [18, 20])
def test_high_degree_refit_at_exact_boundary(degree):
    # the docs/config.md example at its exact boundary s = 1 + t/2; without
    # column equilibration the rank cut left F = 5.0 (N = 18) and 374 (N = 20)
    work = T.prepare(make_spec(), degree=degree)
    model = BoundaryModel(1.0, [0.5])
    fit = InnerSolver(work.spec, work.grid, work.table).fit(model)
    assert fit.F <= 1e-20
