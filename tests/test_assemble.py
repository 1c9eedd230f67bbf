import numpy as np
import pytest

import thpsolve as T
from thpsolve import (BoundaryModel, ConfigurationError, InnerSolver,
                      ProblemSpec, basis, solve_linear)
from thpsolve.boundary import CONSTRAINT_MARGIN


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
    # T = nan was accepted: NaN fails no comparison
    for name in ("L", "l", "T"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
                make_spec(**{name: value})


def test_anchor_below_the_band_is_a_configuration_error():
    # s(0) = l below CONSTRAINT_MARGIN lies outside the band [1e-6, L] that
    # the search holds every boundary to: l = 1e-7 was accepted, and the
    # search failed with "optimizer returned an inadmissible boundary"
    for l in (1e-7, 0.0, -1.0):
        with pytest.raises(ConfigurationError, match=r"need 1e-06 <= l <= L"):
            make_spec(l=l)
    assert make_spec(l=CONSTRAINT_MARGIN).l == CONSTRAINT_MARGIN


@pytest.mark.parametrize("g1, message", [
    (lambda x: np.ones(3), r"g1 .*\(3,\).*\(101,\)"),
    # values laid out on one grid could not follow InnerSolver's grid, nor
    # be shifted in time; a datum is a callable or None
    (np.ones(101), r"g1 must be a callable, got ndarray"),
], ids=["callable", "array"])
def test_wrong_shape_data_is_a_configuration_error(table_q0, g1, message):
    # a callable datum must return one value per point or a scalar; it
    # escaped as a bare numpy broadcasting ValueError
    spec = ProblemSpec(q=lambda x: 0.0, L=2.0, l=1.0, T=1.0,
                       g1=g1, g3=lambda t: 1.0)
    with pytest.raises(ConfigurationError, match=message):
        InnerSolver(spec, table_q0, 100, 100)


@pytest.mark.parametrize("q", [lambda x: np.ones(3)], ids=["callable"])
def test_wrong_shape_potential_is_a_configuration_error(q):
    spec = make_spec(q=q)
    with pytest.raises(ConfigurationError, match=r"q .*\(3,\).*\(2001,\)"):
        T.prepare(spec)


def test_scalar_potential_is_a_configuration_error():
    # not a callable: this escaped as a bare TypeError "'float' object is
    # not callable"
    with pytest.raises(ConfigurationError, match="q must be a callable"):
        T.prepare(make_spec(q=0.0))


def test_array_potential_is_a_configuration_error():
    # node values of q cannot be read at the boundary points s(t), where
    # the search's Jacobian needs q
    with pytest.raises(ConfigurationError, match=r"q must be a callable.*s\(t\)"):
        make_spec(q=np.zeros(2001))


def test_scalar_lateral_data_is_a_configuration_error(table_q0):
    spec = make_spec(g2=0.0)
    with pytest.raises(ConfigurationError, match="g2 must be a callable, got float"):
        InnerSolver(spec, table_q0, 100, 100)


def test_inner_solver_default_grid(table_q0):
    # the collocation defaults live on InnerSolver alone
    solver = InnerSolver(make_spec(), table_q0)
    assert len(solver.x) == 101 and len(solver.t) == 101
    assert np.array_equal(solver.t, np.linspace(0.0, 1.0, 101))


@pytest.mark.parametrize("key", ["q", "g3"])
def test_complex_data_is_a_configuration_error(key):
    # numpy's cast to float would drop the imaginary part with only a
    # warning, so complex values stop at tabulation, named
    spec = make_spec(**{key: lambda z: 1.0 + 0.5j * z})
    with pytest.raises(ConfigurationError, match=f"{key} must be real"):
        T.solve_free_boundary(T.InnerSolver(
            spec, T.prepare(spec, mesh_points=101, degree=4), 100, 100))


def condition_rows(table, spec, x, t):
    """Row of the initial block at (x, 0) and row of the lateral block at
    (0, t) in the collocation matrix of the grid of tenths of l and T,
    which holds x and t."""
    solver = InnerSolver(spec, table, 10, 10)
    matrix, *_ = solver.system_for(BoundaryModel(spec.l, [0.0]))
    return (matrix[solver.blocks["initial"]][round(10 * x / spec.l)],
            matrix[solver.blocks["lateral"]][round(10 * t / spec.T)])


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


def test_rows_D_E_basics(table_q1):
    # D/E rows at x = s(t): H_n and its x-derivative
    (d, e), = basis(table_q1, 0.9, 0.8)
    phi, phi_prime = table_q1.spline(0.9)
    assert abs(d[0] - phi[0]) < 1e-14
    expected = phi[2] + 2 * 0.8 * phi[0]
    assert abs(d[2] - expected) < 1e-12
    expected_e = phi_prime[2] + 2 * 0.8 * phi_prime[0]
    assert abs(e[2] - expected_e) < 1e-12


def test_rows_D_E_reduce_classically(table_q0, heat_poly):
    s_val, t = 0.7, 0.4
    (d_row, e_row), = basis(table_q0, s_val, t)
    for n in (2, 3, 5):
        d, e = d_row[n], e_row[n]
        assert abs(d - heat_poly(n, s_val, t)) < 1e-8
        h = 1e-6
        fd = (heat_poly(n, s_val + h, t) - heat_poly(n, s_val - h, t)) / (2 * h)
        assert abs(e - fd) < 1e-6


def test_rows_D_E_domain_check(table_q0):
    from thpsolve import DomainError
    with pytest.raises(DomainError):
        basis(table_q0, -0.1, 0.5)
    with pytest.raises(DomainError):
        basis(table_q0, 1.4, 0.5)  # mesh ends at 1


def test_system_shape(manufactured):
    solver, model = manufactured
    matrix, rhs, *_ = solver.system_for(model)
    assert matrix.shape == (101 + 3 * 101, 7)
    assert rhs.shape == (404,)


def test_system_shape_without_initial_block(manufactured):
    solver, model = manufactured
    spec = make_spec(g1=None)
    matrix, *_ = InnerSolver(spec, solver.table, 100, 100).system_for(model)
    assert matrix.shape == (3 * 101, 7)


def test_inadmissible_boundary_rejected(manufactured):
    solver, _ = manufactured
    bad = BoundaryModel(1.0, [5.0, 0.0])  # exceeds L = 2 for large t
    # the message named the band "0 < s(t) <= L"; it is [1e-6, L]
    with pytest.raises(ConfigurationError,
                       match=r"^need 1e-06 <= s\(t\) <= L at the collocation "
                             r"times, got s\(1\)=6, L=2\.0$"):
        solver.system_for(bad)


@pytest.mark.parametrize("b", [[0.5, 0.0], [-2.3, 0.0], [3.0, -0.5]],
                         ids=["inside", "below-0", "above-L"])
def test_system_carries_the_clamped_boundary(manufactured, b):
    # the search reads s and the violation from the fit instead of
    # clamping again; below-0 and above-L leave the band between grid times
    solver, _ = manufactured
    model = BoundaryModel(solver.spec.l, b)
    _, _, system_s, system_violation = solver.system_for(model, clamp=True)
    s, violation = model.clamp(solver.t, solver.spec.L)
    assert np.array_equal(system_s, s)
    assert np.array_equal(system_violation, violation)
    assert violation.any() == (b[0] != 0.5)


@pytest.mark.parametrize("flux_data", ["given", None], ids=["flux", "melt-rate"])
def test_writing_into_a_system_leaves_the_next_unchanged(manufactured,
                                                         flux_data):
    # every system starts from copies of the solver's fixed rows, so one
    # caller's writes do not reach the next
    solver, model = manufactured
    if not flux_data:
        solver = InnerSolver(make_spec(flux_data=None), solver.table, 100, 100)
    first_matrix, first_rhs, *_ = solver.system_for(model)
    matrix, rhs = first_matrix.copy(), first_rhs.copy()
    first_matrix[:] = np.nan
    first_rhs[:] = np.nan
    again_matrix, again_rhs, *_ = solver.system_for(model)
    assert np.array_equal(again_matrix, matrix)
    assert np.array_equal(again_rhs, rhs)


@pytest.mark.parametrize("key, name, datum", [
    ("g1", "g1", lambda x: np.full_like(x, np.inf)),
    ("g3", "g3", lambda t: np.full_like(t, np.nan)),
    ("flux_data", "flux data", lambda t: np.full_like(t, np.nan)),
    ("gamma11", "gamma11", lambda x: np.full_like(x, np.nan)),
    ("q", "q", lambda x: np.full_like(x, np.nan)),
], ids=["g1-inf", "g3-nan", "flux-nan", "gamma11-nan", "q-nan"])
def test_nonfinite_data_is_a_configuration_error(key, name, datum):
    # a bare LinAlgError (g1, g3, flux data), an OptimizationError (gamma11)
    # and a ConvergenceError "the potential is too large" (q) before
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        spec = make_spec(**{key: datum})
        T.solve_free_boundary(InnerSolver(spec, T.prepare(spec), 100, 100))


def test_manufactured_recovery(manufactured):
    solver, model = manufactured
    fit = solver.fit(model)
    expected = np.zeros(7)
    expected[0] = expected[2] = 1.0
    assert np.max(np.abs(fit.a - expected)) < 1e-8
    assert fit.F <= 1e-8


def test_solve_linear_identity():
    eye = np.eye(3)
    rhs = np.array([1.0, 0.0, 0.0])
    sol, _ = solve_linear(eye, rhs)
    assert np.allclose(sol, rhs)


def test_solve_linear_stacked_consistent():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    rhs = np.array([3.0, 1.0])
    sol, _ = solve_linear(np.vstack([a, a]), np.concatenate([rhs, rhs]))
    assert np.allclose(a @ sol, rhs, atol=1e-12)


def test_solve_linear_minimum_norm():
    mat = np.array([[1.0, 1.0], [1.0, 1.0]])
    rhs = np.array([2.0, 2.0])
    sol, range_basis = solve_linear(mat, rhs)
    assert np.allclose(sol, [1.0, 1.0], atol=1e-12)
    # rank one: the range basis is the one direction (1, 1) / sqrt(2)
    assert range_basis.shape == (2, 1)
    assert np.allclose(np.abs(range_basis[:, 0]), np.sqrt(0.5), atol=1e-12)


def test_value_function_zero_coefficients(manufactured):
    solver, model = manufactured
    solver = solver
    _, rhs, *_ = solver.system_for(model)
    fit = solver.fit(model, a=np.zeros(7))
    blocks = [rhs[solver.blocks[name]]
              for name in ("initial", "lateral", "dirichlet", "flux")]
    expected = sum(float(np.linalg.norm(b)) ** 2 for b in blocks)
    assert fit.F == pytest.approx(expected, rel=1e-12)


def test_block_consistency(manufactured):
    solver, model = manufactured
    fit = solver.fit(model,
                                                            a=np.full(7, 0.3))
    assert fit.F == pytest.approx(sum(v * v for v in fit.residual_norms),
                                  rel=1e-12)


def test_separability(manufactured):
    rng = np.random.default_rng(17)
    solver, model = manufactured
    solver = solver
    best = solver.fit(model)
    for _ in range(100):
        perturbed = best.a + 1e-3 * rng.normal(size=7)
        other = solver.fit(model, a=perturbed)
        assert other.F >= best.F - 1e-15


def test_normal_equation_equivalence(manufactured):
    solver, model = manufactured
    mat, g, *_ = solver.system_for(model)
    a, _ = solve_linear(mat, g)
    lhs = mat.T @ (mat @ a)
    rhs = mat.T @ g
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))


def test_even_column_restriction_on_benchmark(benchmark_solution):
    bench, solution, _ = benchmark_solution
    table, fit = solution.table, solution.fit
    solver = T.InnerSolver(bench.spec, table, 100, 100)
    matrix, rhs, *_ = solver.system_for(fit.boundary)
    even = np.arange(0, table.degree + 1, 2)
    sub = matrix[:, even]
    a_even, *_ = np.linalg.lstsq(sub, rhs, rcond=1e-12)
    f_even = float(np.linalg.norm(sub @ a_even - rhs)) ** 2
    assert f_even <= 10.0 * fit.F


@pytest.mark.parametrize("degree", [18, 20])
def test_high_degree_refit_at_exact_boundary(degree):
    # the docs/config.md example at its exact boundary s = 1 + t/2; without
    # column equilibration the rank cut left F = 5.0 (N = 18) and 374 (N = 20)
    spec = make_spec()
    model = BoundaryModel(1.0, [0.5])
    fit = InnerSolver(spec, T.prepare(spec, degree=degree), 100, 100).fit(model)
    assert fit.F <= 1e-20


def test_inner_solver_refuses_a_float_collocation_count():
    # n_x = 10.5 raised a bare TypeError inside np.linspace
    spec = T.exact_benchmark().spec
    table = T.prepare(spec, mesh_points=101)
    with pytest.raises(ConfigurationError, match="n_x must be an integer"):
        InnerSolver(spec, table, 10.5, 100)
    with pytest.raises(ConfigurationError, match="n_t"):
        InnerSolver(spec, table, 100, True)
    assert len(InnerSolver(spec, table, np.int64(10), 100).x) == 11


def test_inner_solver_refuses_a_bad_collocation_count(table_q0):
    spec = make_spec(L=1.0)
    with pytest.raises(ConfigurationError, match="n_x must be an integer"):
        InnerSolver(spec, table_q0, 10.0, 10)
    with pytest.raises(ConfigurationError, match="n_t must be an integer >= 1"):
        InnerSolver(spec, table_q0, 10, 0)


@pytest.mark.parametrize("spec, message", [
    (dict(L=2.0, l=1.5), "initial boundary l lies outside the mesh"),
], ids=["l-off-mesh"])
def test_inner_solver_refuses_a_mismatched_grid(spec, message):
    # the table's mesh ends at x = 1
    table = T.prepare(ProblemSpec(q=lambda x: 0.0, L=1.0, l=1.0, T=1.0,
                                  g3=lambda t: 1.0), degree=4)
    spec = ProblemSpec(**{**dict(q=lambda x: 0.0, L=1.0, l=1.0, T=1.0,
                                 g3=lambda t: 1.0), **spec})
    with pytest.raises(ConfigurationError, match=message):
        InnerSolver(spec, table, 10, 10)
