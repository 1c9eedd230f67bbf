import numpy as np
import pytest

from thpsolve import (BoundaryModel, ConfigurationError, DomainError,
                      InnerSolver, ProblemSpec, SampledFunction, UniformMesh,
                      basis, build_formal_powers, exact_benchmark, prepare,
                      solve_particular)


def test_monomials_for_zero_potential(table_q0):
    nodes = table_q0.mesh.nodes
    for n in range(13):
        assert np.max(np.abs(table_q0.values[n, 0] - nodes ** n)) < 1e-10


def test_phi0_is_f(table_q1):
    assert np.array_equal(table_q1.values[0, 0], table_q1.f.f.values)


def test_phi1_is_sinh_for_unit_potential(table_q1):
    xs = np.linspace(0.0, 1.0, 200)
    assert np.max(np.abs(table_q1.spline(xs)[:, 0, 1] - np.sinh(xs))) < 1e-8


def test_spline_slopes_are_exact_at_cell_midpoints(table_q1):
    # the Hermite slopes of (phi, phi') are the exact (phi', phi''), with
    # phi'' from the recursion; a wrong phi'' shows as about h times its
    # error in the interpolated phi'
    nodes = table_q1.mesh.nodes
    mid = (nodes[:-1] + nodes[1:]) / 2
    phi = table_q1.spline(mid)
    closed = {(0, 0): np.cosh, (1, 0): np.sinh, (0, 1): np.sinh, (1, 1): np.cosh}
    for (d, n), exact in closed.items():
        assert np.max(np.abs(phi[:, d, n] - exact(mid))) < 1e-12


def test_eval_basics(table_q0):
    phi, phi_prime = table_q0.spline(0.5)
    assert phi[3] == pytest.approx(0.125, abs=1e-10)
    assert phi_prime[3] == pytest.approx(0.75, abs=1e-9)
    assert np.max(np.abs(table_q0.spline(0.0)[0, 1:])) < 1e-14


def test_domain_checks(table_q0):
    assert table_q0.spline([0.5, 1.0]).shape == (2, 2, 13)
    with pytest.raises(DomainError):
        table_q0.spline(1.5)
    with pytest.raises(DomainError):
        basis(table_q0, 1.5, 0.2)
    with pytest.raises(DomainError):
        basis(table_q0, -0.1, 0.2)
    # rounding noise at the mesh ends is tolerated
    edges = basis(table_q0, [-1e-13, 1.0 + 1e-13], 0.0)[:, 0, 1]
    assert np.allclose(edges, [0.0, 1.0], atol=1e-12)


def test_initial_values(table_q1):
    # phi_n(0) = delta_n0; phi_n'(0) = delta_n1 for an f with f'(0) = 0
    phi, phi_prime = table_q1.spline(0.0)
    assert phi[0] == pytest.approx(1.0)
    assert phi_prime[1] == pytest.approx(1.0, abs=1e-12)
    for n in range(2, 13, 2):
        assert abs(phi_prime[n]) < 1e-10


def test_derivative_consistency(table_q1):
    xs = np.linspace(0.05, 0.95, 100)
    h = 1e-5
    for n in (1, 2, 5, 8):
        fd = (table_q1.spline(xs + h)[:, 0, n]
              - table_q1.spline(xs - h)[:, 0, n]) / (2 * h)
        closed = table_q1.spline(xs)[:, 1, n]
        scale = np.maximum(np.abs(closed), 1.0)
        assert np.max(np.abs(fd - closed) / scale) < 1e-5


def test_ode_property(table_q1):
    # (d^2/dx^2 - q) phi_n = n (n-1) phi_(n-2)
    mesh = table_q1.mesh
    nodes = mesh.nodes[5:-5]
    h = mesh.h
    q = 1.0
    for n in (2, 3, 6):
        vals = table_q1.values[n, 0]
        second = (vals[6:-4] - 2 * vals[5:-5] + vals[4:-6]) / h ** 2
        lhs = second - q * vals[5:-5]
        rhs = n * (n - 1) * table_q1.spline(nodes)[:, 0, n - 2]
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-4


def test_degree_follows_the_values(table_q1):
    import dataclasses
    assert table_q1.degree == len(table_q1.values) - 1
    assert dataclasses.replace(table_q1, values=table_q1.values[:3]).degree == 2


def test_rejects_vanishing_f(table_q0):
    import dataclasses
    bad = dataclasses.replace(
        table_q0.f,
        f=type(table_q0.f.f)(table_q0.mesh,
                             np.zeros(table_q0.mesh.n_points)),
    )
    from thpsolve import ConfigurationError
    with pytest.raises(ConfigurationError):
        build_formal_powers(bad, 3)


def test_spline_built_on_first_use(table_q0):
    # reading node values must not pay for the spline
    table = build_formal_powers(table_q0.f, 3)
    assert "spline" not in vars(table)
    assert np.array_equal(table.values, table_q0.values[:4])
    spline = table.spline
    basis(table, 0.5, 0.1)
    assert table.spline is spline


@pytest.mark.parametrize("q, L, dtype", [(1.0, 1.0, np.float64)],
                         ids=["real-branch"])
def test_dtype_follows_the_branch(q, L, dtype):
    # q = 1 on [0, 1] takes the branch y1 = cosh and stays real end to end
    mesh = UniformMesh(L, 2001)
    potential = SampledFunction(mesh, np.full(mesh.n_points, q))
    table = build_formal_powers(solve_particular(potential), 8)
    spec = ProblemSpec(q=lambda x: q, L=L, l=0.5, T=0.5, g1=np.cosh,
                       g2=lambda t: 0.0, g3=lambda t: 1.0)
    solver = InnerSolver(spec, table, 20, 20)
    model = BoundaryModel(0.5, [0.1])
    arrays = [table.values, basis(table, 0.3, 0.2),
              solver.system_for(model)[0], solver.fit(model).a]
    assert [a.dtype for a in arrays] == [dtype] * 4


def test_ode_property_on_complex_branch():
    # q = -20 on [0, 2] once took the y1 + i y2 branch (y1 = cos(sqrt(20) x)
    # changes sign); the table is now real, built for q + c = 0, so phi_n is
    # x^n, and (d^2/dx^2 - (q + c)) phi_n = n (n-1) phi_(n-2) at the nodes
    mesh = UniformMesh(2.0, 2001)
    f = solve_particular(SampledFunction(mesh, np.full(mesh.n_points, -20.0)))
    table = build_formal_powers(f, 12)
    assert table.values.dtype == np.float64 and f.shift == 20.0
    phi = table.values[:, 0]
    x = mesh.nodes
    for n in (2, 3, 6, 9, 12):
        assert np.max(np.abs(phi[n] - x ** n)) <= 1e-12 * 2.0 ** n
        second = (phi[n, 2:] - 2 * phi[n, 1:-1] + phi[n, :-2]) / mesh.h ** 2
        lhs = second - f.q.values[1:-1] * phi[n, 1:-1]
        rhs = n * (n - 1) * phi[n - 2, 1:-1]
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-4


@pytest.mark.parametrize("degree", [0, 1, 12])
def test_two_integrals_per_degree(table_q1, integral_calls, degree):
    # every integral goes through the one traced entry point, one call per
    # degree on the stack of both chains
    build_formal_powers(table_q1.f, degree)
    assert integral_calls == [(2, table_q1.mesh.n_points)] * degree


def test_prepare_refuses_a_float_degree():
    # degree = 2.0 raised a bare TypeError inside numpy
    spec = exact_benchmark().spec
    with pytest.raises(ConfigurationError, match="degree must be an integer"):
        prepare(spec, mesh_points=101, degree=2.0)
    with pytest.raises(ConfigurationError, match="degree"):
        prepare(spec, mesh_points=101, degree=False)
    assert prepare(spec, mesh_points=101, degree=np.int32(2)).degree == 2


@pytest.mark.parametrize("case, mesh_points, top, degrees", [
    ("basis", 20001, 20, (0, 2, 7, 19)),
    ("reference", 2001, 12, (5,)),
], ids=["basis", "reference"])
def test_table_does_not_depend_on_the_degree_built_to(case, mesh_points, top,
                                                      degrees):
    # row n of the table is the same bits whatever degree it is built to,
    # so a command may build only the degrees it writes
    spec = (ProblemSpec(q=lambda x: x * x, L=2.0, l=1.0, T=1.0,
                        g3=lambda t: 1.0)
            if case == "basis" else exact_benchmark().spec)
    full = prepare(spec, mesh_points, top).values
    for k in degrees:
        assert np.array_equal(prepare(spec, mesh_points, k).values,
                              full[:k + 1])
