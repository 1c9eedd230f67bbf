import functools
import math

import numpy as np
import pytest

import thpsolve as T


@pytest.fixture(scope="session")
def mesh01():
    return T.UniformMesh(1.0, 2001)


@pytest.fixture
def integral_calls(monkeypatch):
    """The shape of the array integrated by each cumulative_integral call
    made by the particular and formal_powers modules, wrapped in their
    namespaces the way the benchmark's tracer wraps them."""
    shapes = []

    def recorded(*args):
        shapes.append(args[0].shape)
        return T.cumulative_integral(*args)
    for module in (T.particular, T.formal_powers):
        monkeypatch.setattr(module, "cumulative_integral", recorded)
    return shapes


@pytest.fixture(scope="session")
def heat_poly():
    """The classical heat polynomial h_n(x, t) = sum_k c_k^n x^(n-2k) t^k
    at a scalar point: the oracle of the basis kernel."""
    def h(n: int, x: float, t: float) -> float:
        total = 0.0
        tk = 1.0
        for k in range(n // 2 + 1):
            total += T.heat_coeff(n, k) * x ** (n - 2 * k) * tk
            tk *= t
        return total
    return h


@pytest.fixture(scope="session")
def table_q0(mesh01):
    """Formal powers for q = 0 on [0, 1]: phi_n = x^n."""
    f = T.solve_particular(T.SampledFunction(mesh01, np.full(mesh01.n_points, 0.0)))
    return T.build_formal_powers(f, 12)


@pytest.fixture(scope="session")
def table_q1(mesh01):
    """Formal powers for q = 1 on [0, 1]: f = cosh, phi_1 = sinh."""
    f = T.solve_particular(T.SampledFunction(mesh01, np.full(mesh01.n_points, 1.0)))
    return T.build_formal_powers(f, 12)


@pytest.fixture(scope="session")
def manufactured():
    """q = 0 problem with exact data from u = h0 + h2 = 1 + x^2 + 2t on the
    boundary s(t) = 1 + 0.5 t; the flux data on the moving boundary are
    supplied explicitly so the instance is exactly consistent.  Returns its
    InnerSolver, on 100 intervals in x and in t, and the exact boundary."""
    spec = T.ProblemSpec(
        q=lambda x: 0.0, L=2.0, l=1.0, T=1.0,
        g1=lambda x: 1.0 + x * x,
        g2=lambda t: 0.0,
        g3=lambda t: 1.0 + (1.0 + 0.5 * t) ** 2 + 2.0 * t,
        flux_data=lambda t: 2.0 * (1.0 + 0.5 * t),
    )
    table = T.prepare(spec, mesh_points=501, degree=6)
    model = T.BoundaryModel(1.0, [0.5, 0.0])
    return T.InnerSolver(spec, table, 100, 100), model


@pytest.fixture(scope="session")
def benchmark_solution():
    """One full solve of the exact reference problem (shared by the
    acceptance checks); returns (benchmark, solution, elapsed)."""
    import time

    bench = T.exact_benchmark()
    t0 = time.perf_counter()
    solver = T.InnerSolver(bench.spec, T.prepare(bench.spec), 100, 100)
    solution = T.solve_free_boundary(solver, K=6)
    elapsed = time.perf_counter() - t0
    return bench, solution, elapsed


@pytest.fixture(scope="session")
def melt_rate_hermite():
    """Builder of the Hermite modes in melt-rate form: on q = x^2 - beta,
    u = eps (w_0 e^((beta - 1) t) + 0.3 w_2 e^((beta - 5) t)), eps times the
    u of ``hermite_benchmark``, with L = 2, l = 1 and no flux data, so the
    search fits the Stefan condition u_x(s, t) = -s'(t).  The reference s
    solves s' = -u_x(s, t), s(0) = 1, by classical RK4 in ``steps`` steps;
    between the steps it is the cubic Hermite interpolant of the RK values
    with the slopes -u_x.  ``build(beta, t_final, eps, steps)`` returns
    (spec, s) and is cached, as one RK4 run takes a Python loop."""

    @functools.cache
    def build(beta, t_final, eps, steps=20_000):
        u = T.hermite_benchmark(beta, t_final).exact_u

        def u_x(x, t):
            # w_0' = -x w_0 and w_2' = x (10 - 4x^2) w_0
            return eps * x * np.exp(-0.5 * x * x) * (
                -np.exp((beta - 1.0) * t)
                + 0.3 * (10.0 - 4.0 * x * x) * np.exp((beta - 5.0) * t))

        mesh = T.UniformMesh(t_final, steps + 1)
        times, h = mesh.nodes, mesh.h
        s = np.empty(steps + 1)
        s[0] = 1.0
        for i in range(steps):
            k1 = -u_x(s[i], times[i])
            k2 = -u_x(s[i] + 0.5 * h * k1, times[i] + 0.5 * h)
            k3 = -u_x(s[i] + 0.5 * h * k2, times[i] + 0.5 * h)
            k4 = -u_x(s[i] + h * k3, times[i + 1])
            s[i + 1] = s[i] + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        exact_s = T.Interpolant(mesh, s, -u_x(s, times))
        spec = T.ProblemSpec(
            q=lambda x: x * x - beta, L=2.0, l=1.0, T=t_final,
            g1=lambda x: eps * u(x, 0.0),
            g2=lambda t: 0.0,
            g3=lambda t: eps * u(exact_s(t), t),
        )
        return spec, exact_s
    return build


@pytest.fixture(scope="session")
def neumann_stefan():
    """Builder of Neumann's solution of the classical one-phase Stefan
    problem: u_t = u_xx on 0 < x < s(t) with u(0, t) = A erf(lam),
    u(s, t) = 0 and u_x(s, t) = -s'(t), solved by s = 2 lam sqrt(t + t0)
    and u = A (erf(lam) - erf(x / 2 sqrt(t + t0))), A = sqrt(pi) lam
    e^(lam^2).  ``build(lam, t0, T)`` returns (spec, s, u): q = 0,
    l = s(0), L = 1.5 s(T), the trace weights gamma21 = 1, gamma22 = 0 at
    x = 0 and no flux data, so the search fits the melt-rate condition."""
    erf = np.vectorize(math.erf)

    def build(lam, t0, t_final):
        amplitude = math.sqrt(math.pi) * lam * math.exp(lam * lam)

        def s(t):
            return 2.0 * lam * np.sqrt(t + t0)

        def u(x, t):
            return amplitude * (math.erf(lam)
                                - erf(x / (2.0 * np.sqrt(t + t0))))

        spec = T.ProblemSpec(
            q=lambda x: 0.0, L=1.5 * s(t_final), l=s(0.0), T=t_final,
            g1=lambda x: u(x, 0.0),
            gamma21=lambda t: 1.0, gamma22=lambda t: 0.0,
            g2=lambda t: amplitude * math.erf(lam),
            g3=lambda t: 0.0,
        )
        return spec, s, u
    return build
