import numpy as np
import pytest

from thpsolve import (DomainError, basis, heat_coeff, pde_residual,
                      solution_eval)


def test_heat_coeff_values():
    assert heat_coeff(2, 1) == 2
    assert heat_coeff(3, 1) == 6
    assert heat_coeff(4, 2) == 12
    assert heat_coeff(4, 1) == 12
    assert heat_coeff(7, 0) == 1


def test_heat_coeff_guards():
    with pytest.raises(DomainError):
        heat_coeff(2, 2)
    # no degree cap: the coefficients are exact Python integers at any n
    assert heat_coeff(21, 1) == 420
    assert heat_coeff(40, 20) == 335367096786357081410764800000


def test_heat_poly_values(heat_poly):
    assert heat_poly(0, 3.1, -2.0) == 1.0
    assert heat_poly(2, 1.0, 1.0) == pytest.approx(3.0)
    assert heat_poly(4, 2.0, 0.5) == pytest.approx(43.0)


def test_reduction_to_classical(table_q0, heat_poly):
    # for q = 0, H_n = h_n and its x-derivative is n h_(n-1)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    got = basis(table_q0, pts[:, 0], pts[:, 1])
    want = np.array([[[heat_poly(n, x, t) for n in range(13)],
                      [n * heat_poly(n - 1, x, t) if n else 0.0
                       for n in range(13)]] for x, t in pts])
    assert got.shape == want.shape == (20, 2, 13)
    assert np.all(np.abs(got - want) <= 1e-9 * (1 + np.abs(want)))


def test_basis_on_points_of_any_shape(table_q1):
    # 2-D points raised numpy's "could not be broadcast" ValueError; the
    # leading axes are now the broadcast shape of x and t
    X, Tt = np.meshgrid(np.linspace(0.1, 0.9, 4), [0.2, 0.5, 0.8])
    x, t = X.ravel(), Tt.ravel()
    got = basis(table_q1, X, Tt)
    assert got.shape == (3, 4, 2, 13)
    assert np.array_equal(got, basis(table_q1, x, t).reshape(got.shape))
    a = np.linspace(1.0, -1.0, 13)
    u = solution_eval(table_q1, a, X, Tt)
    assert u.shape == (3, 4)
    assert np.array_equal(u, solution_eval(table_q1, a, x, t).reshape(3, 4))
    square = [[0.1, 0.2], [0.3, 0.4]]
    got = basis(table_q1, square, 0.5)
    assert got.shape == (2, 2, 2, 13)
    assert np.array_equal(got.reshape(4, 2, 13), basis(table_q1, np.ravel(square), 0.5))


def test_h0_is_f_for_all_t(table_q1):
    h0 = basis(table_q1, 0.4, [0.0, 0.3, 1.7])[:, 0, 0]
    assert np.max(np.abs(h0 - table_q1.spline(0.4)[0, 0])) < 1e-14


def test_h2_for_unit_potential(table_q1):
    x, t = 0.6, 0.35
    expected = table_q1.spline(x)[0, 2] + 2 * t * np.cosh(x)
    assert abs(basis(table_q1, x, t)[0, 0, 2] - expected) < 1e-8


def test_x_derivative_reduces_classically(table_q0):
    # d/dx h_3 = 3 x^2 + 6 t
    x, t = 0.4, 0.2
    assert abs(basis(table_q0, x, t)[0, 1, 3] - (3 * x * x + 6 * t)) < 1e-8


def test_pde_residual_stationary(table_q1):
    pts = [(x, t) for x in (0.2, 0.5, 0.8) for t in (0.1, 0.5, 1.0)]
    coeffs = np.zeros(13)
    coeffs[0] = 1.0
    f_max = np.max(np.abs(table_q1.f.f.values))
    assert pde_residual(table_q1, lambda x: 1.0, coeffs, pts) <= 1e-4 * f_max


def test_pde_residual_classical_h2(table_q0):
    coeffs = np.zeros(13)
    coeffs[2] = 1.0
    pts = [(0.3, 0.2), (0.6, 0.7), (0.5, 0.5)]
    assert pde_residual(table_q0, lambda x: 0.0, coeffs, pts) <= 1e-5


def test_basis_solution_property(table_q1):
    # Small times keep |H_n| comparable to |phi_n|; for t near 1 the high-n
    # basis functions reach ~1e6 and an absolute finite-difference bound
    # scaled by max|phi_n| is not meaningful.
    rng = np.random.default_rng(9)
    pts = list(zip(rng.uniform(0.1, 0.9, 8), rng.uniform(0.02, 0.2, 8)))
    for n in range(13):
        coeffs = np.zeros(13)
        coeffs[n] = 1.0
        bound = 1e-3 * (1.0 + np.max(np.abs(table_q1.values[n, 0])))
        assert pde_residual(table_q1, lambda x: 1.0, coeffs, pts) <= bound


def test_t_degree(table_q1):
    # H_n(x, .) is a polynomial in t of degree floor(n/2): the next divided
    # difference vanishes
    x = 0.45
    for n in (3, 4, 7):
        m = n // 2
        ts = np.linspace(0.0, 1.0, m + 2)
        vals = list(basis(table_q1, x, ts)[:, 0, n])
        scale = max(abs(v) for v in vals) + 1.0
        table = list(vals)
        for level in range(1, m + 2):
            table = [(table[i + 1] - table[i]) / (ts[i + level] - ts[i])
                     for i in range(len(table) - 1)]
        assert abs(table[0]) <= 1e-8 * scale
