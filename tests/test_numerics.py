import math

import numpy as np
import pytest

from thpsolve import (ConfigurationError, DomainError, Interpolant,
                      SampledFunction, UniformMesh, cumulative_integral)


def test_mesh_invariants():
    with pytest.raises(ConfigurationError):
        UniformMesh(1.0, 0.0, 11)
    with pytest.raises(ConfigurationError):
        UniformMesh(0.0, 1.0, 12)  # 11 intervals, not divisible by 5
    with pytest.raises(ConfigurationError):
        UniformMesh(0.0, 1.0, 5)
    m = UniformMesh(0.0, 1.0, 11)
    assert m.h == pytest.approx(0.1)
    assert len(m.nodes) == 11


def test_values_length_checked():
    m = UniformMesh(0.0, 1.0, 11)
    with pytest.raises(ConfigurationError):
        SampledFunction(m, np.ones(10))


def test_cumulative_constant():
    m = UniformMesh(0.0, 1.0, 11)
    F = cumulative_integral(SampledFunction.constant(m, 1.0))
    assert np.allclose(F.values.real, m.nodes, atol=1e-15)
    assert F.values[0] == 0.0


def test_cumulative_degree5_exact():
    m = UniformMesh(0.0, 1.0, 11)
    F = cumulative_integral(SampledFunction(m, m.nodes ** 5 + 0j))
    assert F.values[-1].real == pytest.approx(1.0 / 6.0, abs=1e-15)


@pytest.mark.parametrize("k", range(6))
def test_degree5_exactness_all_monomials(k):
    m = UniformMesh(0.0, 1.0, 16)
    F = cumulative_integral(SampledFunction(m, m.nodes ** k + 0j))
    exact = m.nodes ** (k + 1) / (k + 1)
    scale = np.maximum(np.abs(exact), 1e-30)
    assert np.max(np.abs(F.values.real - exact)[1:] / scale[1:]) < 1e-12


def test_cumulative_cos():
    m = UniformMesh(0.0, math.pi / 2, 101)
    F = cumulative_integral(SampledFunction(m, np.cos(m.nodes) + 0j))
    assert abs(F.values[-1] - 1.0) < 1e-10
    # interior nodes too, including sub-block nodes
    assert np.max(np.abs(F.values.real - np.sin(m.nodes))) < 1e-10


def test_cumulative_linearity():
    rng = np.random.default_rng(7)
    m = UniformMesh(0.0, 1.0, 51)
    u = SampledFunction(m, rng.normal(size=51) + 1j * rng.normal(size=51))
    v = SampledFunction(m, rng.normal(size=51) + 1j * rng.normal(size=51))
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    lhs = cumulative_integral(SampledFunction(m, a * u.values + b * v.values)).values
    rhs = a * cumulative_integral(u).values + b * cumulative_integral(v).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))


def test_convergence_order():
    def end_error(n_points):
        m = UniformMesh(0.0, 1.0, n_points)
        F = cumulative_integral(SampledFunction(m, np.exp(m.nodes) + 0j))
        return abs(F.values[-1] - (math.e - 1.0))

    coarse, fine = end_error(11), end_error(21)
    assert coarse / fine >= 2 ** 5


def test_spline_reproduces_cubic():
    m = UniformMesh(0.0, 2.0, 21)
    p = lambda x: x ** 3 - 2 * x
    interp = Interpolant(m, p(m.nodes) + 0j)
    assert abs(interp(0.37) - p(0.37)) < 1e-13
    # interpolation property at a node
    assert abs(interp(m.nodes[7]) - p(m.nodes[7])) < 1e-14


def test_spline_derivative_of_constant():
    m = UniformMesh(0.0, 1.0, 11)
    interp = Interpolant(m, SampledFunction.constant(m, 5.0).values)
    assert abs(interp.derivative(0.5)) < 1e-13


def test_spline_domain_error():
    m = UniformMesh(0.0, 1.0, 11)
    interp = Interpolant(m, SampledFunction.constant(m, 1.0).values)
    with pytest.raises(DomainError):
        interp(1.5)
    with pytest.raises(DomainError):
        interp.derivative(-0.1)
    with pytest.raises(DomainError):
        interp([0.5, np.nan])


def test_spline_fourth_order_on_quartic():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, size=1000)
    quartic = lambda x: x ** 4 - 0.3 * x ** 2 + 0.1 * x

    def max_err(n_points):
        m = UniformMesh(0.0, 1.0, n_points)
        interp = Interpolant(m, quartic(m.nodes) + 0j)
        return np.max(np.abs(interp(pts) - quartic(pts)))

    # halving h should shrink the error by about 2^4
    assert max_err(26) / max_err(51) > 10.0
