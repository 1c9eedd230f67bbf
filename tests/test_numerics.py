import math
from fractions import Fraction

import numpy as np
import pytest

from thpsolve import (ConfigurationError, DomainError, Interpolant,
                      SampledFunction, UniformMesh, cumulative_integral)
from thpsolve.numerics import _BLOCK, _W, tabulate


def _lagrange_weights() -> list:
    """W[j][i] = integral from 0 to j of the i-th Lagrange basis polynomial
    on the unit-spaced nodes 0..5, in exact rational arithmetic."""
    nodes = range(6)
    w = [[Fraction(0)] * 6 for _ in nodes]
    for i in nodes:
        coeffs = [Fraction(1)]   # ascending powers
        denom = Fraction(1)
        for m in nodes:
            if m == i:
                continue
            denom *= i - m
            new = [Fraction(0)] * (len(coeffs) + 1)   # times (x - m)
            for p, c in enumerate(coeffs):
                new[p] -= c * m
                new[p + 1] += c
            coeffs = new
        anti = [Fraction(0)] + [c / denom / (p + 1) for p, c in enumerate(coeffs)]
        for j in nodes:
            w[j][i] = sum(c * Fraction(j) ** p for p, c in enumerate(anti))
    return w


def _block_formula(v: np.ndarray, h: float) -> np.ndarray:
    """out[5k + j] = h sum_{b<k} sum_i W[5, i] v[5b + i]
                     + h sum_i W[j, i] v[5k + i], written out directly."""
    n_blocks = (len(v) - 1) // 5
    idx = 5 * np.arange(n_blocks)[:, None] + np.arange(6)
    part = np.einsum("ji,ki->kj", _W, h * v[idx])      # (n_blocks, 6)
    before = np.concatenate(([0.0], np.cumsum(part[:-1, 5])))
    out = np.zeros_like(v)
    out[idx[:, 1:]] = before[:, None] + part[:, 1:]
    return out


def _reference_kernel(values: np.ndarray, h: float) -> np.ndarray:
    """The block rule as one matrix product and a broadcast running sum,
    in the operation order whose bits cumulative_integral keeps."""
    lead, n_blocks = values.shape[:-1], (values.shape[-1] - 1) // _BLOCK
    blocks = np.empty(lead + (n_blocks, _BLOCK + 1))
    blocks[..., :_BLOCK] = values[..., :-1].reshape(lead + (n_blocks, _BLOCK))
    blocks[..., _BLOCK] = values[..., _BLOCK::_BLOCK]
    inc = (h * blocks) @ _W[1:].T
    out = np.empty(values.shape)
    out[..., 0] = 0.0
    body = out[..., 1:].reshape(inc.shape)
    body[:] = inc
    body[..., 1:, :] += np.cumsum(inc[..., :-1, -1], axis=-1)[..., None]
    return out


def test_weights_are_the_rational_lagrange_integrals():
    exact = _lagrange_weights()
    # each float weight is its rational value rounded once
    assert np.array_equal(_W, [[float(c) for c in row] for row in exact])
    # row j integrates the constant 1 from 0 to j
    assert [sum(row) for row in exact] == list(range(6))
    assert np.allclose(_W.sum(axis=1), np.arange(6), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_points", [2001, 20001])
@pytest.mark.parametrize("dtype", [float])   # real data integrate in float64
def test_cumulative_matches_block_formula(n_points, dtype):
    rng = np.random.default_rng(n_points)
    m = UniformMesh(2.0, n_points)
    v = rng.normal(size=n_points)
    got = cumulative_integral(v, m.h)
    assert got.dtype == dtype
    expected = _block_formula(v, m.h)
    assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("n_points", [2001, 20001])
def test_stacked_rows_integrate_as_single_rows(n_points):
    # a stack of rows is integrated row by row, to the last bit
    rng = np.random.default_rng(n_points)
    m = UniformMesh(2.0, n_points)
    v = rng.normal(size=(3, n_points))
    got = cumulative_integral(v, m.h)
    assert got.shape == v.shape
    for row, values in zip(got, v):
        assert np.array_equal(row, cumulative_integral(values, m.h))


@pytest.mark.parametrize("lead", [(), (2,), (3,)])
@pytest.mark.parametrize("n_points", [6, 11, 2001, 20001])
def test_cumulative_keeps_the_reference_bits(n_points, lead):
    # the block-formula test above allows 1e-15; this one allows no change
    rng = np.random.default_rng(n_points + len(lead))
    m = UniformMesh(2.0, n_points)
    v = rng.normal(size=lead + (n_points,))
    assert np.array_equal(cumulative_integral(v, m.h), _reference_kernel(v, m.h))


def test_mesh_invariants():
    # the mesh spans [0, x_end]: an empty or reversed span, and an end that
    # is not finite, are refused
    for x_end in (0.0, -0.0, -1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ConfigurationError,
                           match="mesh end must be finite and positive"):
            UniformMesh(x_end, 11)
    with pytest.raises(ConfigurationError, match="divisible by 5"):
        UniformMesh(1.0, 12)  # 11 intervals, not divisible by 5
    with pytest.raises(ConfigurationError, match="n_points"):
        UniformMesh(1.0, 5)


def test_mesh_refuses_a_float_count():
    # 11.0 passed the divisibility test and failed with a bare TypeError
    # at .nodes; a numpy integer is a count, a bool is not
    with pytest.raises(ConfigurationError, match="n_points must be an integer"):
        UniformMesh(1.0, 11.0)
    with pytest.raises(ConfigurationError, match="n_points"):
        UniformMesh(1.0, True)
    assert len(UniformMesh(1.0, np.int64(11)).nodes) == 11
    m = UniformMesh(1.0, 11)
    assert m.h == pytest.approx(0.1)
    assert len(m.nodes) == 11


def test_values_length_checked():
    m = UniformMesh(1.0, 11)
    with pytest.raises(ConfigurationError):
        SampledFunction(m, np.ones(10))
    # an Interpolant with 5 rows failed at its first evaluation, and one
    # with 20 rows read only the first 11
    for shape in ((5,), (10,), (12,), (20,), (20, 2)):
        with pytest.raises(ConfigurationError, match="11 nodes"):
            Interpolant(m, np.ones(shape), np.zeros(shape))
    with pytest.raises(ConfigurationError, match=r"slopes shape \(10,\) does not "
                       r"match values shape \(11,\)"):
        Interpolant(m, np.zeros(11), np.zeros(10))


def test_complex_values_are_a_configuration_error():
    m = UniformMesh(1.0, 11)
    with pytest.raises(ConfigurationError, match="must be real"):
        SampledFunction(m, np.ones(11, dtype=complex))
    with pytest.raises(ConfigurationError, match="g1 must be real"):
        tabulate(lambda x: np.ones(11) + 0j, m.nodes, "g1")
    # a float antiderivative kept the real part and only warned
    for values in (np.ones(11) + 1j, np.ones((2, 11), dtype=complex)):
        with pytest.raises(ConfigurationError, match="needs real values"):
            cumulative_integral(values, m.h)


@pytest.mark.parametrize("shape", [(7,), (12,), (2, 9), (0,)])
def test_cumulative_refuses_a_length_the_blocks_do_not_tile(shape):
    with pytest.raises(ConfigurationError, match="5k \\+ 1"):
        cumulative_integral(np.ones(shape), 0.1)


def test_cumulative_constant():
    m = UniformMesh(1.0, 11)
    F = cumulative_integral(np.full(m.n_points, 1.0), m.h)
    assert np.allclose(F, m.nodes, atol=1e-15)
    assert F[0] == 0.0


def test_cumulative_degree5_exact():
    m = UniformMesh(1.0, 11)
    F = cumulative_integral(m.nodes ** 5, m.h)
    assert F[-1] == pytest.approx(1.0 / 6.0, abs=1e-15)


@pytest.mark.parametrize("k", range(6))
def test_degree5_exactness_float_input(k):
    # real data stay float, and lose nothing by it
    m = UniformMesh(1.0, 16)
    F = cumulative_integral(m.nodes ** k, m.h)
    assert F.dtype == np.float64
    exact = m.nodes ** (k + 1) / (k + 1)
    assert np.max(np.abs(F - exact)[1:] / exact[1:]) < 1e-12


@pytest.mark.parametrize("k", range(6))
def test_degree5_exactness_all_monomials(k):
    # exact on an interval that does not start at 0 and crosses it, where
    # the running integral changes sign; the rule needs only the spacing,
    # so the nodes are given without a mesh, which always starts at 0
    nodes = np.linspace(-1.0, 2.0, 16)
    F = cumulative_integral(nodes ** k, 0.2)
    exact = (nodes ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
    assert np.max(np.abs(F - exact)) < 1e-12 * np.max(np.abs(exact))


def test_cumulative_cos():
    m = UniformMesh(math.pi / 2, 101)
    F = cumulative_integral(np.cos(m.nodes), m.h)
    assert abs(F[-1] - 1.0) < 1e-10
    # interior nodes too, including sub-block nodes
    assert np.max(np.abs(F - np.sin(m.nodes))) < 1e-10


def test_cumulative_linearity():
    rng = np.random.default_rng(7)
    m = UniformMesh(1.0, 51)
    u = rng.normal(size=51)
    v = rng.normal(size=51)
    a, b = rng.normal(size=2)
    lhs = cumulative_integral(a * u + b * v, m.h)
    rhs = a * cumulative_integral(u, m.h) + b * cumulative_integral(v, m.h)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))


def test_convergence_order():
    def end_error(n_points):
        m = UniformMesh(1.0, n_points)
        F = cumulative_integral(np.exp(m.nodes), m.h)
        return abs(F[-1] - (math.e - 1.0))

    coarse, fine = end_error(11), end_error(21)
    assert coarse / fine >= 2 ** 5


def test_spline_reproduces_cubic():
    m = UniformMesh(2.0, 21)
    p = lambda x: x ** 3 - 2 * x
    interp = Interpolant(m, p(m.nodes), 3 * m.nodes ** 2 - 2)
    assert abs(interp(0.37) - p(0.37)) < 1e-13
    # interpolation property at a node
    assert abs(interp(m.nodes[7]) - p(m.nodes[7])) < 1e-14


def test_spline_derivative_of_constant():
    m = UniformMesh(1.0, 11)
    interp = Interpolant(m, np.full(m.n_points, 5.0),
                         np.zeros(m.n_points))
    assert abs(interp.derivative(0.5)) < 1e-13


def test_spline_domain_error():
    m = UniformMesh(1.0, 11)
    interp = Interpolant(m, np.full(m.n_points, 1.0),
                         np.zeros(m.n_points))
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
        m = UniformMesh(1.0, n_points)
        interp = Interpolant(m, quartic(m.nodes),
                             4 * m.nodes ** 3 - 0.6 * m.nodes + 0.1)
        return np.max(np.abs(interp(pts) - quartic(pts)))

    # halving h should shrink the error by about 2^4
    assert max_err(26) / max_err(51) > 10.0
