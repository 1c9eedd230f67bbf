import numpy as np
import pytest

from thpsolve import BoundaryModel, ConfigurationError
from thpsolve.boundary import CONSTRAINT_MARGIN

# coefficients of the reference fitted boundary (constant term is l = 1)
REFERENCE_B = [0.60657885, -0.30458770, 0.03631846, 0.06761711,
               -0.05111378, 0.01270860]


def test_models_compare_by_identity():
    # generated __eq__ compared the arrays and raised from two coefficients
    a, b = BoundaryModel(1.0, [0.1, 0.2]), BoundaryModel(1.0, [0.1, 0.2])
    assert a not in [b] and a in [a]
    assert len({a, b}) == 2 and a in {a}


@pytest.mark.parametrize("l, b", [(1.0, [np.nan]), (np.inf, [0.1])],
                         ids=["nan-coefficient", "infinite-l"])
def test_non_finite_boundary_is_refused(l, b):
    # BoundaryModel(1.0, [nan]).s_eval(0.5) returned nan without an error
    with pytest.raises(ConfigurationError, match="boundary must be finite"):
        BoundaryModel(l, b)


def test_initial_guess_line():
    m = BoundaryModel(1.0, [0.1])
    assert m.s_eval(2.0) == pytest.approx(1.2)
    assert m.s_eval(0.0) == pytest.approx(1.0)


def test_reference_boundary_values():
    m = BoundaryModel(1.0, REFERENCE_B)
    assert m.s_eval(0.0) == pytest.approx(1.0)
    assert m.s_dot_eval(0.0) == pytest.approx(0.60657885)


def test_constraint_inside_band():
    m = BoundaryModel(1.0, [0.0])
    times = np.linspace(0, 1, 11)
    s, violation = m.clamp(times, 2.0)
    assert np.array_equal(s, m.s_eval(times))
    assert not violation.any()


def test_constraint_negative_boundary():
    m = BoundaryModel(1.0, [-2.0])
    times = np.linspace(0.0, 1.0, 5)  # includes t = 1 where s = -1
    s, violation = m.clamp(times, 10.0)
    # one lower bound: the clip and the violation share the margin
    assert s[-1] == CONSTRAINT_MARGIN
    assert violation[-1] == -1.0 - CONSTRAINT_MARGIN
    assert np.allclose(s + violation, m.s_eval(times), rtol=0, atol=1e-15)


def test_constraint_upper_bound():
    upper = 2.0
    m = BoundaryModel(upper + 0.5, [0.0])
    times = np.linspace(0.0, 1.0, 7)
    s, violation = m.clamp(times, upper)
    assert np.all(s == upper)
    assert np.all(violation == 0.5)


def test_shape_functions_are_the_derivatives_in_b():
    # s = l + shape . b and s' = shape_dot . b; one column per b_j
    m = BoundaryModel(1.0, REFERENCE_B)
    t = np.linspace(0.0, 1.0, 21)
    assert m.shape(t).shape == m.shape_dot(t).shape == (21, m.K)
    assert m.shape(0.5).shape == (m.K,)
    assert np.allclose(1.0 + m.shape(t) @ m.coefficients, m.s_eval(t),
                       rtol=0, atol=1e-15)
    assert np.allclose(m.shape_dot(t) @ m.coefficients, m.s_dot_eval(t),
                       rtol=0, atol=1e-15)
    assert np.array_equal(m.shape_dot(0.0), np.eye(m.K)[0])


def test_linearity_in_coefficients():
    rng = np.random.default_rng(2)
    b1, b2 = rng.normal(size=4), rng.normal(size=4)
    l = 1.3
    t = rng.uniform(0.0, 1.0, size=20)
    lhs = BoundaryModel(l, b1 + b2).s_eval(t)
    rhs = BoundaryModel(l, b1).s_eval(t) + BoundaryModel(l, b2).s_eval(t) - l
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_array_calls_round_like_scalar_calls():
    # with a matrix-vector product, 2736 of these 10000 values of s and
    # 4641 of s' rounded differently from the scalar calls; boundary.csv
    # and the solution grid share times
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 1.0, 50)
    for _ in range(200):
        m = BoundaryModel(rng.normal(), rng.normal(size=rng.integers(1, 13)))
        assert np.array_equal(m.s_eval(t), [m.s_eval(v) for v in t])
        assert np.array_equal(m.s_dot_eval(t), [m.s_dot_eval(v) for v in t])


def test_derivative_matches_finite_differences():
    m = BoundaryModel(1.0, REFERENCE_B)
    h = 1e-6
    for t in np.linspace(0.1, 0.9, 9):
        fd = (m.s_eval(t + h) - m.s_eval(t - h)) / (2 * h)
        assert abs(fd - m.s_dot_eval(t)) < 1e-6
