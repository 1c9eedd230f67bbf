import math

import numpy as np
import pytest

from thpsolve import ExpressionEvalError, ExpressionSyntaxError, parse


def test_square():
    assert parse("x^2", "x")(3.0) == pytest.approx(9.0)


def test_gaussian_at_zero():
    assert parse("exp(-x^2/2)", "x")(0.0) == pytest.approx(1.0)


def test_affine_in_t():
    assert parse("1 + 0.1*t", "t")(2.0) == pytest.approx(1.2)


def test_sqrt():
    assert parse("sqrt(x)", "x")(4.0) == pytest.approx(2.0)


def test_cosh():
    # (e + 1/e) / 2 computed independently
    expected = (math.e + 1.0 / math.e) / 2.0
    assert parse("cosh(x)", "x")(1.0) == pytest.approx(expected, abs=1e-9)


def test_precedence():
    assert parse("2+3*4^2", "x")(0.0) == pytest.approx(50.0)


def test_unary_minus_binds_below_power():
    assert parse("-x^2", "x")(3.0) == pytest.approx(-9.0)


def test_right_associative_power():
    assert parse("2^3^2", "x")(0.0) == pytest.approx(512.0)


def test_constants():
    assert parse("cos(pi)", "x")(0.0) == pytest.approx(-1.0)
    assert parse("log(e)", "x")(0.0) == pytest.approx(1.0)


def test_division_by_zero():
    with pytest.raises(ExpressionEvalError):
        parse("x/(x-1)", "x")(1.0)


def test_log_domain():
    with pytest.raises(ExpressionEvalError):
        parse("log(x)", "x")(-1.0)


def test_syntax_errors_have_position():
    with pytest.raises(ExpressionSyntaxError):
        parse("2 +", "x")
    with pytest.raises(ExpressionSyntaxError):
        parse("", "x")
    with pytest.raises(ExpressionSyntaxError):
        parse("foo(1)", "x")
    err = None
    try:
        parse("x + $", "x")
    except ExpressionSyntaxError as exc:
        err = exc
    assert err is not None and err.position == 4


def test_wrong_variable_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse("y + 1", "x")


@pytest.mark.parametrize("src", ["x**2", "+x", "x == 1", "3j", "x.real",
                                 "exp(x, 1)", "x[0]", "1 if x else 2"])
def test_python_only_syntax_rejected(src):
    with pytest.raises(ExpressionSyntaxError):
        parse(src, "x")


def test_number_beyond_float_range_rejected():
    for src in ["1e400", "1" + "0" * 400 + "*x"]:
        with pytest.raises(ExpressionSyntaxError):
            parse(src, "x")


def test_error_position_counts_caret_once():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse("x^2 + $", "x")
    assert info.value.position == 6


def test_array_call_matches_scalar_calls():
    ts = np.linspace(0.1, 3.0, 50)
    for src in ["1 + 0.1*t", "exp(-t^2/2) * sinh(t)", "t^3 - 2*t/(1+t^2)",
                "-cos(t) + sqrt(abs(t)) - pi*t"]:
        expr = parse(src, "t")
        values = expr(ts)
        assert values.shape == ts.shape
        assert np.array_equal(values, [expr(t) for t in ts])


def test_constant_takes_the_argument_shape():
    values = parse("2*pi", "x")(np.zeros((3, 4)))
    assert values.shape == (3, 4)
    assert np.all(values == 2 * math.pi)


def test_underflow_is_zero():
    assert parse("exp(-1000*x)", "x")(2.0) == 0.0


@pytest.mark.parametrize("src", ["exp(x)", "0/0 + x", "(-8)^(1/3) + x",
                                 "sqrt(-1) + x"])
def test_floating_point_errors_raise(src):
    with pytest.raises(ExpressionEvalError):
        parse(src, "x")(1000.0)
