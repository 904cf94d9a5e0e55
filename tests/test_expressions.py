"""Tests for the little potential-expression language: the parser and its
scalar and array evaluators."""

import math
import warnings

import numpy as np
import pytest

from galimech.harness.expressions import (
    ExpressionError,
    compile_array_expression,
    compile_expression,
)


def ev(text, t=0.0, q1=0.0, q2=0.0, q3=0.0):
    return compile_expression(text)(t, q1, q2, q3)


class TestAtoms:
    def test_integer_literal(self):
        assert ev("3") == 3.0

    def test_float_literal(self):
        assert ev("2.5e-1") == 0.25

    def test_pi(self):
        assert ev("pi") == math.pi

    def test_variables(self):
        assert ev("t + 2*q1 - q3", t=1.0, q1=2.0, q3=5.0) == 0.0

    def test_whitespace_is_free(self):
        assert ev("  1+ 2 \t* 3 ") == 7.0


class TestPrecedence:
    def test_product_binds_tighter(self):
        assert ev("2+3*4") == 14.0
        assert ev("2*3+4") == 10.0

    def test_parens_override(self):
        assert ev("(2+3)*4") == 20.0

    def test_subtraction_left_associates(self):
        assert ev("2-3-4") == -5.0

    def test_division_left_associates(self):
        assert ev("12/4/3") == 1.0

    def test_power_right_associates(self):
        assert ev("2^3^2") == 512.0

    def test_power_binds_above_unary_minus(self):
        # Conventional reading: -x^2 is -(x^2).
        assert ev("-2^2") == -4.0

    def test_unary_minus_after_operator(self):
        assert ev("2*-3") == -6.0

    def test_double_negation(self):
        assert ev("--4") == 4.0


class TestFunctions:
    def test_known_functions(self):
        assert ev("sin(0)") == 0.0
        assert ev("cos(0)") == 1.0
        assert ev("exp(1)") == pytest.approx(math.e, rel=1e-15)

    def test_nesting(self):
        assert ev("sin(cos(q1))", q1=0.3) == pytest.approx(
            math.sin(math.cos(0.3)), rel=1e-15)

    def test_harmonic_like_expression(self):
        got = ev("0.5*3*((q1-1)^2 + q2^2)", q1=2.0, q2=0.5)
        assert got == pytest.approx(0.5 * 3 * (1.0 + 0.25), rel=1e-15)

    def test_function_needs_parens(self):
        with pytest.raises(ExpressionError):
            compile_expression("sin 3")

    def test_bare_function_name(self):
        with pytest.raises(ExpressionError):
            compile_expression("sin")


class TestRejection:
    @pytest.mark.parametrize("bad", [
        "", "   ", "2+", "(2", "2)", "1 2", "foo(1)", "q4", "2**3",
    ])
    def test_malformed(self, bad):
        with pytest.raises(ExpressionError):
            compile_expression(bad)

    def test_bad_character_names_position(self):
        with pytest.raises(ExpressionError) as info:
            compile_expression("2$3")
        assert "1" in str(info.value)

    def test_is_a_value_error(self):
        # So callers can catch it generically.
        assert issubclass(ExpressionError, ValueError)

    def test_no_python_semantics_leak(self):
        with pytest.raises(ExpressionError):
            compile_expression("__import__('os')")


class TestDepthBounds:
    # The deepest expressions the parser accepts, and one level more.
    NESTED = "(" * 99 + "q1" + ")" * 99
    FLAT = "+".join(["q1"] * 401)  # 400 additions

    def test_deepest_nesting_evaluates(self):
        assert ev(self.NESTED, q1=0.5) == 0.5
        assert ev("-" * 99 + "q1", q1=0.5) == -0.5
        assert compile_array_expression(self.NESTED)(0.0, np.ones((2, 3))).tolist() \
            == [1.0, 1.0]

    def test_deepest_chain_evaluates(self):
        assert ev(self.FLAT, q1=1.0) == 401.0
        assert compile_array_expression(self.FLAT)(0.0, np.ones((2, 3))).tolist() \
            == [401.0, 401.0]

    @pytest.mark.parametrize("text, message", [
        ("(" * 100 + "q1" + ")" * 100, "nested deeper than 100"),
        ("-" * 100 + "q1", "nested deeper than 100"),
        ("2^" * 100 + "q1", "nested deeper than 100"),
        ("sin(" * 100 + "q1" + ")" * 100, "nested deeper than 100"),
        ("+".join(["q1"] * 402), "deeper than 400 operations"),
        ("(" * 2000 + "q1" + ")" * 2000, "nested deeper than 100"),
        ("+".join(["q1"] * 5001), "deeper than 400 operations"),
    ])
    @pytest.mark.parametrize("compile_", [compile_expression,
                                          compile_array_expression])
    def test_deeper_is_rejected(self, text, message, compile_):
        with pytest.raises(ExpressionError, match=message):
            compile_(text)

    def test_folded_constants_do_not_count(self):
        assert ev("+".join(["1"] * 1000)) == 1000.0

    @pytest.mark.parametrize("text", [
        # the benchmark's anharmonic well, and the golden custom potentials
        "0.5*0.9978*((q1-(0.2238))^2+(q2-(0.0153))^2+(q3-(-0.6874))^2)"
        " + 0.1706*(q1-(0.2238))^4 + 0.1057*sin(q2)*cos(q3)"
        " + 0.2307*exp(-0.5*(q1^2+q3^2))",
        "0.5*q1^2 + 0.25*q2^4 + 0.1*q1*q3",
        "0.5*(q1^2+q2^2+q3^2)*(1+0.1*t)",
    ])
    def test_stock_expressions_are_within_bounds(self, text):
        compile_expression(text)
        compile_array_expression(text)


class TestArrayEvaluator:
    # Every operator and function, each next to the others it meets most.
    CASES = [
        "q1 + q2 + t",
        "q1 - q2 - 3",
        "q1 * q2 * pi",
        "q1 / (q2^2 + 1)",
        "(q1^2 + 1)^1.5 + q3^4 + 2^q2",
        "-q1 - -q2^2",
        "sin(q1) * cos(q2 * t)",
        "exp(-(q1^2 + q3^2) / 2)",
        "0.5*1.3*((q1-0.2)^2 + (q2+0.4)^2) + 0.1*q1^4"
        " + 0.3*sin(q2)*cos(q3) + 0.4*exp(-0.5*(q1^2 + q3^2))",
    ]

    @pytest.fixture
    def points(self):
        return np.random.default_rng(20260).normal(scale=1.5, size=(200, 3))

    @pytest.mark.parametrize("text", CASES)
    def test_agrees_with_scalar_evaluator(self, points, text):
        scalar = compile_expression(text)
        values = compile_array_expression(text)
        for t in (0.0, 0.7):
            got = values(t, points)
            assert got.shape == (len(points),)
            ref = np.array([scalar(t, *q) for q in points.tolist()])
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("text", CASES)
    def test_rows_equal_single_points(self, points, text):
        # Batched integration equals single-frame integration bit for bit
        # only if a value never depends on the array it is computed in.
        values = compile_array_expression(text)
        grid = points[:48].reshape(4, 12, 3)
        batched = values(0.3, grid)
        strided = values(0.3, grid[:, ::-1])[:, ::-1]
        assert batched.shape == (4, 12)
        assert np.array_equal(strided, batched)
        for index in np.ndindex(4, 12):
            assert values(0.3, grid[index]) == batched[index]

    @pytest.mark.parametrize("text", CASES + ["pi*t"])
    def test_one_time_per_point_equals_single_points(self, points, text):
        # The Morse families evaluate the potential at events with different
        # times in one call: t broadcasts against q[..., 0].
        values = compile_array_expression(text)
        grid = points[:24].reshape(4, 6, 3)
        times = np.linspace(-1.0, 2.0, 4)[:, None]
        got = values(times, grid)
        assert got.shape == (4, 6)
        for index in np.ndindex(4, 6):
            assert values(float(times[index[0], 0]), grid[index]) == got[index]

    def test_one_time_per_point_keeps_the_arithmetic_error(self):
        q = np.array([[0.5, 0.5, 0.5], [1.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(compile_array_expression("1/t + q1")(
                np.array([1.0, 2.0]), q)).all()
            with pytest.raises(ZeroDivisionError):
                compile_array_expression("1/t + q1")(np.array([1.0, 0.0]), q)

    @pytest.mark.parametrize("text", ["3", "pi*t", "sin(2)^2"])
    def test_constant_in_space_has_the_points_shape(self, points, text):
        got = compile_array_expression(text)(0.5, points[:6].reshape(2, 3, 3))
        assert got.shape == (2, 3)
        assert np.all(got == compile_expression(text)(0.5, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("text, point, error", [
        ("1/q1", (0.0, 1.0, 2.0), ZeroDivisionError),
        ("q2^-1 + q1", (1.0, 0.0, 0.0), ZeroDivisionError),
        ("1/0 + q1", (1.0, 1.0, 1.0), ZeroDivisionError),
        ("10^400*q1", (1.0, 1.0, 1.0), OverflowError),
        ("exp(q1)", (800.0, 0.0, 0.0), OverflowError),
        ("q1^q2", (10.0, 400.0, 0.0), OverflowError),
    ])
    def test_raises_the_scalar_arithmetic_error(self, text, point, error):
        with pytest.raises(error):
            compile_expression(text)(0.0, *point)
        q = np.array([[0.5, 0.5, 0.5], point, [2.0, 1.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                compile_array_expression(text)(0.0, q)

    @pytest.mark.parametrize("text, point", [
        ("q1^0.5", (-1.0, 0.0, 0.0)),            # complex power: NaN
        ("sin(exp(q1)*exp(q1))", (400.0, 0.0, 0.0)),  # sin of infinity: NaN
        ("exp(q1)*exp(q1)", (400.0, 0.0, 0.0)),       # inf without an error
    ])
    def test_other_non_finite_values_stand(self, text, point):
        q = np.array([[0.5, 0.5, 0.5], point])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = compile_array_expression(text)(0.0, q)
        assert np.isfinite(got[0]) and not np.isfinite(got[1])

    @pytest.mark.parametrize("text, point", [
        ("q1^0.5", (-1.0, 0.0, 0.0)),        # complex power
        ("(-8)^(1/3) + q1", (1.0, 0.0, 0.0)),  # complex constant
        ("q1^q1", (-0.5, 0.0, 0.0)),
        ("sin(q1*1e308*10)", (1.0, 0.0, 0.0)),  # sin of infinity
        ("cos(q1*1e308*10)", (-1.0, 0.0, 0.0)),
    ])
    def test_scalar_gives_nan_where_the_array_does(self, text, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = compile_expression(text)(0.0, *point)
            array = compile_array_expression(text)(0.0, np.array([point]))
        assert math.isnan(scalar) and math.isnan(array[0])

    def test_syntax_errors_match(self):
        for bad in ("", "2+", "q4", "sin 3"):
            with pytest.raises(ExpressionError):
                compile_array_expression(bad)
