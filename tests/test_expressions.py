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
        ("q1^0.5", (-1.0, 0.0, 0.0)),            # complex in the scalar path
        ("sin(exp(q1)*exp(q1))", (400.0, 0.0, 0.0)),  # math domain error
        ("exp(q1)*exp(q1)", (400.0, 0.0, 0.0)),       # inf without an error
    ])
    def test_other_non_finite_values_stand(self, text, point):
        q = np.array([[0.5, 0.5, 0.5], point])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = compile_array_expression(text)(0.0, q)
        assert np.isfinite(got[0]) and not np.isfinite(got[1])

    def test_syntax_errors_match(self):
        for bad in ("", "2+", "q4", "sin 3"):
            with pytest.raises(ExpressionError):
                compile_array_expression(bad)
