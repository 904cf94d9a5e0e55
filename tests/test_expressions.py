"""Tests for the little potential-expression language: the parser, its
scalar and array evaluators, and the exact force and time derivative
derived from it."""

import math
import operator
import warnings

import numpy as np
import pytest

from galimech.frame_dynamics import integrate
from galimech.galilean_core import SpatialMetric
from galimech.harness import expressions
from galimech.harness.config import PotentialSpec
from galimech.harness.expressions import (
    ExpressionError,
    compile_expression,
    compile_potential,
)


def ev(text, t=0.0, q1=0.0, q2=0.0, q3=0.0):
    return compile_expression(text)(t, q1, q2, q3)


def compile_array_expression(text):
    """The values kernel of compile_potential."""
    return compile_potential(text).values


def kernels(text):
    """The values, force and time kernels of compile_potential."""
    phi = compile_potential(text)
    return phi.values, phi.force, phi.time


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
        "log(2)",  # the derivative's log is not part of the language
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


def _force(text):
    return compile_potential(text).force


class TestForce:
    """The exact force -grad phi that compile_potential derives."""

    # Every construct of the grammar, each next to the others it meets
    # most: + - * /, ^ with a constant and with a variable exponent, unary
    # minus, sin cos exp, pi and t.
    CASES = [
        "q1 + q2 - q3 + t",
        "q1 * q2 / (1 + q3^2)",
        "-q1^3 - -q2 * q3",
        "(q1^2 + 1)^1.5 + q3^-2 + pi * q2",
        "2^q1 + q2^q3 + (q1^2 + 1)^(q2 / 3)",
        "sin(q1 * t) * cos(q2) + exp(-(q1^2 + q3^2) / 2)",
        "exp(sin(q1) * q2) / (2 + cos(q3 * pi))",
        "0.5*1.3*((q1-0.2)^2 + (q2+0.4)^2 + (q3-0.7)^2) + 0.1*(q1-0.2)^4"
        " + 0.3*sin(q2)*cos(q3) + 0.4*exp(-0.5*(q1^2 + q3^2))",
    ]

    @pytest.fixture
    def points(self):
        # q2 and q3 stay positive, so that q2^q3 has a real log
        q = np.random.default_rng(20261).normal(size=(40, 3))
        q[:, 1:] = np.abs(q[:, 1:]) + 0.1
        return q

    @pytest.mark.parametrize("text", CASES)
    def test_matches_sympy(self, points, text):
        sympy = pytest.importorskip("sympy")
        t, q1, q2, q3 = sympy.symbols("t q1 q2 q3")
        phi = sympy.sympify(text.replace("^", "**"),
                            locals={"t": t, "q1": q1, "q2": q2, "q3": q3})
        ref = [sympy.lambdify((t, q1, q2, q3), -sympy.diff(phi, q), "math")
               for q in (q1, q2, q3)]
        got = _force(text)(0.7, points)
        want = np.array([[f(0.7, *p) for f in ref] for p in points.tolist()])
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("text", CASES)
    def test_matches_central_differences(self, points, text):
        # The bound the built-in force kernels are held to.
        values, force, _ = kernels(text)
        step = 1e-6 * (1.0 + np.abs(points))
        shifts = np.eye(3)[:, None, :] * step
        numeric = -(values(0.7, points + shifts) -
                    values(0.7, points - shifts)).T / (2.0 * step)
        got = force(0.7, points)
        assert np.all(np.abs(got - numeric) <=
                      1e-6 * (1.0 + np.max(np.abs(numeric), axis=-1,
                                           keepdims=True)))

    @pytest.mark.parametrize("text", CASES)
    def test_rows_equal_single_points(self, points, text):
        force = _force(text)
        grid = points[:24].reshape(4, 6, 3)
        out = np.empty(grid.shape)
        assert force(0.3, grid, out) is out
        for index in np.ndindex(4, 6):
            assert force(0.3, grid[index]).tolist() == out[index].tolist()

    def test_variable_exponent_at_a_base_that_is_zero_or_negative(self):
        # d(a^b)/db = a^b log(a): log is NaN below 0 and -inf at 0, so that
        # component is NaN there, while d/da = b a^(b-1) stays exact.  No
        # error is raised: the math table gives the same NaN.
        q = np.array([[-1.5, 2.0, 0.0], [0.0, 2.0, 0.0], [0.0, 3.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _force("q1^q2")(0.0, q)
        assert got[:, 0].tolist() == [3.0, -0.0, -0.0]
        assert np.isnan(got[:, 1]).all()
        assert got[:, 2].tolist() == [-0.0, -0.0, -0.0]

    @pytest.mark.parametrize("text", ["3", "pi*t", "sin(t)^2"])
    def test_no_spatial_coordinate_gives_negative_zero(self, text):
        got = _force(text)(np.array([0.1, 0.2]), np.ones((2, 3)))
        assert got.shape == (2, 3)
        assert np.all(got == 0.0) and np.signbit(got).all()

    @pytest.mark.parametrize("text, time_independent", [
        ("q1^2 + sin(q2)", True), ("3", True), ("q1 * t", False),
        ("0 * t + q1", False),
    ])
    def test_time_independent_when_t_does_not_occur(self, text,
                                                    time_independent):
        # No time kernel is compiled where t does not occur.
        assert (compile_potential(text).time is None) is time_independent

    @pytest.mark.parametrize("text, affine", [
        # every force component of degree at most 1 in q
        ("q1", True), ("0.5*q1^2", True), ("q1/2", True),
        ("exp(0)*q1", True), ("q1*q2 - 3", True), ("3", True),
        # a higher degree, t, a function or a quotient of q, and a
        # constant that overflows, so the graph keeps it as a power
        ("q1^3", False), ("t*q1", False), ("sin(q1)", False),
        ("2/q1", False), ("10^400*q1", False), ("q1^2.5", False),
    ])
    def test_affine_when_the_force_has_degree_at_most_1(self, text, affine):
        assert compile_potential(text).affine is affine

    def test_shared_subexpression_is_evaluated_once(self, monkeypatch):
        # exp(q1 + q2) is the value node and a factor of both derivatives.
        calls = []

        def exp(x, out=None):  # each step writes into a register
            calls.append(x)
            return np.exp(x, out)

        monkeypatch.setitem(expressions._ARRAY.ops, "exp", exp)
        force = _force("exp(q1 + q2) * 2")
        assert force(0.0, np.zeros((2, 3))).tolist() == [[-2.0, -2.0, -0.0]] * 2
        assert len(calls) == 1

    @pytest.mark.parametrize("text, point, error", [
        ("1/q1", (0.0, 1.0, 2.0), ZeroDivisionError),
        ("q1^0.5", (0.0, 1.0, 2.0), ZeroDivisionError),
        ("10^400*q1", (1.0, 1.0, 1.0), OverflowError),
        ("exp(q1)", (800.0, 0.0, 0.0), OverflowError),
        ("exp(-1/q1^2)", (0.0, 1.0, 1.0), ZeroDivisionError),
    ])
    def test_raises_the_scalar_arithmetic_error(self, text, point, error):
        # A force that is not finite at a finite point is judged with the
        # math table, which raises where it divides by zero or overflows.
        q = np.array([[0.5, 0.5, 0.5], point, [2.0, 1.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                _force(text)(0.0, q)

    @pytest.mark.parametrize("text, point", [
        ("q1^1.5", (-1.0, 0.0, 0.0)),               # complex power: NaN
        ("sin(exp(q1)*exp(q1))", (400.0, 0.0, 0.0)),  # sin of infinity
        ("exp(q1)*exp(q1)", (400.0, 0.0, 0.0)),       # inf without an error
    ])
    def test_other_non_finite_forces_stand(self, text, point):
        q = np.array([[0.5, 0.5, 0.5], point])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _force(text)(0.0, q)
        assert np.isfinite(got[0]).all() and not np.isfinite(got[1]).all()

    def test_deepest_expressions_compile_and_integrate(self):
        # At both parser bounds: nesting 100 deep (99 functions inside the
        # top level) and 400 operations deep (397 factors, each 2 deep, and
        # two sums).  The derivative of the product is about twice as deep,
        # and neither building nor evaluating it recurses.
        nested = "sin(" * 99 + "q1" + ")" * 99
        chain = "*".join(["(1 + 0.001*q2)"] * 397)
        text = f"{nested} + {chain} + q3^2"
        graph, root = expressions._parse(text, expressions._ARRAY)
        assert graph.depths[root] == 400
        phi = PotentialSpec("custom", expr=text).build()
        start = (np.array([0.0, 0.3, 0.2, 0.1]), np.zeros(3))
        traj = integrate(np.array([0.0, 0.0, 0.0]), 1.0,
                         SpatialMetric(np.eye(3)), phi, start, 1e-3, 20)
        assert np.isfinite(traj.q).all() and np.isfinite(traj.p).all()
        scalar = compile_expression(text)
        step = 1e-6
        numeric = -(scalar(0.0, 0.3 + step, 0.2, 0.1) -
                    scalar(0.0, 0.3 - step, 0.2, 0.1)) / (2.0 * step)
        assert phi.force(0.0, np.array([0.3, 0.2, 0.1]))[0] == \
            pytest.approx(numeric, rel=1e-6)


class TestTime:
    """The exact time derivative d phi / dt that compile_potential derives
    in the pass that gives the force."""

    # t alone, a power of it, t through sin and exp, t as a variable
    # exponent (the log rule), t over a coordinate, and a constant
    # derivative, broadcast to the shape of q.
    CASES = ["t", "t^2", "sin(t)*q1", "exp(0.1*t)*q2", "q1^t", "t/q1", "0.5*t"]

    @pytest.fixture
    def events(self):
        # q1 stays positive, so that q1^t has a real log
        x = np.random.default_rng(20262).normal(size=(40, 4))
        x[:, 1] = np.abs(x[:, 1]) + 0.1
        return x

    @pytest.mark.parametrize("text", CASES)
    def test_matches_sympy(self, events, text):
        sympy = pytest.importorskip("sympy")
        t, q1, q2, q3 = sympy.symbols("t q1 q2 q3")
        phi = sympy.sympify(text.replace("^", "**"),
                            locals={"t": t, "q1": q1, "q2": q2, "q3": q3})
        ref = sympy.lambdify((t, q1, q2, q3), sympy.diff(phi, t), "math")
        got = compile_potential(text).time(events[:, 0], events[:, 1:])
        want = np.array([float(ref(*x)) for x in events.tolist()])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("text", CASES)
    def test_matches_central_differences(self, events, text):
        # The bound of the central difference in t this derivative replaced.
        values, _, time = kernels(text)
        t, q = events[:, 0], events[:, 1:]
        step = 1e-6 * (1.0 + np.abs(t))
        numeric = (values(t + step, q) - values(t - step, q)) / (2.0 * step)
        assert np.all(np.abs(time(t, q) - numeric) <=
                      1e-6 * (1.0 + np.abs(numeric)))

    @pytest.mark.parametrize("text", CASES)
    def test_rows_equal_single_events(self, events, text):
        time = compile_potential(text).time
        grid = events[:24].reshape(4, 6, 4)
        got = time(grid[..., 0], grid[..., 1:])
        assert got.shape == (4, 6)
        for index in np.ndindex(4, 6):
            t, *q = grid[index].tolist()
            assert time(t, np.array(q)).tolist() == got[index].tolist()

    def test_pole_raises_through_the_differential(self):
        # At t = 0 the value of t^0.5*q1 is 0, but its time derivative
        # 0.5*t^-0.5*q1 divides by zero, and the math table says so.
        phi = PotentialSpec("custom", expr="t^0.5*q1").build()
        x = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
        assert phi.at_events(x).tolist() == [2.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phi.d(x[:1]).tolist() == [[1.0, 1.0, 0.0, 0.0]]
            with pytest.raises(ZeroDivisionError):
                phi.d(x)


class TestKernelResults:
    """What a compiled kernel hands back: a new array of the shape t and
    q[..., 0] broadcast to, never a view of its input or a buffer it
    reuses."""

    @pytest.mark.parametrize("text", ["q1", "q3", "t"])
    def test_values_are_not_a_view_of_the_input(self, text):
        values = compile_potential(text).values
        t, q = np.array([0.5, 1.5]), np.arange(6.0).reshape(2, 3)
        got = values(t, q)
        assert not np.shares_memory(got, q)
        assert not np.shares_memory(got, t)
        kept = got.copy()
        values(t + 10.0, q + 10.0)
        assert got.tolist() == kept.tolist()

    @pytest.mark.parametrize("text", ["q1*t + sin(q2)", "t^2*exp(q3)"])
    def test_results_survive_the_next_call(self, text):
        # Each kernel keeps its registers between calls, but no result is
        # one of them.
        values, force, time = kernels(text)
        q = np.random.default_rng(20263).normal(size=(2, 8, 3))
        for kernel in (values, force, time):
            got = kernel(0.5, q[0])
            kept = got.copy()
            kernel(1.5, q[1])
            assert got.tolist() == kept.tolist()

    @pytest.mark.parametrize("text, kernel, want", [
        ("t^2 + 1", 0, [1.0, 2.0, 5.0]),
        ("q1*t", 1, [[-0.0, -0.0, -0.0], [-1.0, -0.0, -0.0],
                     [-2.0, -0.0, -0.0]]),
        ("q1*t", 2, [0.0, 0.0, 0.0]),
    ])
    def test_times_broadcast_against_one_point(self, text, kernel, want):
        got = kernels(text)[kernel](np.arange(3.0), np.zeros(3))
        assert got.shape == np.shape(want)
        assert got.tolist() == want
        assert np.array_equal(np.signbit(got), np.signbit(want))


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": operator.pow, "neg": operator.neg,
              "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}


def _reference(graph, k, t, q, memo):
    """Node k of graph at (t, q), evaluated by recursion with the operator
    semantics of numpy arrays over 0-d constants: an interpreter that
    shares nothing with the compiled kernels but the graph."""
    if k not in memo:
        kind, a, b = graph.nodes[k]
        if kind == "const":
            memo[k] = np.array(a)
        elif kind == "var":
            memo[k] = t if a == "t" else q[..., "123".index(a[1])]
        else:
            fn = _OPERATORS[kind]
            x = _reference(graph, a, t, q, memo)
            memo[k] = fn(x) if b is None else \
                fn(x, _reference(graph, b, t, q, memo))
    return memo[k]


def _same_bits(got, want):
    want = np.broadcast_to(want, got.shape)
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestReferenceEquality:
    """The compiled kernels equal a recursive interpretation of their graph
    bit for bit.  No golden output evaluates sin, cos or exp, so this is
    the bit-level guard of those steps."""

    CASES = [
        # the custom_field potentials of benchmark seeds 1 to 6
        "0.5*0.9978*((q1-(0.2238))^2+(q2-(0.0153))^2+(q3-(-0.6874))^2)"
        " + 0.1706*(q1-(0.2238))^4 + 0.1057*sin(q2)*cos(q3)"
        " + 0.2307*exp(-0.5*(q1^2+q3^2))",
        "0.5*1.842*((q1-(0.71))^2+(q2-(-0.589))^2+(q3-(0.9316))^2)"
        " + 0.0563*(q1-(0.71))^4 + 0.2428*sin(q2)*cos(q3)"
        " + 0.2198*exp(-0.5*(q1^2+q3^2))",
        "0.5*0.8799*((q1-(-0.1856))^2+(q2-(-0.3173))^2+(q3-(-0.1451))^2)"
        " + 0.1308*(q1-(-0.1856))^4 + 0.372*sin(q2)*cos(q3)"
        " + 0.3315*exp(-0.5*(q1^2+q3^2))",
        "0.5*1.9697*((q1-(-0.1321))^2+(q2-(-0.7093))^2+(q3-(-0.8772))^2)"
        " + 0.1601*(q1-(-0.1321))^4 + 0.112*sin(q2)*cos(q3)"
        " + 0.4925*exp(-0.5*(q1^2+q3^2))",
        "0.5*1.6613*((q1-(-0.0586))^2+(q2-(0.3918))^2+(q3-(0.6331))^2)"
        " + 0.1307*(q1-(-0.0586))^4 + 0.2552*sin(q2)*cos(q3)"
        " + 0.2841*exp(-0.5*(q1^2+q3^2))",
        "0.5*1.3522*((q1-(0.2603))^2+(q2-(-0.3924))^2+(q3-(0.2034))^2)"
        " + 0.1168*(q1-(0.2603))^4 + 0.3675*sin(q2)*cos(q3)"
        " + 0.4626*exp(-0.5*(q1^2+q3^2))",
        # the golden custom potentials, and t through sin
        "0.5*q1^2 + 0.25*q2^4 + 0.1*q1*q3",
        "0.5*(q1^2+q2^2+q3^2)*(1+0.1*t)",
        "sin(q1 * t) * cos(q2) + exp(-(q1^2 + q3^2) / 2)",
    ]

    @staticmethod
    def _check(text, kernels, t, q):
        graph, root = expressions._parse(text, expressions._ARRAY)
        time, force = graph.derivatives(root)
        memo = {}
        values, forces, times = kernels
        assert _same_bits(values(t, q), _reference(graph, root, t, q, memo))
        want = np.stack(np.broadcast_arrays(
            *[_reference(graph, k, t, q, memo) for k in force]), axis=-1)
        got = forces(t, q)
        assert _same_bits(got, want)
        out = np.empty_like(got)
        assert forces(t, q, out) is out and _same_bits(out, want)
        if time is not None:
            assert _same_bits(times(t, q), _reference(graph, time, t, q, memo))

    @pytest.mark.parametrize("text", CASES)
    def test_kernels_equal_the_interpreter(self, text):
        compiled = kernels(text)
        rng = np.random.default_rng(20264)
        # (8, 3), (1, 3), (8, 3) replaces the registers twice.
        for shape in [(3,), (8, 3), (1, 3), (8, 3), (500, 3)]:
            q = rng.normal(scale=1.5, size=shape)
            lead = shape[:-1] or (5,)  # one point against five times
            for t in (0.7, rng.uniform(-1.0, 2.0, size=lead)):
                self._check(text, compiled, t, q)

    def test_a_finite_call_after_an_arithmetic_error(self):
        compiled = kernels("1/q1")
        q = np.random.default_rng(20265).normal(size=(8, 3))
        pole = q.copy()
        pole[3, 0] = 0.0
        for kernel in compiled[:2]:
            with pytest.raises(ZeroDivisionError):
                kernel(0.0, pole)
            self._check("1/q1", compiled, 0.0, q)

    @pytest.mark.parametrize("text", CASES)
    def test_bound_schedules_equal_the_kernels(self, text):
        # A schedule bound once evaluates at whatever its arrays hold when
        # it runs, a 0-d array of the time included, with every bit of a
        # per-call evaluation there.
        rng = np.random.default_rng(20266)
        t, q = np.empty(()), np.empty((8, 3))
        compiled = [k for k in kernels(text) if k is not None]
        outs = [np.empty((8, 3) if i == 1 else 8)
                for i in range(len(compiled))]
        schedules = [k.bind(t, q, out) for k, out in zip(compiled, outs)]
        for _ in range(3):
            t[...], q[...] = rng.uniform(-1.0, 2.0), rng.normal(size=(8, 3))
            for kernel, calls, out in zip(compiled, schedules, outs):
                for f, args in calls:
                    f(*args)
                assert _same_bits(out, kernel(float(t), q))
