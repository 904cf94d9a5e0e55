"""Arithmetic expressions over the space-time coordinates.

Scenario files may define a potential as a string in t, q1, q2, q3.  This
is a deliberately small language: numbers, the four coordinates, pi, the
operators + - * / ^ with the usual precedence (^ binds tightest and
associates to the right), parentheses, and the unary functions sin, cos,
exp.  One recursive-descent parser turns the text into a tree of closures
over one of two function tables: ``numpy`` for the array evaluator
(``compile_array_expression``, every point of a (..., 3) array in one
call), which gives every value, and ``math`` for the scalar evaluator
(``compile_expression``, one point per call), which judges whether a
non-finite value is an error.  There is no use of the Python evaluator,
so a config file cannot execute anything, and the parser bounds how
deeply an expression may nest, so none can exhaust the interpreter's
stack.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["ExpressionError", "compile_array_expression", "compile_expression"]

_TOKEN = re.compile(r"""
    \s*(?:
        (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
    )""", re.VERBOSE)


class _Table(NamedTuple):
    """How the parser stores literals, and what ^, sin, cos and exp call."""

    constant: Callable
    power: Callable
    functions: dict[str, Callable]


def _real_power(a: float, b: float) -> float:
    """a ** b, or NaN where the power is complex, as numpy gives."""
    out = a ** b
    return math.nan if isinstance(out, complex) else out


def _real_periodic(fn: Callable[[float], float]) -> Callable[[float], float]:
    """fn, or NaN at an infinite argument, as numpy gives."""
    return lambda a: math.nan if math.isinf(a) else fn(a)


_SCALAR = _Table(float, _real_power,
                 {"sin": _real_periodic(math.sin),
                  "cos": _real_periodic(math.cos), "exp": math.exp})
# Literals are 0-d arrays: numpy combines an array with a 0-d array faster
# than with a Python float.
_ARRAY = _Table(lambda value: np.array(value, dtype=float), operator.pow,
                {"sin": np.sin, "cos": np.cos, "exp": np.exp})
_VARIABLES = ("t", "q1", "q2", "q3")

# Bounds that keep parsing and evaluation well inside Python's recursion
# limit.  A level of nesting (a parenthesis, a unary minus, an exponent, a
# function argument) costs the parser up to five frames; an operation costs
# one frame at evaluation, where a flat sum of n terms is n - 1 deep.
_MAX_NESTING = 100
_MAX_DEPTH = 400


class ExpressionError(ValueError):
    """Malformed or unsupported potential expression."""


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            # Only whitespace may remain unmatched.
            if text[pos:].strip():
                raise ExpressionError(
                    f"unexpected character {text[pos:].strip()[0]!r} "
                    f"at position {pos}")
            break
        tokens.append(match.group(match.lastgroup))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], table: _Table):
        self.tokens = tokens
        self.table = table
        self.pos = 0
        self.constants: set[Callable] = set()  # closures of constants
        self.depths: dict[Callable, int] = {}  # operations below a closure
        self.nesting = 0
        self.spatial = False  # whether q1, q2 or q3 occurs

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ExpressionError(f"expected {tok!r}, got {got!r}")

    def constant(self, value) -> Callable:
        value = self.table.constant(value)
        node = lambda env: value
        self.constants.add(node)
        return node

    def fold(self, node: Callable, *operands: Callable) -> Callable:
        """node, or its value as a constant when every operand is one.
        Raises ExpressionError when node is more than _MAX_DEPTH operations
        deep."""
        if all(a in self.constants for a in operands):
            try:
                with np.errstate(all="ignore"):
                    return self.constant(node(None))
            except (ArithmeticError, TypeError, ValueError):
                pass  # raised at evaluation instead, where the step is known
        depth = 1 + max(self.depths.get(a, 0) for a in operands)
        if depth > _MAX_DEPTH:
            raise ExpressionError(
                f"expression deeper than {_MAX_DEPTH} operations")
        self.depths[node] = depth
        return node

    # expr := term (('+'|'-') term)*
    def expr(self) -> Callable:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            lhs = node
            if op == "+":
                node = lambda env, a=lhs, b=rhs: a(env) + b(env)
            else:
                node = lambda env, a=lhs, b=rhs: a(env) - b(env)
            node = self.fold(node, lhs, rhs)
        return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Callable:
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            lhs = node
            if op == "*":
                node = lambda env, a=lhs, b=rhs: a(env) * b(env)
            else:
                node = lambda env, a=lhs, b=rhs: a(env) / b(env)
            node = self.fold(node, lhs, rhs)
        return node

    # unary := '-' unary | power     (so -x^2 parses as -(x^2))
    # Every nested construct passes through here, so this counts nesting.
    def unary(self) -> Callable:
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise ExpressionError(
                f"expression nested deeper than {_MAX_NESTING} levels")
        if self.peek() == "-":
            self.take()
            inner = self.unary()
            node = self.fold(lambda env, a=inner: -a(env), inner)
        else:
            node = self.power()
        self.nesting -= 1
        return node

    # power := atom ('^' unary)?     (right-associative, 2^3^2 = 512)
    def power(self) -> Callable:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exponent = self.unary()
            power = self.table.power
            return self.fold(
                lambda env, f=power, a=base, b=exponent: f(a(env), b(env)),
                base, exponent)
        return base

    def atom(self) -> Callable:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if re.fullmatch(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", tok):
            return self.constant(float(tok))
        if tok == "pi":
            return self.constant(math.pi)
        if tok in _VARIABLES:
            self.spatial = self.spatial or tok != "t"
            return lambda env, name=tok: env[name]
        if tok in self.table.functions:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            fn = self.table.functions[tok]
            return self.fold(lambda env, f=fn, a=arg: f(a(env)), arg)
        raise ExpressionError(f"unknown symbol {tok!r}")


def _parse(text: str, table: _Table) -> tuple[Callable, bool]:
    """The closure tree of text over table, and whether a spatial
    coordinate occurs in it."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a non-empty string")
    parser = _Parser(_tokenize(text), table)
    node = parser.expr()
    if parser.peek() is not None:
        raise ExpressionError(f"trailing input starting at {parser.peek()!r}")
    return node, parser.spatial


def compile_expression(text: str) -> Callable[[float, float, float, float], float]:
    """Compile an expression string to a function of (t, q1, q2, q3).

    Raises ExpressionError on any syntax problem, including trailing
    tokens, and on an expression nested deeper than 100 levels or more
    than 400 operations deep, so a config typo or a hostile expression
    fails at load time rather than mid-run.  A complex power, or sin or
    cos of an infinity, evaluates to NaN, as in the array evaluator;
    division by zero and overflow raise their ArithmeticError.
    """
    node, _ = _parse(text, _SCALAR)

    def evaluate(t: float, q1: float, q2: float, q3: float) -> float:
        return float(node({"t": t, "q1": q1, "q2": q2, "q3": q3}))

    return evaluate


def compile_array_expression(text: str) -> Callable[[float, np.ndarray], np.ndarray]:
    """Compile an expression string to a function of (t, q) that evaluates
    it at every position of q, shape (..., 3), giving an array of shape
    (...).  t is one time or an array of times that broadcasts against
    q[..., 0].

    Raises ExpressionError as compile_expression does.  Evaluation keeps
    the scalar evaluator's error contract: numpy warnings are silenced,
    and where a value is not finite at a finite point, the point is
    evaluated again by the scalar evaluator, so an ArithmeticError it
    raises there (division by zero, overflow) is raised here too.  A
    finite value is kept as numpy gives it, even through an infinite
    intermediate: exp(-1/q1^2) is 0 at q1 = 0.
    """
    node, spatial = _parse(text, _ARRAY)
    if not spatial:  # one value for every position
        node = lambda env, f=node: np.full(np.shape(env["q1"]), f(env))

    scalar = None  # the scalar evaluator, compiled on first need

    def values(t, q: np.ndarray) -> np.ndarray:
        nonlocal scalar
        with np.errstate(all="ignore"):
            out = node({"t": t, "q1": q[..., 0], "q2": q[..., 1],
                        "q3": q[..., 2]})
        if not np.isfinite(out).all():
            times = np.broadcast_to(t, out.shape)
            bad = ~np.isfinite(out) & np.isfinite(times) & \
                np.isfinite(q).all(axis=-1)
            for t_i, (q1, q2, q3) in zip(times[bad].tolist(), q[bad].tolist()):
                scalar = scalar or compile_expression(text)
                scalar(t_i, q1, q2, q3)
        return out

    return values
