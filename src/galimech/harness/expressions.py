"""Arithmetic expressions over the space-time coordinates.

Scenario files may define a potential as a string in t, q1, q2, q3.  This
is a deliberately small language: numbers, the four coordinates, pi, the
operators + - * / ^ with the usual precedence (^ binds tightest and
associates to the right), parentheses, and the unary functions sin, cos,
exp.  One recursive-descent parser turns the text into a tree of closures
over one of two function tables: ``math`` for the scalar evaluator
(``compile_expression``, one point per call) and ``numpy`` for the array
evaluator (``compile_array_expression``, every point of a (..., 3) array in
one call).  There is no use of the Python evaluator, so a config file
cannot execute anything.
"""

from __future__ import annotations

import math
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
    """How the parser stores literals, and what sin, cos and exp call."""

    constant: Callable
    functions: dict[str, Callable]


_SCALAR = _Table(float, {"sin": math.sin, "cos": math.cos, "exp": math.exp})
# Literals are 0-d arrays: numpy combines an array with a 0-d array faster
# than with a Python float.
_ARRAY = _Table(lambda value: np.array(value, dtype=float),
                {"sin": np.sin, "cos": np.cos, "exp": np.exp})
_VARIABLES = ("t", "q1", "q2", "q3")


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
        """node, or its value as a constant when every operand is one."""
        if all(a in self.constants for a in operands):
            try:
                with np.errstate(all="ignore"):
                    return self.constant(node(None))
            except (ArithmeticError, TypeError, ValueError):
                pass  # raised at evaluation instead, where the step is known
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
    def unary(self) -> Callable:
        if self.peek() == "-":
            self.take()
            inner = self.unary()
            return self.fold(lambda env, a=inner: -a(env), inner)
        return self.power()

    # power := atom ('^' unary)?     (right-associative, 2^3^2 = 512)
    def power(self) -> Callable:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exponent = self.unary()
            return self.fold(lambda env, a=base, b=exponent: a(env) ** b(env),
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
    tokens, so a config typo fails at load time rather than mid-run.
    """
    node, _ = _parse(text, _SCALAR)

    def evaluate(t: float, q1: float, q2: float, q3: float) -> float:
        return float(node({"t": t, "q1": q1, "q2": q2, "q3": q3}))

    return evaluate


def compile_array_expression(text: str) -> Callable[[float, np.ndarray], np.ndarray]:
    """Compile an expression string to a function of (t, q) that evaluates
    it at every position of q, shape (..., 3), giving an array of shape
    (...).

    Raises ExpressionError as compile_expression does.  Evaluation keeps
    the scalar evaluator's error contract: numpy warnings are silenced,
    and where a value is not finite the point is evaluated again by the
    scalar evaluator, so an ArithmeticError it raises there (division by
    zero, overflow) is raised here too.
    """
    node, spatial = _parse(text, _ARRAY)
    if not spatial:  # one value for every position
        node = lambda env, f=node: np.full(np.shape(env["q1"]), f(env))

    def values(t: float, q: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            out = node({"t": t, "q1": q[..., 0], "q2": q[..., 1],
                        "q3": q[..., 2]})
        if not np.isfinite(out).all():
            scalar = compile_expression(text)
            for q1, q2, q3 in q[~np.isfinite(out)].tolist():
                try:
                    scalar(t, q1, q2, q3)
                except (TypeError, ValueError):
                    # A complex power or a math domain error: the NaN stands.
                    pass
        return out

    return values
