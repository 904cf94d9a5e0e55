"""Arithmetic expressions over the space-time coordinates.

Every potential is a string in t, q1, q2, q3: a scenario file's ``custom``
one, and each built-in kind written as one (``config.PotentialSpec``).
This is a deliberately small language: numbers, the four coordinates, pi,
the operators + - * / ^ with the usual precedence (^ binds tightest and
associates to the right), parentheses, and the unary functions sin, cos,
exp.  One recursive-descent parser turns the text into a graph of shared
nodes over ``numpy``, for the values, the force and the time derivative
of a (..., 3) array of points, with times broadcasting against them, in
one call: each node is one ufunc call into a register, reused once its
last reader has run, and each result is a new array or the caller's out;
that schedule of calls can also be bound once to a caller's arrays and
run again at whatever they hold (threaded code: Bell, *CACM* 16(6),
1973).  Or over ``math``, which judges whether a result that is not
finite is an error.  The force and the time derivative are derived from the graph by
the chain rule (Griewank & Walther, *Evaluating Derivatives*, 2008).
Nothing evaluates Python, so a config file cannot execute anything, and
nothing recurses deeper than the parser, which bounds nesting.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
from collections import namedtuple
from typing import Callable

import numpy as np

from ..frame_dynamics import Potential

__all__ = ["ExpressionError", "compile_expression", "compile_potential"]

# A token (a number, a name or an operator) after optional whitespace, and
# a text of tokens and whitespace.
_TOKEN = re.compile(r"""\s*(
    \d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?
  | [A-Za-z_][A-Za-z_0-9]*
  | [-+*/^()]
)""", re.VERBOSE)
_TEXT = re.compile(f"(?:{_TOKEN.pattern})*\\s*", re.VERBOSE)


# How a function table stores constants, and what each operation calls.
_Table = namedtuple("_Table", "constant ops")


def _real_power(a: float, b: float) -> float:
    """a ** b, or NaN where the power is complex, as numpy gives."""
    out = a ** b
    return math.nan if isinstance(out, complex) else out


def _real_periodic(fn: Callable[[float], float]) -> Callable[[float], float]:
    """fn, or NaN at an infinite argument, as numpy gives."""
    return lambda a: math.nan if math.isinf(a) else fn(a)


_SCALAR = _Table(float, {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "^": _real_power, "neg": operator.neg,
    "sin": _real_periodic(math.sin), "cos": _real_periodic(math.cos),
    "exp": math.exp,  # log as numpy gives it: -inf at 0, NaN below
    "log": lambda a: math.log(a) if a > 0 else -math.inf if a == 0 else math.nan})
# Ufuncs, each step one call into a register, and 0-d constants, which
# numpy takes faster than floats.  ``log`` serves only a variable power.
_ARRAY = _Table(lambda value: np.array(value, dtype=float), {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "^": np.power, "neg": np.negative,
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log})
_VARIABLES = ("t", "q1", "q2", "q3")

# A level of nesting (a parenthesis, a unary minus, an exponent, a function
# argument) costs the parser up to five frames of recursion.  Depth counts
# operations: a flat sum of n terms is n - 1 deep.
_MAX_NESTING = 100
_MAX_DEPTH = 400


class ExpressionError(ValueError):
    """Malformed or unsupported potential expression."""


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then None to mark the end."""
    end = _TEXT.match(text).end()
    if end < len(text):
        raise ExpressionError(f"unexpected character {text[end]!r} "
                              f"at position {len(text[:end].rstrip())}")
    return _TOKEN.findall(text) + [None]


class _Graph:
    """Expression nodes over one function table, each made once: node k
    is ("const", value, None), ("var", name, None) or (op, a, b) with the
    ids of its operands (b None for one), which come before it.  Folding
    runs numpy, so callers build nodes under np.errstate(all="ignore").
    """

    def __init__(self, table: _Table):
        self.table = table
        self.nodes: list[tuple] = []
        self.depths: list[int] = []  # operations below each node
        self.ids: dict[tuple, int] = {}

    def _node(self, key: tuple, node: tuple, depth: int) -> int:
        k = self.ids.get(key)
        if k is None:
            k = self.ids[key] = len(self.nodes)
            self.nodes.append(node)
            self.depths.append(depth)
        return k

    def const(self, value) -> int:
        value = float(value)  # keyed by the bits: 0.0 and -0.0 stay apart
        return self._node(("const", value.hex()), ("const", value, None), 0)

    def var(self, name: str) -> int:
        return self._node(("var", name), ("var", name, None), 0)

    def op(self, op: str, a: int, b: int | None = None) -> int:
        """The node op(a, b), made once: constants fold to a finite constant,
        a constant factor goes first, and these keep every bit: 1 * x and
        x / 1 and x ^ 1 are x, -1 * x is -x, c * -x and -(c * x) are
        (-c) * x, --x is x, and c * (2^k * x) is (c 2^k) * x while c 2^k
        is normal and 2^k * x neither overflows nor underflows."""
        x = self.nodes[a]
        y = None if b is None else self.nodes[b]
        if x[0] == "const" and (y is None or y[0] == "const"):
            # Arithmetic rounds alike in every table; the rest folds in its own.
            fn = self.table.ops[op]
            constant = float if op in ("+", "-", "*", "/", "neg") \
                else self.table.constant
            try:
                value = float(fn(constant(x[1])) if y is None
                              else fn(constant(x[1]), constant(y[1])))
            except (ArithmeticError, TypeError, ValueError):
                value = math.nan
            # Otherwise evaluation raises the error, with the step known.
            if math.isfinite(value):
                return self.const(value)
        if op == "*":
            if y[0] == "const":
                a, b, x, y = b, a, y, x
            if x[0] == "const":
                if x[1] in (1.0, -1.0):
                    return b if x[1] == 1.0 else self.op("neg", b)
                if y[0] == "neg":
                    return self.op("*", self.const(-x[1]), y[1])
                c = self.nodes[y[1]] if y[0] == "*" else ()
                if c and c[0] == "const" and abs(math.frexp(c[1])[0]) == 0.5 \
                        and sys.float_info.min <= abs(x[1] * c[1]) < math.inf:
                    return self.op("*", self.const(x[1] * c[1]), y[2])
        elif op == "neg":
            if x[0] == "neg":
                return x[1]
            if x[0] == "*" and self.nodes[x[1]][0] == "const":
                return self.op("*", self.const(-self.nodes[x[1]][1]), x[2])
        elif y == ("const", 1.0, None) and op in ("/", "^"):
            return a
        depth = 1 + max(self.depths[a], 0 if b is None else self.depths[b])
        return self._node((op, a, b), (op, a, b), depth)

    def derivatives(self, root: int) -> tuple[int | None, list[int]]:
        """Nodes of d root / dt, None where t does not occur, and of the
        force -d root / dq1..3, -0.0 for a zero component: the chain rule
        in one forward pass for each coordinate that occurs, from its node
        up to root, structural zeros left out."""
        op, one = self.op, self.const(1.0)

        def add(a, b):
            return b if a is None else a if b is None else op("+", a, b)

        def sub(a, b):
            return a if b is None else op("neg", b) if a is None else op("-", a, b)

        def mul(a, b):
            return None if a is None or b is None else op("*", a, b)

        def rule(kind, k, a, b, da, db):
            if da is None and db is None:
                return None
            if kind == "+":
                return add(da, db)
            if kind == "-":
                return sub(da, db)
            if kind == "*":
                return add(mul(da, b), mul(a, db))
            if kind == "/":  # (da - (a / b) db) / b
                return op("/", sub(da, mul(k, db)), b)
            if kind == "^":  # b a^(b-1) da + a^b log(a) db
                return add(mul(mul(b, op("^", a, op("-", b, one))), da),
                           None if db is None
                           else mul(mul(k, op("log", a)), db))
            if kind == "neg":
                return op("neg", da)
            if kind == "sin":
                return mul(op("cos", a), da)
            if kind == "cos":
                return mul(op("neg", op("sin", a)), da)
            return mul(k, da) if kind == "exp" else op("/", da, a)  # log

        found = {}  # d root by each coordinate that occurs, None for zero
        with np.errstate(all="ignore"):
            for name in _VARIABLES:
                var = self.ids.get(("var", name))
                if var is None:
                    continue
                # The derivative of each node, None for zero, from the
                # coordinate's own node on: t is seeded with 1, and each q
                # with -1, which gives the force, not the gradient: the
                # sign folds into a constant factor or a negation already
                # there.
                d = [None] * var + [self.const(1.0 if name == "t" else -1.0)]
                for k in range(var + 1, root + 1):
                    kind, a, b = self.nodes[k]
                    d.append(None if kind in ("const", "var") else rule(
                        kind, k, a, b, d[a], None if b is None else d[b]))
                found[name] = d[root]
        force = [found.get(name) for name in _VARIABLES[1:]]
        return found.get("t"), [self.const(-0.0) if f is None else f
                                for f in force]


def _needed(nodes: list[tuple], roots: list[int]) -> list[int]:
    """The ids of the nodes roots need, in graph order."""
    need = set(roots)
    for k in range(max(roots), -1, -1):
        if k in need and nodes[k][0] not in ("const", "var"):
            need.update(nodes[k][1:])
    return sorted(need - {None})


def _degree(nodes: list[tuple], roots: list[int]) -> float:
    """The largest degree in q of roots as polynomials: inf for one that
    is no polynomial in q, reads t, or holds an operation on constants
    that did not fold (10^400 overflows, so the graph keeps the power)."""
    deg: list[float] = []
    for kind, a, b in nodes[:max(roots) + 1]:
        if kind in ("const", "var"):
            deg.append(0 if kind == "const" else math.inf if a == "t" else 1)
            continue
        da, db = deg[a], 0 if b is None else deg[b]
        e = nodes[b][1] if kind == "^" and nodes[b][0] == "const" else 0.0
        if da + db == 0:  # only constants, so it did not fold
            deg.append(math.inf)
        elif kind in ("+", "-"):
            deg.append(max(da, db))
        elif kind == "*":
            deg.append(da + db)
        elif kind == "neg" or (kind == "/" and db == 0):
            deg.append(da)
        elif e >= 1 and e.is_integer():  # a power to a constant
            deg.append(da * e)
        else:
            deg.append(math.inf)
    return max(deg[k] for k in roots)


def _program(graph: _Graph, roots: list[int]):
    """run(t, q1, q2, q3), whose steps (fn, a, b) append fn(r[a]) or
    fn(r[a], r[b]) to r = [t, q1, q2, q3, *constants], once for each node
    roots need; and the registers of roots."""
    nodes = graph.nodes
    order = _needed(nodes, roots)
    consts = [k for k in order if nodes[k][0] == "const"]
    reg = {k: len(_VARIABLES) + i for i, k in enumerate(consts)}
    steps = []
    for k in order:
        kind, a, b = nodes[k]
        if kind == "var":
            reg[k] = _VARIABLES.index(a)
        elif kind != "const":
            reg[k] = len(_VARIABLES) + len(consts) + len(steps)
            steps.append((graph.table.ops[kind], reg[a],
                          None if b is None else reg[b]))
    constants = [graph.table.constant(nodes[k][1]) for k in consts]

    def run(t, q1, q2, q3) -> list:
        r = [t, q1, q2, q3, *constants]
        for f, a, b in steps:
            r.append(f(r[a]) if b is None else f(r[a], r[b]))
        return r

    return run, [reg[k] for k in roots]


def _evaluator(graph: _Graph, roots: list[int]) -> Callable:
    """bind(t, q, outs), the schedule that writes each root at every
    position of q (..., 3) into its array of outs, all of one shape: a
    list of calls (ufunc, args), args (r[a], r[c]) or (r[a], r[b], r[c])
    of r = [t, q1, q2, q3, *constants, *outs, *registers], bound to the
    arrays given, so running the calls in order evaluates at whatever
    they hold then.  A root's own step writes its out (a coordinate, a
    constant or a repeated root is copied there); any other node takes a
    register, free again after its last reader.  Registers are allocated
    at the first binding and each new shape, and shared by every binding
    of that shape."""
    nodes = graph.nodes
    order = _needed(nodes, roots)
    consts = [k for k in order if nodes[k][0] == "const"]
    reg = {k: len(_VARIABLES) + i for i, k in enumerate(consts)}
    base = len(_VARIABLES) + len(consts) + len(roots)
    outs, fresh = range(base - len(roots), base), itertools.count(base)
    own = dict(zip(reversed(roots), reversed(outs)))  # at the first place
    last = {x: i for i, k in enumerate(order)  # the step of the last reader
            if nodes[k][0] not in ("const", "var") for x in nodes[k][1:]}
    free, steps = [], []
    for i, k in enumerate(order):
        kind, a, b = nodes[k]
        if kind == "var":
            reg[k] = _VARIABLES.index(a)
        elif kind != "const":
            reg[k] = own.get(k) or (free.pop() if free else next(fresh))
            steps.append((graph.table.ops[kind], reg[a],
                          None if b is None else reg[b], reg[k]))
            free += [reg[x] for x in {a, b} - {None}
                     if last[x] == i and reg[x] >= base]
    steps += [(np.positive, reg[k], None, c)
              for k, c in zip(roots, outs) if reg[k] != c]
    # Each step's args, taken from r in one C call.
    steps = [(f, operator.itemgetter(a, c) if b is None
              else operator.itemgetter(a, b, c)) for f, a, b, c in steps]
    constants = [graph.table.constant(nodes[k][1]) for k in consts]
    shape, registers, size = None, [], next(fresh) - base

    def bind(t, q: np.ndarray, outs: list) -> list:
        nonlocal shape, registers
        if outs[0].shape != shape:
            shape = outs[0].shape
            registers = [np.empty(shape) for _ in range(size)]
        r = [t, q[..., 0], q[..., 1], q[..., 2], *constants, *outs,
             *registers]
        return [(f, args(r)) for f, args in steps]

    return bind


def _call(calls: list) -> None:
    """Run the calls (f, args) of a bound schedule in order."""
    for f, args in calls:
        f(*args)


_raising = np.errstate(all="raise", under="ignore")(_call)


class _Parser:
    def __init__(self, tokens: list[str], graph: _Graph):
        self.tokens = tokens
        self.graph = graph
        self.pos = 0
        self.nesting = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos]

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

    # expr := term (('+'|'-') term)*
    def expr(self) -> int:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = self.graph.op(op, node, self.term())
        return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> int:
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = self.graph.op(op, node, self.unary())
        return node

    # unary := '-' unary | power     (so -x^2 parses as -(x^2))
    # Every nested construct passes through here, so this counts nesting.
    def unary(self) -> int:
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise ExpressionError(
                f"expression nested deeper than {_MAX_NESTING} levels")
        if self.peek() == "-":
            self.take()
            node = self.graph.op("neg", self.unary())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    # power := atom ('^' unary)?     (right-associative, 2^3^2 = 512)
    def power(self) -> int:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return self.graph.op("^", base, self.unary())
        return base

    def atom(self) -> int:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if tok[0] in "0123456789.":  # the tokenizer matched a number
            return self.graph.const(float(tok))
        if tok == "pi":
            return self.graph.const(math.pi)
        if tok in _VARIABLES:
            return self.graph.var(tok)
        if tok in ("sin", "cos", "exp"):  # log is not in the language
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return self.graph.op(tok, arg)
        raise ExpressionError(f"unknown symbol {tok!r}")


def _parse(text: str, table: _Table) -> tuple[_Graph, int]:
    """The node graph of text over table, and its root."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a non-empty string")
    parser = _Parser(_tokenize(text), _Graph(table))
    with np.errstate(all="ignore"):
        root = parser.expr()
    if parser.peek() is not None:
        raise ExpressionError(f"trailing input starting at {parser.peek()!r}")
    if parser.graph.depths[root] > _MAX_DEPTH:  # the deepest node
        raise ExpressionError(f"expression deeper than {_MAX_DEPTH} operations")
    return parser.graph, root


def compile_expression(text: str) -> Callable[[float, float, float, float], float]:
    """Compile an expression string to a function of (t, q1, q2, q3).

    Raises ExpressionError on any syntax problem, including trailing
    tokens, and on an expression nested deeper than 100 levels or more
    than 400 operations deep, so a config typo or a hostile expression
    fails at load time rather than mid-run.  A complex power, or sin or
    cos of an infinity, evaluates to NaN, as in the array evaluator;
    division by zero and overflow raise their ArithmeticError.
    """
    graph, root = _parse(text, _SCALAR)
    run, (k,) = _program(graph, [root])
    return lambda t, q1, q2, q3: float(run(t, q1, q2, q3)[k])


# Potentials compiled in this process, by text: every command loads its
# config afresh, and a scenario's text recurs from one command to the next.
@functools.lru_cache(maxsize=8)
def compile_potential(text: str) -> Potential:
    """Compile an expression string, parsed once, to its Potential:
    values(t, q) at every position of q (..., 3), giving (...); the exact
    force(t, q, out=None), -grad phi (..., 3), written into out when
    given; and the exact time derivative time(t, q), d phi / dt (...), or
    None where t does not occur.  t is one time or an array of times
    broadcasting against q[..., 0], and each result has the shape they
    broadcast to.  A value or a time derivative is always a new array,
    never a view of t or q, and so is a force without out.  The Potential
    is ``affine`` when t does not occur and each force component is a
    polynomial of degree at most 1 in q, read off the force's nodes.
    Raises ExpressionError as compile_expression does.  The last eight
    texts compiled are kept, and a text compiled again returns the same
    Potential.

    Each kernel evaluates each node it needs once per call, by one ufunc
    call into a register it keeps between calls, and the last operation
    of each root writes into its result.  The kernels run with numpy's
    floating-point errors raised: from finite points, nothing else makes
    a result that is not finite.  After one, a kernel runs again with
    them ignored, and at each finite point whose row is not finite the
    ``math`` table evaluates the value (and the force or the time
    derivative), so an ArithmeticError it raises there (division by zero,
    overflow) is raised too.  A result the math table accepts stands,
    even a finite value through an infinite intermediate: at q1 = 0,
    exp(-1/q1^2) is 0, and its force, 0 * inf, raises the
    ZeroDivisionError of -1/q1^2.

    Each kernel also has bind(t, q, out), for a caller that evaluates
    many times over the same arrays: the kernel's schedule as a list of
    calls (ufunc, args), bound to a 0-d array t of the time, the
    positions q, out and the kernel's registers.  Running the calls in
    order writes the result at whatever t and q hold then, with the bits
    of run(float(t), q, out), but judges nothing: under numpy's errors
    raised, a call that meets one raises FloatingPointError, and the
    caller evaluates there through the kernel itself, which binds the
    same schedule at each call.
    """
    graph, root = _parse(text, _ARRAY)
    time, force_nodes = graph.derivatives(root)
    judges = []  # the value, force and time evaluators of the math table

    def judge(t, q: np.ndarray, ok: np.ndarray, which: tuple) -> None:
        times = np.broadcast_to(t, ok.shape)
        q = np.broadcast_to(q, ok.shape + (3,))
        bad = ~ok & np.isfinite(times) & np.isfinite(q).all(axis=-1)
        for t_i, (q1, q2, q3) in zip(times[bad].tolist(), q[bad].tolist()):
            if not judges:  # compiled on first need, from one parse
                scalar, scalar_root = _parse(text, _SCALAR)
                scalar_time, scalar_force = scalar.derivatives(scalar_root)
                judges[:] = [_program(scalar, roots)[0] for roots in
                             ([scalar_root], scalar_force, [scalar_time])
                             if None not in roots]  # no time without t
            for i in which:
                judges[i](t_i, q1, q2, q3)

    def kernel(roots: list[int], *which: int) -> Callable:
        """The kernel run(t, q, out=None) of roots, with run.bind, judged
        by the math table's evaluators which: the force, into columns, if
        1 is one."""
        bind = _evaluator(graph, roots)
        force = 1 in which

        def columns(out: np.ndarray) -> list:
            return [out[..., 0], out[..., 1], out[..., 2]] if force else [out]

        def run(t, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            if out is None:
                shape = np.broadcast_shapes(np.shape(t), np.shape(q)[:-1])
                out = np.empty(shape + (3,) if force else shape)
            calls = bind(t, q, columns(out))
            try:
                _raising(calls)
                return out
            except FloatingPointError:
                pass
            with np.errstate(all="ignore"):
                _call(calls)
            ok = np.isfinite(out)
            judge(t, q, ok.all(axis=-1) if force else ok, which)
            return out

        run.bind = lambda t, q, out: bind(t, q, columns(out))
        return run

    return Potential(kernel([root], 0), kernel(force_nodes, 0, 1),
                     None if time is None else kernel([time], 0, 2),
                     time is None and _degree(graph.nodes, force_nodes) <= 1)
