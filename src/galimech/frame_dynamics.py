"""Mechanics of a single massive particle relative to an inertial frame.

Two equivalent pictures are implemented side by side.

In the *inhomogeneous* picture a state is an event (four coordinates) plus
a spatial momentum (three components).  The lagrangian is kinetic energy
relative to the frame minus a potential, the Legendre map lowers the
relative velocity with the metric, and trajectories are integrated in time
with a classical fixed-step RK4 scheme.  For an ``affine`` potential (every
built-in kind, and a ``custom`` one whose force is affine in q) the
equations of motion are affine in the state, so one RK4 step is one affine
map, the same at every step and in every frame up to its constant term; it
is precomputed once per integration, with its powers, and advanced a block
of steps at a time.  Any other potential runs RK4's four stages at every
step, as one program of ufunc calls bound once per integration to fixed
buffers, its force kernel's own schedule (``bind``) among them.  Every
potential a scenario names is compiled from expression text
(``harness.expressions.compile_potential``).

In the *homogeneous* picture the velocity is an arbitrary future-directed
four-vector and the momentum a full covector.  The lagrangian extends the
inhomogeneous one as a positively homogeneous function of degree one, its
fiber derivative lands on the zero set of the mass-shell residual, and a
change of frame acts on momenta by adding a fixed multiple of the
frame-shift covector.  Homogeneous dynamics is checked rather than
integrated: the defect of each state with its derivatives, over a stack.

Each formula is written once, as an array kernel over stacks of
components: frames as their spatial velocities (..., 3), events,
velocities and momenta as components (..., 4), and the potential as its
values (...) at the events in question.  A velocity that is not
future-directed is not rejected, and the homogeneous kernels are undefined
there.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain
from typing import TextIO

import numpy as np

from .galilean_core import (
    GalimechError,
    SpatialMetric,
    iota_u_array,
    maxabs,
    pair_frame,
)


class NonFiniteState(GalimechError):
    """An integration step produced an overflow, inf, or nan."""


# RK4 steps between two finiteness tests of the integrated states.
_FINITE_BLOCK = 64

# The step map's fixed inputs: the probe points q = 0 and the unit
# vectors, and the identity with the two scaled copies of it that the
# Horner form of D takes.
_PROBE = np.vstack([np.zeros(3), np.eye(3)])
_EYE6 = np.eye(6)
_EYE6_2, _EYE6_6 = _EYE6 / 2.0, _EYE6 / 6.0
for _a in (_PROBE, _EYE6, _EYE6_2, _EYE6_6):
    _a.setflags(write=False)
del _a


class Potential:
    """Scalar potential on space-time: one array kernel for its values,
    one for its force and one, optional, for its time derivative.

    ``values`` maps a time t (one, or an array broadcasting against
    q[..., 0]) and positions q (..., 3) to the values there, shape (...),
    each row rounding exactly as that event alone; it may raise an
    ArithmeticError where it has no value (a compiled kernel does at a
    division by zero or an overflow).
    ``force`` maps t, q and an optional out to the force -grad phi
    (..., 3), written into out when out is given, the exact derivative of
    the expression (``harness.expressions.compile_potential``).  ``time``
    maps t and q to the time derivative d phi / dt (...), the exact
    derivative of the expression in t; None means the value does not
    depend on t, so the time derivative is exactly 0.  Derivatives must
    agree with central differences of ``values`` to about 1e-6 relative
    (the test suite enforces this).
    ``affine`` states that the force is an affine function of q alone,
    f0 + K q, and that the value does not depend on t (so ``time`` must
    be None): ``integrate`` then runs RK4 as one precomputed step map.
    ``compile_potential`` reads it off the force's expression.
    A force may also carry ``force.bind(t, q, out)``, as a compiled
    kernel does: its schedule of calls (f, args), which, run in order,
    write into out the force at whatever the 0-d time array t and the
    positions q then hold, with the bits of ``force(float(t), q, out)``
    when no call raises.  ``integrate`` binds it once per call into its
    RK4 stage program.
    """

    __slots__ = ("values", "force", "time", "affine")

    def __init__(self, values: Callable[[float, np.ndarray], np.ndarray],
                 force: Callable[..., np.ndarray],
                 time: Callable[[float, np.ndarray], np.ndarray] | None = None,
                 affine: bool = False):
        if affine and time is not None:
            raise ValueError("an affine potential does not depend on t, "
                             "so it has no time kernel")
        self.values, self.force, self.time, self.affine = \
            values, force, time, affine

    def at_events(self, x: np.ndarray, on_error=None) -> np.ndarray:
        """Values at the events x (n, 4) in one ``values`` call.  When that
        raises an ArithmeticError and on_error is given, each event is
        evaluated alone, and one that raises gets on_error(index, error)."""
        try:
            return self.values(x[:, 0], x[:, 1:])
        except ArithmeticError:
            if on_error is None:
                raise
        out = np.empty(len(x))
        for i, event in enumerate(x):
            try:
                out[i] = self.values(event[0], event[1:])
            except ArithmeticError as exc:
                out[i] = on_error(i, exc)
        return out

    def d_s(self, x: np.ndarray) -> np.ndarray:
        """Derivatives along the three spatial coordinates (..., 3) at the
        events x (..., 4): the negated force."""
        x = np.asarray(x, dtype=float)
        return np.negative(self.force(x[..., 0], x[..., 1:]))

    def d(self, x: np.ndarray) -> np.ndarray:
        """Full differentials (dt, dq1, dq2, dq3) at the events x (..., 4):
        the negated force and the time derivative, each in one call over
        every event, or a time column of 0 where ``time`` is None."""
        flat = np.asarray(x, dtype=float).reshape(-1, 4)
        t, q = flat[:, 0], flat[:, 1:]
        out = np.empty(flat.shape)
        np.negative(self.force(t, q, out[:, 1:]), out[:, 1:])
        out[:, 0] = 0.0 if self.time is None else self.time(t, q)
        return out.reshape(np.shape(x))


class Trajectory:
    """Fixed-step discrete trajectories of F frames in the inhomogeneous
    picture, integrated together.

    ``t`` has shape (n+1,); ``q`` and ``p`` have shape (n+1, F, 3), with
    ``q[k, f]`` and ``p[k, f]`` the position and momentum in the frame
    ``frames[f]``, a read-only (F, 3) array of spatial velocities, at time
    ``t[k]``, views of one read-only (n+1, 2, F, 3) array.  Step k
    sits at time t[0] + k*h; the integrator guarantees the time coordinate
    advances by exactly the float h each step (up to the rounding of the
    final addition).
    """

    __slots__ = ("t", "q", "p", "h", "frames", "mass")

    def __init__(self, t: np.ndarray, q: np.ndarray, p: np.ndarray, h: float,
                 frames: np.ndarray, mass: float):
        self.t, self.q, self.p, self.h, self.frames, self.mass = \
            t, q, p, h, frames, mass

    def __len__(self) -> int:
        return len(self.t)

    def energies(self, g: SpatialMetric, potential: Potential) -> np.ndarray:
        """Energy |p|^2 / 2m + phi(x) at every step of a single-frame
        trajectory.

        Raises NonFiniteState, naming the step, when the potential raises
        an ArithmeticError at an integrated point: the force may be
        finite where the value is not (1/t + q1 at t = 0).  So it does
        for the first step whose energy is not finite: a finite momentum
        of 1e200 has an infinite kinetic energy.
        """
        if len(self.frames) != 1:
            raise ValueError(
                f"needs a single-frame trajectory, got {len(self.frames)} frames")

        def stop(step: int, exc: ArithmeticError):
            raise NonFiniteState(
                f"potential raised {type(exc).__name__} in the energy "
                f"at step {step}: {exc}") from exc

        q, p = self.q[:, 0], self.p[:, 0]
        with np.errstate(all="ignore"):  # a non-finite energy raises below
            phi = potential.at_events(np.column_stack([self.t, q]), stop)
            energy = 0.5 / self.mass * np.vecdot(p, g.apply_inverse(p)) + phi
        finite = np.isfinite(energy)
        if not finite.all():
            step = int(np.argmin(finite))
            raise NonFiniteState(
                f"energy {energy[step]} is not finite at step {step}")
        return energy


def lagrangian_inhom(u, m: float, g: SpatialMetric, phi, w) -> np.ndarray:
    """Kinetic energy of w relative to u, minus the potential value phi.

    The velocity w lives on the unit-time-component slice, so w - u is
    spatial and the value is m/2 <g(w - u), w - u> - phi.  u and w are
    spatial velocities (..., 3).
    """
    return 0.5 * m * g.quadratic(np.subtract(w, u)) - phi


def legendre_inhom(u, m: float, g: SpatialMetric, w) -> np.ndarray:
    """Spatial momentum conjugate to w in frame u: m times the lowered
    relative velocity."""
    return m * g.apply(np.subtract(w, u))


def lagrangian_hom(u, m: float, g: SpatialMetric, phi, v) -> np.ndarray:
    """Degree-one homogeneous extension of the frame-u lagrangian.

    For a future-directed v (not checked here) with time component tv,

        m / (2 tv) <g(iota_u v), iota_u v>  -  tv * phi.

    Restricting to tv = 1 recovers lagrangian_inhom, and rescaling v by
    c > 0 rescales the value by c.
    """
    tv = v[..., 0][()]
    return 0.5 * m / tv * g.quadratic(iota_u_array(u, v)) - tv * phi


def legendre_hom(u, m: float, g: SpatialMetric, phi, v) -> np.ndarray:
    """Fiber derivative of the homogeneous lagrangian in the velocity.

    Spatial components lower the projected velocity, the time component
    balances them so the output lands on the zero set of
    mass_shell_residual.  Invariant under positive rescaling of v, which
    must be future-directed (not checked here).
    """
    tv = v[..., 0][()]
    s = iota_u_array(u, v)
    f = m / v[..., :1] * g.apply(s)
    out = np.empty(f.shape[:-1] + (4,))
    out[..., 0] = -np.vecdot(f, u) - 0.5 * m / (tv * tv) * g.quadratic(s) - phi
    out[..., 1:] = f
    return out


def mass_shell_residual(u, m: float, g: SpatialMetric, phi, p) -> np.ndarray:
    """Defect of the frame-u energy constraint for covector momenta:

        <p, g'(p)> / 2m + <p, u> + phi.

    Zero exactly on momenta produced by legendre_hom.
    """
    ps = p[..., 1:]
    return 0.5 / m * np.vecdot(ps, g.apply_inverse(ps)) + pair_frame(p, u) + phi


def homogeneous_dynamics_violation_array(u, m: float, g: SpatialMetric, phi,
                                         dphi, p, xdot, pdot) -> np.ndarray:
    """Largest defect of the homogeneous equations of motion at each state.

    Checks that p is the fiber derivative of the lagrangian at xdot and that
    pdot is minus the time-component-scaled differential dphi (..., 4) of
    the potential.  +inf where xdot is not future-directed; NaN where any
    defect is NaN.
    """
    with np.errstate(all="ignore"):  # rows with tv <= 0 are replaced below
        err_p = maxabs(p - legendre_hom(u, m, g, phi, xdot))
    err_pdot = maxabs(pdot - (-xdot[..., :1]) * dphi)
    return np.where(xdot[..., 0] <= 0.0, np.inf, np.maximum(err_p, err_pdot))


def _stage_steps(ts, ys, u_s, m, g, potential, h, check):
    """advance(start, stop): RK4 steps start..stop-1 of integrate, each
    through its four stages, every stage temporary in a buffer allocated
    here once.  A step that raises names itself after check has named any
    earlier non-finite step.

    One step is a flat program of calls (f, args) bound once to these
    buffers: the rates of each stage (``g.apply_inverse`` as a method,
    which keeps its batched products), each force evaluation, the stage
    sums, and the stage times, held in 0-d arrays.  A force kernel with a
    ``bind(t, q, out)`` gives its own schedule of calls, bound to the
    stage state and rate; any other force is one call that gets t as a
    float.  A block of steps runs under numpy's floating-point errors
    raised.  A step that raises is redone from its start state to the
    end of the block by the program that calls each force through its
    own per-call entry, with overflow and invalid ignored, so every bit
    and every error is the per-call loop's."""
    # The four stage rates k1..k4 stacked in ks, the state y, the stage
    # state, acc, and the stage times t, t + h/2 and t + h.
    ks = np.empty((4, *ys.shape[1:]))
    y, stage, acc = (np.empty(ys.shape[1:]) for _ in range(3))
    t0, t_half, t1 = (np.empty(()) for _ in range(3))
    k1, k2, k3, k4 = ks
    k23 = ks[1:3]
    inverse, force = g.apply_inverse, potential.force
    # numpy combines an array with a 0-d array faster than with a float.
    m_, half_, h_, two, six = (np.array(c, dtype=float)
                               for c in (m, 0.5 * h, h, 2.0, 6.0))

    def per_call(t, q, out) -> None:
        force(float(t), q, out)

    def program(bind) -> list:
        """The calls of one step from (t0, y) into (t0, y): each force
        through its schedule bind(t, q, out), or per_call where bind is
        None."""
        def rates(t, state, k) -> list:
            (q, p), (kq, kp) = state, k
            return [(inverse, (p, kq)), (np.divide, (kq, m_, kq)),
                    (np.add, (kq, u_s, kq)),
                    *(bind(t, q, kp) if bind else [(per_call, (t, q, kp))])]

        def stage_state(c, k) -> list:
            return [(np.multiply, (c, k, stage)), (np.add, (y, stage, stage))]

        return [
            *rates(t0, y, k1), *stage_state(half_, k1),
            (np.add, (t0, half_, t_half)),
            *rates(t_half, stage, k2), *stage_state(half_, k2),
            *rates(t_half, stage, k3), *stage_state(h_, k3),
            (np.add, (t0, h_, t1)),
            *rates(t1, stage, k4),
            # y + h * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0): the
            # reduction adds the stages in order, and starting it from
            # -0.0 keeps the sign of a zero sum.
            (np.multiply, (two, k23, k23)),
            (np.add.reduce, (ks, 0, None, acc, False, -0.0)),
            (np.divide, (acc, six, acc)), (np.multiply, (h_, acc, acc)),
            (np.add, (y, acc, y)),
            # t + h, as integrate's running sum of the times has it
            (np.positive, (t1, t0))]

    fast, slow = program(getattr(force, "bind", None)), program(None)
    step = 0  # the step running, named when one raises

    def run(calls: list, first: int, stop: int) -> None:
        """Steps first..stop-1 by calls, from ys[first], each stored."""
        nonlocal step
        y[...], t0[...] = ys[first], ts[first]
        for step in range(first, stop):
            for f, args in calls:
                f(*args)
            ys[step + 1] = y

    def advance(start: int, stop: int) -> None:
        try:
            try:
                with np.errstate(all="raise", under="ignore"):
                    run(fast, start, stop)
            except FloatingPointError:
                run(slow, step, stop)
        except Exception as exc:
            # A step that went non-finite before the failing one is
            # reported first, as a test after every step would have.
            check(start + 1, step)
            if not isinstance(exc, ArithmeticError):
                raise
            raise _raised(exc, step + 1) from exc

    return advance


def _raised(exc: ArithmeticError, step: int) -> NonFiniteState:
    """The divergence of a potential that raised exc at step."""
    return NonFiniteState(
        f"potential raised {type(exc).__name__} at step {step}: {exc}")


def _step_map_steps(ys, t, u_s, m, g, potential, h):
    """advance(start, stop): RK4 steps start..stop-1 of integrate for an
    affine potential, advanced a block of steps at a time.

    With the force f0 + K q, the frame-u equations are y' = M y + b_u for
    y = (q, p), M = [[0, G^-1/m], [K, 0]] and b_u = (u, f0).  One RK4 step
    of an affine system is the affine map y + (D y + c_u), with X = h M,
    D = X + X^2/2 + X^3/6 + X^4/24 (RK4's stability polynomial less 1)
    and c_u = h (I + X/2 + X^2/6 + X^3/24) b_u: the same four stages,
    summed in another order.  f0 and K come from one call of the force
    kernel on q = 0 and the unit vectors; an ArithmeticError it raises
    there ends the integration at step 1.  c_u applies X to the vector
    h b_u, so no power of X is scaled by h, which could overflow where the
    state does not.

    With A = I + D, j steps take y_s to y_s + D_j y_s + S_j c_u, for
    D_j = A^j - I and S_j the sum of A^i over i < j: P_j = [D_j | S_j] for
    j < B, by doubling, P_{i+m} = P_i + P_m + D_i P_m.  A block predicts
    its states from y_s by the P_j, takes the increments D y + c_u there
    and stores y_s plus their running sum in step order, so each rounding
    stays relative to its increment.  Products are one BLAS call of one
    shape per frame, so a frame keeps the bits it gets alone.  A block
    whose last state is not finite (a power may overflow where no state
    does) is redone in blocks of one step, predicted as their start state,
    and a frame that stayed finite keeps the block's states.
    """
    frames = len(u_s)
    try:
        f = potential.force(t, _PROBE)
    except ArithmeticError as exc:
        raise _raised(exc, 1) from exc
    x = np.zeros((6, 6))
    x[:3, 3:] = g.apply_inverse(_PROBE[1:]).T * (h / m)
    x[3:, :3] = (f[1:] - f[0]).T * h
    hb = np.concatenate([u_s, np.broadcast_to(f[0], u_s.shape)], axis=1) * h
    c = hb / 24.0
    for k in (6.0, 2.0, 1.0):
        c = hb / k + np.matvec(x, c)
    # The powers P_j acting on (y, c_u), with P_1 = [D | I] the step map.
    blk = min(_FINITE_BLOCK, len(ys) - 1)
    p = np.empty((max(blk, 2), 6, 12))
    p[1, :, :6] = x @ (_EYE6 + x @ (_EYE6_2 + x @ (_EYE6_6 + x / 24.0)))
    p[1, :, 6:] = _EYE6
    j = 1
    while j + 1 < blk:
        known = p[1:min(j, blk - 1 - j) + 1]
        p[j + 1:j + 1 + len(known)] = p[j] + known + p[j, :, :6] @ known
        j += len(known)
    powers, step_map = p[1:blk].reshape(-1, 12), p[1].T  # p[0] unused
    # Per frame: the block's states as (y, c_u) rows, the start state
    # first; the predictions less the start state; the increments.
    yc = np.empty((frames, blk, 12))
    yc[..., 6:] = c[:, None]
    start_state = yc[:, 0, :6].reshape(frames, 2, 3).transpose(1, 0, 2)
    pred = np.empty((frames, len(powers), 1))
    rows = pred.reshape(frames, blk - 1, 6, copy=False)
    inc = np.empty((frames, blk, 6))
    inc_ys = inc.reshape(frames, blk, 2, 3, copy=False).transpose(1, 2, 0, 3)

    def block(start: int, steps: int) -> np.ndarray:
        """Steps start.. as one block into ys; each frame's finiteness."""
        start_state[...] = ys[start]
        r = 6 * (steps - 1)
        np.matmul(powers[:r], yc[:, 0, :, None], out=pred[:, :r])
        np.add(rows[:, :steps - 1], yc[:, :1, :6], out=yc[:, 1:steps, :6])
        np.matmul(yc[:, :steps], step_map, out=inc[:, :steps])
        out = ys[start:start + steps + 1]
        out[1:] = inc_ys[:steps]
        np.add.accumulate(out, axis=0, out=out)
        return np.isfinite(out[-1]).all(axis=(0, 2))

    def advance(start: int, stop: int) -> None:
        finite = block(start, stop - start)
        if not finite.all():  # redo it, keeping the frames that stayed finite
            kept = ys[start + 1:stop + 1, :, finite]
            for step in range(start, stop):
                block(step, 1)
            ys[start + 1:stop + 1, :, finite] = kept

    return advance


def integrate(u, m: float, g: SpatialMetric,
              potential: Potential,
              initial: tuple, h: float, n: int) -> Trajectory:
    """Classical RK4 integration of the equations of motion in one or more
    frames.

    ``u`` is one frame, its spatial velocity (3,), or F frames (F, 3), and
    ``initial`` the pair (x, p) of the start events, (4,) or (F, 4), and
    the spatial momenta, (3,) or (F, 3): one row per frame, or one row for
    every frame, all at one start time.  All frames advance together, with
    the same floating-point operations per frame as when integrated alone,
    in one of two ways chosen by the potential:
    - an ``affine`` potential (every built-in kind among them) runs each
      step as one precomputed affine map of the state, built once per
      call from one call of its ``force`` kernel, an ArithmeticError there
      naming step 1; that map is the RK4 step itself, its
      four stages summed in another order, so it agrees with the stage
      loop to a few ulps per step; it advances a block of steps at a time,
      from the map's powers;
    - any other potential runs the four stages of each step as one
      stacked state y (2, F, 3), positions then momenta, each stage
      written into buffers allocated once per call, the momentum rate of
      a stage written in place by the ``force`` kernel: one flat program
      of calls bound once per call to those buffers, with the schedule of
      ``force.bind`` where the force has one, run under numpy's
      floating-point errors raised; a step that raises is redone, to the
      end of its block, with each force called through its per-call
      entry and overflow ignored, which gives the same bits and names the
      same step.
    Produces n+1 steps including the initial one.  Raises ValueError for
    frames of any other shape, a non-positive mass or step, n < 1, or
    initial states that do not match the frames one to one at one start
    time, and NonFiniteState naming the first step whose time or state is
    not finite, or at which the potential raised an ArithmeticError.
    Finiteness is tested on the last step of each block of _FINITE_BLOCK
    steps, and step by step only in a block that failed it.
    """
    frames = np.array(u, dtype=float, ndmin=2)
    x, p = (np.asarray(a, dtype=float) for a in initial)
    if frames.shape[1:] != (3,) or not len(frames):
        raise ValueError(f"frames must be one spatial velocity (3,) or a "
                         f"stack (F, 3) with F >= 1, got shape {np.shape(u)}")
    if not (m > 0.0):
        raise ValueError(f"mass must be positive, got {m!r}")
    if not (h > 0.0):
        raise ValueError(f"step must be positive, got {h!r}")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"step count must be an integer >= 1, got {n!r}")
    if x.shape not in ((4,), (len(frames), 4)) \
            or p.shape not in ((3,), (len(frames), 3)):
        raise ValueError(f"need one initial state per frame, got events "
                         f"{x.shape} and momenta {p.shape} for "
                         f"{len(frames)} frames")
    t = float(x.flat[0])
    if np.any(x[..., 0] != t):
        raise ValueError("initial states must share one start time")

    frames.setflags(write=False)
    # The four stage time-rates are all exactly 1, so each step advances
    # the time by h * 1.0, exactly h; accumulate adds in sequence.
    ts = np.full(n + 1, h * 1.0)
    ts[0] = t
    with np.errstate(over="ignore"):
        np.add.accumulate(ts, out=ts)
    ys = np.empty((n + 1, 2, len(frames), 3))
    ys[0, 0], ys[0, 1] = x[..., 1:], p

    def check(first: int, last: int) -> None:
        """Raise NonFiniteState for the first of steps first..last whose
        time or state is not finite."""
        ok = np.isfinite(ts[first:last + 1]) & np.isfinite(
            ys[first:last + 1]).all(axis=(1, 2, 3))
        if not ok.all():
            raise NonFiniteState(f"state became non-finite at step "
                                 f"{first + int(np.argmin(ok))}")

    # Overflow is caught by check, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if potential.affine:
            advance = _step_map_steps(ys, t, frames, m, g, potential, h)
        else:
            advance = _stage_steps(ts, ys, frames, m, g, potential, h, check)
        for start in range(0, n, _FINITE_BLOCK):
            stop = min(start + _FINITE_BLOCK, n)
            advance(start, stop)
            # Times are an increasing running sum, and each state adds to
            # the one before, so a block is finite when its last step is.
            if not (np.isfinite(ts[stop]) and np.isfinite(ys[stop]).all()):
                check(start + 1, stop)

    for arr in (ts, ys):  # views taken after this are read-only as well
        arr.setflags(write=False)
    return Trajectory(t=ts, q=ys[:, 0], p=ys[:, 1], h=h, frames=frames, mass=m)


def write_trajectory_csv(traj: Trajectory, g: SpatialMetric,
                         potential: Potential, stream: TextIO) -> None:
    """Write a single-frame trajectory as CSV rows
    step,t,q1,q2,q3,p1,p2,p3,H.

    Floats carry 17 significant digits so values round-trip bit for bit.
    """
    rows = np.column_stack([traj.t, traj.q[:, 0], traj.p[:, 0],
                            traj.energies(g, potential)]).tolist()
    row = "%d," + ",".join(["%.17g"] * 8) + "\n"
    stream.write("step,t,q1,q2,q3,p1,p2,p3,H\n")
    # The whole body in one format call; the step stays an int for %d.
    stream.write((row * len(rows)) % tuple(
        chain.from_iterable((k, *fields) for k, fields in enumerate(rows))))
