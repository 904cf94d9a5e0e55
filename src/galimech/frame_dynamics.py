"""Mechanics of a single massive particle relative to an inertial frame.

Two equivalent pictures are implemented side by side.

In the *inhomogeneous* picture a state is an event plus a spatial momentum
(three components).  The lagrangian is kinetic energy relative to the frame
minus a potential, the Legendre map lowers the relative velocity with the
metric, and trajectories are integrated in time with a classical fixed-step
RK4 scheme.

In the *homogeneous* picture the velocity is an arbitrary future-directed
four-vector and the momentum a full covector.  The lagrangian extends the
inhomogeneous one as a positively homogeneous function of degree one, its
fiber derivative lands on the zero set of the mass-shell residual, and a
change of frame acts on momenta by adding a fixed multiple of the
frame-shift covector.  Homogeneous dynamics is checked pointwise
(membership of a state-with-derivatives tuple) rather than integrated.

Each formula is written once, as an array kernel (``*_array``) over stacks
of components: frames as spatial velocities (..., 3), velocities and
momenta as components (..., 4), and the potential as its values (...) at
the events in question.  The functions over Frame, Event, Vector4 and
Covector4 objects are thin wrappers that evaluate the potential and call
the kernel on one entry.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .galilean_core import (
    TAU,
    Covector4,
    Event,
    Frame,
    GalimechError,
    SpatialMetric,
    Vector4,
    iota_u_array,
    pair_frame,
    sigma,
)

log = logging.getLogger(__name__)

# Relative scale for one-sided offsets in central finite differences.
FD_STEP = 1e-6


class NotFutureDirected(GalimechError):
    """Homogeneous-picture velocity has non-positive time component."""


class NonFiniteState(GalimechError):
    """An integration step produced an overflow, inf, or nan."""


# Central-difference offsets: the three coordinates stepped up, then down.
_FD_DIRECTIONS = np.concatenate([np.eye(3), -np.eye(3)])


@dataclass(frozen=True)
class Potential:
    """Scalar potential on space-time with an analytic or a
    finite-difference spatial gradient.

    ``values`` maps a time t (one, or an array broadcasting against
    q[..., 0]) and positions q (..., 3) to the values there, shape (...);
    the built-in constructors give it alone, its rows rounding exactly as
    one event does.  ``value``, given for a ``custom`` potential on the
    scalar ``math`` table, maps an Event to a real and owns the rounding
    and ArithmeticError contract of every point value: such a potential is
    ``pointwise``.  ``spatial_gradient``, when given, maps t and q to the
    analytic gradient (..., 3); otherwise it is central differences of
    ``values`` with step 1e-6 * (1 + |q_i|), in one call.
    ``time_independent`` declares that the value does not depend on t, so
    the time derivative is exactly 0; otherwise it is a central difference
    of ``at``.  Analytic gradients must agree with the differences to about
    1e-6 relative (the test suite enforces this for the built-in ones).
    """

    value: Callable[[Event], float] | None = None
    spatial_gradient: Callable[[float, np.ndarray], np.ndarray] | None = None
    time_independent: bool = False
    values: Callable[[float, np.ndarray], np.ndarray] | None = None

    @property
    def pointwise(self) -> bool:
        return self.value is not None

    def at(self, x: Event) -> float:
        return float(self.value(x) if self.pointwise else
                     self.values(x.t, x.spatial))

    def at_events(self, x: np.ndarray, on_error=None) -> np.ndarray:
        """Values at the events x (n, 4): one ``values`` call or, when
        pointwise, one ``at`` per event, where an ArithmeticError propagates
        or gives the value on_error(index, error)."""
        if not self.pointwise:
            return self.values(x[:, 0], x[:, 1:])
        out = np.empty(len(x))
        for i, event in enumerate(x.tolist()):
            try:
                out[i] = self.at(Event(*event))
            except ArithmeticError as exc:
                if on_error is None:
                    raise
                out[i] = on_error(i, exc)
        return out

    def grad_s(self, t, q: np.ndarray) -> np.ndarray:
        """Spatial gradient for positions q of shape (..., 3) at time t:
        one time, or an array of times of shape (...), one per position."""
        if self.spatial_gradient is not None:
            return self.spatial_gradient(t, q)
        step = FD_STEP * (1.0 + np.abs(q))
        # Fortran order keeps each coordinate of the points contiguous, the
        # layout on which numpy's small-array operations are fastest.
        points = np.add(q[..., None, :], _FD_DIRECTIONS * step[..., None, :],
                        order="F")
        v = self.values(t[..., None] if isinstance(t, np.ndarray) else t, points)
        return (v[..., :3] - v[..., 3:]) / (2.0 * step)

    def d_s(self, x: Event) -> np.ndarray:
        """Derivative along the three spatial coordinates."""
        return self.grad_s(x.t, x.spatial)

    def differential(self, x: np.ndarray) -> np.ndarray:
        """Full differentials (dt, dq1, dq2, dq3) at the events x (..., 4).

        The spatial part is one grad_s call over every event.  The time
        derivative is 0 for a time-independent potential and otherwise a
        central difference of ``at``, event by event.
        """
        flat = np.asarray(x, dtype=float).reshape(-1, 4)
        out = np.empty(flat.shape)
        out[:, 1:] = self.grad_s(flat[:, 0], flat[:, 1:])
        out[:, 0] = 0.0
        if not self.time_independent:
            for i, (t, q1, q2, q3) in enumerate(flat.tolist()):
                step = FD_STEP * (1.0 + abs(t))
                out[i, 0] = (self.at(Event(t + step, q1, q2, q3)) -
                             self.at(Event(t - step, q1, q2, q3))) / (2.0 * step)
        return out.reshape(np.shape(x))

    def d(self, x: Event) -> Covector4:
        """Full differential, time component included."""
        return Covector4(*self.differential(x.as_array()).tolist())


def free_potential() -> Potential:
    """Identically zero potential."""
    return Potential(values=lambda t, q: np.zeros(np.shape(q)[:-1]),
                     spatial_gradient=lambda t, q: np.zeros(np.shape(q)),
                     time_independent=True)


def uniform_potential(force) -> Potential:
    """Potential of a constant force field: value -force . q."""
    f = np.array(force, dtype=float)
    if f.shape != (3,):
        raise ValueError(f"force needs 3 components, got shape {f.shape}")

    return Potential(
        values=lambda t, q: -np.vecdot(q, f),
        spatial_gradient=lambda t, q: -np.broadcast_to(f, np.shape(q)),
        time_independent=True,
    )


def harmonic_potential(k: float, center=(0.0, 0.0, 0.0)) -> Potential:
    """Quadratic well of stiffness k about a fixed spatial point."""
    c = np.array(center, dtype=float)
    if c.shape != (3,):
        raise ValueError(f"center needs 3 components, got shape {c.shape}")
    k = float(k)

    return Potential(
        values=lambda t, q: 0.5 * k * np.vecdot(q - c, q - c),
        spatial_gradient=lambda t, q: k * (q - c),
        time_independent=True,
    )


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """State of the particle in the inhomogeneous picture: an event and a
    spatial momentum."""

    x: Event
    p: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p, dtype=float)
        if arr.shape != (3,):
            raise ValueError(f"spatial momentum needs 3 components, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @classmethod
    def spatial(cls, x: Event, p) -> "PhasePoint":
        return cls(x=x, p=p)


@dataclass(frozen=True, eq=False, slots=True)
class Trajectory:
    """Fixed-step discrete trajectories of F frames in the inhomogeneous
    picture, integrated together.

    ``t`` has shape (n+1,); ``q`` and ``p`` have shape (n+1, F, 3), with
    ``q[k, f]`` and ``p[k, f]`` the position and momentum in ``frames[f]``
    at time ``t[k]``, views of one read-only (n+1, 2, F, 3) array.  Step k
    sits at time t[0] + k*h; the integrator guarantees the time coordinate
    advances by exactly the float h each step (up to the rounding of the
    final addition).
    """

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    h: float
    frames: tuple[Frame, ...]
    mass: float

    def __len__(self) -> int:
        return len(self.t)

    def energies(self, g: SpatialMetric, potential: Potential) -> np.ndarray:
        """hamiltonian_inhom at every step of a single-frame trajectory.

        Raises NonFiniteState, naming the step, when the potential raises
        an ArithmeticError at an integrated point: the gradient's central
        differences never evaluate the potential exactly there.
        """
        if len(self.frames) != 1:
            raise ValueError(
                f"needs a single-frame trajectory, got {len(self.frames)} frames")

        def stop(step: int, exc: ArithmeticError):
            raise NonFiniteState(
                f"potential raised {type(exc).__name__} in the energy "
                f"at step {step}: {exc}") from exc

        q, p = self.q[:, 0], self.p[:, 0]
        phi = potential.at_events(np.column_stack([self.t, q]), stop)
        return 0.5 / self.mass * np.vecdot(p, g.apply_inverse(p)) + phi


def lagrangian_inhom_array(u, m: float, g: SpatialMetric, phi, w) -> np.ndarray:
    """Kinetic energy of w relative to u, minus the potential value phi.

    The velocity w lives on the unit-time-component slice, so w - u is
    spatial and the value is m/2 <g(w - u), w - u> - phi.  u and w are
    spatial velocities (..., 3).
    """
    return 0.5 * m * g.quadratic(np.subtract(w, u)) - phi


def lagrangian_inhom(u: Frame, m: float, g: SpatialMetric,
                     potential: Potential, x: Event, w: Frame) -> float:
    """lagrangian_inhom_array at one state."""
    return float(lagrangian_inhom_array(u.spatial, m, g, potential.at(x),
                                        w.spatial))


def legendre_inhom_array(u, m: float, g: SpatialMetric, w) -> np.ndarray:
    """Spatial momentum conjugate to w in frame u: m times the lowered
    relative velocity."""
    return m * g.apply(np.subtract(w, u))


def legendre_inhom(u: Frame, m: float, g: SpatialMetric, w: Frame) -> np.ndarray:
    """legendre_inhom_array for one pair of frames."""
    return legendre_inhom_array(u.spatial, m, g, w.spatial)


def hamiltonian_inhom(u: Frame, m: float, g: SpatialMetric,
                      potential: Potential, x: Event, p) -> float:
    """Energy as a function of spatial momentum: |p|^2 / 2m + phi(x)."""
    p = np.asarray(p, dtype=float)
    return 0.5 / m * float(p @ g.apply_inverse(p)) + potential.at(x)


def vector_field_inhom(u: Frame, m: float, g: SpatialMetric,
                       potential: Potential,
                       state: PhasePoint) -> tuple[Vector4, np.ndarray]:
    """Right-hand side of the equations of motion in frame u.

    Returns (xdot, pdot) with xdot = raised p/m + u (time component 1) and
    pdot = minus the spatial gradient of the potential.
    """
    vel = g.apply_inverse(state.p) / m + u.spatial
    xdot = Vector4(1.0, float(vel[0]), float(vel[1]), float(vel[2]))
    pdot = -potential.d_s(state.x)
    return xdot, pdot


def _require_future(v: Vector4) -> None:
    tv = TAU.pair(v)
    if tv <= 0.0:
        raise NotFutureDirected(
            f"velocity must have positive time component, got {tv!r}")


def lagrangian_hom_array(u, m: float, g: SpatialMetric, phi, v) -> np.ndarray:
    """Degree-one homogeneous extension of the frame-u lagrangian.

    For a future-directed v (not checked here) with time component tv,

        m / (2 tv) <g(iota_u v), iota_u v>  -  tv * phi.

    Restricting to tv = 1 recovers lagrangian_inhom, and rescaling v by
    c > 0 rescales the value by c.
    """
    tv = v[..., 0][()]
    return 0.5 * m / tv * g.quadratic(iota_u_array(u, v)) - tv * phi


def lagrangian_hom(u: Frame, m: float, g: SpatialMetric,
                   potential: Potential, x: Event, v: Vector4) -> float:
    """lagrangian_hom_array at one state; raises NotFutureDirected for a
    non-positive time component."""
    _require_future(v)
    return float(lagrangian_hom_array(u.spatial, m, g, potential.at(x),
                                      v.as_array()))


def legendre_hom_array(u, m: float, g: SpatialMetric, phi, v) -> np.ndarray:
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


def legendre_hom(u: Frame, m: float, g: SpatialMetric,
                 potential: Potential, x: Event, v: Vector4) -> Covector4:
    """legendre_hom_array at one state; raises NotFutureDirected for a
    non-positive time component."""
    _require_future(v)
    return Covector4(*legendre_hom_array(u.spatial, m, g, potential.at(x),
                                         v.as_array()).tolist())


def mass_shell_residual_array(u, m: float, g: SpatialMetric, phi, p) -> np.ndarray:
    """Defect of the frame-u energy constraint for covector momenta:

        <p, g'(p)> / 2m + <p, u> + phi.

    Zero exactly on momenta produced by legendre_hom.
    """
    ps = p[..., 1:]
    return 0.5 / m * np.vecdot(ps, g.apply_inverse(ps)) + pair_frame(p, u) + phi


def mass_shell_residual(u: Frame, m: float, g: SpatialMetric,
                        potential: Potential, x: Event, p: Covector4) -> float:
    """mass_shell_residual_array at one state."""
    return float(mass_shell_residual_array(u.spatial, m, g, potential.at(x),
                                           p.as_array()))


def homogeneous_dynamics_violation_array(u, m: float, g: SpatialMetric, phi,
                                         dphi, p, xdot, pdot) -> np.ndarray:
    """Largest defect of the homogeneous equations of motion at each state.

    Checks that p is the fiber derivative of the lagrangian at xdot and that
    pdot is minus the time-component-scaled differential dphi (..., 4) of
    the potential.  +inf where xdot is not future-directed; NaN where any
    defect is NaN.
    """
    with np.errstate(all="ignore"):  # rows with tv <= 0 are replaced below
        err_p = np.max(np.abs(p - legendre_hom_array(u, m, g, phi, xdot)),
                       axis=-1)
    err_pdot = np.max(np.abs(pdot - (-xdot[..., :1]) * dphi), axis=-1)
    return np.where(xdot[..., 0] <= 0.0, np.inf, np.maximum(err_p, err_pdot))


def homogeneous_dynamics_violation(u: Frame, m: float, g: SpatialMetric,
                                   potential: Potential, x: Event,
                                   p: Covector4, xdot: Vector4,
                                   pdot: Covector4) -> float:
    """homogeneous_dynamics_violation_array at one state."""
    return float(homogeneous_dynamics_violation_array(
        u.spatial, m, g, potential.at(x), potential.d(x).as_array(),
        p.as_array(), xdot.as_array(), pdot.as_array()))


def in_homogeneous_dynamics(u: Frame, m: float, g: SpatialMetric,
                            potential: Potential,
                            element: tuple[Event, Covector4, Vector4, Covector4],
                            tol: float) -> bool:
    """Membership test for a (state, derivative) tuple in the frame-u
    homogeneous dynamics.  element = (x, p, xdot, pdot)."""
    x, p, xdot, pdot = element
    return homogeneous_dynamics_violation(u, m, g, potential, x, p, xdot, pdot) <= tol


def boost(u_prime: Frame, u: Frame, m: float, g: SpatialMetric,
          state: tuple[Event, Covector4]) -> tuple[Event, Covector4]:
    """Carry a homogeneous state from frame u_prime bookkeeping to frame u.

    Adds m * sigma(u_prime, u) to the momentum and leaves the event alone.
    A momentum satisfying the u_prime mass-shell constraint is mapped onto
    the u constraint set with the residual value preserved exactly.
    """
    x, p = state
    return x, p + m * sigma(g, u_prime, u)


def integrate(u: Frame | Sequence[Frame], m: float, g: SpatialMetric,
              potential: Potential,
              initial: PhasePoint | Sequence[PhasePoint],
              h: float, n: int) -> Trajectory:
    """Classical RK4 integration of the equations of motion in one or more
    frames.

    ``u`` is one Frame or a sequence of F frames, and ``initial`` the
    matching PhasePoint or sequence of F PhasePoints, all at one start
    time.  All frames advance as one stacked state y (2, F, 3), positions
    then momenta, so each stage's rates, its input, the RK4 combination and
    the finiteness test are one array operation each, with the same
    floating-point operations per frame as when integrated alone.  Produces
    n+1 steps including the initial one.  Raises ValueError for a
    non-positive mass or step, n < 1, or initial states that do not match
    the frames one to one at one start time, and NonFiniteState, naming
    the step, as soon as any state component stops being finite or the
    potential raises an ArithmeticError.
    """
    frames = (u,) if isinstance(u, Frame) else tuple(u)
    starts = (initial,) if isinstance(initial, PhasePoint) else tuple(initial)
    if m <= 0.0:
        raise ValueError(f"mass must be positive, got {m!r}")
    if not (h > 0.0):
        raise ValueError(f"step must be positive, got {h!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"step count must be an integer >= 1, got {n!r}")
    if not frames or len(starts) != len(frames):
        raise ValueError(f"need one initial state per frame, got "
                         f"{len(starts)} for {len(frames)} frames")
    t = float(starts[0].x.t)
    if any(s.x.t != t for s in starts):
        raise ValueError("initial states must share one start time")

    u_s = np.array([f.spatial for f in frames])
    ts = np.empty(n + 1)
    ys = np.empty((n + 1, 2, len(frames), 3))
    ts[0] = t
    ys[0, 0] = [s.x.spatial for s in starts]
    ys[0, 1] = [s.p for s in starts]
    y = ys[0]
    k1, k2, k3, k4, stage = (np.empty(y.shape) for _ in range(5))

    def rates(t: float, y: np.ndarray, k: np.ndarray) -> None:
        np.add(g.apply_inverse(y[1]) / m, u_s, out=k[0])
        np.negative(potential.grad_s(t, y[0]), out=k[1])

    step = 0
    try:
        # Overflow is handled by the isfinite check below, not by numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(n):
                rates(t, y, k1)
                rates(t + 0.5 * h, np.add(y, 0.5 * h * k1, out=stage), k2)
                rates(t + 0.5 * h, np.add(y, 0.5 * h * k2, out=stage), k3)
                rates(t + h, np.add(y, h * k3, out=stage), k4)
                y = np.add(y, h * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0),
                           out=ys[step + 1])
                # The four stage time-rates are all exactly 1, so the
                # combination below is h * 1.0 and the time coordinate
                # advances by exactly h.
                t = t + h * 1.0
                if not (math.isfinite(t) and np.isfinite(y).all()):
                    raise NonFiniteState(
                        f"state became non-finite at step {step + 1}")
                ts[step + 1] = t
    except ArithmeticError as exc:
        raise NonFiniteState(
            f"potential raised {type(exc).__name__} at step {step + 1}: "
            f"{exc}") from exc

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
                            traj.energies(g, potential)])
    stream.write("step,t,q1,q2,q3,p1,p2,p3,H\n")
    for k, fields in enumerate(rows.tolist()):
        stream.write(str(k) + "," + ",".join(f"{v:.17g}" for v in fields) + "\n")
