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
    iota_u,
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

    ``value`` maps an Event to a real; it serves every point evaluation.
    ``spatial_gradient``, when given, maps a time t and positions q of
    shape (..., 3) to the analytic gradient at every position, as one array
    of the same shape.  Otherwise ``values`` maps t and positions of shape
    (..., 3) to the values there, shape (...), and the gradient is formed
    by central differences with step 1e-6 * (1 + |q_i|), every position and
    offset evaluated in one ``values`` call.  A ``custom`` scenario
    potential gets both evaluators from its one expression: ``value`` on
    the scalar ``math`` table, ``values`` on the ``numpy`` one.

    ``time_independent`` declares that the value does not depend on t, so
    the time derivative is exactly 0; otherwise it is a central difference
    of ``value`` as well.  Analytic gradients must agree with the
    differences to about 1e-6 relative (the test suite enforces this for
    the built-in constructors).
    """

    value: Callable[[Event], float]
    spatial_gradient: Callable[[float, np.ndarray], np.ndarray] | None = None
    time_independent: bool = False
    values: Callable[[float, np.ndarray], np.ndarray] | None = None

    def at(self, x: Event) -> float:
        return float(self.value(x))

    def grad_s(self, t: float, q: np.ndarray) -> np.ndarray:
        """Spatial gradient at time t for positions q of shape (..., 3)."""
        if self.spatial_gradient is not None:
            return self.spatial_gradient(t, q)
        step = FD_STEP * (1.0 + np.abs(q))
        # Fortran order keeps each coordinate of the points contiguous, the
        # layout on which numpy's small-array operations are fastest.
        points = np.add(q[..., None, :], _FD_DIRECTIONS * step[..., None, :],
                        order="F")
        v = self.values(t, points)
        return (v[..., :3] - v[..., 3:]) / (2.0 * step)

    def d_s(self, x: Event) -> np.ndarray:
        """Derivative along the three spatial coordinates."""
        return self.grad_s(x.t, x.spatial)

    def d(self, x: Event) -> Covector4:
        """Full differential, time component included."""
        dt = 0.0
        if not self.time_independent:
            step = FD_STEP * (1.0 + abs(x.t))
            dt = (self.at(Event(x.t + step, x.q1, x.q2, x.q3)) -
                  self.at(Event(x.t - step, x.q1, x.q2, x.q3))) / (2.0 * step)
        ds = self.d_s(x)
        return Covector4(float(dt), float(ds[0]), float(ds[1]), float(ds[2]))


def free_potential() -> Potential:
    """Identically zero potential."""
    return Potential(value=lambda x: 0.0,
                     spatial_gradient=lambda t, q: np.zeros(np.shape(q)),
                     time_independent=True)


def uniform_potential(force) -> Potential:
    """Potential of a constant force field: value -force . q."""
    f = np.array(force, dtype=float)
    if f.shape != (3,):
        raise ValueError(f"force needs 3 components, got shape {f.shape}")

    return Potential(
        value=lambda x: -float(f @ x.spatial),
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
        value=lambda x: 0.5 * k * float((x.spatial - c) @ (x.spatial - c)),
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
    at time ``t[k]``.  Step k sits at time t[0] + k*h; the integrator
    guarantees the time coordinate advances by exactly the float h each
    step (up to the rounding of the final addition).
    """

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    h: float
    frames: tuple[Frame, ...]
    mass: float

    def __len__(self) -> int:
        return len(self.t)

    def energies(self, g: SpatialMetric, potential: Potential) -> list[float]:
        """hamiltonian_inhom at every step of a single-frame trajectory.

        Raises NonFiniteState, naming the step, when the potential raises
        an ArithmeticError at an integrated point: the gradient's central
        differences never evaluate the potential exactly there.
        """
        if len(self.frames) != 1:
            raise ValueError(
                f"needs a single-frame trajectory, got {len(self.frames)} frames")
        u = self.frames[0]
        out = []
        for step, (t, q, p) in enumerate(zip(
                self.t.tolist(), self.q[:, 0].tolist(), self.p[:, 0])):
            try:
                out.append(hamiltonian_inhom(u, self.mass, g, potential,
                                             Event(t, *q), p))
            except ArithmeticError as exc:
                raise NonFiniteState(
                    f"potential raised {type(exc).__name__} in the energy "
                    f"at step {step}: {exc}") from exc
        return out


def lagrangian_inhom(u: Frame, m: float, g: SpatialMetric,
                     potential: Potential, x: Event, w: Frame) -> float:
    """Kinetic energy of w relative to u, minus the potential.

    The velocity w lives on the unit-time-component slice, so w - u is
    spatial and the value is m/2 <g(w - u), w - u> - phi(x).
    """
    rel = w.spatial - u.spatial
    return 0.5 * m * g.quadratic(rel) - potential.at(x)


def legendre_inhom(u: Frame, m: float, g: SpatialMetric, w: Frame) -> np.ndarray:
    """Spatial momentum conjugate to w in frame u: m times the lowered
    relative velocity."""
    return m * g.apply(w.spatial - u.spatial)


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


def _require_future(v: Vector4) -> float:
    tv = TAU.pair(v)
    if tv <= 0.0:
        raise NotFutureDirected(
            f"velocity must have positive time component, got {tv!r}")
    return tv


def lagrangian_hom(u: Frame, m: float, g: SpatialMetric,
                   potential: Potential, x: Event, v: Vector4) -> float:
    """Degree-one homogeneous extension of the frame-u lagrangian.

    For a future-directed v with time component tv,

        m / (2 tv) <g(iota_u v), iota_u v>  -  tv * phi(x).

    Restricting to tv = 1 recovers lagrangian_inhom, and rescaling v by
    c > 0 rescales the value by c.
    """
    tv = _require_future(v)
    s = iota_u(u, v).spatial
    return 0.5 * m / tv * g.quadratic(s) - tv * potential.at(x)


def legendre_hom(u: Frame, m: float, g: SpatialMetric,
                 potential: Potential, x: Event, v: Vector4) -> Covector4:
    """Fiber derivative of the homogeneous lagrangian in the velocity.

    Spatial components lower the projected velocity, the time component
    balances them so the output lands on the zero set of
    mass_shell_residual.  Invariant under positive rescaling of v.
    """
    tv = _require_future(v)
    s = iota_u(u, v).spatial
    f = (m / tv) * g.apply(s)
    a0 = -float(f @ u.spatial) - 0.5 * m / (tv * tv) * g.quadratic(s) \
        - potential.at(x)
    return Covector4(a0, float(f[0]), float(f[1]), float(f[2]))


def mass_shell_residual(u: Frame, m: float, g: SpatialMetric,
                        potential: Potential, x: Event, p: Covector4) -> float:
    """Defect of the frame-u energy constraint for a covector momentum:

        <p, g'(p)> / 2m + <p, u> + phi(x).

    Zero exactly on momenta produced by legendre_hom.
    """
    ps = p.spatial
    return 0.5 / m * float(ps @ g.apply_inverse(ps)) + p.pair(u) + potential.at(x)


def homogeneous_dynamics_violation(u: Frame, m: float, g: SpatialMetric,
                                   potential: Potential, x: Event,
                                   p: Covector4, xdot: Vector4,
                                   pdot: Covector4) -> float:
    """Largest defect of the homogeneous equations of motion at one state.

    Checks that p is the fiber derivative of the lagrangian at xdot and that
    pdot is minus the time-component-scaled differential of the potential.
    Returns +inf when xdot is not future-directed.
    """
    tv = TAU.pair(xdot)
    if tv <= 0.0:
        return float("inf")
    p_expected = legendre_hom(u, m, g, potential, x, xdot)
    pdot_expected = (-tv) * potential.d(x)
    err_p = float(np.max(np.abs((p - p_expected).as_array())))
    err_pdot = float(np.max(np.abs((pdot - pdot_expected).as_array())))
    return max(err_p, err_pdot)


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
    time.  Every frame advances in the same loop as a row of (F, 3) arrays,
    with the same floating-point operations as when integrated alone.
    Produces n+1 steps including the initial one.  Raises ValueError for a
    non-positive mass or step, n < 1, or initial states that do not match
    the frames one to one at one start time, and NonFiniteState as soon as
    any state component stops being finite or the potential raises an
    ArithmeticError.
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

    g_inv = g.inverse
    u_s = np.array([f.spatial for f in frames])
    ts = np.empty(n + 1)
    qs = np.empty((n + 1, len(frames), 3))
    ps = np.empty((n + 1, len(frames), 3))
    ts[0] = t
    qs[0] = [s.x.spatial for s in starts]
    ps[0] = [s.p for s in starts]
    q, p = qs[0], ps[0]

    def q_rate(p: np.ndarray) -> np.ndarray:
        # A stacked matvec rounds each frame's row exactly as g_inv @ p does.
        return (g_inv @ p[..., None])[..., 0] / m + u_s

    def p_rate(t: float, q: np.ndarray) -> np.ndarray:
        return -potential.grad_s(t, q)

    step = 0
    try:
        # Overflow is handled by the isfinite check below, not by numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(n):
                k1q = q_rate(p)
                k1p = p_rate(t, q)
                k2q = q_rate(p + 0.5 * h * k1p)
                k2p = p_rate(t + 0.5 * h, q + 0.5 * h * k1q)
                k3q = q_rate(p + 0.5 * h * k2p)
                k3p = p_rate(t + 0.5 * h, q + 0.5 * h * k2q)
                k4q = q_rate(p + h * k3p)
                k4p = p_rate(t + h, q + h * k3q)
                q = q + h * ((k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0)
                p = p + h * ((k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0)
                # The four stage time-rates are all exactly 1, so the
                # combination below is h * 1.0 and the time coordinate
                # advances by exactly h.
                t = t + h * 1.0
                if not (math.isfinite(t) and np.all(np.isfinite(q))
                        and np.all(np.isfinite(p))):
                    raise NonFiniteState(
                        f"state became non-finite at step {step + 1}")
                ts[step + 1] = t
                qs[step + 1] = q
                ps[step + 1] = p
    except ArithmeticError as exc:
        raise NonFiniteState(
            f"potential raised {type(exc).__name__} at step {step + 1}: "
            f"{exc}") from exc

    for arr in (ts, qs, ps):
        arr.setflags(write=False)
    return Trajectory(t=ts, q=qs, p=ps, h=h, frames=frames, mass=m)


def write_trajectory_csv(traj: Trajectory, g: SpatialMetric,
                         potential: Potential, stream: TextIO) -> None:
    """Write a single-frame trajectory as CSV rows
    step,t,q1,q2,q3,p1,p2,p3,H.

    Floats carry 17 significant digits so values round-trip bit for bit.
    """
    energies = traj.energies(g, potential)
    stream.write("step,t,q1,q2,q3,p1,p2,p3,H\n")
    for k, (t, q, p, energy) in enumerate(zip(
            traj.t.tolist(), traj.q[:, 0].tolist(), traj.p[:, 0].tolist(),
            energies)):
        fields = [t, *q, *p, energy]
        stream.write(str(k) + "," + ",".join(f"{v:.17g}" for v in fields) + "\n")
