"""Linear and affine algebra of flat Newtonian space-time in a fixed chart.

Conventions used by every module in this package:

* An event is a coordinate tuple (t, q1, q2, q3).
* Vectors and covectors carry four components c0..c3 / a0..a3 and pair by
  the plain sum a0*c0 + a1*c1 + a2*c2 + a3*c3.
* The time covector TAU is (1, 0, 0, 0).  Vectors with vanishing first
  component are spatial (they connect simultaneous events); the metric acts
  on their three spatial components only.
* A frame is a vector with time component exactly 1; its spatial part is the
  constant velocity of the corresponding family of inertial observers.

Everything here is a pure function of immutable values.  No state, no
globals beyond TAU.  The array kernels (``pair``, ``pair_frame``,
``iota_u_array``, ``sigma_array`` and the ``SpatialMetric`` methods) take arrays of
components of shape (..., 3) or (..., 4) and evaluate every entry in one
numpy pass, with the floating-point operations, in the order, of the
object-level functions, which are thin wrappers over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GalimechError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GalimechError):
    """A computation needs a value where it is undefined: an evaluation
    raised an ArithmeticError there, or the value is not finite."""


class NotSimultaneous(GalimechError):
    """Spatial distance requested between events at different times."""


class SingularMetric(GalimechError):
    """A candidate metric matrix is not positive definite at tolerance."""


# Eigenvalues of a spatial metric must clear this floor.
_SPD_EIGENVALUE_FLOOR = 1e-12

# |t(x) - t(x')| below this (scaled) threshold counts as simultaneous.
_SIMULTANEITY_REL = 1e-12


@dataclass(frozen=True)
class Vector4:
    """Displacement between events, or a velocity of a parametrized motion."""

    c0: float
    c1: float
    c2: float
    c3: float

    @classmethod
    def from_array(cls, a) -> "Vector4":
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"Vector4 needs 4 components, got shape {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.c0, self.c1, self.c2, self.c3], dtype=float)

    @property
    def spatial(self) -> np.ndarray:
        """Components along the three simultaneity directions."""
        return np.array([self.c1, self.c2, self.c3], dtype=float)

    def __add__(self, other: "Vector4") -> "Vector4":
        return Vector4(self.c0 + other.c0, self.c1 + other.c1,
                       self.c2 + other.c2, self.c3 + other.c3)

    def __sub__(self, other: "Vector4") -> "Vector4":
        return Vector4(self.c0 - other.c0, self.c1 - other.c1,
                       self.c2 - other.c2, self.c3 - other.c3)

    def __neg__(self) -> "Vector4":
        return Vector4(-self.c0, -self.c1, -self.c2, -self.c3)

    def __mul__(self, scalar: float) -> "Vector4":
        return Vector4(scalar * self.c0, scalar * self.c1,
                       scalar * self.c2, scalar * self.c3)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Covector4:
    """Linear functional on four-component vectors."""

    a0: float
    a1: float
    a2: float
    a3: float

    @classmethod
    def from_array(cls, a) -> "Covector4":
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"Covector4 needs 4 components, got shape {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2, self.a3], dtype=float)

    @property
    def spatial(self) -> np.ndarray:
        """Restriction to the simultaneity directions (components a1..a3)."""
        return np.array([self.a1, self.a2, self.a3], dtype=float)

    def pair(self, v) -> float:
        """Evaluate on a Vector4 or on a Frame (through its velocity)."""
        if isinstance(v, Frame):
            v = v.velocity
        return self.a0 * v.c0 + self.a1 * v.c1 + self.a2 * v.c2 + self.a3 * v.c3

    def __add__(self, other: "Covector4") -> "Covector4":
        return Covector4(self.a0 + other.a0, self.a1 + other.a1,
                         self.a2 + other.a2, self.a3 + other.a3)

    def __sub__(self, other: "Covector4") -> "Covector4":
        return Covector4(self.a0 - other.a0, self.a1 - other.a1,
                         self.a2 - other.a2, self.a3 - other.a3)

    def __neg__(self) -> "Covector4":
        return Covector4(-self.a0, -self.a1, -self.a2, -self.a3)

    def __mul__(self, scalar: float) -> "Covector4":
        return Covector4(scalar * self.a0, scalar * self.a1,
                         scalar * self.a2, scalar * self.a3)

    __rmul__ = __mul__


TAU = Covector4(1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, init=False)
class Event:
    """Point of space-time in the global chart (t, q1, q2, q3), held as
    Python floats: scalar arithmetic on them raises ArithmeticError where
    numpy scalars would give inf or NaN."""

    t: float
    q1: float
    q2: float
    q3: float

    def __init__(self, t, q1, q2, q3):  # frozen, so set through __dict__
        self.__dict__.update(t=float(t), q1=float(q1), q2=float(q2), q3=float(q3))

    @classmethod
    def from_array(cls, a) -> "Event":
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"Event needs 4 coordinates, got shape {a.shape}")
        return cls(*a)

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.q1, self.q2, self.q3], dtype=float)

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.q1, self.q2, self.q3], dtype=float)

    def __sub__(self, other: "Event") -> Vector4:
        return Vector4(self.t - other.t, self.q1 - other.q1,
                       self.q2 - other.q2, self.q3 - other.q3)

    def __add__(self, v: Vector4) -> "Event":
        return Event(self.t + v.c0, self.q1 + v.c1,
                     self.q2 + v.c2, self.q3 + v.c3)


@dataclass(frozen=True)
class Frame:
    """Inertial frame: a four-velocity whose time component is exactly 1."""

    velocity: Vector4

    def __post_init__(self):
        if self.velocity.c0 != 1.0:
            raise ValueError(
                f"frame velocity must have time component 1, got {self.velocity.c0}")
        spatial = self.velocity.spatial
        spatial.setflags(write=False)
        object.__setattr__(self, "_spatial", spatial)

    @classmethod
    def from_spatial(cls, s) -> "Frame":
        s = np.asarray(s, dtype=float)
        if s.shape != (3,):
            raise ValueError(f"frame spatial velocity needs 3 components, got {s.shape}")
        return cls(Vector4(1.0, float(s[0]), float(s[1]), float(s[2])))

    @property
    def spatial(self) -> np.ndarray:
        """The spatial velocity, built once per frame (read-only)."""
        return self._spatial


class SpatialMetric:
    """Euclidean metric on the simultaneity directions.

    Wraps a symmetric positive-definite 3x3 matrix together with its inverse.
    Construction rejects asymmetric input and matrices whose smallest
    eigenvalue does not clear a fixed floor, so every instance is safely
    invertible downstream.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"metric must be a 3x3 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("metric entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
            raise ValueError("metric must be symmetric")
        eigenvalues = np.linalg.eigvalsh(m)
        if float(eigenvalues[0]) <= _SPD_EIGENVALUE_FLOOR:
            raise SingularMetric(
                f"metric is not positive definite: smallest eigenvalue "
                f"{eigenvalues[0]:.3e} <= {_SPD_EIGENVALUE_FLOOR:.0e}")
        m = m.copy()
        m.setflags(write=False)
        self._matrix = m
        inv = np.linalg.inv(m)
        inv.setflags(write=False)
        self._inverse = inv

    @classmethod
    def identity(cls) -> "SpatialMetric":
        return cls(np.eye(3))

    @classmethod
    def diagonal(cls, d1: float, d2: float, d3: float) -> "SpatialMetric":
        return cls(np.diag([d1, d2, d3]))

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def inverse(self) -> np.ndarray:
        return self._inverse

    # np.matvec, np.vecmat and np.vecdot round each entry of a stack exactly
    # as the 1-D `m @ x`, `x @ m` and `a @ b` do; an elementwise sum of
    # products would not.

    def apply(self, s) -> np.ndarray:
        """Lower an index: spatial vector components -> functional
        components, for one vector or a stack of shape (..., 3)."""
        return np.matvec(self._matrix, s)

    def apply_inverse(self, f) -> np.ndarray:
        """Raise an index: functional components -> spatial vector
        components, for one functional or a stack of shape (..., 3)."""
        return np.matvec(self._inverse, f)

    def quadratic(self, s, s2=None) -> np.ndarray:
        """Inner product of two spatial vectors (of s with itself if s2 is
        None), entry by entry for stacks of shape (..., 3)."""
        return np.vecdot(np.vecmat(s, self._matrix), s if s2 is None else s2)

    def __repr__(self):
        return f"SpatialMetric({self._matrix.tolist()})"


def _components(a: np.ndarray) -> list:
    """The components of a along its last axis: floats for a single vector,
    arrays of shape a.shape[:-1] for a stack."""
    return a.tolist() if a.ndim == 1 else [a[..., i] for i in range(a.shape[-1])]


def pair(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<p, v> for stacks of covectors and vectors of shape (..., 4), summed
    in component order as Covector4.pair does."""
    p0, p1, p2, p3 = _components(p)
    v0, v1, v2, v3 = _components(v)
    return p0 * v0 + p1 * v1 + p2 * v2 + p3 * v3


def pair_frame(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """<p, u> for covectors (..., 4) and frames given by their spatial
    velocities (..., 3); the time component of a frame is exactly 1."""
    p0, p1, p2, p3 = _components(p)
    u1, u2, u3 = _components(u)
    return p0 + p1 * u1 + p2 * u2 + p3 * u3


def time_between(x: Event, xp: Event) -> float:
    """Time elapsed from xp to x: the time covector applied to x - xp."""
    return TAU.pair(x - xp)


def spatial_distance(x: Event, xp: Event, g: SpatialMetric) -> float:
    """Metric distance between two simultaneous events.

    Raises NotSimultaneous unless the time coordinates agree to rounding
    (relative threshold 1e-12, scaled by the magnitude of t).
    """
    dt = x.t - xp.t
    if abs(dt) >= _SIMULTANEITY_REL * (1.0 + max(abs(x.t), abs(xp.t))):
        raise NotSimultaneous(
            f"events are separated by dt={dt!r}; spatial distance is only "
            "defined between simultaneous events")
    return float(np.sqrt(g.quadratic((x - xp).spatial)))


def iota_u_array(u, v) -> np.ndarray:
    """Project vectors v (..., 4) onto the simultaneity directions along
    frames with spatial velocities u (..., 3): the spatial components
    (..., 3) of v minus the frame velocity scaled by the time component.
    Spatial vectors pass through unchanged, and the frame's own velocity
    maps to zero.
    """
    return v[..., 1:] - v[..., :1] * u


def iota_u(u: Frame, v) -> Vector4:
    """iota_u_array for one Vector4 (or Frame); the result has time
    component exactly 0."""
    if isinstance(v, Frame):
        v = v.velocity
    return Vector4(0.0, *iota_u_array(u.spatial, v.as_array()).tolist())


def split(u: Frame, v) -> tuple[np.ndarray, float]:
    """Decompose a vector into (spatial part seen from u, time component)."""
    if isinstance(v, Frame):
        v = v.velocity
    return iota_u(u, v).spatial, TAU.pair(v)


def unsplit(u: Frame, spatial, time: float) -> Vector4:
    """Inverse of split: rebuild the vector time * u + (spatial lift)."""
    s = np.asarray(spatial, dtype=float)
    us = u.spatial
    return Vector4(float(time), float(s[0] + time * us[0]),
                   float(s[1] + time * us[1]), float(s[2] + time * us[2]))


def cosplit(u: Frame, p: Covector4) -> tuple[np.ndarray, float]:
    """Decompose a covector into (spatial restriction, value on u)."""
    return p.spatial, p.pair(u)


def uncosplit(u: Frame, spatial, value_on_u: float) -> Covector4:
    """Inverse of cosplit: unique covector with given restriction and u-value."""
    f = np.asarray(spatial, dtype=float)
    a0 = float(value_on_u) - float(f @ u.spatial)
    return Covector4(a0, float(f[0]), float(f[1]), float(f[2]))


def g_prime(g: SpatialMetric, p: Covector4) -> Vector4:
    """Degenerate inverse metric on covectors.

    Raises the spatial restriction of p and lifts it back as a spatial
    vector; the time component of p is discarded, so multiples of TAU span
    the kernel.
    """
    raised = g.apply_inverse(p.spatial)
    return Vector4(0.0, float(raised[0]), float(raised[1]), float(raised[2]))


def sigma_array(g: SpatialMetric, u_prime, u) -> np.ndarray:
    """Momentum shift covector attached to a change of frame u -> u_prime.

    Lowers the relative velocity u_prime - u with the metric and extends the
    result to a covector on all vectors using the projection along the
    midpoint frame: the value on v is

        <g(u' - u), v - <TAU, v> (u + u')/2>.

    Frames are given by their spatial velocities, arrays of shape (..., 3);
    the covectors come back as components (..., 4).  Antisymmetric in its frame
    arguments and additive along chains of frames; both properties are
    exercised by the test suite.
    """
    f = g.apply(u_prime - u)
    mid = (u_prime + u) / 2.0
    out = np.empty(f.shape[:-1] + (4,))
    out[..., 0] = -np.vecdot(f, mid)
    out[..., 1:] = f
    return out


def sigma(g: SpatialMetric, u_prime: Frame, u: Frame) -> Covector4:
    """sigma_array for one pair of Frames."""
    return Covector4(*sigma_array(g, u_prime.spatial, u.spatial).tolist())
