"""Frame-independent phase space over the fixed space-time chart.

Frame mechanics (``frame_dynamics``) attaches a lagrangian value and a
momentum covector to every inertial frame, and the sigma covector says how
those attachments differ between frames.  This module quotients the frame
out: a class stores one canonical representative, taken in the distinguished
rest frame, and every constructor accepts data expressed in an arbitrary
frame and re-charts it on the way in.  All operations downstream of the
constructors are then plain arithmetic on representatives, and the
chart-independence of the whole scheme is a testable property rather than a
definition.

Two quotient types exist.  ``WElement`` is a lagrangian-value class: a pair
(v, r) of a space-time velocity and a real, where the real part shifts by a
sigma pairing under re-charting.  ``PElement`` is a momentum class: a single
covector that shifts by a sigma multiple.  Evaluation of a W element on a P
element is the chart-invariant affine function f_w(p) = <p, v> - r.

The module also carries the derived machinery that lives naturally on the
quotient: the universal mass-shell function, the affine lagrangian, the
hamiltonian as a fiber difference, the three tuple maps relating the tangent
and cotangent pictures, and the affine-metric section construction.

The quotient operations are written once, as array kernels over stacks of
components: momentum representatives as covector components (..., 4), W
representatives packed as (v0, v1, v2, v3, r) in (..., 5), frames as
their spatial velocities (..., 3), and the potential as its values.  Every
kernel that reads the mass m and the spatial metric g takes them as its
first two arguments, as in ``frame_dynamics``.  The reference frame
``REFERENCE_FRAME`` is the read-only zero velocity (3,).  WElement and
PElement hold one class each, as its read-only representative array; their
``from_chart``/``in_chart`` take m, g and a frame (3,) and call the
chart-change kernels on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .galilean_core import (
    SpatialMetric,
    pair,
    pair_frame,
    sigma,
)
from .frame_dynamics import (
    Potential,
    homogeneous_dynamics_violation_array,
    lagrangian_hom,
)
from .generating_objects import FunctionFamily, family_fam1, family_fam2

__all__ = [
    "REFERENCE_FRAME",
    "WElement",
    "PElement",
    "W_UNIT",
    "w_pack",
    "w_change_chart",
    "p_change_chart",
    "w_add_array",
    "w_scale_array",
    "eval_affine_array",
    "pairing_array",
    "psi_m_array",
    "affine_lagrangian_array",
    "hamiltonian_fun_array",
    "alpha",
    "beta",
    "beta_inv",
    "gamma",
    "dynamics_membership_universal_array",
    "AffineMetric",
    "affine_metric_apply",
    "section_from_affine_metric",
    "family_fam3",
    "family_fam4",
]

# Canonical representatives are taken in the rest frame of the global chart.
REFERENCE_FRAME = np.zeros(3)
REFERENCE_FRAME.setflags(write=False)


def w_pack(v, r) -> np.ndarray:
    """Pack velocity parts (..., 4) and real parts (...) as (..., 5)."""
    out = np.empty(np.broadcast_shapes(np.shape(v)[:-1], np.shape(r)) + (5,))
    out[..., :4] = v
    out[..., 4] = r
    return out


def w_change_chart(m: float, g: SpatialMetric, w, from_u, to_u) -> np.ndarray:
    """Re-express lagrangian-value representatives (..., 5) in other frames.

    The velocity part is chart-independent; the real part picks up the
    sigma pairing:  r' = r - m <sigma(to, from), v>.
    """
    v = w[..., :4]
    return w_pack(v, w[..., 4] - m * pair(sigma(g, to_u, from_u), v))


def p_change_chart(m: float, g: SpatialMetric, p, from_u, to_u) -> np.ndarray:
    """Re-express momentum representatives (..., 4) in other frames:
    p' = p - m sigma(to, from)."""
    return p - m * sigma(g, to_u, from_u)


@dataclass(frozen=True, eq=False)
class WElement:
    """Class of (frame, velocity, real) triples under the sigma relation.

    Stored as ``w``, its representative (v0, v1, v2, v3, r) in the
    reference frame, (5,), read-only in every instance this module builds.
    The velocity part is the class invariant; the real part is
    chart-relative.
    """

    w: np.ndarray

    @classmethod
    def from_chart(cls, m: float, g: SpatialMetric, v, r: float,
                   frame: np.ndarray) -> "WElement":
        """The class of velocity v (4,) and real r in the chart of frame."""
        w = w_change_chart(m, g, w_pack(v, r), frame, REFERENCE_FRAME)
        w.setflags(write=False)
        return cls(w)

    def in_chart(self, m: float, g: SpatialMetric,
                 frame: np.ndarray) -> np.ndarray:
        """The representative (5,) in the chart of frame."""
        return w_change_chart(m, g, self.w, REFERENCE_FRAME, frame)


@dataclass(frozen=True, eq=False)
class PElement:
    """Momentum class, stored as ``p``, its reference-frame covector (4,),
    read-only in every instance this module builds."""

    p: np.ndarray

    @classmethod
    def from_chart(cls, m: float, g: SpatialMetric, p,
                   frame: np.ndarray) -> "PElement":
        """The class of covector p (4,) in the chart of frame."""
        p = p_change_chart(m, g, p, frame, REFERENCE_FRAME)
        p.setflags(write=False)
        return cls(p)

    def in_chart(self, m: float, g: SpatialMetric,
                 frame: np.ndarray) -> np.ndarray:
        """The representative covector (4,) in the chart of frame."""
        return p_change_chart(m, g, self.p, REFERENCE_FRAME, frame)


# The distinguished unit: evaluates to 1 on every momentum class, and its
# representative is the same pair in every chart (the sigma pairing with a
# zero velocity vanishes identically).
W_UNIT = WElement(np.array([0.0, 0.0, 0.0, 0.0, -1.0]))
W_UNIT.w.setflags(write=False)


def w_add_array(a, b) -> np.ndarray:
    """Sum of lagrangian-value classes (..., 5).

    Componentwise on representatives: both live in the reference chart, so
    no sigma correction enters, and linearity of the chart rule makes the
    result chart-independent.
    """
    return np.add(a, b)


def w_scale_array(scalar, w) -> np.ndarray:
    """Scalar multiples (...) of lagrangian-value classes (..., 5),
    componentwise."""
    return np.asarray(scalar, dtype=float)[..., None] * w


def eval_affine_array(w, p) -> np.ndarray:
    """The affine function a W element (..., 5) defines on momentum classes
    (..., 4):

        f_w(p) = <p, v> - r

    computed on shared-chart representatives, hence independent of the
    charts the inputs were built through.
    """
    return pair(p, w[..., :4]) - w[..., 4]


def pairing_array(p, v) -> np.ndarray:
    """W element with velocity part v and real part <p, v>.

    Evaluating it on another momentum class q gives <q - p, v>, a plain
    covector-vector pairing, which is what makes the construction
    chart-independent.
    """
    return w_pack(v, pair(p, v))


def psi_m_array(m: float, g: SpatialMetric, p) -> np.ndarray:
    """Kinetic-plus-transport part of the mass-shell function,

        (1/2m) <p, g'(p)> + <p, u>

    evaluated on canonical representatives (..., 4).  Constant on classes:
    the sigma shift changes both terms by opposite amounts.
    """
    ps = p[..., 1:]
    return 0.5 / m * np.vecdot(ps, g.apply_inverse(ps)) \
        + pair_frame(p, REFERENCE_FRAME)


def affine_lagrangian_array(m: float, g: SpatialMetric, phi, v) -> np.ndarray:
    """The lagrangian as a W-valued map: class of (u, v, l_u(x, v)), for
    velocities (..., 4) at events with potential values phi.

    Constructing through any frame yields the same class because the
    per-frame lagrangians differ by exactly the sigma pairing the chart
    rule removes.  The velocities must be future-directed.
    """
    return w_pack(v, lagrangian_hom(REFERENCE_FRAME, m, g, phi, v))


def hamiltonian_fun_array(m: float, g: SpatialMetric, phi, v,
                          p) -> np.ndarray:
    """<p, v> minus the lagrangian value, as a chart-independent real, for
    velocities (..., 4), momentum representatives (..., 4) and potential
    values phi.

    Both terms are W elements over the same v, so their fiber difference
    (the difference of the real parts) is well defined, and it reproduces
    the single-chart formula <p, v> - l_u(x, v) in every chart.
    """
    return pairing_array(p, v)[..., 4] \
        - affine_lagrangian_array(m, g, phi, v)[..., 4]


def alpha(element: tuple) -> tuple:
    """(x, p, v, a) -> (x, v, a, p): tangent-of-phase-space data rearranged
    over the velocity-side base."""
    x, pp, v, a = element
    return (x, v, a, pp)


def beta(element: tuple) -> tuple:
    """(x, p, v, a) -> (x, p, a, -v): the cotangent-side rearrangement."""
    x, pp, v, a = element
    return (x, pp, a, -v)


def beta_inv(element: tuple) -> tuple:
    """Inverse of beta: (x, p, a, w) -> (x, p, -w, a)."""
    x, pp, a, w = element
    return (x, pp, -w, a)


def gamma(element: tuple) -> tuple:
    """(x, p, a, v) -> (x, -v, a, p): the composite alpha after beta_inv,
    written out directly."""
    x, pp, a, v = element
    return (x, -v, a, pp)


def dynamics_membership_universal_array(m: float, g: SpatialMetric, phi,
                                        dphi, p, xdot, pdot,
                                        tol: float) -> np.ndarray:
    """Test momentum representatives p, velocities xdot and momentum rates
    pdot (..., 4), at events with potential values phi and differentials
    dphi (..., 4), against the quotient dynamics.

    The per-frame membership test in the reference chart; the rate of a
    momentum class needs no re-charting because chart offsets are constant
    covectors.
    """
    return homogeneous_dynamics_violation_array(
        REFERENCE_FRAME, m, g, phi, dphi, p, xdot, pdot) <= tol


class AffineMetric:
    """Affine map from unit-time velocities to spatial momenta.

    Determined by its value at one base velocity, a frame (3,), together
    with the linear part, which is always mass times the spatial metric.
    Holds read-only copies of both (3,) arrays.
    """

    __slots__ = ("base_point", "value_at_base")

    def __init__(self, base_point, value_at_base):
        base, value = (np.array(a, dtype=float)
                       for a in (base_point, value_at_base))
        for what, a in (("base point", base), ("base value", value)):
            if a.shape != (3,):
                raise ValueError(
                    f"{what} needs 3 components, got shape {a.shape}")
            a.setflags(write=False)
        self.base_point, self.value_at_base = base, value


def affine_metric_apply(m: float, g: SpatialMetric, h: AffineMetric,
                        b: np.ndarray) -> np.ndarray:
    """Evaluate the affine metric at a unit-time velocity, a frame (3,)."""
    return h.value_at_base + m * g.apply(b - h.base_point)


def section_from_affine_metric(m: float, g: SpatialMetric, h: AffineMetric,
                               value_at_base: float = 0.0,
                               ) -> tuple[Callable[..., float], float]:
    """Primitive of an affine metric: the quadratic section

        l(b) = c + <h(a), b - a> + (m/2) <g(b - a), b - a>

    of frames b (3,), anchored at the metric's base point a.  The vertical
    derivative of l is h again, and two anchorings of the same metric
    differ by a constant.  The gauge constant c (the value at the base
    point) is returned alongside the evaluator; it defaults to zero.
    """
    c = float(value_at_base)
    a_s = h.base_point
    h_a = h.value_at_base

    def section(b: np.ndarray) -> float:
        d = b - a_s
        return c + float(h_a @ d) + 0.5 * m * g.quadratic(d)

    return section, c


def family_fam3(m: float, g: SpatialMetric,
                potential: Potential) -> FunctionFamily:
    """Generating family of the quotient dynamics on the momentum side.

    Base: event and canonical momentum representative (8 numbers); fiber:
    one positive multiplier; value: multiplier times the universal
    mass-shell residual.  Identical arithmetic to the per-frame family
    taken in the reference chart, which is the point: on canonical
    representatives the two coincide.
    """
    inner = family_fam2(REFERENCE_FRAME, m, g, potential)
    return FunctionFamily(inner.base_dim, inner.fiber_dim, inner.value,
                          inner.gradient, inner.hessian, name="fam3")


def family_fam4(m: float, g: SpatialMetric,
                potential: Potential) -> FunctionFamily:
    """Generating family of the quotient dynamics on the velocity side:
    <p, v> minus the lagrangian value over base (event, canonical
    momentum), fiber the full velocity."""
    inner = family_fam1(REFERENCE_FRAME, m, g, potential)
    return FunctionFamily(inner.base_dim, inner.fiber_dim, inner.value,
                          inner.gradient, inner.hessian, name="fam4")
