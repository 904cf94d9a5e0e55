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
and cotangent pictures, the spatial momentum quotient, and the affine-metric
section construction.

The quotient operations are written once, as array kernels (``*_array``)
over stacks of components: momentum representatives as covector components
(..., 4), W representatives packed as (v0, v1, v2, v3, r) in (..., 5),
frames as spatial velocities (..., 3), and the potential as its values.
The functions over WElement and PElement objects wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .galilean_core import (
    Covector4,
    Event,
    Frame,
    GalimechError,
    SpatialMetric,
    TAU,
    Vector4,
    pair,
    pair_frame,
    sigma_array,
)
from .frame_dynamics import (
    Potential,
    homogeneous_dynamics_violation_array,
    in_homogeneous_dynamics,
    lagrangian_hom,
    lagrangian_hom_array,
)
from .generating_objects import FunctionFamily, family_fam1, family_fam2

__all__ = [
    "REFERENCE_FRAME",
    "ProjectionMismatch",
    "NewtonModel",
    "WElement",
    "PElement",
    "W_ZERO",
    "W_UNIT",
    "w_pack",
    "w_change_chart",
    "w_change_chart_array",
    "p_change_chart",
    "p_change_chart_array",
    "w_add",
    "w_add_array",
    "w_scale",
    "w_scale_array",
    "eval_affine",
    "eval_affine_array",
    "pairing",
    "pairing_array",
    "psi_m",
    "psi_m_array",
    "universal_hamiltonian_residual",
    "affine_lagrangian",
    "affine_lagrangian_array",
    "hamiltonian_fun",
    "hamiltonian_fun_array",
    "alpha",
    "beta",
    "beta_inv",
    "gamma",
    "dynamics_membership_universal",
    "dynamics_membership_universal_array",
    "project_P0",
    "lift_P0",
    "inhomogeneous_dynamics_membership",
    "AffineMetric",
    "affine_metric_apply",
    "legendre_affine_metric",
    "section_from_affine_metric",
    "family_fam3",
    "family_fam4",
]

REFERENCE_FRAME = Frame.from_spatial([0.0, 0.0, 0.0])

# Unit-time-slice gauge: tangents produced by differencing a trajectory's
# events carry rounding of this order at most.
_TIME_GAUGE_TOL = 1e-9


class ProjectionMismatch(GalimechError):
    """Fiber difference requested for W elements over different velocities."""


@dataclass(frozen=True)
class NewtonModel:
    """Ambient data every quotient operation needs: mass, metric, potential.

    The reference frame fixes which representative is "canonical"; the rest
    frame of the global chart is the default and there is no reason to
    change it outside of tests.
    """

    mass: float
    metric: SpatialMetric
    potential: Potential
    reference: Frame = REFERENCE_FRAME

    def __post_init__(self) -> None:
        if not (self.mass > 0.0):
            raise ValueError(f"mass must be positive, got {self.mass!r}")


def w_pack(v, r) -> np.ndarray:
    """Pack velocity parts (..., 4) and real parts (...) as (..., 5)."""
    out = np.empty(np.broadcast_shapes(np.shape(v)[:-1], np.shape(r)) + (5,))
    out[..., :4] = v
    out[..., 4] = r
    return out


def w_change_chart_array(model: NewtonModel, w, from_u, to_u) -> np.ndarray:
    """Re-express lagrangian-value representatives (..., 5) in other frames.

    The velocity part is chart-independent; the real part picks up the
    sigma pairing:  r' = r - m <sigma(to, from), v>.
    """
    v = w[..., :4]
    shift = sigma_array(model.metric, to_u, from_u)
    return w_pack(v, w[..., 4] - model.mass * pair(shift, v))


def w_change_chart(model: NewtonModel, v: Vector4, r: float,
                   from_frame: Frame, to_frame: Frame) -> tuple[Vector4, float]:
    """w_change_chart_array for one representative (v, r)."""
    w = w_change_chart_array(model, WElement(v, r).as_array(),
                             from_frame.spatial, to_frame.spatial)
    return v, float(w[4])


def p_change_chart_array(model: NewtonModel, p, from_u, to_u) -> np.ndarray:
    """Re-express momentum representatives (..., 4) in other frames:
    p' = p - m sigma(to, from)."""
    return p - model.mass * sigma_array(model.metric, to_u, from_u)


def p_change_chart(model: NewtonModel, p: Covector4,
                   from_frame: Frame, to_frame: Frame) -> Covector4:
    """p_change_chart_array for one representative."""
    return Covector4(*p_change_chart_array(
        model, p.as_array(), from_frame.spatial, to_frame.spatial).tolist())


@dataclass(frozen=True)
class WElement:
    """Class of (frame, velocity, real) triples under the sigma relation.

    Stored as the representative in the model's reference frame.  The
    velocity part is the class invariant; the real part is chart-relative.
    """

    v: Vector4
    r: float

    @classmethod
    def from_array(cls, w) -> "WElement":
        """Unpack (v0, v1, v2, v3, r)."""
        c0, c1, c2, c3, r = np.asarray(w, dtype=float).tolist()
        return cls(Vector4(c0, c1, c2, c3), r)

    def as_array(self) -> np.ndarray:
        return np.array([self.v.c0, self.v.c1, self.v.c2, self.v.c3, self.r],
                        dtype=float)

    @classmethod
    def from_chart(cls, model: NewtonModel, v: Vector4, r: float,
                   frame: Frame) -> "WElement":
        vv, rr = w_change_chart(model, v, float(r), frame, model.reference)
        return cls(vv, rr)

    def in_chart(self, model: NewtonModel, frame: Frame) -> tuple[Vector4, float]:
        return w_change_chart(model, self.v, self.r, model.reference, frame)

    def to_json(self) -> dict:
        return {"v": [self.v.c0, self.v.c1, self.v.c2, self.v.c3],
                "r": self.r}

    @classmethod
    def from_json(cls, data: Mapping) -> "WElement":
        v = data.get("v")
        if not isinstance(v, Sequence) or len(v) != 4:
            raise ValueError("WElement JSON needs a 4-entry 'v' list")
        if "r" not in data:
            raise ValueError("WElement JSON needs an 'r' entry")
        return cls(Vector4(*(float(c) for c in v)), float(data["r"]))


@dataclass(frozen=True)
class PElement:
    """Momentum class, stored as its reference-frame covector."""

    p: Covector4

    @classmethod
    def from_chart(cls, model: NewtonModel, p: Covector4,
                   frame: Frame) -> "PElement":
        return cls(p_change_chart(model, p, frame, model.reference))

    def in_chart(self, model: NewtonModel, frame: Frame) -> Covector4:
        return p_change_chart(model, self.p, model.reference, frame)

    def to_json(self) -> dict:
        return {"p": [self.p.a0, self.p.a1, self.p.a2, self.p.a3]}

    @classmethod
    def from_json(cls, data: Mapping) -> "PElement":
        p = data.get("p")
        if not isinstance(p, Sequence) or len(p) != 4:
            raise ValueError("PElement JSON needs a 4-entry 'p' list")
        return cls(Covector4(*(float(c) for c in p)))


W_ZERO = WElement(Vector4(0.0, 0.0, 0.0, 0.0), 0.0)

# The distinguished unit: evaluates to 1 on every momentum class, and its
# representative is the same pair in every chart (the sigma pairing with a
# zero velocity vanishes identically).
W_UNIT = WElement(Vector4(0.0, 0.0, 0.0, 0.0), -1.0)


def w_add_array(a, b) -> np.ndarray:
    """Sum of lagrangian-value classes (..., 5).

    Componentwise on representatives: both live in the reference chart, so
    no sigma correction enters, and linearity of the chart rule makes the
    result chart-independent.
    """
    return np.add(a, b)


def w_add(model: NewtonModel, a: WElement, b: WElement) -> WElement:
    """w_add_array for one pair of classes."""
    return WElement.from_array(w_add_array(a.as_array(), b.as_array()))


def w_scale_array(scalar, w) -> np.ndarray:
    """Scalar multiples (...) of lagrangian-value classes (..., 5),
    componentwise."""
    return np.asarray(scalar, dtype=float)[..., None] * w


def w_scale(model: NewtonModel, scalar: float, w: WElement) -> WElement:
    """w_scale_array for one class."""
    return WElement.from_array(w_scale_array(scalar, w.as_array()))


def eval_affine_array(w, p) -> np.ndarray:
    """The affine function a W element (..., 5) defines on momentum classes
    (..., 4):

        f_w(p) = <p, v> - r

    computed on shared-chart representatives, hence independent of the
    charts the inputs were built through.
    """
    return pair(p, w[..., :4]) - w[..., 4]


def eval_affine(model: NewtonModel, w: WElement, pp: PElement) -> float:
    """eval_affine_array for one pair of classes."""
    return float(eval_affine_array(w.as_array(), pp.p.as_array()))


def pairing_array(p, v) -> np.ndarray:
    """W element with velocity part v and real part <p, v>.

    Evaluating it on another momentum class q gives <q - p, v>, a plain
    covector-vector pairing, which is what makes the construction
    chart-independent.
    """
    return w_pack(v, pair(p, v))


def pairing(model: NewtonModel, pp: PElement, v: Vector4) -> WElement:
    """pairing_array for one class and velocity."""
    return WElement.from_array(pairing_array(pp.p.as_array(), v.as_array()))


def psi_m_array(model: NewtonModel, p) -> np.ndarray:
    """Kinetic-plus-transport part of the mass-shell function,

        (1/2m) <p, g'(p)> + <p, u>

    evaluated on canonical representatives (..., 4).  Constant on classes:
    the sigma shift changes both terms by opposite amounts.
    """
    ps = p[..., 1:]
    return 0.5 / model.mass * np.vecdot(ps, model.metric.apply_inverse(ps)) \
        + pair_frame(p, model.reference.spatial)


def psi_m(model: NewtonModel, x: Event, pp: PElement) -> float:
    """psi_m_array of the class; the event argument is accepted for
    signature parity with the full residual and ignored."""
    return float(psi_m_array(model, pp.p.as_array()))


def universal_hamiltonian_residual(model: NewtonModel, x: Event,
                                   pp: PElement) -> float:
    """Mass-shell defect on the quotient: psi_m plus the potential.

    Vanishes exactly on classes of fiber-derivative momenta; agrees with
    the per-frame residual evaluated on any representative.
    """
    return psi_m(model, x, pp) + model.potential.at(x)


def affine_lagrangian_array(model: NewtonModel, phi, v) -> np.ndarray:
    """The lagrangian as a W-valued map: class of (u, v, l_u(x, v)), for
    velocities (..., 4) at events with potential values phi.

    Constructing through any frame yields the same class because the
    per-frame lagrangians differ by exactly the sigma pairing the chart
    rule removes.  The velocities must be future-directed.
    """
    return w_pack(v, lagrangian_hom_array(model.reference.spatial, model.mass,
                                          model.metric, phi, v))


def affine_lagrangian(model: NewtonModel, x: Event, v: Vector4) -> WElement:
    """affine_lagrangian_array at one state.  Raises NotFutureDirected for
    a non-positive time component."""
    return WElement(v, lagrangian_hom(model.reference, model.mass,
                                      model.metric, model.potential, x, v))


def _fiber_difference(a: WElement, b: WElement) -> float:
    """Difference of two W elements over the same velocity, as a real.

    Well defined only when the velocity parts agree; the sigma corrections
    then cancel and a.r - b.r is chart-independent.
    """
    if a.v != b.v:
        raise ProjectionMismatch(
            f"cannot subtract W elements over different velocities: "
            f"{a.v} vs {b.v}")
    return a.r - b.r


def hamiltonian_fun_array(model: NewtonModel, phi, v, p) -> np.ndarray:
    """hamiltonian_fun for velocities (..., 4), momentum representatives
    (..., 4) and potential values phi: the same fiber difference, whose
    two W elements share the velocity part by construction."""
    return pairing_array(p, v)[..., 4] \
        - affine_lagrangian_array(model, phi, v)[..., 4]


def hamiltonian_fun(model: NewtonModel, x: Event, v: Vector4,
                    pp: PElement) -> float:
    """<p, v> minus the lagrangian value, as a chart-independent real.

    Both terms are W elements over the same v; their fiber difference
    reproduces the single-chart formula <p, v> - l_u(x, v) in every chart.
    """
    return _fiber_difference(pairing(model, pp, v),
                             affine_lagrangian(model, x, v))


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


def dynamics_membership_universal(model: NewtonModel, element: tuple,
                                  tol: float) -> bool:
    """Test (x, momentum class, xdot, pdot) against the quotient dynamics.

    Delegates to the per-frame membership test in the reference chart; the
    rate of a momentum class needs no re-charting because chart offsets are
    constant covectors.
    """
    x, pp, xdot, pdot = element
    return in_homogeneous_dynamics(model.reference, model.mass, model.metric,
                                   model.potential, (x, pp.p, xdot, pdot), tol)


def dynamics_membership_universal_array(model: NewtonModel, phi, dphi, p,
                                        xdot, pdot, tol: float) -> np.ndarray:
    """dynamics_membership_universal for stacks: momentum representatives
    p, velocities xdot and momentum rates pdot (..., 4) at events with
    potential values phi and differentials dphi (..., 4)."""
    return homogeneous_dynamics_violation_array(
        model.reference.spatial, model.mass, model.metric, phi, dphi, p,
        xdot, pdot) <= tol


def project_P0(model: NewtonModel, pp: PElement) -> np.ndarray:
    """Spatial momentum: the class of p modulo multiples of the time
    covector, represented by the three spatial components in the reference
    chart."""
    return pp.p.spatial


def lift_P0(model: NewtonModel, p0, time: float) -> PElement:
    """Momentum class with given spatial part and time component, both read
    in the reference chart.  project_P0 recovers p0 exactly."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (3,):
        raise ValueError(f"spatial momentum needs 3 components, got {p0.shape}")
    return PElement(Covector4(float(time), float(p0[0]), float(p0[1]),
                              float(p0[2])))


def inhomogeneous_dynamics_membership(model: NewtonModel, element: tuple,
                                      tol: float) -> bool:
    """Test (x, p0, xdot, p0dot) against the time-normalized dynamics.

    xdot must lie on the unit-time slice; p0 and p0dot are spatial momenta
    in the reference chart.  Membership means xdot's spatial part equals
    the metric transport of p0/m shifted by the reference velocity, and
    p0dot balances the spatial force.
    """
    x, p0, xdot, p0dot = element
    tv = TAU.pair(xdot)
    if abs(tv - 1.0) > _TIME_GAUGE_TOL:
        raise ValueError(
            f"velocity must lie on the unit-time slice, got <tau, v>={tv!r}")
    p0 = np.asarray(p0, dtype=float)
    p0dot = np.asarray(p0dot, dtype=float)
    v_expected = model.metric.apply_inverse(p0) / model.mass \
        + model.reference.spatial
    force = model.potential.d_s(x)
    err = max(float(np.max(np.abs(xdot.spatial - v_expected))),
              float(np.max(np.abs(p0dot + force))))
    return err <= tol


@dataclass(frozen=True, eq=False)
class AffineMetric:
    """Affine map from unit-time velocities to spatial momenta.

    Determined by its value at one base velocity together with the linear
    part, which is always mass times the model metric.
    """

    base_point: Frame
    value_at_base: np.ndarray

    def __post_init__(self) -> None:
        value = np.asarray(self.value_at_base, dtype=float)
        if value.shape != (3,):
            raise ValueError(
                f"base value needs 3 components, got shape {value.shape}")
        object.__setattr__(self, "value_at_base", value)


def affine_metric_apply(model: NewtonModel, h: AffineMetric,
                        b: Frame) -> np.ndarray:
    """Evaluate the affine metric at a unit-time velocity."""
    d = b.spatial - h.base_point.spatial
    return h.value_at_base + model.mass * model.metric.apply(d)


def legendre_affine_metric(model: NewtonModel) -> AffineMetric:
    """The time-normalized fiber-derivative map as an affine metric: zero
    at the reference velocity, linear part m g."""
    return AffineMetric(model.reference, np.zeros(3))


def section_from_affine_metric(model: NewtonModel, h: AffineMetric,
                               value_at_base: float = 0.0,
                               ) -> tuple[Callable[[Frame], float], float]:
    """Primitive of an affine metric: the quadratic section

        l(b) = c + <h(a), b - a> + (m/2) <g(b - a), b - a>

    anchored at the metric's base point a.  The vertical derivative of l is
    h again, and two anchorings of the same metric differ by a constant.
    The gauge constant c (the value at the base point) is returned
    alongside the evaluator; it defaults to zero.
    """
    c = float(value_at_base)
    a_s = h.base_point.spatial
    h_a = h.value_at_base

    def section(b: Frame) -> float:
        d = b.spatial - a_s
        return c + float(h_a @ d) + 0.5 * model.mass * model.metric.quadratic(d)

    return section, c


def family_fam3(model: NewtonModel) -> FunctionFamily:
    """Generating family of the quotient dynamics on the momentum side.

    Base: event and canonical momentum representative (8 numbers); fiber:
    one positive multiplier; value: multiplier times the universal
    mass-shell residual.  Identical arithmetic to the per-frame family
    taken in the reference chart, which is the point: on canonical
    representatives the two coincide.
    """
    inner = family_fam2(model.reference, model.mass, model.metric,
                        model.potential)
    return FunctionFamily(inner.base_dim, inner.fiber_dim, inner.value,
                          inner.gradient, name="fam3")


def family_fam4(model: NewtonModel) -> FunctionFamily:
    """Generating family of the quotient dynamics on the velocity side:
    <p, v> minus the lagrangian value over base (event, canonical
    momentum), fiber the full velocity."""
    inner = family_fam1(model.reference, model.mass, model.metric,
                        model.potential)
    return FunctionFamily(inner.base_dim, inner.fiber_dim, inner.value,
                          inner.gradient, name="fam4")
