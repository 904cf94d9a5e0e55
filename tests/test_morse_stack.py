"""The stacked Morse engine against a per-point reference, bit for bit.

The reference below is the engine as it was written one point at a time:
family gradients over Event/Vector4/Covector4 objects with the potential
differential taken at one event, one gradient call per Hessian column,
one SVD per matrix, and a Newton iteration that builds its Jacobian
column by column.  The stacked engine must reproduce every float of it:
the Hessians, the ranks and the critical fibers, for every particle
family, under built-in, custom and time-dependent custom potentials and
a random metric.
"""

import numpy as np
import pytest

from conftest import random_frame, random_metric
from galimech.affine_phase import NewtonModel, family_fam3, family_fam4
from galimech.frame_dynamics import (
    FD_STEP,
    harmonic_potential,
    legendre_hom,
    legendre_hom_array,
    mass_shell_residual,
)
from galimech.galilean_core import TAU, Covector4, Event, Frame, Vector4
from galimech.generating_objects import (
    CriticalPoint,
    FunctionFamily,
    family_example31,
    family_fam1,
    family_fam2,
    hessian,
    hessians,
    is_morse,
    numerical_rank,
    solve_critical,
)
from galimech.harness.config import PotentialSpec

POTENTIALS = {
    "harmonic": lambda: harmonic_potential(1.3, center=[0.2, -0.1, 0.4]),
    "custom": lambda: PotentialSpec(
        "custom", expr="0.5*q1^2 + 0.25*q2^4 + 0.1*q1*q3 + sin(q2)*exp(-q3^2)"
    ).build(),
    "time_custom": lambda: PotentialSpec(
        "custom", expr="0.5*(q1^2+q2^2+q3^2)*(1+0.1*t) + 0.2*sin(t)*q1"
    ).build(),
}


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


# --- the per-point reference -------------------------------------------

def ref_differential(potential, x: Event) -> np.ndarray:
    dt = 0.0
    if not potential.time_independent:
        step = FD_STEP * (1.0 + abs(x.t))
        dt = (potential.at(Event(x.t + step, x.q1, x.q2, x.q3)) -
              potential.at(Event(x.t - step, x.q1, x.q2, x.q3))) / (2.0 * step)
    ds = potential.grad_s(x.t, x.spatial)
    return np.array([float(dt), float(ds[0]), float(ds[1]), float(ds[2])])


def ref_fam1(u: Frame, m, g, potential):
    def gradient(base, fiber):
        x, p = Event.from_array(base[:4]), Covector4.from_array(base[4:])
        v = Vector4(float(fiber[3]), float(fiber[0]), float(fiber[1]),
                    float(fiber[2]))
        gx = TAU.pair(v) * ref_differential(potential, x)
        gv = (p - legendre_hom(u, m, g, potential, x, v)).as_array()
        return np.concatenate([gx, v.as_array()]), gv[[1, 2, 3, 0]]
    return gradient


def ref_fam2(u: Frame, m, g, potential):
    def gradient(base, fiber):
        x, p = Event.from_array(base[:4]), Covector4.from_array(base[4:])
        r = float(fiber[0])
        res = mass_shell_residual(u, m, g, potential, x, p)
        dres_dp = np.concatenate([[1.0], g.apply_inverse(p.spatial) / m + u.spatial])
        return (r * np.concatenate([ref_differential(potential, x), dres_dp]),
                np.array([res]))
    return gradient


def ref_example31(m, k):
    def gradient(base, fiber):
        q, p, v = base[:3], base[3:], fiber
        return np.concatenate([-k * q, -v]), m * v - p
    return gradient


def ref_hessian(gradient, b, f, point) -> np.ndarray:
    joint = np.concatenate([point.base, point.fiber])
    out = np.empty((f, b + f))
    for j in range(b + f):
        h = 1e-5 * (1.0 + abs(joint[j]))
        plus, minus = joint.copy(), joint.copy()
        plus[j] += h
        minus[j] -= h
        out[:, j] = (gradient(plus[:b], plus[b:])[1] -
                     gradient(minus[:b], minus[b:])[1]) / (2.0 * h)
    return out


def ref_rank(matrix) -> int:
    sv = np.linalg.svd(matrix, compute_uv=False)
    return 0 if sv[0] == 0.0 else int(np.sum(sv > 1e-8 * sv[0]))


def ref_newton(gradient, base, seed, tol, max_iter=60):
    def fiber_grad(fiber):
        return gradient(base, fiber)[1]

    fiber = np.array(seed, dtype=float)
    grad = fiber_grad(fiber)
    norm = float(np.max(np.abs(grad)))
    for _ in range(max_iter):
        if norm <= tol:
            return fiber
        jac = np.empty((len(fiber), len(fiber)))
        for j in range(len(fiber)):
            h = 1e-6 * (1.0 + abs(fiber[j]))
            plus, minus = fiber.copy(), fiber.copy()
            plus[j] += h
            minus[j] -= h
            jac[:, j] = (fiber_grad(plus) - fiber_grad(minus)) / (2.0 * h)
        step, *_ = np.linalg.lstsq(jac, -grad, rcond=1e-8)
        scale = 1.0
        for _ in range(25):
            trial = fiber + scale * step
            trial_grad = fiber_grad(trial)
            trial_norm = float(np.max(np.abs(trial_grad)))
            if trial_norm < norm or trial_norm <= tol:
                fiber, grad, norm = trial, trial_grad, trial_norm
                break
            scale *= 0.5
        else:
            return None
    return fiber if norm <= tol else None


# --- cases ----------------------------------------------------------------

def on_shell(rng, u: Frame, m, g, potential, count: int):
    """Bases on the constraint set of frame u and their velocities."""
    out = []
    for _ in range(count):
        x = Event(*rng.normal(size=4))
        v = np.array([rng.uniform(0.5, 1.5), *rng.normal(size=3)])
        p = legendre_hom_array(u.spatial, m, g, potential.at(x), v)
        out.append((np.concatenate([x.as_array(), p]), v[[1, 2, 3, 0]]))
    return out


def velocity_family(name, rng, potential):
    """(family, reference gradient, anchor frame) for fam1..fam4 over a
    random metric, mass and frame."""
    g, m, u = random_metric(rng), float(rng.uniform(0.7, 2.5)), random_frame(rng)
    model = NewtonModel(m, g, potential)
    fam = {"fam1": lambda: family_fam1(u, m, g, potential),
           "fam2": lambda: family_fam2(u, m, g, potential),
           "fam3": lambda: family_fam3(model),
           "fam4": lambda: family_fam4(model)}[name]()
    anchor = model.reference if name in ("fam3", "fam4") else u
    ref = (ref_fam1 if name in ("fam1", "fam4") else ref_fam2)(
        anchor, m, g, potential)
    return fam, ref, anchor, m, g


def assert_engine_matches(fam, ref, points):
    b, f = fam.base_dim, fam.fiber_dim
    expected = [ref_hessian(ref, b, f, pt) for pt in points]
    stacked = hessians(fam, points)
    assert stacked.shape == (len(points), f, b + f)
    assert bits(stacked) == bits(np.array(expected))
    assert bits(hessian(fam, points[-1])) == bits(expected[-1])
    ranks = is_morse(fam, points).ranks
    assert ranks == tuple(ref_rank(h) for h in expected)
    assert ranks == tuple(numerical_rank(h) for h in expected)
    assert set(ranks) == {f}


@pytest.mark.parametrize("kind", sorted(POTENTIALS))
@pytest.mark.parametrize("name", ["fam1", "fam4"])
def test_velocity_families_match_reference(rng, name, kind):
    potential = POTENTIALS[kind]()
    fam, ref, anchor, m, g = velocity_family(name, rng, potential)
    points = []
    for base, fiber in on_shell(rng, anchor, m, g, potential, 12):
        # Start off the critical set, so that Newton iterates.
        seed = fiber * (1.0 + 0.05 * rng.normal(size=4))
        found = solve_critical(fam, base, seeds=[seed], tol=1e-10)
        expected = ref_newton(ref, base, seed, 1e-10)
        assert len(found) == 1 and expected is not None
        assert bits(found[0].fiber) == bits(expected)
        points.extend(found)
    assert_engine_matches(fam, ref, points)


@pytest.mark.parametrize("kind", sorted(POTENTIALS))
@pytest.mark.parametrize("name", ["fam2", "fam3"])
def test_multiplier_families_match_reference(rng, name, kind):
    potential = POTENTIALS[kind]()
    fam, ref, anchor, m, g = velocity_family(name, rng, potential)
    samples = on_shell(rng, anchor, m, g, potential, 12)
    points = [CriticalPoint(base, np.array([rng.uniform(0.5, 2.0)]))
              for base, _ in samples]
    for pt in points[:3]:
        found = solve_critical(fam, pt.base, seeds=[pt.fiber], tol=1e-10)
        assert bits(found[0].fiber) == bits(ref_newton(ref, pt.base, pt.fiber, 1e-10))
    assert_engine_matches(fam, ref, points)


def test_example31_matches_reference(rng):
    fam, ref = family_example31(1.7, 0.6), ref_example31(1.7, 0.6)
    points = []
    for _ in range(20):
        base = rng.normal(size=6)
        found = solve_critical(fam, base, seeds=[np.zeros(3)], tol=1e-11)
        assert bits(found[0].fiber) == bits(ref_newton(ref, base, np.zeros(3), 1e-11))
        points.extend(found)
    assert_engine_matches(fam, ref, points)


def test_value_only_family_keeps_point_path():
    # F = x s - s^2 / 2 + s^3 / 3 without a gradient: four-point second
    # differences, one point at a time.
    fam = FunctionFamily(1, 1, lambda b, f: float(b[0] * f[0] - 0.5 * f[0] ** 2
                                                  + f[0] ** 3 / 3.0))
    points = [CriticalPoint(np.array([x]), np.array([s]))
              for x, s in [(0.3, 0.5), (1.0, -0.2), (-0.4, 0.9)]]
    stacked = hessians(fam, points)
    assert bits(stacked) == bits(np.array([hessian(fam, pt) for pt in points]))
    assert np.allclose(stacked[:, 0, 0], 1.0, atol=1e-6)
    assert np.allclose(stacked[:, 0, 1], [-1.0 + 2 * s for s in (0.5, -0.2, 0.9)],
                       atol=1e-6)
