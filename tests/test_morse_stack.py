"""The stacked Morse engine against a per-point reference, bit for bit.

The reference below is the engine as it was written one point at a time:
family gradients over Event/Vector4/Covector4 objects with the potential
differential taken at one event, one gradient call per Hessian column,
one SVD per matrix, and a Newton iteration that builds its Jacobian
column by column.  The stacked engine must reproduce every float of it:
the Hessians, the ranks and the critical fibers, for every particle
family, under built-in, custom and time-dependent custom potentials and
a random metric.

The stacked Newton is held to a second reference: the damped Newton as it
was written one base at a time (one gradient call per row, the first error
of a row raised at once), so that every row of a stack, including those
that stall, leave the domain or raise inside the gradient, ends as it
would alone.
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
from galimech.galilean_core import (
    TAU,
    Covector4,
    DomainError,
    Event,
    Frame,
    GalimechError,
    Vector4,
)
from galimech.generating_objects import (
    CriticalPoint,
    FunctionFamily,
    NoConvergence,
    SectionNotUnique,
    _newton,
    family_example31,
    family_fam1,
    family_fam2,
    fiber_gradient,
    generate,
    hessian,
    hessians,
    is_morse,
    kappas,
    numerical_rank,
    reduce_family,
    solve_critical,
    solve_critical_stack,
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


# --- the stacked Newton against the Newton of one base at a time ---------

def ref_row_newton(fam, base, fiber, head, tol, max_iter=60, log=None):
    """The damped Newton of one row, raising its first error; log, when
    given, collects "shorten" for every halved trial step."""
    base = np.asarray(base, dtype=float)
    fiber = np.array(fiber, dtype=float)
    grad = fiber_gradient(fam, base, fiber)[:head]
    norm = float(np.max(np.abs(grad)))
    if not np.isfinite(norm):
        raise DomainError(
            f"{fam.name}: fiber gradient not finite at the start "
            f"{fiber.tolist()} over base {base.tolist()}")
    cols = np.arange(head)
    for _ in range(max_iter):
        if norm <= tol:
            return fiber, norm
        h = 1e-6 * (1.0 + np.abs(fiber[:head]))
        shifted = np.repeat(fiber[None], 2 * head, axis=0)
        shifted[cols, cols] += h
        shifted[head + cols, cols] -= h
        g = fiber_gradient(fam, np.broadcast_to(base, (2 * head,) + base.shape),
                           shifted)[:, :head]
        with np.errstate(all="ignore"):
            jac = ((g[:head] - g[head:]) / (2.0 * h)[:, None]).T
        if not np.isfinite(jac).all():
            raise DomainError(
                f"{fam.name}: fiber Jacobian not finite at {fiber.tolist()} "
                f"over base {base.tolist()}")
        step, *_ = np.linalg.lstsq(jac, -grad, rcond=1e-8)
        scale = 1.0
        for _ in range(25):
            trial = fiber.copy()
            trial[:head] += scale * step
            try:
                trial_grad = fiber_gradient(fam, base, trial)[:head]
            except (GalimechError, FloatingPointError):
                trial_norm = np.nan
            else:
                trial_norm = float(np.max(np.abs(trial_grad)))
            if trial_norm < norm or trial_norm <= tol:
                fiber, grad, norm = trial, trial_grad, trial_norm
                break
            if log is not None:
                log.append("shorten")
            scale *= 0.5
        else:
            raise NoConvergence(
                f"{fam.name}: damped Newton stalled at |grad|={norm:.3e} "
                f"over base {base.tolist()}")
    if norm <= tol:
        return fiber, norm
    raise NoConvergence(
        f"{fam.name}: no critical point within {max_iter} iterations "
        f"over base {base.tolist()} (|grad|={norm:.3e})")


def ref_outcome(fam, base, fiber, head, tol, max_iter=60, log=None):
    try:
        return ref_row_newton(fam, base, fiber, head, tol, max_iter, log)
    except (GalimechError, ArithmeticError) as exc:
        return exc


def ref_solve(fam, base, seeds, tol):
    """Critical points over one base, seed by seed, merged as documented."""
    base = np.asarray(base, dtype=float)
    found = []
    for seed in seeds:
        try:
            fiber, norm = ref_row_newton(fam, base, seed, fam.fiber_dim, tol)
        except NoConvergence:
            continue
        for k, pt in enumerate(found):
            if float(np.linalg.norm(pt.fiber - fiber)) < 10.0 * tol:
                if norm < pt.residual_norm:
                    found[k] = CriticalPoint(base, fiber, norm)
                break
        else:
            found.append(CriticalPoint(base, fiber, norm))
    return found


def assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w)
        else:
            assert bits(g[0]) == bits(w[0]) and g[1] == w[1]


def assert_same_points(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert bits(g.base) == bits(w.base) and bits(g.fiber) == bits(w.fiber)
        assert g.residual_norm == w.residual_norm


def regime_family():
    """One fiber s over bases (x, kind); the kind picks how Newton ends:
    0 arctan(s - x), a root that a far seed reaches only by shortened
    steps; 1 (s - x)^2 + 1, no root, so the line search stalls; 2 NaN, a
    domain error at the start; 3 finite only at s = 5, a domain error in
    the Jacobian; 4 arctan(s - x) that raises a DomainError below
    s - x = -5, a trial step that is shortened; 5 the same raising a
    ZeroDivisionError, which ends the row."""
    def gradient(base, fiber):
        x, kind, s = base[..., :1], base[..., 1:], fiber[..., :1]
        below = s - x < -5.0
        if np.any(below & (kind == 4)):
            raise DomainError("left the domain")
        if np.any(below & (kind == 5)):
            raise ZeroDivisionError("division by zero")
        kind = np.where(kind >= 4, 0, kind)
        with np.errstate(all="ignore"):
            gf = np.select([kind == 0, kind == 1, kind == 2],
                           [np.arctan(s - x), (s - x) ** 2 + 1.0,
                            np.full_like(s, np.nan)],
                           np.where(s == 5.0, 4.0, np.nan))
        return np.zeros_like(base), gf
    return FunctionFamily(2, 1, lambda b, f: 0.0, gradient, name="regimes")


def test_stacked_rows_converge_at_different_iterations(rng):
    potential = POTENTIALS["custom"]()
    fam, _, anchor, m, g = velocity_family("fam1", rng, potential)
    bases, seeds = [], []
    for base, fiber in on_shell(rng, anchor, m, g, potential, 6):
        for seed in (fiber, fiber * (1.0 + 0.05 * rng.normal(size=4)),
                     1.5 * fiber):
            bases.append(base)
            seeds.append(seed)
    bases, seeds = np.array(bases), np.array(seeds)
    want = [ref_outcome(fam, b, s, 4, 1e-10) for b, s in zip(bases, seeds)]
    assert_same_outcomes(_newton(fam, bases, seeds, 4, 1e-10, 60), want)
    # Exactly critical seeds stop before the first step, the others later.
    assert all(bits(w[0]) == bits(s) for w, s in zip(want[::3], seeds[::3]))
    assert all(bits(w[0]) != bits(s) for w, s in zip(want[1::3], seeds[1::3]))
    stacked = solve_critical_stack(fam, bases[::3], seeds.reshape(6, 3, 4),
                                   tol=1e-10)
    for base, seed_block, got in zip(bases[::3], seeds.reshape(6, 3, 4), stacked):
        assert_same_points(got, ref_solve(fam, base, seed_block, 1e-10))


def test_stacked_rows_shorten_stall_and_leave_the_domain():
    fam = regime_family()
    rows = [([0.3, 0], 0.5), ([-0.2, 0], 29.8), ([0.1, 1], 1.1),
            ([0.7, 3], 5.0), ([0.4, 0], 3.4), ([0.0, 2], 0.0), ([1.0, 1], 3.0),
            ([0.2, 4], 29.8), ([0.5, 5], 29.8)]
    bases = np.array([b for b, _ in rows], dtype=float)
    seeds = np.array([[s] for _, s in rows])
    ends = {}
    for max_iter in (60, 2):
        log = []
        want = [ref_outcome(fam, b, s, 1, 1e-12, max_iter, log)
                for b, s in zip(bases, seeds)]
        assert_same_outcomes(_newton(fam, bases, seeds, 1, 1e-12, max_iter), want)
        assert "shorten" in log
        ends[max_iter] = [type(w).__name__ for w in want]
    assert ends[60] == ["tuple", "tuple", "NoConvergence", "DomainError",
                        "tuple", "DomainError", "NoConvergence", "tuple",
                        "ZeroDivisionError"]
    assert "within 2 iterations" in str(want[0])
    # The first domain error in row order is raised: the Jacobian's (row
    # 3), not the start's (row 5).
    with pytest.raises(DomainError, match="Jacobian not finite"):
        solve_critical_stack(fam, bases, seeds[:, None], tol=1e-12)
    keep = [0, 1, 2, 4, 6, 7]
    got = solve_critical_stack(fam, bases[keep], seeds[keep, None], tol=1e-12)
    assert [len(pts) for pts in got] == [1, 1, 0, 1, 0, 1]
    assert solve_critical_stack(fam, bases, [], tol=1e-12) == [[]] * len(bases)
    for base, seed, pts in zip(bases[keep], seeds[keep], got):
        assert_same_points(pts, ref_solve(fam, base, [seed], 1e-12))


def bistable_reduction():
    """Head stationarity s1^3 - s1 + x = 0 (x < 5) has one root for
    |x| > 0.385 and three below, which two seeds tell apart; for x >= 5 it
    is s1^2 + 1 = 0, with no root.  The kept fiber solves x - s2 = 0."""
    def gradient(b, f):
        s1, s2 = f[..., :1], f[..., 1:]
        head = np.where(b < 5.0, s1 ** 3 - s1 + b, s1 ** 2 + 1.0)
        return s2, np.concatenate([head, b - s2], axis=-1)
    fam = FunctionFamily(1, 2, lambda b, f: 0.0, gradient, name="bistable")
    return reduce_family(fam, 1, seeds=[[-1.2], [1.2]], tol=1e-12)


def test_reduced_gradient_that_raises_inside_a_stacked_call():
    red = bistable_reduction()
    bases = np.array([[1.0], [7.0], [-1.0], [0.9]])
    seeds = np.array([[0.2], [-0.4]])
    # One row has no section, so the stacked gradient call raises.
    with pytest.raises(NoConvergence):
        fiber_gradient(red, bases, np.zeros((4, 1)))
    got = solve_critical_stack(red, bases, seeds, tol=1e-11)
    assert [len(pts) for pts in got] == [1, 0, 1, 1]
    for base, pts in zip(bases, got):
        assert_same_points(pts, ref_solve(red, base, seeds, 1e-11))
    rows = np.repeat(bases, 2, axis=0), np.tile(seeds, (4, 1))
    assert_same_outcomes(_newton(red, *rows, 1, 1e-11, 60),
                         [ref_outcome(red, b, s, 1, 1e-11) for b, s in zip(*rows)])
    # A row with three sections raises in row order, as it would alone.
    with pytest.raises(SectionNotUnique, match=r"over base \[0\.0\]"):
        solve_critical_stack(red, [[1.0], [0.0], [7.0], [0.1]], seeds, tol=1e-11)


def test_generate_merges_seeds_per_base():
    # g_s = s^3 - s + x / 10 has roots near -1, 0 and +1; three seeds land
    # on two of them, so the merge fires over every base.
    def gradient(b, f):
        return 0.1 * f, f ** 3 - f + 0.1 * b
    fam = FunctionFamily(1, 1, lambda b, f: 0.0, gradient, name="quartic")
    bases = np.linspace(-1.0, 1.0, 5)[:, None]
    seeds = [[-1.1], [-0.9], [1.2]]
    out = generate(fam, bases, seeds, tol=1e-12)
    want = [pt for base in bases for pt in ref_solve(fam, base, seeds, 1e-12)]
    assert len(want) == 2 * len(bases)
    assert_same_points([gc.source for gc in out], want)
    assert bits([gc.covector for gc in out]) == bits(
        [gc.covector for gc in kappas(fam, want, tol=1e-11)])
