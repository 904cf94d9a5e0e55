"""The stacked Morse engine against a per-point reference, bit for bit.

The reference below is the engine as it was written one point at a time:
family gradients over one event, momentum and velocity with the potential
differential taken at one event, one SVD per equilibrated matrix, and a
Newton iteration whose Jacobian is the fiber block of the family's exact
mixed Hessian at that one point.  The stacked engine must reproduce every
float of it: the Hessians (the family's, taken one point at a time), the
ranks and the critical fibers, for every particle family, under built-in,
custom and time-dependent custom potentials and a random metric.  The
exact Hessians are also held to central differences of the reference
gradients.

The stacked Newton is held to a second reference: the damped Newton as it
was written one base at a time (one gradient call per row, the first error
of a row raised at once), so that every row of a stack, including those
that stall, leave the domain or raise inside the gradient, ends as it
would alone.  Its least-squares step, one stacked LAPACK call, is held to
np.linalg.lstsq on one matrix at a time, bit for bit.
"""

import numpy as np
import pytest

from conftest import at, harmonic_potential, random_frame, random_metric
from galimech.affine_phase import REFERENCE_FRAME, family_fam3, family_fam4
from galimech.frame_dynamics import (
    legendre_hom,
    mass_shell_residual,
)
from galimech.galilean_core import DomainError, GalimechError
from galimech.generating_objects import (
    CriticalPoint,
    FunctionFamily,
    NoConvergence,
    SectionNotUnique,
    _NEWTON_RCOND,
    _lstsq_stack,
    _newton,
    family_example31,
    family_fam1,
    family_fam2,
    fiber_gradient,
    generate,
    hessian,
    is_morse,
    kappa,
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

def ref_differential(potential, x: np.ndarray) -> np.ndarray:
    dt = 0.0 if potential.time is None else potential.time(x[0], x[1:])
    ds = potential.d_s(x)
    return np.array([float(dt), float(ds[0]), float(ds[1]), float(ds[2])])


def ref_fam1(u: np.ndarray, m, g, potential):
    def gradient(base, fiber):
        base = np.asarray(base, dtype=float)
        x, p = base[:4], base[4:]
        v = np.array([float(fiber[3]), float(fiber[0]), float(fiber[1]),
                      float(fiber[2])])
        gx = v[0] * ref_differential(potential, x)
        gv = p - legendre_hom(u, m, g, at(potential, x), v)
        return np.concatenate([gx, v]), gv[[1, 2, 3, 0]]
    return gradient


def ref_fam2(u: np.ndarray, m, g, potential):
    def gradient(base, fiber):
        base = np.asarray(base, dtype=float)
        x, p = base[:4], base[4:]
        r = float(fiber[0])
        res = mass_shell_residual(u, m, g, at(potential, x), p)
        dres_dp = np.concatenate([[1.0],
                                  g.apply_inverse(p[1:]) / m + u])
        return (r * np.concatenate([ref_differential(potential, x), dres_dp]),
                np.array([res]))
    return gradient


def ref_example31(m, k):
    def gradient(base, fiber):
        q, p, v = base[:3], base[3:], fiber
        return np.concatenate([-k * q, -v]), m * v - p
    return gradient


def ref_hessian(gradient, b, f, base, fiber) -> np.ndarray:
    """Central differences of the reference fiber gradient at one point."""
    joint = np.concatenate([base, fiber])
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
    """Rank of one matrix with each column divided by its largest
    magnitude (a zero column left at zero)."""
    scale = np.max(np.abs(matrix), axis=0)
    sv = np.linalg.svd(matrix / np.where(scale > 0.0, scale, 1.0),
                       compute_uv=False)
    return 0 if sv[0] == 0.0 else int(np.sum(sv > 1e-8 * sv[0]))


def ref_newton(gradient, hessian, base, seed, tol, max_iter=60):
    """Damped Newton at one base on the reference gradient, its Jacobian
    the fiber block of hessian(base, fiber) at that one point."""
    def fiber_grad(fiber):
        return gradient(base, fiber)[1]

    fiber = np.array(seed, dtype=float)
    grad = fiber_grad(fiber)
    norm = float(np.max(np.abs(grad)))
    for _ in range(max_iter):
        if norm <= tol:
            return fiber
        jac = hessian(base, fiber)[:, len(base):]
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

def on_shell(rng, u: np.ndarray, m, g, potential, count: int):
    """Bases on the constraint set of frame u and their velocities."""
    out = []
    for _ in range(count):
        x = rng.normal(size=4)
        v = np.array([rng.uniform(0.5, 1.5), *rng.normal(size=3)])
        p = legendre_hom(u, m, g, at(potential, x), v)
        out.append((np.concatenate([x, p]), v[[1, 2, 3, 0]]))
    return out


def velocity_family(name, rng, potential):
    """(family, reference gradient, anchor frame) for fam1..fam4 over a
    random metric, mass and frame."""
    g, m, u = random_metric(rng), float(rng.uniform(0.7, 2.5)), random_frame(rng)
    fam = {"fam1": lambda: family_fam1(u, m, g, potential),
           "fam2": lambda: family_fam2(u, m, g, potential),
           "fam3": lambda: family_fam3(m, g, potential),
           "fam4": lambda: family_fam4(m, g, potential)}[name]()
    anchor = REFERENCE_FRAME if name in ("fam3", "fam4") else u
    ref = (ref_fam1 if name in ("fam1", "fam4") else ref_fam2)(
        anchor, m, g, potential)
    return fam, ref, anchor, m, g


def stack(found) -> CriticalPoint:
    """The points of several stacks as one stack."""
    return CriticalPoint(*(np.concatenate([getattr(pts, k) for pts in found])
                           for k in CriticalPoint.__slots__))


def assert_engine_matches(fam, ref, points):
    b, f = fam.base_dim, fam.fiber_dim
    alone = [fam.hessian(base, fiber)
             for base, fiber in zip(points.base, points.fiber)]
    stacked = hessian(fam, points)
    assert stacked.shape == (len(points), f, b + f)
    assert bits(stacked) == bits(np.array(alone))
    assert bits(hessian(fam, points[-1:])) == bits(alone[-1])
    for h, base, fiber in zip(alone, points.base, points.fiber):
        differences = ref_hessian(ref, b, f, base, fiber)
        assert np.max(np.abs(h - differences)) <= 1e-6 * np.max(np.abs(h))
    ranks = is_morse(fam, points).tolist()
    assert ranks == [ref_rank(h) for h in alone]
    assert set(ranks) == {f}


@pytest.mark.parametrize("kind", sorted(POTENTIALS))
@pytest.mark.parametrize("name", ["fam1", "fam4"])
def test_velocity_families_match_reference(rng, name, kind):
    potential = POTENTIALS[kind]()
    fam, ref, anchor, m, g = velocity_family(name, rng, potential)
    found = []
    for base, fiber in on_shell(rng, anchor, m, g, potential, 12):
        # Start off the critical set, so that Newton iterates.
        seed = fiber * (1.0 + 0.05 * rng.normal(size=4))
        found.append(solve_critical(fam, base, seeds=[seed], tol=1e-10))
        expected = ref_newton(ref, fam.hessian, base, seed, 1e-10)
        assert len(found[-1]) == 1 and expected is not None
        assert bits(found[-1].fiber) == bits(expected)
    assert_engine_matches(fam, ref, stack(found))


@pytest.mark.parametrize("kind", sorted(POTENTIALS))
@pytest.mark.parametrize("name", ["fam2", "fam3"])
def test_multiplier_families_match_reference(rng, name, kind):
    potential = POTENTIALS[kind]()
    fam, ref, anchor, m, g = velocity_family(name, rng, potential)
    samples = on_shell(rng, anchor, m, g, potential, 12)
    points = CriticalPoint(np.array([base for base, _ in samples]),
                           np.array([[rng.uniform(0.5, 2.0)] for _ in samples]))
    for base, fiber in zip(points.base[:3], points.fiber[:3]):
        found = solve_critical(fam, base, seeds=[fiber], tol=1e-10)
        assert bits(found.fiber) == bits(
            ref_newton(ref, fam.hessian, base, fiber, 1e-10))
    assert_engine_matches(fam, ref, points)


def test_example31_matches_reference(rng):
    fam, ref = family_example31(1.7, 0.6), ref_example31(1.7, 0.6)
    found = []
    for _ in range(20):
        base = rng.normal(size=6)
        found.append(solve_critical(fam, base, seeds=[np.zeros(3)], tol=1e-11))
        assert bits(found[-1].fiber) == bits(
            ref_newton(ref, fam.hessian, base, np.zeros(3), 1e-11))
    assert_engine_matches(fam, ref, stack(found))


def counted(fam):
    """fam, with the number of rows of every gradient call it makes
    recorded in the returned list."""
    rows = []

    def gradient(base, fiber):
        rows.append(int(np.prod(np.shape(fiber)[:-1])))
        return fam.gradient(base, fiber)
    return FunctionFamily(fam.base_dim, fam.fiber_dim, fam.value, gradient,
                          fam.hessian, fam.name), rows


@pytest.mark.parametrize("name", ["fam1", "fam2", "fam3", "fam4"])
def test_no_call_evaluates_the_gradient_on_more_rows_than_points(rng, name):
    # A Jacobian or Hessian by central differences would evaluate the
    # gradient at 2 (b + f) shifted copies of every point.
    potential = POTENTIALS["custom"]()
    fam, _, anchor, m, g = velocity_family(name, rng, potential)
    fam, rows = counted(fam)
    samples = on_shell(rng, anchor, m, g, potential, 8)
    bases = np.array([base for base, _ in samples])
    if fam.fiber_dim == 4:
        seeds = np.array([fiber * (1.0 + 0.05 * rng.normal(size=4))
                          for _, fiber in samples])
    else:  # off the shell, where the multiplier's Newton stalls
        bases[:, 4] += 0.1
        seeds = rng.uniform(0.5, 2.0, size=(8, 1))
    fiber, _, _ = _newton(fam, bases, seeds, fam.fiber_dim, 1e-10, 60)
    assert len(rows) > 1 and max(rows) <= len(bases)
    rows.clear()
    ranks = is_morse(fam, CriticalPoint(bases, fiber))
    assert (ranks == fam.fiber_dim).all()
    assert max(rows, default=0) <= len(bases)


def test_family_needs_a_gradient():
    # The engine has one gradient path and one Hessian path: a family
    # given by its value alone, or without its Hessian, cannot be built.
    with pytest.raises(TypeError):
        FunctionFamily(1, 1, lambda b, f: float(b[0] * f[0]))
    with pytest.raises(TypeError):
        FunctionFamily(1, 1, lambda b, f: float(b[0] * f[0]),
                       lambda b, f: (f, b))


# --- the stacked least-squares solve against np.linalg.lstsq -------------

def awkward_systems(rng, n: int, count: int = 8):
    """Stacks (K, n, n) and right-hand sides (K, n): well-posed, rank
    deficient (a repeated column, a rank-one product), a column repeated
    up to 3e-9 or 3e-8, either side of the cutoff, all zero, scaled to
    about 1e-150 and 1e150, and rows scaled apart by 1e300."""
    base = rng.normal(size=(count, n, n))
    repeated = base.copy()
    repeated[..., -1] = repeated[..., 0]
    nearly = np.concatenate([repeated, repeated])
    nearly[..., -1] += np.repeat([3e-9, 3e-8], count)[:, None] * rng.normal(
        size=(2 * count, n))
    rank_one = rng.normal(size=(count, n, 1)) * rng.normal(size=(count, 1, n))
    split = base.copy()
    split[:, 0] *= 1e150
    split[:, -1] *= 1e-150
    a = np.concatenate([base, repeated, rank_one, nearly, np.zeros_like(base),
                        1e-150 * base, 1e150 * base, split])
    return a, rng.normal(size=a.shape[:2])


def uint64(a) -> list:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lstsq_stack_matches_lstsq_bit_for_bit(rng, n):
    a, b = awkward_systems(rng, n)
    # The Newton Jacobians reach the solve as a transposed view.
    for stack in (a, np.swapaxes(np.ascontiguousarray(np.swapaxes(a, 1, 2)), 1, 2)):
        got = _lstsq_stack(stack, b)
        assert got.shape == b.shape
        for k in range(len(a)):
            want = np.linalg.lstsq(stack[k], b[k], rcond=_NEWTON_RCOND)[0]
            assert uint64(got[k]) == uint64(want)
    assert _lstsq_stack(a[:0], b[:0]).shape == (0, n)


def test_lstsq_stack_raises_as_lstsq_on_a_nan_matrix(rng):
    a, b = awkward_systems(rng, 3, count=2)
    a[5, 1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as alone:
        np.linalg.lstsq(a[5], b[5], rcond=_NEWTON_RCOND)
    with pytest.raises(np.linalg.LinAlgError) as stacked:
        _lstsq_stack(a, b)
    assert str(stacked.value) == str(alone.value)


# --- the stacked Newton against the Newton of one base at a time ---------

def ref_row_newton(fam, base, fiber, head, tol, max_iter=60, log=None):
    """The damped Newton of one row, raising its first error; its Jacobian
    is the fiber block of the family's Hessian at the row alone.  log,
    when given, collects "step" for every Jacobian taken and "shorten"
    for every halved trial step."""
    base = np.asarray(base, dtype=float)
    fiber = np.array(fiber, dtype=float)
    grad = fiber_gradient(fam, base, fiber)[:head]
    norm = float(np.max(np.abs(grad)))
    if not np.isfinite(norm):
        raise DomainError(
            f"{fam.name}: fiber gradient not finite at the start "
            f"{fiber.tolist()} over base {base.tolist()}")
    b = len(base)
    for _ in range(max_iter):
        if norm <= tol:
            return fiber, norm
        if log is not None:
            log.append("step")
        with np.errstate(all="ignore"):
            jac = fam.hessian(base, fiber)[:head, b:b + head]
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


def ref_solve(fam, bases, seeds, tol):
    """Critical points over each base, seed by seed from the seeds (S, f)
    or per base (B, S, f), merged as documented, in (base, seed) order."""
    out = []  # (base, fiber, norm, owner) per point
    for i, base in enumerate(np.asarray(bases, dtype=float)):
        found = []  # [fiber, norm] per point over this base
        for seed in seeds if np.ndim(seeds) == 2 else seeds[i]:
            try:
                fiber, norm = ref_row_newton(fam, base, seed, fam.fiber_dim, tol)
            except NoConvergence:
                continue
            for pt in found:
                if float(np.linalg.norm(pt[0] - fiber)) < 10.0 * tol:
                    if norm < pt[1]:
                        pt[:] = fiber, norm
                    break
            else:
                found.append([fiber, norm])
        out += [(base, fiber, norm, i) for fiber, norm in found]
    base, fiber, norm, owner = zip(*out) if out else ((), (), (), ())
    return CriticalPoint(np.reshape(base, (-1, fam.base_dim)),
                         np.reshape(fiber, (-1, fam.fiber_dim)),
                         np.array(norm, dtype=float), np.array(owner, dtype=int))


def assert_same_outcomes(got, want, tol):
    fiber, norm, errors = got
    assert len(fiber) == len(norm) == len(want)
    assert sorted(errors) == [i for i, w in enumerate(want)
                              if isinstance(w, Exception)]
    for i, w in enumerate(want):
        if isinstance(w, Exception):
            g = errors[i]
            assert type(g) is type(w) and str(g) == str(w)
            assert not norm[i] <= tol
        else:
            assert bits(fiber[i]) == bits(w[0]) and norm[i] == w[1]


def assert_same_points(got, want):
    assert len(got) == len(want)
    assert got.base.shape == want.base.shape
    assert got.fiber.shape == want.fiber.shape
    assert bits(got.base) == bits(want.base) and bits(got.fiber) == bits(want.fiber)
    assert bits(got.residual_norm) == bits(want.residual_norm)
    assert got.owner.tolist() == want.owner.tolist()


def regime_family():
    """One fiber s over bases (x, kind); the kind picks how Newton ends:
    0 arctan(s - x), a root that a far seed reaches only by shortened
    steps; 1 (s - x)^2 + 1, no root, so the line search stalls; 2 NaN, a
    domain error at the start; 3 finite only at s = 5, so its Hessian is
    NaN, a domain error in the Jacobian; 4 arctan(s - x) that raises a
    DomainError below s - x = -5, a trial step that is shortened; 5 the
    same raising a ZeroDivisionError, which ends the row.  The Hessian of
    kinds 4 and 5 raises at s - x = -5 as well, so a seed there raises in
    its first Jacobian call."""
    def split(base, fiber, edge):
        x, kind, s = base[..., :1], base[..., 1:], fiber[..., :1]
        if np.any(edge(s - x) & (kind == 4)):
            raise DomainError("left the domain")
        if np.any(edge(s - x) & (kind == 5)):
            raise ZeroDivisionError("division by zero")
        return s - x, np.where(kind >= 4, 0, kind)

    def gradient(base, fiber):
        d, kind = split(base, fiber, lambda d: d < -5.0)
        with np.errstate(all="ignore"):
            gf = np.select([kind == 0, kind == 1, kind == 2],
                           [np.arctan(d), d ** 2 + 1.0, np.full_like(d, np.nan)],
                           np.where(fiber[..., :1] == 5.0, 4.0, np.nan))
        return np.zeros_like(base), gf

    def hessian(base, fiber):
        d, kind = split(base, fiber, lambda d: d <= -5.0)
        ds = np.select([kind == 0, kind == 1], [1.0 / (1.0 + d * d), 2.0 * d],
                       np.nan)
        return np.concatenate([-ds, 0.0 * ds, ds], axis=-1)[..., None, :]
    return FunctionFamily(2, 1, lambda b, f: 0.0, gradient, hessian,
                          name="regimes")


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
    logs = [[] for _ in seeds]
    want = [ref_outcome(fam, b, s, 4, 1e-10, log=log)
            for b, s, log in zip(bases, seeds, logs)]
    assert_same_outcomes(_newton(fam, bases, seeds, 4, 1e-10, 60), want, 1e-10)
    # Exactly critical seeds stop before the first step, the others later,
    # and not all after the same number of steps.
    assert all(bits(w[0]) == bits(s) for w, s in zip(want[::3], seeds[::3]))
    assert all(bits(w[0]) != bits(s) for w, s in zip(want[1::3], seeds[1::3]))
    steps = [log.count("step") for log in logs]
    assert not any(steps[::3]) and len(set(steps[1::3])) > 1, steps
    stacked = solve_critical_stack(fam, bases[::3], seeds.reshape(6, 3, 4),
                                   tol=1e-10)
    assert_same_points(stacked, ref_solve(fam, bases[::3], seeds.reshape(6, 3, 4),
                                          1e-10))


def test_stacked_rows_shorten_stall_and_leave_the_domain():
    fam = regime_family()
    rows = [([0.3, 0], 0.5), ([-0.2, 0], 29.8), ([0.1, 1], 1.1),
            ([0.7, 3], 5.0), ([0.4, 0], 3.4), ([0.0, 2], 0.0), ([1.0, 1], 3.0),
            ([0.2, 4], 29.8), ([0.5, 5], 29.8), ([0.0, 4], -5.0),
            ([0.0, 5], -5.0)]
    bases = np.array([b for b, _ in rows], dtype=float)
    seeds = np.array([[s] for _, s in rows])
    ends = {}
    for max_iter in (60, 2):
        log = []
        want = [ref_outcome(fam, b, s, 1, 1e-12, max_iter, log)
                for b, s in zip(bases, seeds)]
        assert_same_outcomes(_newton(fam, bases, seeds, 1, 1e-12, max_iter),
                             want, 1e-12)
        assert "shorten" in log
        ends[max_iter] = [type(w).__name__ for w in want]
    assert ends[60] == ["tuple", "tuple", "NoConvergence", "DomainError",
                        "tuple", "DomainError", "NoConvergence", "tuple",
                        "ZeroDivisionError", "DomainError", "ZeroDivisionError"]
    # In the first iteration rows fail their Hessian call (9, 10), have a
    # Jacobian that is not finite (3) and solve (0, 1, 4 and the rest).
    assert [str(w) for w in want[9:]] == ["left the domain", "division by zero"]
    assert "within 2 iterations" in str(want[0])
    # The first domain error in row order is raised: the Jacobian's (row
    # 3), not the start's (row 5).
    with pytest.raises(DomainError, match="Jacobian not finite"):
        solve_critical_stack(fam, bases, seeds[:, None], tol=1e-12)
    keep = [0, 1, 2, 4, 6, 7]
    got = solve_critical_stack(fam, bases[keep], seeds[keep, None], tol=1e-12)
    assert got.owner.tolist() == [0, 1, 3, 5]
    assert len(solve_critical_stack(fam, bases, [], tol=1e-12)) == 0
    assert_same_points(got, ref_solve(fam, bases[keep], seeds[keep, None], 1e-12))


def bistable_reduction():
    """Head stationarity s1^3 - s1 + x = 0 (x < 5) has one root for
    |x| > 0.385 and three below, which two seeds tell apart; for x >= 5 it
    is s1^2 + 1 = 0, with no root.  The kept fiber solves x - s2 = 0."""
    def gradient(b, f):
        s1, s2 = f[..., :1], f[..., 1:]
        head = np.where(b < 5.0, s1 ** 3 - s1 + b, s1 ** 2 + 1.0)
        return s2, np.concatenate([head, b - s2], axis=-1)

    def hessian(b, f):
        s1 = f[..., :1]
        head = [np.where(b < 5.0, 1.0, 0.0),
                np.where(b < 5.0, 3.0 * s1 ** 2 - 1.0, 2.0 * s1), 0.0 * s1]
        kept = [np.ones_like(s1), 0.0 * s1, -np.ones_like(s1)]
        return np.stack([np.concatenate(head, axis=-1),
                         np.concatenate(kept, axis=-1)], axis=-2)
    fam = FunctionFamily(1, 2, lambda b, f: 0.0, gradient, hessian,
                         name="bistable")
    return reduce_family(fam, 1, seeds=[[-1.2], [1.2]], tol=1e-12)


def test_reduced_gradient_that_raises_inside_a_stacked_call():
    red = bistable_reduction()
    bases = np.array([[1.0], [7.0], [-1.0], [0.9]])
    seeds = np.array([[0.2], [-0.4]])
    # One row has no section, so the stacked gradient call raises.
    with pytest.raises(NoConvergence):
        fiber_gradient(red, bases, np.zeros((4, 1)))
    got = solve_critical_stack(red, bases, seeds, tol=1e-11)
    assert got.owner.tolist() == [0, 2, 3]
    assert_same_points(got, ref_solve(red, bases, seeds, 1e-11))
    rows = np.repeat(bases, 2, axis=0), np.tile(seeds, (4, 1))
    assert_same_outcomes(_newton(red, *rows, 1, 1e-11, 60),
                         [ref_outcome(red, b, s, 1, 1e-11) for b, s in zip(*rows)],
                         1e-11)
    # A row with three sections raises in row order, as it would alone.
    with pytest.raises(SectionNotUnique, match=r"over base \[0\.0\]"):
        solve_critical_stack(red, [[1.0], [0.0], [7.0], [0.1]], seeds, tol=1e-11)


def test_generate_merges_seeds_per_base():
    # g_s = s^3 - s + x / 10 has roots near -1, 0 and +1; three seeds land
    # on two of them, so the merge fires over every base.
    def gradient(b, f):
        return 0.1 * f, f ** 3 - f + 0.1 * b

    def hessian(b, f):
        return np.stack([np.full_like(f, 0.1), 3.0 * f ** 2 - 1.0], axis=-1)
    fam = FunctionFamily(1, 1, lambda b, f: 0.0, gradient, hessian,
                         name="quartic")
    bases = np.linspace(-1.0, 1.0, 5)[:, None]
    seeds = [[-1.1], [-0.9], [1.2]]
    points, covectors = generate(fam, bases, seeds, tol=1e-12)
    want = ref_solve(fam, bases, seeds, 1e-12)
    assert len(want) == 2 * len(bases)
    assert_same_points(points, want)
    assert bits(covectors) == bits(kappa(fam, want, tol=1e-11))
