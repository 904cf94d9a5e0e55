"""Config-driven invariant checks behind the CLI commands.

Every check draws its randomness from a generator seeded by the config
seed together with a CRC of the check's own name, so adding, removing, or
reordering checks never changes another check's samples, and two runs with
the same config are bit-identical.

A sampled check draws all of its samples into arrays first, in the order
a per-sample loop would draw them, and then evaluates its identity once
over the whole sample axis through the array kernels.  One driver,
``_sampled``, turns the per-sample errors into the verdict: the largest
error, NaN included, so a single non-finite sample fails the check.

Relative errors throughout are measured against max(1, |reference|): the
quantities involved are order one in the stock scenarios, and the floor
keeps near-zero references from inflating rounding noise into failures.
"""

from __future__ import annotations

import functools
import zlib
from typing import Callable, Sequence

import numpy as np

from ..galilean_core import (
    Covector4,
    DomainError,
    Event,
    Frame,
    SpatialMetric,
    Vector4,
    pair,
    sigma_array,
)
from ..frame_dynamics import (
    Potential,
    Trajectory,
    integrate,
    lagrangian_hom_array,
    lagrangian_inhom_array,
    legendre_hom,
    legendre_hom_array,
    legendre_inhom_array,
    mass_shell_residual_array,
)
from ..generating_objects import (
    CriticalPoint,
    family_example31,
    family_fam1,
    family_fam2,
    is_morse,
    kappas,
    solve_critical_stack,
    vector_to_fiber,
)
from ..affine_phase import (
    NewtonModel,
    PElement,
    W_UNIT,
    WElement,
    affine_lagrangian_array,
    alpha,
    beta_inv,
    dynamics_membership_universal_array,
    eval_affine,
    eval_affine_array,
    family_fam3,
    family_fam4,
    gamma,
    hamiltonian_fun_array,
    p_change_chart_array,
    pairing_array,
    psi_m_array,
    w_add_array,
    w_change_chart_array,
    w_pack,
    w_scale_array,
)
from .config import ScenarioConfig
from .report import CheckResult

__all__ = [
    "core_suite",
    "dynamics_suite",
    "affine_suite",
    "suite_checks",
    "boost_checks",
    "frame_trajectories",
    "morse_checks",
    "MORSE_FAMILIES",
    "corrupted_sigma",
]

# Frames as spatial velocities (..., 3) in, covector components (..., 4) out.
SigmaFn = Callable[[SpatialMetric, np.ndarray, np.ndarray], np.ndarray]


def _rng(cfg: ScenarioConfig, name: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(name.encode())])


def _rel(err, ref):
    return err / np.maximum(1.0, np.abs(ref))


def _maxabs(a: np.ndarray) -> np.ndarray:
    return np.max(np.abs(a), axis=-1)


def _model(cfg: ScenarioConfig) -> NewtonModel:
    return NewtonModel(cfg.mass, cfg.build_metric(), cfg.build_potential())


# What one sample draws, as blocks: (low, high, width) stands for
# rng.uniform(low, high, size=width), a bare width for rng.normal(size=width).
_FRAME = ((-1.5, 1.5, 3),)  # spatial velocity of a frame
_FUTURE = ((0.2, 2.0, 1), 3)  # future-directed vector
_NORMAL4 = (4,)  # event, vector or covector


def _draws(rng: np.random.Generator, n: int, *draws) -> list[np.ndarray]:
    """n samples of each draw, one (n, width) array per draw, holding
    exactly the values a loop over the samples takes from rng.

    rng.uniform(low, high) is low + (high - low) * rng.random() and
    rng.normal() is rng.standard_normal(), so the raw values are filled
    first, one call per run of columns of one kind per sample (one call
    in all when every column is of one kind), and mapped afterwards.
    """
    blocks = [b for draw in draws for b in draw]
    widths = [b if isinstance(b, int) else b[2] for b in blocks]
    edges = np.cumsum([0, *widths]).tolist()
    normal = np.repeat([isinstance(b, int) for b in blocks], widths)
    cuts = [0, *(np.flatnonzero(np.diff(normal)) + 1).tolist(), len(normal)]
    runs = [(rng.standard_normal if normal[lo] else rng.random, lo, hi)
            for lo, hi in zip(cuts, cuts[1:])]
    out = np.empty((n, len(normal)))
    for row in [out] if len(runs) == 1 else out:
        for fill, lo, hi in runs:
            fill(out=row[..., lo:hi])
    for b, lo, hi in zip(blocks, edges, edges[1:]):
        if not isinstance(b, int):
            out[:, lo:hi] = b[0] + (b[1] - b[0]) * out[:, lo:hi]
    ends = np.cumsum([len(draw) for draw in draws])[:-1]
    return np.split(out, [edges[i] for i in ends], axis=1)


def _potential_at(phi: Potential, x: np.ndarray) -> np.ndarray:
    """phi at each event of x (n, 4), NaN where a pointwise evaluation
    raises an ArithmeticError, so that sample fails its check instead of
    ending the run."""
    return phi.at_events(x, lambda i, exc: np.nan)


def _verdict(name: str, errs: np.ndarray, tol: float, count: bool = False,
             n: int | None = None) -> CheckResult:
    """The largest error (with count, the number of mismatches) against
    tol, over n samples (by default one per error).  NaN propagates, so a
    non-finite error fails the check."""
    worst = np.sum(errs) if count else np.max(errs, initial=0.0)
    return CheckResult(name, worst, tol, errs.size if n is None else n)


def _sampled(name: str, tol: str | float, count: bool = False):
    """The driver of the sampled checks.

    Decorates errors(cfg, rng, *args), which draws the check's samples from
    the check's own rng stream and returns one error per sample (with
    count, one mismatch flag).  tol names a Tolerances field or is the
    tolerance itself.  numpy warnings are silenced inside: a non-finite
    error is reported by the verdict, not by a warning.
    """
    def decorate(errors):
        @functools.wraps(errors)
        def check(cfg: ScenarioConfig, *args, **kwargs) -> CheckResult:
            with np.errstate(all="ignore"):
                errs = np.asarray(errors(cfg, _rng(cfg, name), *args, **kwargs),
                                  dtype=float)
            limit = getattr(cfg.tolerances, tol) if isinstance(tol, str) else tol
            return _verdict(name, errs, limit, count)
        return check
    return decorate


def corrupted_sigma(g: SpatialMetric, u_prime, u) -> np.ndarray:
    """Deliberately wrong frame-shift covector for negative-control runs:
    the time component is scaled, which breaks residual preservation at a
    level far above every tolerance."""
    s = sigma_array(g, u_prime, u)
    return np.concatenate([1.001 * s[..., :1] + 1e-3, s[..., 1:]], axis=-1)


# --- core: structure of the frame-shift covector ---------------------------

@_sampled("sigma.antisymmetry", "cocycle")
def check_sigma_antisymmetry(cfg: ScenarioConfig, rng) -> np.ndarray:
    g = cfg.build_metric()
    a, b = _draws(rng, 1000, _FRAME, _FRAME)
    return _maxabs(sigma_array(g, a, b) + sigma_array(g, b, a))


@_sampled("sigma.cocycle", "cocycle")
def check_sigma_cocycle(cfg: ScenarioConfig, rng) -> np.ndarray:
    g = cfg.build_metric()
    u1, u2, u3 = _draws(rng, 1000, _FRAME, _FRAME, _FRAME)
    direct = sigma_array(g, u3, u1)
    chained = sigma_array(g, u3, u2) + sigma_array(g, u2, u1)
    return _rel(_maxabs(direct - chained), _maxabs(direct))


@_sampled("sigma.pairing_formula", "cocycle")
def check_sigma_pairing_formula(cfg: ScenarioConfig, rng) -> np.ndarray:
    """Dual route for <sigma(u',u), v>: lowered difference paired with the
    mid-frame-corrected vector."""
    g = cfg.build_metric()
    u_prime, u, v = _draws(rng, 1000, _FRAME, _FRAME, _NORMAL4)
    via_sigma = pair(sigma_array(g, u_prime, u), v)
    corrected = v[:, 1:] - 0.5 * v[:, :1] * (u + u_prime)
    direct = np.vecdot(g.apply(u_prime - u), corrected)
    return _rel(np.abs(via_sigma - direct), direct)


# --- dynamics: frame mechanics --------------------------------------------

@_sampled("lagrangian.shift_identity", "lagrangian_shift")
def check_lagrangian_shift(cfg: ScenarioConfig, rng) -> np.ndarray:
    """Frame difference of lagrangian values equals the sigma pairing."""
    g, m = cfg.build_metric(), cfg.mass
    u, u_prime, v, x = _draws(rng, 1000, _FRAME, _FRAME, _FUTURE, _NORMAL4)
    phi = _potential_at(cfg.build_potential(), x)
    lhs = lagrangian_hom_array(u, m, g, phi, v) \
        - lagrangian_hom_array(u_prime, m, g, phi, v)
    rhs = m * pair(sigma_array(g, u_prime, u), v)
    return _rel(np.abs(lhs - rhs), rhs)


def _central_differences(f, c: np.ndarray) -> np.ndarray:
    """Central differences of f at each row of c (n, d), coordinate j
    stepped by 1e-6 * (1 + |c_j|); f maps points (n, d, d) to (n, d)."""
    step = 1e-6 * (1.0 + np.abs(c))
    plus = np.repeat(c[:, None, :], c.shape[1], axis=1)
    minus = plus.copy()
    j = np.arange(c.shape[1])
    plus[:, j, j] += step
    minus[:, j, j] -= step
    return (f(plus) - f(minus)) / (2.0 * step)


@_sampled("legendre.fd_consistency", "legendre_fd")
def check_legendre_fd(cfg: ScenarioConfig, rng) -> np.ndarray:
    """Momentum maps against central differences of their lagrangians.

    Samples alternate between the inhomogeneous map (at a unit-time
    velocity w) and the homogeneous one (at a future vector v).
    """
    g, m, potential = cfg.build_metric(), cfg.mass, cfg.build_potential()
    u0, x0, w, u1, x1, v = _draws(rng, 250, _FRAME, _NORMAL4, (3,),
                                  _FRAME, _NORMAL4, _FUTURE)
    phi0, phi1 = _potential_at(potential, x0), _potential_at(potential, x1)
    fd_inhom = _central_differences(
        lambda w: lagrangian_inhom_array(u0[:, None], m, g, phi0[:, None], w), w)
    fd_hom = _central_differences(
        lambda v: lagrangian_hom_array(u1[:, None], m, g, phi1[:, None], v), v)
    errs = [_rel(_maxabs(analytic - fd), _maxabs(fd)) for analytic, fd in (
        (legendre_inhom_array(u0, m, g, w), fd_inhom),
        (legendre_hom_array(u1, m, g, phi1, v), fd_hom))]
    return np.concatenate(errs)


@_sampled("mass_shell.on_shell_residual", "mass_shell")
def check_mass_shell(cfg: ScenarioConfig, rng) -> np.ndarray:
    """Fiber-derivative momenta land on the energy constraint."""
    g, m = cfg.build_metric(), cfg.mass
    u, x, v = _draws(rng, 500, _FRAME, _NORMAL4, _FUTURE)
    phi = _potential_at(cfg.build_potential(), x)
    p = legendre_hom_array(u, m, g, phi, v)
    return np.abs(mass_shell_residual_array(u, m, g, phi, p))


@_sampled("boost.residual_preservation", "residual_preservation")
def check_residual_preservation(cfg: ScenarioConfig, rng,
                                sigma_fn: SigmaFn = sigma_array) -> np.ndarray:
    """Momentum carried between frames keeps its mass-shell residual."""
    g, m = cfg.build_metric(), cfg.mass
    u_prime, u, x, p = _draws(rng, 500, _FRAME, _FRAME, _NORMAL4, _NORMAL4)
    phi = _potential_at(cfg.build_potential(), x)
    before = mass_shell_residual_array(u_prime, m, g, phi, p)
    carried = p + m * sigma_fn(g, u_prime, u)
    after = mass_shell_residual_array(u, m, g, phi, carried)
    return _rel(np.abs(after - before), before)


def check_energy_drift(cfg: ScenarioConfig) -> CheckResult:
    """Conserved energy along the integrated scenario in its first frame.

    Meaningful for time-independent potentials; a custom expression using t
    will fail this check by physics, not by bug.
    """
    g = cfg.build_metric()
    phi = cfg.build_potential()
    u = Frame.from_spatial(cfg.frames[0])
    traj = integrate(u, cfg.mass, g, phi, cfg.initial_state(u), cfg.h, cfg.n)
    energies = traj.energies(g, phi)
    with np.errstate(all="ignore"):
        errs = _rel(np.abs(energies - energies[0]), energies[0])
    return _verdict("energy.drift", errs, cfg.tolerances.energy_drift)


# --- boost-check: end-to-end frame independence ----------------------------

def frame_trajectories(cfg: ScenarioConfig) -> Trajectory:
    """The configured initial world state integrated in every configured
    frame, all frames in one pass."""
    frames = cfg.build_frames()
    return integrate(frames, cfg.mass, cfg.build_metric(),
                     cfg.build_potential(),
                     [cfg.initial_state(u) for u in frames], cfg.h, cfg.n)


def check_world_lines(cfg: ScenarioConfig, traj: Trajectory) -> CheckResult:
    """The same initial world state integrated in every frame of traj traces
    the same events.  The frames share the time column, so the events
    differ only in position."""
    name = "world_line.agreement"
    tol = cfg.tolerances.world_line_free if cfg.potential.kind == "free" \
        else cfg.tolerances.world_line_bound
    scale = max(float(np.max(np.abs(traj.t))),
                float(np.max(np.abs(traj.q[:, 0]))))
    err = float(np.max(np.abs(traj.q[:, 1:] - traj.q[:, :1]), initial=0.0))
    return CheckResult(name, _rel(err, scale), tol,
                       (len(traj.frames) - 1) * len(traj))


def check_momentum_offset(cfg: ScenarioConfig, traj: Trajectory) -> CheckResult:
    """Between two frames of traj the spatial momenta differ by the
    constant m g(u' - u) along the entire trajectory."""
    name = "momentum.offset_constant"
    g = cfg.build_metric()
    u0, *others = traj.frames
    expected = np.array([cfg.mass * g.apply(u.spatial - u0.spatial)
                         for u in others]).reshape(-1, 3)
    errs = np.max(np.abs((traj.p[:, :1] - traj.p[:, 1:]) - expected),
                  axis=(0, 2))
    return _verdict(name, _rel(errs, np.max(np.abs(expected), axis=1)),
                    cfg.tolerances.momentum_offset, n=len(others) * len(traj))


def boost_checks(cfg: ScenarioConfig,
                 sigma_fn: SigmaFn = sigma_array) -> list[CheckResult]:
    traj = frame_trajectories(cfg)
    return [
        check_world_lines(cfg, traj),
        check_momentum_offset(cfg, traj),
        check_residual_preservation(cfg, sigma_fn),
    ]


# --- affine: chart independence of the quotient constructions --------------

def _charted(model: NewtonModel, p, u: np.ndarray) -> np.ndarray:
    """Momentum classes, given by representatives p (..., 4), presented
    through the chart of the frames with spatial velocities u (..., 3) and
    back, which exercises the relation the quotient is built on."""
    ref = model.reference.spatial
    return p_change_chart_array(model, p_change_chart_array(model, p, ref, u),
                                u, ref)


def _chart_samples(cfg: ScenarioConfig, rng):
    """The model, the configured initial event with the potential value
    there, and 1000 random frames."""
    model = _model(cfg)
    x = Event(*cfg.initial_event)
    (u,) = _draws(rng, 1000, _FRAME)
    return model, x, model.potential.at(x), u


@_sampled("affine.chart.eval_affine", "chart_battery")
def _chart_eval_affine(cfg: ScenarioConfig, rng) -> np.ndarray:
    model, _, _, u = _chart_samples(cfg, rng)
    ref_u = model.reference.spatial
    w = np.array([1.0, 0.5, -0.3, 0.2, 0.4])
    p = np.array([-0.2, 0.7, 0.1, -0.5])
    ref = eval_affine_array(w, p)
    w_u = w_change_chart_array(model, w, ref_u, u)
    val = eval_affine_array(w_change_chart_array(model, w_u, u, ref_u),
                            _charted(model, p, u))
    return _rel(np.abs(val - ref), ref)


@_sampled("affine.chart.pairing", "chart_battery")
def _chart_pairing(cfg: ScenarioConfig, rng) -> np.ndarray:
    model, _, _, u = _chart_samples(cfg, rng)
    ref_u = model.reference.spatial
    p = np.array([0.3, -0.4, 0.8, 0.1])
    v = np.array([1.0, 0.2, -0.6, 0.9])
    ref = pairing_array(p, v)[4]
    p_u = p_change_chart_array(model, p, ref_u, u)
    rebuilt = w_change_chart_array(model, pairing_array(p_u, v), u, ref_u)
    return _rel(np.abs(rebuilt[:, 4] - ref), ref)


@_sampled("affine.chart.psi_m", "chart_battery")
def _chart_psi_m(cfg: ScenarioConfig, rng) -> np.ndarray:
    model, _, _, u = _chart_samples(cfg, rng)
    p = np.array([0.4, -0.3, 0.8, 0.2])
    ref = psi_m_array(model, p)
    val = psi_m_array(model, _charted(model, p, u))
    return _rel(np.abs(val - ref), ref)


@_sampled("affine.chart.affine_lagrangian", "chart_battery")
def _chart_affine_lagrangian(cfg: ScenarioConfig, rng) -> np.ndarray:
    model, _, phi, u = _chart_samples(cfg, rng)
    v = np.array([0.8, 0.4, -0.2, 0.6])
    ref = affine_lagrangian_array(model, phi, v)[4]
    l_u = lagrangian_hom_array(u, model.mass, model.metric, phi, v)
    rebuilt = w_change_chart_array(model, w_pack(v, l_u), u,
                                   model.reference.spatial)
    return _rel(np.abs(rebuilt[:, 4] - ref), ref)


@_sampled("affine.chart.hamiltonian_fun", "chart_battery")
def _chart_hamiltonian_fun(cfg: ScenarioConfig, rng) -> np.ndarray:
    model, _, phi, u = _chart_samples(cfg, rng)
    v = np.array([1.0, 0.3, -0.5, 0.2])
    p = np.array([0.6, -0.1, 0.4, -0.7])
    ref = hamiltonian_fun_array(model, phi, v, p)
    val = hamiltonian_fun_array(model, phi, v, _charted(model, p, u))
    return _rel(np.abs(val - ref), ref)


# Membership is boolean, so agreement is counted, not measured.
@_sampled("affine.chart.membership", 0.0, count=True)
def _chart_membership(cfg: ScenarioConfig, rng) -> np.ndarray:
    model, x, phi, u = _chart_samples(cfg, rng)
    v = Vector4(1.0, 0.4, -0.1, 0.3)
    p_on = legendre_hom(model.reference, model.mass, model.metric,
                        model.potential, x, v).as_array()
    p_off = p_on.copy()
    p_off[0] += 1.0
    dphi = model.potential.d(x).as_array()
    got = dynamics_membership_universal_array(
        model, phi, dphi, _charted(model, np.stack([p_on, p_off]), u[:, None]),
        v.as_array(), -dphi, 1e-9)
    return got != [True, False]


def check_chart_battery(cfg: ScenarioConfig) -> list[CheckResult]:
    """Re-run each quotient operation with all inputs presented through a
    random chart; values must agree with the canonical-chart evaluation."""
    return [check(cfg) for check in (
        _chart_eval_affine, _chart_pairing, _chart_psi_m,
        _chart_affine_lagrangian, _chart_hamiltonian_fun, _chart_membership)]


@_sampled("affine.w_axioms", "chart_battery")
def check_w_axioms(cfg: ScenarioConfig, rng) -> np.ndarray:
    """Vector-space laws for the lagrangian-value space on random triples."""
    a, b, c, st = _draws(rng, 1000, (5,), (5,), (5,), (2,))
    s, t = st[:, 0], st[:, 1]
    add, scale = w_add_array, w_scale_array
    laws = [(add(a, b), add(b, a)),
            (add(add(a, b), c), add(a, add(b, c))),
            (scale(s, add(a, b)), add(scale(s, a), scale(s, b))),
            (scale(s, scale(t, a)), scale(s * t, a))]
    return np.max([_rel(_maxabs(lhs - rhs), _maxabs(rhs))
                   for lhs, rhs in laws], axis=0)


@_sampled("affine.unit_evaluates_one", 0.0)
def check_unit_element(cfg: ScenarioConfig, rng) -> np.ndarray:
    """The distinguished unit evaluates to exactly 1 on every momentum."""
    (p,) = _draws(rng, 200, _NORMAL4)
    return np.abs(eval_affine_array(W_UNIT.as_array(), p) - 1.0)


def check_duality_rank(cfg: ScenarioConfig) -> CheckResult:
    """Evaluation against five generic momenta separates a basis of W."""
    name = "affine.duality_rank"
    rng = _rng(cfg, name)
    model = _model(cfg)
    ws = [WElement(Vector4(1.0, 0.0, 0.0, 0.0), 0.0),
          WElement(Vector4(0.0, 1.0, 0.0, 0.0), 0.0),
          WElement(Vector4(0.0, 0.0, 1.0, 0.0), 0.0),
          WElement(Vector4(0.0, 0.0, 0.0, 1.0), 0.0),
          W_UNIT]
    ps = [PElement(Covector4(*rng.normal(size=4))) for _ in range(5)]
    mat = np.array([[eval_affine(model, w, pp) for pp in ps] for w in ws])
    rank = int(np.linalg.matrix_rank(mat, tol=1e-10))
    return CheckResult(name, float(abs(5 - rank)), 0.0, 25)


@_sampled("affine.gamma_composite", 0.0, count=True)
def check_gamma_composite(cfg: ScenarioConfig, rng) -> np.ndarray:
    """The momentum-side map factors exactly through the other two."""
    element = tuple(_draws(rng, 100, *[_NORMAL4] * 4))
    return np.any([np.any(a != b, axis=-1) for a, b in
                   zip(gamma(element), alpha(beta_inv(element)))], axis=0)


# --- morse-check: generating families --------------------------------------

MORSE_FAMILIES = ("fam1", "fam2", "fam3", "fam4", "example31")


def _domain_errors(run):
    """run(cfg, which), with an ArithmeticError that the potential raises
    at a point the checks cannot do without (a configured event, a base
    point of a family) turned into a DomainError that names the run."""
    @functools.wraps(run)
    def checked(cfg: ScenarioConfig, which: str) -> list[CheckResult]:
        try:
            return run(cfg, which)
        except ArithmeticError as exc:
            raise DomainError(
                f"potential raised {type(exc).__name__} in {run.__name__}"
                f"({which!r}): {exc}") from exc
    return checked


def _on_shell_samples(cfg: ScenarioConfig, u: Frame, rng, count: int):
    """Bases (count, 8) on the constraint set, with the fibers (count, 4)
    of the velocities that put them there."""
    x, v = _draws(rng, count, _NORMAL4, _FUTURE)
    phi = _potential_at(cfg.build_potential(), x)
    p = legendre_hom_array(u.spatial, cfg.mass, cfg.build_metric(), phi, v)
    return np.concatenate([x, p], axis=1), vector_to_fiber(v)


def _rank_check(name: str, fam, points: Sequence[CriticalPoint],
                required: int) -> CheckResult:
    ranks = np.array(is_morse(fam, points).ranks, dtype=float)
    return _verdict(name, np.abs(ranks - required), 0.0)


@_domain_errors
def morse_checks(cfg: ScenarioConfig, family: str) -> list[CheckResult]:
    """Rank and cross-equivalence checks for one named family."""
    g = cfg.build_metric()
    phi = cfg.build_potential()
    model = _model(cfg)
    u = Frame.from_spatial(cfg.frames[0])
    rng = _rng(cfg, f"morse.{family}")
    results: list[CheckResult] = []

    if family == "example31":
        stiffness = cfg.potential.k if cfg.potential.kind == "harmonic" else 1.0
        fam = family_example31(cfg.mass, stiffness)
        found = solve_critical_stack(fam, rng.normal(size=(100, 6)),
                                     [np.zeros(3)], tol=1e-11)
        points = [pt for pts in found for pt in pts]
        results.append(_rank_check("morse.example31.rank", fam, points, 3))
        return results

    if family in ("fam1", "fam4"):
        fam = family_fam1(u, cfg.mass, g, phi) if family == "fam1" \
            else family_fam4(model)
        anchor = model.reference if family == "fam4" else u
        bases, fibers = _on_shell_samples(cfg, anchor, rng, 25)
        found = solve_critical_stack(fam, bases, fibers[:, None], tol=1e-10)
        points = [pt for pts in found for pt in pts]
        results.append(_rank_check(f"morse.{family}.rank", fam, points, 4))
        if family == "fam1":
            results.append(_fam1_vs_fam2(cfg, u))
        return results

    if family in ("fam2", "fam3"):
        if not np.isfinite(phi.at(Event(*cfg.initial_event))):
            raise DomainError(f"{family}: potential not finite at the initial event")
        fam = family_fam2(u, cfg.mass, g, phi) if family == "fam2" \
            else family_fam3(model)
        anchor = model.reference if family == "fam3" else u
        bases, _ = _on_shell_samples(cfg, anchor, rng, 25)
        points = [CriticalPoint(base, np.array([1.0])) for base in bases]
        results.append(_rank_check(f"morse.{family}.rank", fam, points, 1))
        if family == "fam3":
            results.append(_fam3_chart_residuals(cfg))
        return results

    raise ValueError(f"unknown family {family!r}")


def _fam1_vs_fam2(cfg: ScenarioConfig, u: Frame) -> CheckResult:
    """The velocity-fiber and multiplier-fiber families generate the same
    covectors over a shared on-shell grid.

    Each family solves every grid base from its own seed in one stacked
    Newton; the points it finds are certified in one is_morse call and
    mapped through kappa in one stacked call.  A grid base where a family
    finds no single Morse point has an infinite error and is not counted.
    """
    name = "morse.fam1.vs_fam2"
    g = cfg.build_metric()
    phi = cfg.build_potential()
    fam1 = family_fam1(u, cfg.mass, g, phi)
    fam2 = family_fam2(u, cfg.mass, g, phi)
    x = np.array(cfg.initial_event, dtype=float)
    v1, v2 = np.meshgrid(np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 0.5, 5),
                         indexing="ij")
    v = np.stack([np.ones(25), v1.ravel(), v2.ravel(), np.full(25, 0.2)], axis=1)
    p = legendre_hom_array(u.spatial, cfg.mass, g,
                           phi.at(Event(*cfg.initial_event)), v)
    bases = np.concatenate([np.broadcast_to(x, p.shape), p], axis=1)
    found = list(zip(
        solve_critical_stack(fam1, bases, vector_to_fiber(v)[:, None], tol=1e-11),
        solve_critical_stack(fam2, bases, [[1.0]], tol=1e-11)))
    pairs = [(a[0], b[0]) for a, b in found if len(a) == 1 and len(b) == 1]
    errs, compared = np.full(len(found) - len(pairs), np.inf), 0
    if pairs:
        (morse1, cov1), (morse2, cov2) = (
            _certified_covectors(fam, points)
            for fam, points in zip((fam1, fam2), zip(*pairs)))
        with np.errstate(all="ignore"):
            rel = _rel(np.max(np.abs(cov1 - cov2), axis=1),
                       np.max(np.abs(cov2), axis=1))
        morse = morse1 & morse2
        errs = np.concatenate([errs, np.where(morse, rel, np.inf)])
        compared = int(np.sum(morse))
    return _verdict(name, errs, cfg.tolerances.covector_match, n=compared)


def _certified_covectors(fam, points: Sequence[CriticalPoint]):
    """Which points have a full-rank mixed Hessian, and the covectors kappa
    generates at every point: one is_morse and one kappas call."""
    morse = np.array(is_morse(fam, points).ranks) == fam.fiber_dim
    return morse, np.array([gc.covector for gc in kappas(fam, points, tol=1e-10)])


@_sampled("morse.fam3.chart_residuals", "chart_battery")
def _fam3_chart_residuals(cfg: ScenarioConfig, rng) -> np.ndarray:
    """The multiplier family's values do not depend on which chart a
    momentum class was presented through: 5 classes, each re-presented
    through 20 random frames."""
    model = _model(cfg)
    phi = model.potential.at(Event(*cfg.initial_event))
    p, *frames = _draws(rng, 5, _NORMAL4, *[_FRAME] * 20)
    charted = _charted(model, p[:, None], np.stack(frames, axis=1))
    # fam3's value at multiplier 1: the reference-chart mass-shell residual
    ref, val = (mass_shell_residual_array(model.reference.spatial, model.mass,
                                          model.metric, phi, q)
                for q in (p[:, None], charted))
    return _rel(np.abs(val - ref), ref).ravel()


# --- suite assembly --------------------------------------------------------

def core_suite(cfg: ScenarioConfig) -> list[CheckResult]:
    return [
        check_sigma_antisymmetry(cfg),
        check_sigma_cocycle(cfg),
        check_sigma_pairing_formula(cfg),
    ]


def dynamics_suite(cfg: ScenarioConfig) -> list[CheckResult]:
    return [
        check_lagrangian_shift(cfg),
        check_legendre_fd(cfg),
        check_mass_shell(cfg),
        check_residual_preservation(cfg),
        check_energy_drift(cfg),
    ]


def affine_suite(cfg: ScenarioConfig) -> list[CheckResult]:
    results = check_chart_battery(cfg)
    results.append(check_w_axioms(cfg))
    results.append(check_unit_element(cfg))
    results.append(check_duality_rank(cfg))
    results.append(check_gamma_composite(cfg))
    return results


@_domain_errors
def suite_checks(cfg: ScenarioConfig, suite: str) -> list[CheckResult]:
    if suite == "core":
        return core_suite(cfg)
    if suite == "dynamics":
        return dynamics_suite(cfg)
    if suite == "affine":
        return affine_suite(cfg)
    if suite == "all":
        return core_suite(cfg) + dynamics_suite(cfg) + affine_suite(cfg)
    raise ValueError(f"unknown suite {suite!r}")
