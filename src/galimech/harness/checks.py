"""Config-driven invariant checks behind the CLI commands.

Every check draws its randomness from a generator seeded by the config
seed together with a CRC of the check's own name, so adding, removing, or
reordering checks never changes another check's samples, and two runs with
the same config are bit-identical.

A sampled check draws its samples block-wise: ``_draws`` lays the blocks
of every draw side by side as columns and fills them with one
``rng.random((n, U))`` call for the U uniform columns, then one
``rng.standard_normal((n, N))`` call for the N normal ones; sample i is
row i of each draw.  Which columns each call fills is planned once per
layout (``_plan``, cached on the layout tuple) and laid in by slices, so a
call pays only for its generator work; every draw is a view into the one
buffer, unit stride along a row and rows one buffer width apart, a layout
the ``SpatialMetric`` products hand to BLAS without a copy.  The identity
is then evaluated once over the whole sample axis through the array
kernels.  Row maxima of |x| over short rows go through
``galilean_core.maxabs``, an ``np.maximum`` fold over the columns, which
gives the bits of ``np.max(np.abs(x), axis=-1)``: a maximum is exact, NaN
propagates, and |x| holds no -0.0 whose sign the order could pick.  One driver, ``_sampled``, turns
the per-sample errors into the verdict: the largest error, NaN included,
so a single non-finite sample fails the check.  ``worst_index`` is the
flat index of that error (of the first NaN; with a count, of the first
mismatch), which ``_draws(_rng(cfg, name), n, *layout)`` replays, and
``nonfinite`` counts the NaN or infinite errors.

Relative errors throughout are measured against max(1, |reference|): the
quantities involved are order one in the stock scenarios, and the floor
keeps near-zero references from inflating rounding noise into failures.
"""

from __future__ import annotations

import functools
import zlib
from typing import Callable

import numpy as np

from ..galilean_core import (
    DomainError,
    SpatialMetric,
    maxabs,
    pair,
    pair_frame,
    sigma,
)
from ..frame_dynamics import (
    Potential,
    Trajectory,
    integrate,
    lagrangian_hom,
    lagrangian_inhom,
    legendre_hom,
    legendre_inhom,
    mass_shell_residual,
)
from ..generating_objects import (
    CriticalPoint,
    family_example31,
    family_fam1,
    family_fam2,
    is_morse,
    kappa,
    solve_critical_stack,
    vector_to_fiber,
)
from ..affine_phase import (
    REFERENCE_FRAME,
    W_UNIT,
    affine_lagrangian_array,
    alpha,
    beta_inv,
    dynamics_membership_universal_array,
    eval_affine_array,
    family_fam3,
    family_fam4,
    gamma,
    hamiltonian_fun_array,
    p_change_chart,
    pairing_array,
    psi_m_array,
    w_add_array,
    w_change_chart,
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
    "corrupted_sigma",
]

# Frames as spatial velocities (..., 3) in, covector components (..., 4) out.
SigmaFn = Callable[[SpatialMetric, np.ndarray, np.ndarray], np.ndarray]


def _rng(cfg: ScenarioConfig, name: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(name.encode())])


def _rel(err, ref):
    return err / np.maximum(1.0, np.abs(ref))


# Rounding a difference of computed momenta can carry, in eps |p| (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 2).
_ROUNDING_ULPS = 4


# What one sample draws, as blocks: (low, high, width) stands for
# rng.uniform(low, high, size=width), a bare width for rng.normal(size=width).
_FRAME = ((-1.5, 1.5, 3),)  # spatial velocity of a frame
_FUTURE = ((0.2, 2.0, 1), 3)  # future-directed vector
_NORMAL4 = (4,)  # event, vector or covector


@functools.cache
def _plan(draws: tuple) -> tuple:
    """How _draws fills a layout's (n, W) buffer, worked out once per
    layout: the uniform columns' low and high - low (read-only), the
    numbers of uniform and of normal columns, W, for each generator call
    the runs of adjacent buffer columns it fills as (buffer columns,
    generated columns) slice pairs, and each draw's column slice."""
    low, span, col = [], [], 0
    runs, taken = ([], []), [0, 0]  # uniform, then normal
    for block in (b for draw in draws for b in draw):
        normal = isinstance(block, int)
        width = block if normal else block[2]
        if not normal:
            low += [block[0]] * width
            span += [block[1] - block[0]] * width
        kind, start = runs[normal], taken[normal]
        if kind and kind[-1][1] == col:  # continues the run before it
            kind[-1][1] += width
            kind[-1][3] += width
        else:
            kind.append([col, col + width, start, start + width])
        taken[normal] += width
        col += width
    uniform_runs, normal_runs = (
        tuple((slice(a, b), slice(c, d)) for a, b, c, d in kind) for kind in runs)
    widths = [sum(b if isinstance(b, int) else b[2] for b in d) for d in draws]
    cuts = np.cumsum([0, *widths]).tolist()
    low, span = np.array(low), np.array(span)
    low.setflags(write=False)
    span.setflags(write=False)
    return (low, span, taken[0], taken[1], col, uniform_runs, normal_runs,
            tuple(slice(a, b) for a, b in zip(cuts, cuts[1:])))


def _draws(rng: np.random.Generator, n: int, *draws) -> list[np.ndarray]:
    """n samples of each draw, one (n, width) view per draw into one
    (n, W) buffer, from one rng.random call for all uniform columns,
    mapped to low + (high - low) * u, then one rng.standard_normal call
    for all normal columns, each laid into its column runs."""
    low, span, uniform, normal, width, uniform_runs, normal_runs, cols = \
        _plan(draws)
    out = np.empty((n, width))
    if uniform:
        u = rng.random((n, uniform))
        u *= span
        u += low
        for dst, src in uniform_runs:
            out[:, dst] = u[:, src]
    if normal:
        z = rng.standard_normal((n, normal))
        for dst, src in normal_runs:
            out[:, dst] = z[:, src]
    return [out[:, c] for c in cols]


def _initial_event(cfg: ScenarioConfig) -> tuple[np.ndarray, float]:
    """The configured initial event (4,) and the potential's value there."""
    x = np.array(cfg.initial_event)
    return x, float(cfg.build_potential().values(x[0], x[1:]))


def _potential_at(phi: Potential, x: np.ndarray) -> np.ndarray:
    """phi at each event of x (n, 4), NaN where the event's value raises
    an ArithmeticError, so that sample fails its check instead of ending
    the run."""
    return phi.at_events(x, lambda i, exc: np.nan)


def _verdict(name: str, errs: np.ndarray, tol: float, count: bool = False,
             n: int | None = None) -> CheckResult:
    """The largest error (with count, the number of mismatches) against
    tol, over n samples (by default one per error).  NaN propagates, so a
    non-finite error fails the check.  np.argmax gives the first largest
    error or NaN (with count, the first mismatch) as worst_index."""
    worst = np.sum(errs) if count else np.max(errs, initial=0.0)
    return CheckResult(name, worst, tol, errs.size if n is None else n,
                       int(np.argmax(errs)) if errs.size else None,
                       int(np.count_nonzero(~np.isfinite(errs))))


def _sampled(name: str, tol: str | float, count: bool = False):
    """The driver of the sampled checks.

    Decorates errors(cfg, rng, *args), which draws the check's samples from
    the check's own rng stream and returns one error per sample (with
    count, one mismatch flag).  tol names a Tolerances field or is the
    tolerance itself.  A non-finite error fails the verdict.
    """
    def decorate(errors):
        @functools.wraps(errors)
        def check(cfg: ScenarioConfig, *args, **kwargs) -> CheckResult:
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
    s = sigma(g, u_prime, u)
    return np.concatenate([1.001 * s[..., :1] + 1e-3, s[..., 1:]], axis=-1)


# --- core: structure of the frame-shift covector ---------------------------

@_sampled("sigma.antisymmetry", "cocycle")
def check_sigma_antisymmetry(cfg: ScenarioConfig, rng) -> np.ndarray:
    g = cfg.build_metric()
    a, b = _draws(rng, 1000, _FRAME, _FRAME)
    return maxabs(sigma(g, a, b) + sigma(g, b, a))


@_sampled("sigma.cocycle", "cocycle")
def check_sigma_cocycle(cfg: ScenarioConfig, rng) -> np.ndarray:
    g = cfg.build_metric()
    u1, u2, u3 = _draws(rng, 1000, _FRAME, _FRAME, _FRAME)
    direct = sigma(g, u3, u1)
    chained = sigma(g, u3, u2) + sigma(g, u2, u1)
    return _rel(maxabs(direct - chained), maxabs(direct))


@_sampled("sigma.pairing_formula", "cocycle")
def check_sigma_pairing_formula(cfg: ScenarioConfig, rng) -> np.ndarray:
    """Dual route for <sigma(u',u), v>: lowered difference paired with the
    mid-frame-corrected vector."""
    g = cfg.build_metric()
    u_prime, u, v = _draws(rng, 1000, _FRAME, _FRAME, _NORMAL4)
    via_sigma = pair(sigma(g, u_prime, u), v)
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
    lhs = lagrangian_hom(u, m, g, phi, v) \
        - lagrangian_hom(u_prime, m, g, phi, v)
    rhs = m * pair(sigma(g, u_prime, u), v)
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
        lambda w: lagrangian_inhom(u0[:, None], m, g, phi0[:, None], w), w)
    fd_hom = _central_differences(
        lambda v: lagrangian_hom(u1[:, None], m, g, phi1[:, None], v), v)
    errs = [_rel(maxabs(analytic - fd), maxabs(fd)) for analytic, fd in (
        (legendre_inhom(u0, m, g, w), fd_inhom),
        (legendre_hom(u1, m, g, phi1, v), fd_hom))]
    return np.concatenate(errs)


@_sampled("mass_shell.on_shell_residual", "mass_shell")
def check_mass_shell(cfg: ScenarioConfig, rng) -> np.ndarray:
    """Fiber-derivative momenta land on the energy constraint."""
    g, m = cfg.build_metric(), cfg.mass
    u, x, v = _draws(rng, 500, _FRAME, _NORMAL4, _FUTURE)
    phi = _potential_at(cfg.build_potential(), x)
    p = legendre_hom(u, m, g, phi, v)
    return np.abs(mass_shell_residual(u, m, g, phi, p))


@_sampled("boost.residual_preservation", "residual_preservation")
def check_residual_preservation(cfg: ScenarioConfig, rng,
                                sigma_fn: SigmaFn) -> np.ndarray:
    """Momentum carried between frames keeps its mass-shell residual."""
    g, m = cfg.build_metric(), cfg.mass
    u_prime, u, x, p = _draws(rng, 500, _FRAME, _FRAME, _NORMAL4, _NORMAL4)
    phi = _potential_at(cfg.build_potential(), x)
    before = mass_shell_residual(u_prime, m, g, phi, p)
    carried = p + m * sigma_fn(g, u_prime, u)
    after = mass_shell_residual(u, m, g, phi, carried)
    return _rel(np.abs(after - before), before)


def _cumulative_simpson(f: np.ndarray, h: float) -> np.ndarray:
    """The integral of samples f (n+1,), h apart, from the first sample to
    each one: composite Simpson to every even step, Simpson to three steps
    back and the 3/8 rule over the last three to every odd step from 3,
    and h/12 (5 f0 + 8 f1 - f2) to step 1 (the trapezoid when n = 1)."""
    out = np.zeros(len(f))
    if len(f) < 3:
        out[1:] = h / 2.0 * (f[:1] + f[1:])
        return out
    out[2::2] = np.cumsum(h / 3.0 * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2]))
    out[1] = h / 12.0 * (5.0 * f[0] + 8.0 * f[1] - f[2])
    k = np.arange(3, len(f), 2)
    out[k] = out[k - 3] + 3.0 * h / 8.0 * (
        f[k - 3] + 3.0 * f[k - 2] + 3.0 * f[k - 1] + f[k])
    return out


def check_energy_drift(cfg: ScenarioConfig) -> CheckResult:
    """Energy balance along the integrated scenario in its first frame u.

    The energy E = |p|^2 / 2m + phi in frame u changes at the rate of the
    potential along the frame's own world line, <d phi, (1, u)>: its time
    derivative plus its spatial derivative along u.  The check compares
    E(t_k) - E(0) with the integral of that rate over the integrated
    points, by ``_cumulative_simpson``.  The rate is exactly 0 for a
    potential without a time derivative seen from a frame at rest, u = 0;
    there it is not evaluated, and the check is one of conservation.
    """
    g = cfg.build_metric()
    phi = cfg.build_potential()
    u = cfg.build_frames()[0]
    traj = integrate(u, cfg.mass, g, phi, cfg.initial_state(u), cfg.h, cfg.n)
    energies = traj.energies(g, phi)
    change = energies - energies[0]
    if phi.time is not None or u.any():
        rate = pair_frame(phi.d(np.column_stack([traj.t, traj.q[:, 0]])), u)
        change -= _cumulative_simpson(rate, traj.h)
    errs = _rel(np.abs(change), energies[0])
    return _verdict("energy.drift", errs, cfg.tolerances.energy_drift)


# --- boost-check: end-to-end frame independence ----------------------------

def frame_trajectories(cfg: ScenarioConfig) -> Trajectory:
    """The configured initial world state integrated in every configured
    frame, all frames in one pass."""
    frames = cfg.build_frames()
    return integrate(frames, cfg.mass, cfg.build_metric(),
                     cfg.build_potential(), cfg.initial_state(frames),
                     cfg.h, cfg.n)


def check_world_lines(cfg: ScenarioConfig, traj: Trajectory) -> CheckResult:
    """The same initial world state integrated in every frame of traj traces
    the same events.  The frames share the time column, so the events
    differ only in position."""
    name = "world_line.agreement"
    tol = cfg.tolerances.world_line_free if cfg.potential.kind == "free" \
        else cfg.tolerances.world_line_bound
    scale = max(float(np.max(np.abs(traj.t))),
                float(np.max(np.abs(traj.q[:, 0]))))
    errs = maxabs(traj.q[:, 1:] - traj.q[:, :1])
    return _verdict(name, _rel(errs, scale).ravel(), tol)


def check_momentum_offset(cfg: ScenarioConfig, traj: Trajectory) -> CheckResult:
    """Between two frames of traj the spatial momenta differ by the
    constant m g(u' - u) along the entire trajectory.  Each sample's error
    first loses the _ROUNDING_ULPS eps max|p| that momenta of size |p|
    carry however the offset compares, then is scaled by the offset."""
    name = "momentum.offset_constant"
    g = cfg.build_metric()
    expected = cfg.mass * g.apply(traj.frames[1:] - traj.frames[0])
    p0, p = traj.p[:, :1], traj.p[:, 1:]
    rounding = _ROUNDING_ULPS * np.finfo(float).eps \
        * np.maximum(maxabs(p0), maxabs(p))
    errs = np.maximum(maxabs((p0 - p) - expected) - rounding, 0.0)
    return _verdict(name, _rel(errs, maxabs(expected)).ravel(),
                    cfg.tolerances.momentum_offset)


def boost_checks(cfg: ScenarioConfig, sigma_fn: SigmaFn) -> list[CheckResult]:
    traj = frame_trajectories(cfg)
    return [
        check_world_lines(cfg, traj),
        check_momentum_offset(cfg, traj),
        check_residual_preservation(cfg, sigma_fn),
    ]


# --- affine: chart independence of the quotient constructions --------------

def _charted(m: float, g: SpatialMetric, p, u: np.ndarray) -> np.ndarray:
    """Momentum classes, given by representatives p (..., 4), presented
    through the chart of the frames with spatial velocities u (..., 3) and
    back, which exercises the relation the quotient is built on."""
    ref = REFERENCE_FRAME
    return p_change_chart(m, g, p_change_chart(m, g, p, ref, u), u, ref)


def _chart_samples(cfg: ScenarioConfig, rng):
    """The mass and metric, the configured initial event with the
    potential value there, and 1000 random frames."""
    x, phi = _initial_event(cfg)
    (u,) = _draws(rng, 1000, _FRAME)
    return cfg.mass, cfg.build_metric(), x, phi, u


@_sampled("affine.chart.eval_affine", "chart_battery")
def _chart_eval_affine(cfg: ScenarioConfig, rng) -> np.ndarray:
    m, g, _, _, u = _chart_samples(cfg, rng)
    w = np.array([1.0, 0.5, -0.3, 0.2, 0.4])
    p = np.array([-0.2, 0.7, 0.1, -0.5])
    ref = eval_affine_array(w, p)
    w_u = w_change_chart(m, g, w, REFERENCE_FRAME, u)
    val = eval_affine_array(w_change_chart(m, g, w_u, u, REFERENCE_FRAME),
                            _charted(m, g, p, u))
    return _rel(np.abs(val - ref), ref)


@_sampled("affine.chart.pairing", "chart_battery")
def _chart_pairing(cfg: ScenarioConfig, rng) -> np.ndarray:
    m, g, _, _, u = _chart_samples(cfg, rng)
    p = np.array([0.3, -0.4, 0.8, 0.1])
    v = np.array([1.0, 0.2, -0.6, 0.9])
    ref = pairing_array(p, v)[4]
    p_u = p_change_chart(m, g, p, REFERENCE_FRAME, u)
    rebuilt = w_change_chart(m, g, pairing_array(p_u, v), u, REFERENCE_FRAME)
    return _rel(np.abs(rebuilt[:, 4] - ref), ref)


@_sampled("affine.chart.psi_m", "chart_battery")
def _chart_psi_m(cfg: ScenarioConfig, rng) -> np.ndarray:
    m, g, _, _, u = _chart_samples(cfg, rng)
    p = np.array([0.4, -0.3, 0.8, 0.2])
    ref = psi_m_array(m, g, p)
    val = psi_m_array(m, g, _charted(m, g, p, u))
    return _rel(np.abs(val - ref), ref)


@_sampled("affine.chart.affine_lagrangian", "chart_battery")
def _chart_affine_lagrangian(cfg: ScenarioConfig, rng) -> np.ndarray:
    m, g, _, phi, u = _chart_samples(cfg, rng)
    v = np.array([0.8, 0.4, -0.2, 0.6])
    ref = affine_lagrangian_array(m, g, phi, v)[4]
    l_u = lagrangian_hom(u, m, g, phi, v)
    rebuilt = w_change_chart(m, g, w_pack(v, l_u), u, REFERENCE_FRAME)
    return _rel(np.abs(rebuilt[:, 4] - ref), ref)


@_sampled("affine.chart.hamiltonian_fun", "chart_battery")
def _chart_hamiltonian_fun(cfg: ScenarioConfig, rng) -> np.ndarray:
    m, g, _, phi, u = _chart_samples(cfg, rng)
    v = np.array([1.0, 0.3, -0.5, 0.2])
    p = np.array([0.6, -0.1, 0.4, -0.7])
    ref = hamiltonian_fun_array(m, g, phi, v, p)
    val = hamiltonian_fun_array(m, g, phi, v, _charted(m, g, p, u))
    return _rel(np.abs(val - ref), ref)


# Membership is boolean, so agreement is counted, not measured.
@_sampled("affine.chart.membership", 0.0, count=True)
def _chart_membership(cfg: ScenarioConfig, rng) -> np.ndarray:
    m, g, x, phi, u = _chart_samples(cfg, rng)
    v = np.array([1.0, 0.4, -0.1, 0.3])
    p_on = legendre_hom(REFERENCE_FRAME, m, g, phi, v)
    p_off = p_on.copy()
    p_off[0] += 1.0
    dphi = cfg.build_potential().d(x)
    got = dynamics_membership_universal_array(
        m, g, phi, dphi, _charted(m, g, np.stack([p_on, p_off]), u[:, None]),
        v, -dphi, 1e-9)
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
    return np.max([_rel(maxabs(lhs - rhs), maxabs(rhs))
                   for lhs, rhs in laws], axis=0)


@_sampled("affine.unit_evaluates_one", 0.0)
def check_unit_element(cfg: ScenarioConfig, rng) -> np.ndarray:
    """The distinguished unit evaluates to exactly 1 on every momentum."""
    (p,) = _draws(rng, 200, _NORMAL4)
    return np.abs(eval_affine_array(W_UNIT.w, p) - 1.0)


def check_duality_rank(cfg: ScenarioConfig) -> CheckResult:
    """Evaluation against five generic momenta separates a basis of W."""
    name = "affine.duality_rank"
    rng = _rng(cfg, name)
    ws = np.concatenate([np.eye(4, 5), W_UNIT.w[None]])
    mat = eval_affine_array(ws[:, None], rng.normal(size=(5, 4)))
    rank = int(np.linalg.matrix_rank(mat, tol=1e-10))
    return CheckResult(name, float(abs(5 - rank)), 0.0, 25)


@_sampled("affine.gamma_composite", 0.0, count=True)
def check_gamma_composite(cfg: ScenarioConfig, rng) -> np.ndarray:
    """The momentum-side map factors exactly through the other two."""
    element = tuple(_draws(rng, 100, *[_NORMAL4] * 4))
    return np.any([np.any(a != b, axis=-1) for a, b in
                   zip(gamma(element), alpha(beta_inv(element)))], axis=0)


# --- morse-check: generating families --------------------------------------

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


def _on_shell_samples(cfg: ScenarioConfig, u: np.ndarray, rng, count: int):
    """Bases (count, 8) on the constraint set, with the fibers (count, 4)
    of the velocities that put them there.  A non-finite base is the
    solver's to judge."""
    x, v = _draws(rng, count, _NORMAL4, _FUTURE)
    phi = _potential_at(cfg.build_potential(), x)
    p = legendre_hom(u, cfg.mass, cfg.build_metric(), phi, v)
    return np.concatenate([x, p], axis=1), vector_to_fiber(v)


def _rank_check(name: str, fam, points: CriticalPoint,
                required: int) -> CheckResult:
    return _verdict(name, np.abs(is_morse(fam, points) - required), 0.0)


@_domain_errors
def morse_checks(cfg: ScenarioConfig, family: str) -> list[CheckResult]:
    """Rank and cross-equivalence checks for one named family."""
    g = cfg.build_metric()
    phi = cfg.build_potential()
    u = cfg.build_frames()[0]
    rng = _rng(cfg, f"morse.{family}")
    results: list[CheckResult] = []

    if family == "example31":
        stiffness = cfg.potential.k if cfg.potential.kind == "harmonic" else 1.0
        fam = family_example31(cfg.mass, stiffness)
        points = solve_critical_stack(fam, rng.normal(size=(100, 6)),
                                      [np.zeros(3)], tol=1e-11)
        results.append(_rank_check("morse.example31.rank", fam, points, 3))
        return results

    if family in ("fam1", "fam4"):
        fam = family_fam1(u, cfg.mass, g, phi) if family == "fam1" \
            else family_fam4(cfg.mass, g, phi)
        anchor = REFERENCE_FRAME if family == "fam4" else u
        bases, fibers = _on_shell_samples(cfg, anchor, rng, 25)
        points = solve_critical_stack(fam, bases, fibers[:, None], tol=1e-10)
        results.append(_rank_check(f"morse.{family}.rank", fam, points, 4))
        if family == "fam1":
            results.append(_fam1_vs_fam2(cfg, u))
        return results

    if family in ("fam2", "fam3"):
        if not np.isfinite(_initial_event(cfg)[1]):
            raise DomainError(f"{family}: potential not finite at the initial event")
        fam = family_fam2(u, cfg.mass, g, phi) if family == "fam2" \
            else family_fam3(cfg.mass, g, phi)
        anchor = REFERENCE_FRAME if family == "fam3" else u
        bases, _ = _on_shell_samples(cfg, anchor, rng, 25)
        points = CriticalPoint(bases, np.ones((len(bases), 1)))
        results.append(_rank_check(f"morse.{family}.rank", fam, points, 1))
        if family == "fam3":
            results.append(_fam3_chart_residuals(cfg))
        return results

    raise ValueError(f"unknown family {family!r}")


def _fam1_vs_fam2(cfg: ScenarioConfig, u: np.ndarray) -> CheckResult:
    """The velocity-fiber and multiplier-fiber families generate the same
    covectors over a shared on-shell grid.

    Each family solves every grid base from its own seed in one stacked
    Newton.  The grid bases where each family finds exactly one point are
    read from the points' owners with np.bincount; those points are
    certified in one is_morse call per family and mapped through kappa in
    one stacked call.  A grid base where a family finds no single Morse
    point has an infinite error and is not counted.
    """
    name = "morse.fam1.vs_fam2"
    g = cfg.build_metric()
    phi = cfg.build_potential()
    fam1 = family_fam1(u, cfg.mass, g, phi)
    fam2 = family_fam2(u, cfg.mass, g, phi)
    x, phi_x = _initial_event(cfg)
    v1, v2 = np.meshgrid(np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 0.5, 5),
                         indexing="ij")
    v = np.stack([np.ones(25), v1.ravel(), v2.ravel(), np.full(25, 0.2)], axis=1)
    p = legendre_hom(u, cfg.mass, g, phi_x, v)
    bases = np.concatenate([np.broadcast_to(x, p.shape), p], axis=1)
    found = (
        solve_critical_stack(fam1, bases, vector_to_fiber(v)[:, None], tol=1e-11),
        solve_critical_stack(fam2, bases, [[1.0]], tol=1e-11))
    single = np.logical_and(*(np.bincount(pts.owner, minlength=len(bases)) == 1
                              for pts in found))
    (morse1, cov1), (morse2, cov2) = (
        _certified_covectors(fam, pts[single[pts.owner]])
        for fam, pts in zip((fam1, fam2), found))
    rel = _rel(maxabs(cov1 - cov2), maxabs(cov2))
    morse = morse1 & morse2
    errs = np.full(len(bases), np.inf)
    errs[single] = np.where(morse, rel, np.inf)
    return _verdict(name, errs, cfg.tolerances.covector_match,
                    n=int(np.sum(morse)))


def _certified_covectors(fam, points: CriticalPoint):
    """Which points have a full-rank mixed Hessian, and the covectors kappa
    generates at every point: one is_morse and one kappa call."""
    morse = is_morse(fam, points) == fam.fiber_dim
    return morse, kappa(fam, points, tol=1e-10)


@_sampled("morse.fam3.chart_residuals", "chart_battery")
def _fam3_chart_residuals(cfg: ScenarioConfig, rng) -> np.ndarray:
    """The multiplier family's values do not depend on which chart a
    momentum class was presented through: 5 classes, each re-presented
    through 20 random frames."""
    m, g = cfg.mass, cfg.build_metric()
    phi = _initial_event(cfg)[1]
    p, *frames = _draws(rng, 5, _NORMAL4, *[_FRAME] * 20)
    charted = _charted(m, g, p[:, None], np.stack(frames, axis=1))
    # fam3's value at multiplier 1: the reference-chart mass-shell residual
    ref, val = (mass_shell_residual(REFERENCE_FRAME, m, g, phi, q)
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
        check_residual_preservation(cfg, sigma),
        check_energy_drift(cfg),
    ]


def affine_suite(cfg: ScenarioConfig) -> list[CheckResult]:
    return check_chart_battery(cfg) + [
        check_w_axioms(cfg), check_unit_element(cfg), check_duality_rank(cfg),
        check_gamma_composite(cfg)]


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
