"""Config-driven invariant checks behind the CLI commands.

Every check draws its randomness from a generator seeded by the config
seed together with a CRC of the check's own name, so adding, removing, or
reordering checks never changes another check's samples, and two runs with
the same config are bit-identical.

Relative errors throughout are measured against max(1, |reference|): the
quantities involved are order one in the stock scenarios, and the floor
keeps near-zero references from inflating rounding noise into failures.
"""

from __future__ import annotations

import zlib
from typing import Callable, Sequence

import numpy as np

from ..galilean_core import (
    Covector4,
    Event,
    Frame,
    SpatialMetric,
    TAU,
    Vector4,
    sigma,
)
from ..frame_dynamics import (
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
    generate,
    is_morse,
    solve_critical,
    state_to_base,
    vector_to_fiber,
)
from ..affine_phase import (
    NewtonModel,
    PElement,
    W_UNIT,
    WElement,
    affine_lagrangian,
    alpha,
    beta_inv,
    dynamics_membership_universal,
    eval_affine,
    family_fam3,
    family_fam4,
    gamma,
    hamiltonian_fun,
    pairing,
    psi_m,
    w_add,
    w_scale,
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

SigmaFn = Callable[[SpatialMetric, Frame, Frame], Covector4]


def _rng(cfg: ScenarioConfig, name: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(name.encode())])


def _rel(err: float, ref: float) -> float:
    return err / max(1.0, abs(ref))


def _random_frame(rng: np.random.Generator) -> Frame:
    return Frame.from_spatial(rng.uniform(-1.5, 1.5, size=3))


def _random_future(rng: np.random.Generator) -> Vector4:
    return Vector4(float(rng.uniform(0.2, 2.0)), *rng.normal(size=3))


def _random_event(rng: np.random.Generator) -> Event:
    return Event(*rng.normal(size=4))


def _model(cfg: ScenarioConfig) -> NewtonModel:
    return NewtonModel(cfg.mass, cfg.build_metric(), cfg.build_potential())


def corrupted_sigma(g: SpatialMetric, u_prime: Frame, u: Frame) -> Covector4:
    """Deliberately wrong frame-shift covector for negative-control runs:
    the time component is scaled, which breaks residual preservation at a
    level far above every tolerance."""
    s = sigma(g, u_prime, u)
    return Covector4(1.001 * s.a0 + 1e-3, s.a1, s.a2, s.a3)


# --- core: structure of the frame-shift covector ---------------------------

def check_sigma_antisymmetry(cfg: ScenarioConfig) -> CheckResult:
    name = "sigma.antisymmetry"
    rng = _rng(cfg, name)
    g = cfg.build_metric()
    n = 1000
    worst = 0.0
    for _ in range(n):
        a, b = _random_frame(rng), _random_frame(rng)
        forward = sigma(g, a, b).as_array()
        backward = sigma(g, b, a).as_array()
        worst = max(worst, float(np.max(np.abs(forward + backward))))
    return CheckResult(name, worst, cfg.tolerances.cocycle, n)


def check_sigma_cocycle(cfg: ScenarioConfig) -> CheckResult:
    name = "sigma.cocycle"
    rng = _rng(cfg, name)
    g = cfg.build_metric()
    n = 1000
    worst = 0.0
    for _ in range(n):
        u1, u2, u3 = (_random_frame(rng) for _ in range(3))
        direct = sigma(g, u3, u1).as_array()
        chained = sigma(g, u3, u2).as_array() + sigma(g, u2, u1).as_array()
        err = float(np.max(np.abs(direct - chained)))
        worst = max(worst, _rel(err, float(np.max(np.abs(direct)))))
    return CheckResult(name, worst, cfg.tolerances.cocycle, n)


def check_sigma_pairing_formula(cfg: ScenarioConfig) -> CheckResult:
    """Dual route for <sigma(u',u), v>: lowered difference paired with the
    mid-frame-corrected vector."""
    name = "sigma.pairing_formula"
    rng = _rng(cfg, name)
    g = cfg.build_metric()
    n = 1000
    worst = 0.0
    for _ in range(n):
        u_prime, u = _random_frame(rng), _random_frame(rng)
        v = Vector4(*rng.normal(size=4))
        via_sigma = sigma(g, u_prime, u).pair(v)
        diff = g.apply(u_prime.spatial - u.spatial)
        tv = TAU.pair(v)
        corrected = v.spatial - 0.5 * tv * (u.spatial + u_prime.spatial)
        direct = float(diff @ corrected)
        worst = max(worst, _rel(abs(via_sigma - direct), direct))
    return CheckResult(name, worst, cfg.tolerances.cocycle, n)


# --- dynamics: frame mechanics --------------------------------------------

def check_lagrangian_shift(cfg: ScenarioConfig) -> CheckResult:
    """Frame difference of lagrangian values equals the sigma pairing."""
    name = "lagrangian.shift_identity"
    rng = _rng(cfg, name)
    g = cfg.build_metric()
    phi = cfg.build_potential()
    n = 1000
    worst = 0.0
    for _ in range(n):
        u, u_prime = _random_frame(rng), _random_frame(rng)
        v = _random_future(rng)
        x = _random_event(rng)
        lhs = lagrangian_hom(u, cfg.mass, g, phi, x, v) \
            - lagrangian_hom(u_prime, cfg.mass, g, phi, x, v)
        rhs = cfg.mass * sigma(g, u_prime, u).pair(v)
        worst = max(worst, _rel(abs(lhs - rhs), rhs))
    return CheckResult(name, worst, cfg.tolerances.lagrangian_shift, n)


def check_legendre_fd(cfg: ScenarioConfig) -> CheckResult:
    """Momentum maps against central differences of their lagrangians."""
    name = "legendre.fd_consistency"
    rng = _rng(cfg, name)
    g = cfg.build_metric()
    phi = cfg.build_potential()
    m = cfg.mass
    worst = 0.0
    n = 500
    for i in range(n):
        u = _random_frame(rng)
        x = _random_event(rng)
        if i % 2 == 0:
            w = Frame.from_spatial(rng.normal(size=3))
            analytic = legendre_inhom(u, m, g, w)
            fd = np.empty(3)
            for j in range(3):
                step = 1e-6 * (1.0 + abs(w.spatial[j]))
                plus, minus = w.spatial.copy(), w.spatial.copy()
                plus[j] += step
                minus[j] -= step
                fd[j] = (lagrangian_inhom(u, m, g, phi, x,
                                          Frame.from_spatial(plus)) -
                         lagrangian_inhom(u, m, g, phi, x,
                                          Frame.from_spatial(minus))) \
                    / (2.0 * step)
        else:
            v = _random_future(rng)
            analytic = legendre_hom(u, m, g, phi, x, v).as_array()
            coords = v.as_array()
            fd = np.empty(4)
            for j in range(4):
                step = 1e-6 * (1.0 + abs(coords[j]))
                plus, minus = coords.copy(), coords.copy()
                plus[j] += step
                minus[j] -= step
                fd[j] = (lagrangian_hom(u, m, g, phi, x,
                                        Vector4.from_array(plus)) -
                         lagrangian_hom(u, m, g, phi, x,
                                        Vector4.from_array(minus))) \
                    / (2.0 * step)
        err = float(np.max(np.abs(np.asarray(analytic) - fd)))
        worst = max(worst, _rel(err, float(np.max(np.abs(fd)))))
    return CheckResult(name, worst, cfg.tolerances.legendre_fd, n)


def check_mass_shell(cfg: ScenarioConfig) -> CheckResult:
    """Fiber-derivative momenta land on the energy constraint."""
    name = "mass_shell.on_shell_residual"
    rng = _rng(cfg, name)
    g = cfg.build_metric()
    phi = cfg.build_potential()
    n = 500
    worst = 0.0
    for _ in range(n):
        u = _random_frame(rng)
        x = _random_event(rng)
        v = _random_future(rng)
        p = legendre_hom(u, cfg.mass, g, phi, x, v)
        worst = max(worst, abs(mass_shell_residual(u, cfg.mass, g, phi, x, p)))
    return CheckResult(name, worst, cfg.tolerances.mass_shell, n)


def check_residual_preservation(cfg: ScenarioConfig,
                                sigma_fn: SigmaFn = sigma) -> CheckResult:
    """Momentum carried between frames keeps its mass-shell residual."""
    name = "boost.residual_preservation"
    rng = _rng(cfg, name)
    g = cfg.build_metric()
    phi = cfg.build_potential()
    n = 500
    worst = 0.0
    for _ in range(n):
        u_prime, u = _random_frame(rng), _random_frame(rng)
        x = _random_event(rng)
        p = Covector4(*rng.normal(size=4))
        before = mass_shell_residual(u_prime, cfg.mass, g, phi, x, p)
        carried = p + cfg.mass * sigma_fn(g, u_prime, u)
        after = mass_shell_residual(u, cfg.mass, g, phi, x, carried)
        worst = max(worst, _rel(abs(after - before), before))
    return CheckResult(name, worst, cfg.tolerances.residual_preservation, n)


def check_energy_drift(cfg: ScenarioConfig) -> CheckResult:
    """Conserved energy along the integrated scenario in its first frame.

    Meaningful for time-independent potentials; a custom expression using t
    will fail this check by physics, not by bug.
    """
    name = "energy.drift"
    g = cfg.build_metric()
    phi = cfg.build_potential()
    u = Frame.from_spatial(cfg.frames[0])
    traj = integrate(u, cfg.mass, g, phi, cfg.initial_state(u), cfg.h, cfg.n)
    energies = traj.energies(g, phi)
    first = energies[0]
    worst = max(_rel(abs(e - first), first) for e in energies)
    return CheckResult(name, worst, cfg.tolerances.energy_drift, cfg.n + 1)


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
    worst = max((_rel(float(err), float(np.max(np.abs(ref))))
                 for err, ref in zip(errs, expected)), default=0.0)
    return CheckResult(name, worst, cfg.tolerances.momentum_offset,
                       len(others) * len(traj))


def boost_checks(cfg: ScenarioConfig,
                 sigma_fn: SigmaFn = sigma) -> list[CheckResult]:
    traj = frame_trajectories(cfg)
    return [
        check_world_lines(cfg, traj),
        check_momentum_offset(cfg, traj),
        check_residual_preservation(cfg, sigma_fn),
    ]


# --- affine: chart independence of the quotient constructions --------------

def _charted_class(model: NewtonModel, pp: PElement, u: Frame) -> PElement:
    """Round the class through the chart of u and back, exercising the
    relation the quotient is built on."""
    return PElement.from_chart(model, pp.in_chart(model, u), u)


def check_chart_battery(cfg: ScenarioConfig) -> list[CheckResult]:
    """Re-run each quotient operation with all inputs presented through a
    random chart; values must agree with the canonical-chart evaluation."""
    model = _model(cfg)
    x = Event(*cfg.initial_event)
    results = []
    n = 1000

    specs: list[tuple[str, Callable[[np.random.Generator], float]]] = []

    def eval_case(rng):
        w = WElement(Vector4(1.0, 0.5, -0.3, 0.2), 0.4)
        pp = PElement(Covector4(-0.2, 0.7, 0.1, -0.5))
        ref = eval_affine(model, w, pp)
        u = _random_frame(rng)
        v_u, r_u = w.in_chart(model, u)
        val = eval_affine(model, WElement.from_chart(model, v_u, r_u, u),
                          _charted_class(model, pp, u))
        return _rel(abs(val - ref), ref)
    specs.append(("affine.chart.eval_affine", eval_case))

    def pairing_case(rng):
        pp = PElement(Covector4(0.3, -0.4, 0.8, 0.1))
        v = Vector4(1.0, 0.2, -0.6, 0.9)
        ref = pairing(model, pp, v)
        u = _random_frame(rng)
        p_u = pp.in_chart(model, u)
        rebuilt = WElement.from_chart(model, v, p_u.pair(v), u)
        return _rel(abs(rebuilt.r - ref.r), ref.r)
    specs.append(("affine.chart.pairing", pairing_case))

    def psi_case(rng):
        pp = PElement(Covector4(0.4, -0.3, 0.8, 0.2))
        ref = psi_m(model, x, pp)
        u = _random_frame(rng)
        val = psi_m(model, x, _charted_class(model, pp, u))
        return _rel(abs(val - ref), ref)
    specs.append(("affine.chart.psi_m", psi_case))

    def lagrangian_case(rng):
        v = Vector4(0.8, 0.4, -0.2, 0.6)
        ref = affine_lagrangian(model, x, v)
        u = _random_frame(rng)
        l_u = lagrangian_hom(u, model.mass, model.metric, model.potential,
                             x, v)
        rebuilt = WElement.from_chart(model, v, l_u, u)
        return _rel(abs(rebuilt.r - ref.r), ref.r)
    specs.append(("affine.chart.affine_lagrangian", lagrangian_case))

    def hamiltonian_case(rng):
        v = Vector4(1.0, 0.3, -0.5, 0.2)
        pp = PElement(Covector4(0.6, -0.1, 0.4, -0.7))
        ref = hamiltonian_fun(model, x, v, pp)
        u = _random_frame(rng)
        val = hamiltonian_fun(model, x, v, _charted_class(model, pp, u))
        return _rel(abs(val - ref), ref)
    specs.append(("affine.chart.hamiltonian_fun", hamiltonian_case))

    for name, case in specs:
        rng = _rng(cfg, name)
        worst = max(case(rng) for _ in range(n))
        results.append(CheckResult(name, worst, cfg.tolerances.chart_battery, n))

    # Membership is boolean, so agreement is counted, not measured.
    name = "affine.chart.membership"
    rng = _rng(cfg, name)
    v = Vector4(1.0, 0.4, -0.1, 0.3)
    p_on = legendre_hom(model.reference, model.mass, model.metric,
                        model.potential, x, v)
    pdot = -model.potential.d(x)
    p_off = Covector4(p_on.a0 + 1.0, p_on.a1, p_on.a2, p_on.a3)
    mismatches = 0
    for _ in range(n):
        u = _random_frame(rng)
        for pp, expected in ((PElement(p_on), True), (PElement(p_off), False)):
            got = dynamics_membership_universal(
                model, (x, _charted_class(model, pp, u), v, pdot), 1e-9)
            mismatches += int(got != expected)
    results.append(CheckResult(name, float(mismatches), 0.0, 2 * n))
    return results


def check_w_axioms(cfg: ScenarioConfig) -> CheckResult:
    """Vector-space laws for the lagrangian-value space on random triples."""
    name = "affine.w_axioms"
    rng = _rng(cfg, name)
    model = _model(cfg)
    n = 1000
    worst = 0.0

    def rand_w():
        return WElement(Vector4(*rng.normal(size=4)), float(rng.normal()))

    for _ in range(n):
        a, b, c = rand_w(), rand_w(), rand_w()
        s, t = float(rng.normal()), float(rng.normal())
        comm_l, comm_r = w_add(model, a, b), w_add(model, b, a)
        assoc_l = w_add(model, w_add(model, a, b), c)
        assoc_r = w_add(model, a, w_add(model, b, c))
        dist_l = w_scale(model, s, w_add(model, a, b))
        dist_r = w_add(model, w_scale(model, s, a), w_scale(model, s, b))
        nest_l = w_scale(model, s, w_scale(model, t, a))
        nest_r = w_scale(model, s * t, a)
        for lhs, rhs in ((comm_l, comm_r), (assoc_l, assoc_r),
                         (dist_l, dist_r), (nest_l, nest_r)):
            err = max(float(np.max(np.abs(lhs.v.as_array() - rhs.v.as_array()))),
                      abs(lhs.r - rhs.r))
            scale = max(float(np.max(np.abs(rhs.v.as_array()))), abs(rhs.r))
            worst = max(worst, _rel(err, scale))
    return CheckResult(name, worst, cfg.tolerances.chart_battery, n)


def check_unit_element(cfg: ScenarioConfig) -> CheckResult:
    """The distinguished unit evaluates to exactly 1 on every momentum."""
    name = "affine.unit_evaluates_one"
    rng = _rng(cfg, name)
    model = _model(cfg)
    n = 200
    worst = 0.0
    for _ in range(n):
        pp = PElement(Covector4(*rng.normal(size=4)))
        worst = max(worst, abs(eval_affine(model, W_UNIT, pp) - 1.0))
    return CheckResult(name, worst, 0.0, n)


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


def check_gamma_composite(cfg: ScenarioConfig) -> CheckResult:
    """The momentum-side map factors exactly through the other two."""
    name = "affine.gamma_composite"
    rng = _rng(cfg, name)
    n = 100
    mismatches = 0
    for _ in range(n):
        element = (Event(*rng.normal(size=4)),
                   PElement(Covector4(*rng.normal(size=4))),
                   Covector4(*rng.normal(size=4)),
                   Vector4(*rng.normal(size=4)))
        mismatches += int(gamma(element) != alpha(beta_inv(element)))
    return CheckResult(name, float(mismatches), 0.0, n)


# --- morse-check: generating families --------------------------------------

MORSE_FAMILIES = ("fam1", "fam2", "fam3", "fam4", "example31")


def _on_shell_samples(cfg: ScenarioConfig, u: Frame, rng, count: int):
    """Bases on the constraint set, paired with the velocity that puts
    them there."""
    g = cfg.build_metric()
    phi = cfg.build_potential()
    samples = []
    for _ in range(count):
        x = _random_event(rng)
        v = _random_future(rng)
        p = legendre_hom(u, cfg.mass, g, phi, x, v)
        samples.append((state_to_base(x, p), v))
    return samples


def _rank_check(name: str, fam, points: Sequence[CriticalPoint],
                required: int) -> CheckResult:
    report = is_morse(fam, points)
    worst = max((abs(r - required) for r in report.ranks), default=0)
    return CheckResult(name, float(worst), 0.0, len(points))


def morse_checks(cfg: ScenarioConfig, family: str) -> list[CheckResult]:
    """Rank and cross-equivalence checks for one named family."""
    from ..generating_objects import (
        family_example31,
        family_fam1,
        family_fam2,
    )

    g = cfg.build_metric()
    phi = cfg.build_potential()
    model = _model(cfg)
    u = Frame.from_spatial(cfg.frames[0])
    rng = _rng(cfg, f"morse.{family}")
    results: list[CheckResult] = []

    if family == "example31":
        stiffness = cfg.potential.k if cfg.potential.kind == "harmonic" else 1.0
        fam = family_example31(cfg.mass, stiffness)
        points = []
        for _ in range(100):
            base = rng.normal(size=6)
            points.extend(solve_critical(fam, base, seeds=[np.zeros(3)],
                                         tol=1e-11))
        results.append(_rank_check("morse.example31.rank", fam, points, 3))
        return results

    if family in ("fam1", "fam4"):
        fam = family_fam1(u, cfg.mass, g, phi) if family == "fam1" \
            else family_fam4(model)
        anchor = model.reference if family == "fam4" else u
        samples = _on_shell_samples(cfg, anchor, rng, 25)
        points = []
        for base, v in samples:
            points.extend(solve_critical(fam, base,
                                         seeds=[vector_to_fiber(v)],
                                         tol=1e-10))
        results.append(_rank_check(f"morse.{family}.rank", fam, points, 4))
        if family == "fam1":
            results.append(_fam1_vs_fam2(cfg, u))
        return results

    if family in ("fam2", "fam3"):
        fam = family_fam2(u, cfg.mass, g, phi) if family == "fam2" \
            else family_fam3(model)
        anchor = model.reference if family == "fam3" else u
        samples = _on_shell_samples(cfg, anchor, rng, 25)
        points = [CriticalPoint(base, np.array([1.0])) for base, _ in samples]
        results.append(_rank_check(f"morse.{family}.rank", fam, points, 1))
        if family == "fam3":
            results.append(_fam3_chart_residuals(cfg))
        return results

    raise ValueError(f"unknown family {family!r}")


def _fam1_vs_fam2(cfg: ScenarioConfig, u: Frame) -> CheckResult:
    """The velocity-fiber and multiplier-fiber families generate the same
    covectors over a shared on-shell grid."""
    from ..generating_objects import family_fam1, family_fam2

    name = "morse.fam1.vs_fam2"
    g = cfg.build_metric()
    phi = cfg.build_potential()
    fam1 = family_fam1(u, cfg.mass, g, phi)
    fam2 = family_fam2(u, cfg.mass, g, phi)
    x = Event(*cfg.initial_event)
    worst = 0.0
    count = 0
    for v1 in np.linspace(-1.0, 1.0, 5):
        for v2 in np.linspace(-0.5, 0.5, 5):
            v = Vector4(1.0, float(v1), float(v2), 0.2)
            base = state_to_base(x, legendre_hom(u, cfg.mass, g, phi, x, v))
            out1 = generate(fam1, [base], seeds=[vector_to_fiber(v)],
                            tol=1e-11)
            out2 = generate(fam2, [base], seeds=[[1.0]], tol=1e-11)
            if len(out1) != 1 or len(out2) != 1:
                worst = max(worst, float("inf"))
                continue
            err = float(np.max(np.abs(out1[0].covector - out2[0].covector)))
            scale = float(np.max(np.abs(out2[0].covector)))
            worst = max(worst, _rel(err, scale))
            count += 1
    return CheckResult(name, worst, cfg.tolerances.covector_match, count)


def _fam3_chart_residuals(cfg: ScenarioConfig) -> CheckResult:
    """The multiplier family's values do not depend on which chart a
    momentum class was presented through."""
    name = "morse.fam3.chart_residuals"
    rng = _rng(cfg, name)
    model = _model(cfg)
    fam3 = family_fam3(model)
    x = Event(*cfg.initial_event)
    worst = 0.0
    n = 0
    for _ in range(5):
        pp = PElement(Covector4(*rng.normal(size=4)))
        ref = fam3.value(state_to_base(x, pp.p), [1.0])
        for _ in range(20):
            u = _random_frame(rng)
            rebuilt = _charted_class(model, pp, u)
            val = fam3.value(state_to_base(x, rebuilt.p), [1.0])
            worst = max(worst, _rel(abs(val - ref), ref))
            n += 1
    return CheckResult(name, worst, cfg.tolerances.chart_battery, n)


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
