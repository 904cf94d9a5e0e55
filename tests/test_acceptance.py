"""Acceptance gate: twelve numbered criteria, one printed line each.

Each test prints a single PASS/FAIL line through the capture bypass so the
verdicts are visible in any pytest run, then asserts.  Criteria marked
"exact" require max_err == 0.0 in IEEE double arithmetic, not merely small.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from galimech.galilean_core import (
    Covector4,
    Event,
    Frame,
    SpatialMetric,
    TAU,
    Vector4,
    sigma,
)
from galimech.frame_dynamics import (
    PhasePoint,
    free_potential,
    harmonic_potential,
    in_homogeneous_dynamics,
    integrate,
    lagrangian_hom,
    legendre_hom,
    mass_shell_residual,
    uniform_potential,
)
from galimech.generating_objects import (
    CriticalPoint,
    family_example31,
    family_fam1,
    family_fam2,
    generate,
    is_morse,
    kappa,
    reduce_family,
    solve_critical,
    state_to_base,
    vector_to_fiber,
)
from galimech.affine_phase import (
    AffineMetric,
    NewtonModel,
    affine_metric_apply,
    section_from_affine_metric,
)
from galimech.harness.checks import (
    check_chart_battery,
    check_energy_drift,
    check_gamma_composite,
    check_legendre_fd,
    check_momentum_offset,
    check_unit_element,
    check_w_axioms,
    check_world_lines,
    frame_trajectories,
)
from galimech.harness.config import PotentialSpec, default_config


@pytest.fixture
def announce(capsys):
    def _announce(num, label, max_err, tol, detail=""):
        ok = max_err <= tol
        tol_text = "exact" if tol == 0.0 else f"{tol:.0e}"
        with capsys.disabled():
            print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  "
                  f"{label}: max_err={max_err:.3e} tol={tol_text}"
                  f"{'  ' + detail if detail else ''}")
        assert ok, f"criterion {num}: {label} max_err={max_err!r} > {tol!r}"
    return _announce


def random_spd(rng) -> SpatialMetric:
    a = rng.normal(size=(3, 3))
    return SpatialMetric(a @ a.T + 0.5 * np.eye(3))


def random_frame(rng) -> Frame:
    return Frame.from_spatial(rng.uniform(-1.5, 1.5, size=3))


def random_future(rng) -> Vector4:
    return Vector4(float(rng.uniform(0.2, 2.0)), *rng.normal(size=3))


def rng_for(criterion: int) -> np.random.Generator:
    return np.random.default_rng([20260821, criterion])


def test_criterion_01_cocycle_suite(announce):
    rng = rng_for(1)
    worst = 0.0
    for _ in range(1000):
        g = random_spd(rng)
        u1, u2, u3 = (random_frame(rng) for _ in range(3))
        anti = sigma(g, u1, u2).as_array() + sigma(g, u2, u1).as_array()
        direct = sigma(g, u3, u1).as_array()
        chained = sigma(g, u3, u2).as_array() + sigma(g, u2, u1).as_array()
        scale = max(1.0, float(np.max(np.abs(direct))))
        worst = max(worst,
                    float(np.max(np.abs(anti))) / scale,
                    float(np.max(np.abs(direct - chained))) / scale)
    announce(1, "frame-shift antisymmetry and chaining, 1000 triples",
             worst, 1e-12)


def test_criterion_02_lagrangian_difference(announce):
    rng = rng_for(2)
    phi = harmonic_potential(1.7, (0.2, -0.4, 0.0))
    m = 1.3
    worst = 0.0
    for _ in range(1000):
        g = random_spd(rng)
        u, u_prime = random_frame(rng), random_frame(rng)
        v = random_future(rng)
        x = Event(*rng.normal(size=4))
        lhs = lagrangian_hom(u, m, g, phi, x, v) \
            - lagrangian_hom(u_prime, m, g, phi, x, v)
        rhs = m * sigma(g, u_prime, u).pair(v)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    announce(2, "frame difference of lagrangians, 1000 samples", worst, 1e-10)


def test_criterion_03_legendre_and_rank(announce):
    harmonic = dataclasses.replace(
        default_config(),
        potential=PotentialSpec("harmonic", k=1.5, center=(0.0, 0.5, 0.0)))
    fd = check_legendre_fd(harmonic)

    rng = rng_for(3)
    fam = family_example31(mass=1.2, stiffness=0.8)
    points = []
    for _ in range(100):
        found = solve_critical(fam, rng.normal(size=6), seeds=[np.zeros(3)],
                               tol=1e-11)
        assert len(found) == 1
        points.extend(found)
    report = is_morse(fam, points)
    rank_defect = max(abs(r - 3) for r in report.ranks)

    announce(3, "momentum maps vs finite differences; oscillator rank 3",
             max(fd.max_err, float(rank_defect)), 1e-6,
             detail=f"(fd n={fd.n}, ranks at {len(points)} points)")


def test_criterion_04_mass_shell(announce):
    rng = rng_for(4)
    g = random_spd(rng)
    m = 0.8
    potentials = (free_potential(),
                  uniform_potential((1.0, -2.0, 0.5)),
                  harmonic_potential(2.0, (0.3, 0.0, -0.2)))
    worst = 0.0
    for _ in range(500):
        u = random_frame(rng)
        x = Event(*rng.normal(size=4))
        v = random_future(rng)
        for phi in potentials:
            p = legendre_hom(u, m, g, phi, x, v)
            worst = max(worst, abs(mass_shell_residual(u, m, g, phi, x, p)))
    announce(4, "constraint residual on momentum-map outputs, 500x3", worst,
             1e-10)


def test_criterion_05_boost_theorem(announce):
    rng = rng_for(5)
    m = 1.0
    g = SpatialMetric.identity()
    phi = harmonic_potential(1.0)

    # (a) residual preservation under the momentum shift
    res_err = 0.0
    for _ in range(500):
        u_prime, u = random_frame(rng), random_frame(rng)
        x = Event(*rng.normal(size=4))
        p = Covector4(*rng.normal(size=4))
        before = mass_shell_residual(u_prime, m, g, phi, x, p)
        after = mass_shell_residual(u, m, g, phi, x,
                                    p + m * sigma(g, u_prime, u))
        res_err = max(res_err, abs(after - before))

    # (b) the boost map preserves the canonical two-form: push 100 random
    # tangent pairs through a centered difference of the map and compare
    # the pairing.  The map is affine, so any step is truncation-free.
    u_prime, u = random_frame(rng), random_frame(rng)
    shift = m * sigma(g, u_prime, u).as_array()

    def boost_map(z):
        return np.concatenate([z[:4], z[4:] + shift])

    def two_form(d1, d2):
        return float(d1[4:] @ d2[:4] - d2[4:] @ d1[:4])

    eps = 1e-3
    sym_err = 0.0
    for _ in range(100):
        z = rng.normal(size=8)
        d1, d2 = rng.normal(size=8), rng.normal(size=8)
        push1 = (boost_map(z + eps * d1) - boost_map(z - eps * d1)) / (2 * eps)
        push2 = (boost_map(z + eps * d2) - boost_map(z - eps * d2)) / (2 * eps)
        before = two_form(d1, d2)
        sym_err = max(sym_err,
                      abs(two_form(push1, push2) - before)
                      / max(1.0, abs(before)))

    # (c) an integrated on-shell trajectory, carried to another frame,
    # still satisfies that frame's equations of motion, with derivatives
    # estimated by the five-point stencil.
    h, n = 1e-3, 300
    u_prime = Frame.from_spatial([0.3, -0.2, 0.1])
    u = Frame.from_spatial([-0.4, 0.25, 0.5])
    start = Event(0.0, 1.0, 0.0, 0.0)
    w = Frame.from_spatial([0.2, 0.0, 0.0])
    p_start = m * g.apply(w.spatial - u_prime.spatial)
    traj = integrate(u_prime, m, g, phi, PhasePoint.spatial(start, p_start),
                     h, n)

    def shell_lift(x, ps):
        # time component chosen to zero the u_prime-frame residual
        a0 = -(0.5 / m * float(ps @ g.apply_inverse(ps))
               + float(ps @ u_prime.spatial) + phi.at(x))
        return Covector4(a0, *ps)

    events = [Event(t, *q) for t, q in zip(traj.t.tolist(),
                                           traj.q[:, 0].tolist())]
    carried = [(x, shell_lift(x, ps) + m * sigma(g, u_prime, u))
               for x, ps in zip(events, traj.p[:, 0])]
    xs = np.array([x.as_array() for x, _ in carried])
    ps = np.array([p.as_array() for _, p in carried])
    tol_c = 10.0 * h ** 4
    member_err = 0.0
    for k in range(2, n - 1):
        xdot = (xs[k - 2] - 8 * xs[k - 1] + 8 * xs[k + 1] - xs[k + 2]) / (12 * h)
        pdot = (ps[k - 2] - 8 * ps[k - 1] + 8 * ps[k + 1] - ps[k + 2]) / (12 * h)
        ok = in_homogeneous_dynamics(
            u, m, g, phi,
            (carried[k][0], carried[k][1], Vector4.from_array(xdot),
             Covector4.from_array(pdot)),
            tol_c)
        member_err = max(member_err, 0.0 if ok else float("inf"))

    worst = max(res_err / 1e-12, sym_err / 1e-10, member_err)
    announce(5, "boost: residuals, two-form pullback, carried trajectory",
             worst, 1.0,
             detail=(f"(res={res_err:.1e}@1e-12 form={sym_err:.1e}@1e-10 "
                     f"membership@{tol_c:.0e})"))


def test_criterion_06_world_lines(announce):
    base = dataclasses.replace(default_config(), n=10000)
    free = check_world_lines(base, frame_trajectories(base))
    bound_cfg = dataclasses.replace(
        base, potential=PotentialSpec("harmonic", k=1.0, center=(0.0, 0.0, 0.0)),
        initial_event=(0.0, 1.0, 0.0, 0.0))
    bound_traj = frame_trajectories(bound_cfg)
    bound = check_world_lines(bound_cfg, bound_traj)
    offset = check_momentum_offset(bound_cfg, bound_traj)
    worst = max(free.max_err / free.tol, bound.max_err / bound.tol,
                offset.max_err / offset.tol)
    # The harmonic tolerance is the looser 1e-7: the integrations in two
    # frames are RK4 runs of conjugate fields, so the gap is rounding
    # accumulation, bounded well below the fourth-order one-run error.
    announce(6, "world lines across 5 frames, 1e4 steps", worst, 1.0,
             detail=(f"(free={free.max_err:.1e}@{free.tol:.0e} "
                     f"harmonic={bound.max_err:.1e}@{bound.tol:.0e} "
                     f"offset={offset.max_err:.1e}@{offset.tol:.0e})"))


def test_criterion_07_energy_drift(announce):
    cfg = dataclasses.replace(
        default_config(),
        potential=PotentialSpec("harmonic", k=1.0, center=(0.0, 0.0, 0.0)),
        initial_event=(0.0, 1.0, 0.0, 0.0),
        n=10000)
    result = check_energy_drift(cfg)
    announce(7, "energy drift, harmonic, 1e4 steps of 1e-3", result.max_err,
             result.tol)


def test_criterion_08_reduction_equivalence(announce):
    m = 1.1
    g = SpatialMetric.diagonal(1.0, 2.0, 0.5)
    phi = harmonic_potential(1.3, (0.0, 0.2, 0.0))
    u = Frame.from_spatial([0.15, -0.3, 0.05])
    fam1 = family_fam1(u, m, g, phi)
    fam2 = family_fam2(u, m, g, phi)
    x = Event(0.0, 0.4, -0.1, 0.3)

    covector_err = 0.0
    value_err = 0.0
    count = 0
    for v1 in np.linspace(-1.0, 1.0, 5):
        for v2 in np.linspace(-0.5, 0.5, 5):
            v = Vector4(1.0, float(v1), float(v2), 0.2)
            base = state_to_base(x, legendre_hom(u, m, g, phi, x, v))
            reduced = reduce_family(fam1, 3, seeds=[vector_to_fiber(v)[:3]])
            got = generate(reduced, [base], seeds=[[1.0]], tol=1e-10)
            assert len(got) == 1
            analytic = kappa(fam2, CriticalPoint(base, np.array([1.0])))
            covector_err = max(
                covector_err,
                float(np.max(np.abs(got[0].covector - analytic.covector))))
            value_err = max(
                value_err,
                abs(reduced.value(base, got[0].source.fiber)))
            count += 1
    worst = max(covector_err / 1e-8, value_err / 1e-10)
    announce(8, "eliminated family matches multiplier family on 25 points",
             worst, 1.0,
             detail=(f"(covector={covector_err:.1e}@1e-8 "
                     f"value={value_err:.1e}@1e-10)"))


def test_criterion_09_chart_battery(announce):
    cfg = default_config()
    battery = check_chart_battery(cfg)
    axioms = check_w_axioms(cfg)
    unit = check_unit_element(cfg)
    op_err = max(c.max_err for c in battery
                 if c.name.startswith("affine.chart."))
    for c in battery:
        assert c.passed, c.name
    worst = max(op_err / 1e-10, axioms.max_err / 1e-10,
                1.0 if unit.max_err != 0.0 else 0.0)
    announce(9, "chart independence of the five quotient operations", worst,
             1.0,
             detail=(f"(ops={op_err:.1e}@1e-10 axioms={axioms.max_err:.1e}"
                     f"@1e-10 unit exact={unit.max_err == 0.0})"))


def test_criterion_10_triple_composition(announce):
    result = check_gamma_composite(default_config())
    announce(10, "momentum-side map equals the two-step composite, 100 tuples",
             result.max_err, 0.0)


def test_criterion_11_affine_metric_section(announce):
    rng = rng_for(11)
    model = NewtonModel(1.4, SpatialMetric.diagonal(2.0, 1.0, 0.5),
                        harmonic_potential(1.0))
    a = Frame.from_spatial([0.3, -0.1, 0.6])
    h = AffineMetric(a, np.array([0.7, -0.2, 0.4]))
    section, _ = section_from_affine_metric(model, h, value_at_base=0.25)

    fd_err = 0.0
    for _ in range(200):
        b_s = rng.uniform(-2.0, 2.0, size=3)
        expected = affine_metric_apply(model, h, Frame.from_spatial(b_s))
        for j in range(3):
            step = 1e-6 * (1.0 + abs(b_s[j]))
            plus, minus = b_s.copy(), b_s.copy()
            plus[j] += step
            minus[j] -= step
            fd = (section(Frame.from_spatial(plus))
                  - section(Frame.from_spatial(minus))) / (2 * step)
            fd_err = max(fd_err,
                         abs(fd - expected[j]) / max(1.0, abs(expected[j])))

    # Re-anchor the same affine map at a second base point; the two
    # primitives may differ only by a constant.
    a2 = Frame.from_spatial([-0.5, 0.8, 0.1])
    h2 = AffineMetric(a2, affine_metric_apply(model, h, a2))
    section2, _ = section_from_affine_metric(model, h2)
    diffs = [section(Frame.from_spatial(s)) - section2(Frame.from_spatial(s))
             for s in rng.uniform(-2.0, 2.0, size=(200, 3))]
    const_err = float(np.std(diffs))

    worst = max(fd_err / 1e-6, const_err / 1e-10)
    announce(11, "section of the affine metric: derivative and gauge", worst,
             1.0,
             detail=f"(fd={fd_err:.1e}@1e-6 std={const_err:.1e}@1e-10)")


def test_criterion_12_harness_determinism(announce, tmp_path):
    cfg = {
        "potential": {"kind": "harmonic", "k": 2.0, "center": [0, 0, 0]},
        "initial_event": [0.0, 0.5, 0.0, 0.0],
        "h": 0.01,
        "n": 50,
        "seed": 9,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ, GALIMECH_LOG="error")

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "galimech", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    csv_same = run("simulate", "--config", str(path)) \
        == run("simulate", "--config", str(path))
    json_same = run("invariants", "--suite", "core", "--config", str(path)) \
        == run("invariants", "--suite", "core", "--config", str(path))
    worst = 0.0 if (csv_same and json_same) else 1.0
    announce(12, "byte-identical CSV and JSON on repeated runs", worst, 0.0,
             detail=f"(csv={csv_same} json={json_same})")
