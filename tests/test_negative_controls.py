"""Negative controls: a plausible defect must fail the checks that guard it.

Each row perturbs one kernel or integrator input by 1e-6 relative, on a
component the checks read, in every galimech module that binds the name.
The command then runs in process through ``cli.main``, and the set of
failing checks must be exactly the row's.  A check that passes with its
kernel wrong is no evidence for what it claims.

The rows cover the sampled checks that mix uniform and normal draws
(both arguments of ``sigma`` among them), the chart changes of
momenta and of lagrangian values, the operations of the value space W
(``affine.w_axioms``) and the evaluation of its unit
(``affine.unit_evaluates_one``), the on-shell bases of the Morse
families, ``momentum.offset_constant`` and ``energy.drift``, which a force
that is not -grad phi fails for a harmonic, a uniform and a ``custom``
potential, and a time derivative scaled by 1 + 1e-6 fails on the
time-dependent golden scenario.  Two rows make a defect that is not a
scale: evaluation of W elements that drops their real part
(``affine.duality_rank``) and the momentum-side tuple map without its
negation (``affine.gamma_composite``).

A rank is stable under small perturbations, so no 1e-6 defect changes
one.  The rows of the five Morse rank checks (``morse.*.rank``) make a
structural defect instead: the certificate reads its family's mixed
Hessian with the block that carries the rank zeroed, and the rank check
must fail at every mass from 1e-8 to 1e12.  That block is the momentum
block for fam1 to fam4 (on the free default scenario the event block is
zero as well); example31's velocity block m I carries rank 3 on its own
too, so its row zeroes both.  Newton reads the family's Hessian, not the
certificate's, so the same critical points are certified.
"""

import contextlib
import importlib
import io
import json
import sys

import numpy as np
import pytest

import galimech.harness.checks  # noqa: F401 - binds every kernel name
from galimech.frame_dynamics import Potential
from galimech.harness.cli import main

REL = 1e-6

INVARIANTS = ("invariants", "--suite", "all")
DYNAMICS = ("invariants", "--suite", "dynamics")
BOOST = ("boost-check",)
MORSE = ("morse-check", "--family", "all")


def scaled_output(component=None):
    """The kernel's output, one component (or all) scaled by 1 + REL."""
    def wrap(kernel):
        def perturbed(*args, **kwargs):
            out = np.array(kernel(*args, **kwargs), dtype=float)
            if component is None:
                return out * (1.0 + REL)
            out[..., component] *= 1.0 + REL
            return out
        return perturbed
    return wrap


def scaled_argument(index, component):
    """The kernel called with one component of argument index scaled by
    1 + REL."""
    def wrap(kernel):
        def perturbed(*args, **kwargs):
            args = list(args)
            arg = np.array(args[index], dtype=float)
            arg[..., component] *= 1.0 + REL
            args[index] = arg
            return kernel(*args, **kwargs)
        return perturbed
    return wrap


def zeroed_columns(family, columns):
    """The certificate's mixed Hessians with the given columns zeroed for
    the family of that name."""
    def wrap(hessian):
        def perturbed(fam, points):
            h = hessian(fam, points)
            if fam.name == family:
                h[..., columns] = 0.0
            return h
        return perturbed
    return wrap


def shifted_offsets(integrate):
    """integrate with the initial momentum of every frame after the first
    moved off the first frame's by REL of their offset."""
    def perturbed(u, m, g, potential, initial, h, n):
        x, p = initial
        if np.ndim(p) == 2:
            p = np.concatenate([p[:1], p[1:] + REL * (p[1:] - p[0])])
        return integrate(u, m, g, potential, (x, p), h, n)
    return perturbed


def dropped_real_part(kernel):
    """eval_affine_array reading the W elements with their real part r set
    to 0, so f_w(p) = <p, v> alone."""
    def perturbed(w, p):
        w = np.array(w, dtype=float)
        w[..., 4] = 0.0
        return kernel(w, p)
    return perturbed


def kept_sign(gamma):
    """gamma with the negation of its velocity dropped."""
    def perturbed(element):
        x, v, a, p = gamma(element)
        return x, -v, a, p
    return perturbed


def scaled_force(compile_potential):
    """compile_potential with the output of its force kernel scaled by
    1 + REL.  The step map of an affine potential reads its force through
    that kernel, so the scaled force drives the motion."""
    def perturbed(text):
        phi = compile_potential(text)

        def force(t, q, out=None):
            f = phi.force(t, q, out)
            return np.multiply(f, 1.0 + REL, f)
        return Potential(phi.values, force, phi.time, phi.affine)
    return perturbed


# (defining module, name, perturbation, command, checks that must fail)
ROWS = {
    "sigma_time_component": (
        "galilean_core", "sigma", scaled_output(0), INVARIANTS,
        {"sigma.pairing_formula", "lagrangian.shift_identity",
         "boost.residual_preservation", "affine.chart.affine_lagrangian"}),
    "sigma_in_boost_check": (
        "galilean_core", "sigma", scaled_output(1), BOOST,
        {"boost.residual_preservation"}),
    "lagrangian_hom": (
        "frame_dynamics", "lagrangian_hom", scaled_output(), INVARIANTS,
        {"lagrangian.shift_identity", "legendre.fd_consistency",
         "affine.chart.affine_lagrangian"}),
    "lagrangian_inhom": (
        "frame_dynamics", "lagrangian_inhom", scaled_output(), INVARIANTS,
        {"legendre.fd_consistency"}),
    "legendre_hom": (
        "frame_dynamics", "legendre_hom", scaled_output(1), INVARIANTS,
        {"legendre.fd_consistency", "mass_shell.on_shell_residual"}),
    "legendre_hom_on_shell_bases": (
        "frame_dynamics", "legendre_hom", scaled_output(1), MORSE,
        {"morse.fam1.vs_fam2"}),
    "mass_shell_momentum": (
        "frame_dynamics", "mass_shell_residual", scaled_argument(4, 0),
        INVARIANTS,
        {"mass_shell.on_shell_residual", "boost.residual_preservation"}),
    "mass_shell_in_boost_check": (
        "frame_dynamics", "mass_shell_residual", scaled_argument(4, 1),
        BOOST, {"boost.residual_preservation"}),
    "chart_change_in_morse_check": (
        "affine_phase", "p_change_chart", scaled_output(1), MORSE,
        {"morse.fam3.chart_residuals"}),
    "momentum_offset": (
        "frame_dynamics", "integrate", shifted_offsets, BOOST,
        {"momentum.offset_constant", "world_line.agreement"}),
    "sigma_frame_argument": (
        "galilean_core", "sigma", scaled_argument(1, 0), INVARIANTS,
        {"sigma.antisymmetry", "sigma.cocycle", "sigma.pairing_formula",
         "lagrangian.shift_identity", "boost.residual_preservation",
         "affine.chart.pairing", "affine.chart.psi_m",
         "affine.chart.hamiltonian_fun", "affine.chart.membership"}),
    "p_change_chart": (
        "affine_phase", "p_change_chart", scaled_output(1), INVARIANTS,
        {"affine.chart.eval_affine", "affine.chart.pairing",
         "affine.chart.psi_m", "affine.chart.hamiltonian_fun",
         "affine.chart.membership"}),
    "w_change_chart": (
        "affine_phase", "w_change_chart", scaled_output(4), INVARIANTS,
        {"affine.chart.affine_lagrangian", "affine.chart.eval_affine",
         "affine.chart.pairing"}),
    "w_add": (
        "affine_phase", "w_add_array", scaled_output(), INVARIANTS,
        {"affine.w_axioms"}),
    "w_scale": (
        "affine_phase", "w_scale_array", scaled_output(), INVARIANTS,
        {"affine.w_axioms"}),
    "eval_affine": (
        "affine_phase", "eval_affine_array", scaled_output(), INVARIANTS,
        {"affine.unit_evaluates_one"}),
    "eval_affine_real_part": (
        "affine_phase", "eval_affine_array", dropped_real_part, INVARIANTS,
        {"affine.duality_rank", "affine.unit_evaluates_one"}),
    "gamma_sign": (
        "affine_phase", "gamma", kept_sign, INVARIANTS,
        {"affine.gamma_composite"}),
}

# The Morse rank rows: (family, zeroed columns, checks that must fail).
# fam1 and fam2 certify their points for morse.fam1.vs_fam2 as well.
P_BLOCK = slice(4, 8)
RANK_ROWS = {
    "fam1": (P_BLOCK, {"morse.fam1.rank", "morse.fam1.vs_fam2"}),
    "fam2": (P_BLOCK, {"morse.fam2.rank", "morse.fam1.vs_fam2"}),
    "fam3": (P_BLOCK, {"morse.fam3.rank"}),
    "fam4": (P_BLOCK, {"morse.fam4.rank"}),
    "example31": (slice(3, 9), {"morse.example31.rank"}),
}
RANK_CHECKS = {f"morse.{family}.rank" for family in RANK_ROWS}
for family, (columns, expected) in RANK_ROWS.items():
    ROWS[f"{family}_rank_block"] = (
        "generating_objects", "hessian", zeroed_columns(family, columns),
        MORSE, expected)


def patch_everywhere(monkeypatch, module: str, name: str, wrap) -> None:
    """Replace galimech.<module>.<name> by wrap(it) in every loaded galimech
    module that binds it."""
    original = getattr(importlib.import_module(f"galimech.{module}"), name)
    perturbed = wrap(original)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("galimech") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, perturbed)


def run_report(tmp_path, argv, config=None, seed=None) -> tuple[int, dict]:
    """Exit code and JSON report of one in-process CLI run."""
    argv = list(argv)
    if config is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    out = tmp_path / "report.json"
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def failing_checks(tmp_path, argv, config=None, seed=None) -> tuple[int, set]:
    """Exit code and failing check names of one in-process CLI run."""
    code, report = run_report(tmp_path, argv, config, seed)
    return code, {c["name"] for c in report["checks"] if c["status"] == "fail"}


@pytest.mark.parametrize("argv", [INVARIANTS, BOOST, MORSE])
def test_unperturbed_runs_pass(tmp_path, argv):
    assert failing_checks(tmp_path, argv) == (0, set())


@pytest.mark.parametrize("row", sorted(ROWS))
def test_perturbation_fails_exactly_its_checks(tmp_path, monkeypatch, row):
    module, name, wrap, argv, expected = ROWS[row]
    patch_everywhere(monkeypatch, module, name, wrap)
    assert failing_checks(tmp_path, argv) == (1, expected)


MASSES = [1e-8, 1e-4, 1.0, 1e4, 1e6, 1e8, 1e12]


@pytest.mark.parametrize("mass", MASSES)
def test_unperturbed_rank_checks_pass_at_every_mass(tmp_path, mass):
    # Other Morse checks fail at large masses (an absolute Newton stop and
    # an unscaled chart residual); the rank checks do not.
    _, report = run_report(tmp_path, MORSE, {"mass": mass})
    ranks = {c["name"]: (c["status"], c["n"]) for c in report["checks"]
             if c["name"] in RANK_CHECKS}
    assert ranks == {name: ("pass", 100 if "example31" in name else 25)
                     for name in RANK_CHECKS}


@pytest.mark.parametrize("mass", MASSES)
@pytest.mark.parametrize("family", sorted(RANK_ROWS))
def test_zeroed_rank_block_fails_at_every_mass(tmp_path, monkeypatch, rank_spy,
                                               family, mass):
    # The certificate cannot prove a rank-deficient Hessian full rank, so
    # every zeroed one goes to the SVD, which all undecided rows reach.
    columns, expected = RANK_ROWS[family]
    patch_everywhere(monkeypatch, "generating_objects", "hessian",
                     zeroed_columns(family, columns))
    code, failing = failing_checks(tmp_path, MORSE, {"mass": mass})
    assert code == 1 and failing & RANK_CHECKS == expected & RANK_CHECKS
    zeroed = [ok[(m[..., columns] == 0.0).all(axis=(-2, -1))]
              for m, ok in rank_spy.decided]
    assert sum(len(z) for z in zeroed) > 0
    assert not any(z.any() for z in zeroed)
    rank_spy.assert_svd_saw_exactly_the_undecided()


# The default scenario is free, whose force is zero, so the force row runs
# on a harmonic one.
HARMONIC = {"potential": {"kind": "harmonic", "k": 1.3,
                          "center": [0.1, -0.2, 0.4]}}


@pytest.mark.parametrize("argv", [INVARIANTS, BOOST])
def test_unperturbed_harmonic_runs_pass(tmp_path, argv):
    assert failing_checks(tmp_path, argv, HARMONIC) == (0, set())


def test_scaled_force_fails_energy_drift(tmp_path, monkeypatch):
    # Integrating with a force that is not -grad phi breaks the energy of
    # phi; every frame integrates the same wrong force, so the world lines
    # still agree and boost-check passes.
    patch_everywhere(monkeypatch, "harness.expressions", "compile_potential",
                     scaled_force)
    assert failing_checks(tmp_path, INVARIANTS, HARMONIC) == (1, {"energy.drift"})
    assert failing_checks(tmp_path, BOOST, HARMONIC) == (0, set())


# A uniform force: the force kernel's probe of the step map then reads a
# zero Jacobian, as the free default does, but with a force to scale.
UNIFORM = {"potential": {"kind": "uniform", "force": [0.3, -1.1, 0.6]}}


@pytest.mark.parametrize("argv", [INVARIANTS, BOOST])
def test_unperturbed_uniform_runs_pass(tmp_path, argv):
    assert failing_checks(tmp_path, argv, UNIFORM) == (0, set())


def test_scaled_uniform_force_fails_energy_drift(tmp_path, monkeypatch):
    patch_everywhere(monkeypatch, "harness.expressions", "compile_potential",
                     scaled_force)
    assert failing_checks(tmp_path, INVARIANTS, UNIFORM) == (1, {"energy.drift"})
    assert failing_checks(tmp_path, BOOST, UNIFORM) == (0, set())


# The golden custom_anharmonic scenario, whose force is the derivative
# compile_potential builds from the expression.
CUSTOM = {"potential": {"kind": "custom",
                        "expr": "0.5*q1^2 + 0.25*q2^4 + 0.1*q1*q3"},
          "initial_event": [0.0, 0.8, 0.5, 0.1], "n": 50}


@pytest.mark.parametrize("argv", [DYNAMICS, BOOST])
def test_unperturbed_custom_runs_pass(tmp_path, argv):
    assert failing_checks(tmp_path, argv, CUSTOM) == (0, set())


def test_scaled_custom_force_fails_energy_drift(tmp_path, monkeypatch):
    patch_everywhere(monkeypatch, "harness.expressions", "compile_potential",
                     scaled_force)
    assert failing_checks(tmp_path, DYNAMICS, CUSTOM) == (1, {"energy.drift"})
    assert failing_checks(tmp_path, BOOST, CUSTOM) == (0, set())


# The golden time-dependent scenario.  Its energy changes by about 1.3e-2
# over the run, so a time derivative off by 1e-6 relative leaves about
# 1.3e-8 in the energy balance, against the tolerance of 1e-8.  Only
# energy.drift integrates it; the other checks that read the time
# derivative (affine.chart.membership) compare it with itself.
TIME_METRIC = {
    "metric": [[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 0.5]],
    "potential": {"kind": "custom", "expr": "0.5*(q1^2+q2^2+q3^2)*(1+0.1*t)"},
}


def scaled_compiled_time(compile_potential):
    """compile_potential with the output of its time derivative scaled by
    1 + REL."""
    def perturbed(text):
        phi = compile_potential(text)

        def scaled(t, q, out=None):
            return np.multiply(phi.time(t, q, out), 1.0 + REL)
        return Potential(phi.values, phi.force, scaled, phi.affine)
    return perturbed


SEEDS = [None, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("seed", SEEDS)
def test_unperturbed_time_dependent_run_passes(tmp_path, seed):
    assert failing_checks(tmp_path, INVARIANTS, TIME_METRIC, seed) == \
        (0, set())


@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_time_derivative_fails_energy_drift(tmp_path, monkeypatch,
                                                   seed):
    patch_everywhere(monkeypatch, "harness.expressions", "compile_potential",
                     scaled_compiled_time)
    assert failing_checks(tmp_path, INVARIANTS, TIME_METRIC, seed) == \
        (1, {"energy.drift"})


@pytest.mark.parametrize("speed", [1.0, 1e4, 1e8])
def test_offset_error_fails_at_every_speed(tmp_path, monkeypatch, speed):
    patch_everywhere(monkeypatch, "frame_dynamics", "integrate", shifted_offsets)
    code, report = run_report(
        tmp_path, BOOST, {"initial_velocity": [speed, 0.0, 0.0]})
    offset = next(c for c in report["checks"]
                  if c["name"] == "momentum.offset_constant")
    assert code == 1 and offset["status"] == "fail"
    assert offset["max_err"] >= 0.9 * REL


@pytest.mark.parametrize("speed", [1.0, 1e4, 1e8])
def test_unperturbed_boost_check_passes_at_every_speed(tmp_path, speed):
    # Momenta of size 1e8 carry rounding far above the O(1) offset's
    # tolerance; the offset check must not count it as an error.
    config = {"initial_velocity": [speed, 0.0, 0.0]}
    assert failing_checks(tmp_path, BOOST, config) == (0, set())


def test_corrupt_sigma_fails_at_high_speed(tmp_path):
    config = {"initial_velocity": [1e8, 0.0, 0.0]}
    assert failing_checks(tmp_path, ("boost-check", "--corrupt-sigma"),
                          config) == (1, {"boost.residual_preservation"})
