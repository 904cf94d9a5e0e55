"""Direct tests of the check layer, mostly the parts the CLI cannot reach."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from galimech.frame_dynamics import (
    lagrangian_hom,
    lagrangian_inhom,
    legendre_hom,
    legendre_inhom,
)
from galimech.galilean_core import Event, Frame, SpatialMetric, Vector4, sigma
from galimech.generating_objects import CriticalPoint, FunctionFamily, is_morse
from galimech.harness import checks
from galimech.harness.checks import (
    _fam1_vs_fam2,
    _fam3_chart_residuals,
    _rank_check,
    _rng,
    _verdict,
    boost_checks,
    check_momentum_offset,
    check_lagrangian_shift,
    check_legendre_fd,
    check_mass_shell,
    check_residual_preservation,
    check_world_lines,
    corrupted_sigma,
    frame_trajectories,
    morse_checks,
    suite_checks,
)
from galimech.harness.config import PotentialSpec, default_config


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        suite_checks(default_config(), "everything")


def test_unknown_family_raises():
    with pytest.raises(ValueError):
        morse_checks(default_config(), "fam17")


def test_all_suite_is_the_union():
    cfg = default_config()
    names = [c.name for c in suite_checks(cfg, "all")]
    for suite in ("core", "dynamics", "affine"):
        for c in suite_checks(cfg, suite):
            assert c.name in names
    assert len(names) == len(set(names))


def test_corrupted_sigma_breaks_exactly_one_boost_check():
    cfg = default_config()
    results = {c.name: c.passed for c in boost_checks(cfg, corrupted_sigma)}
    assert results["boost.residual_preservation"] is False
    # the other two checks never touch the shift covector
    assert results["world_line.agreement"] is True
    assert results["momentum.offset_constant"] is True


def test_free_world_lines_agree_exactly():
    # A free world line is the same float accumulation in every frame, so
    # integrating the frames together must keep the error at exactly zero.
    cfg = default_config()
    assert check_world_lines(cfg, frame_trajectories(cfg)).max_err == 0.0


def test_residual_preservation_margin_is_wide():
    clean = check_residual_preservation(default_config())
    dirty = check_residual_preservation(default_config(), corrupted_sigma)
    assert clean.passed
    assert dirty.max_err > 1e6 * clean.max_err


def test_checks_are_order_independent():
    # Same named check, same config: identical numbers no matter what ran
    # before it, because each check derives its own rng stream.
    cfg = default_config()
    alone = check_residual_preservation(cfg)
    after_suite = [c for c in suite_checks(cfg, "dynamics")
                   if c.name == "boost.residual_preservation"]
    assert after_suite == [alone]


def test_seed_changes_samples_but_not_verdict():
    cfg = default_config()
    other = dataclasses.replace(cfg, seed=1234)
    a = check_residual_preservation(cfg)
    b = check_residual_preservation(other)
    assert a.passed and b.passed
    assert a.max_err != b.max_err


def test_morse_handles_anisotropic_metric():
    cfg = dataclasses.replace(
        default_config(),
        metric=((2.0, 0.5, 0.0), (0.5, 1.0, 0.0), (0.0, 0.0, 0.7)),
        potential=PotentialSpec("harmonic", k=0.9, center=(0.0, 0.0, 0.0)),
        mass=1.6)
    SpatialMetric([list(r) for r in cfg.metric])  # config admits it
    for family in ("fam1", "fam2", "fam3", "fam4", "example31"):
        for result in morse_checks(cfg, family):
            assert result.passed, result.name


# A potential that is NaN everywhere: exp(700)^2 overflows to inf, and
# inf * 0 is NaN.
NAN_POTENTIAL = PotentialSpec("custom", expr="exp(700)*exp(700)*(q1-q1)")
# NaN where q1 < 0 (a complex power), about half the samples.
HALF_NAN_POTENTIAL = PotentialSpec("custom", expr="q1^0.5")


@pytest.mark.parametrize("potential", [NAN_POTENTIAL, HALF_NAN_POTENTIAL])
@pytest.mark.parametrize("check", [check_lagrangian_shift, check_legendre_fd,
                                   check_mass_shell,
                                   check_residual_preservation])
def test_non_finite_samples_fail_the_check(potential, check):
    cfg = dataclasses.replace(default_config(), potential=potential)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape either
        result = check(cfg)
    assert math.isnan(result.max_err)
    assert not result.passed and result.to_json()["status"] == "fail"


def test_potential_arithmetic_error_is_a_non_finite_sample():
    # 1/(q1-q1) raises ZeroDivisionError at every point: each sample fails
    # its check instead of ending the run in a traceback.
    cfg = dataclasses.replace(
        default_config(), potential=PotentialSpec("custom", expr="1/(q1-q1)"))
    result = check_mass_shell(cfg)
    assert math.isnan(result.max_err) and not result.passed


def test_one_nan_among_finite_errors_fails():
    errs = np.array([0.0, 1e-20, np.nan, 1e-30])
    assert math.isnan(_verdict("x", errs, 1.0).max_err)
    assert not _verdict("x", errs, 1.0).passed
    assert _verdict("x", errs[[0, 1, 3]], 1.0).max_err == 1e-20
    assert _verdict("x", np.array([True, False, True]), 0.0,
                    count=True).max_err == 2.0


# --- the array checks against per-sample loops over the object API --------

def _loop_lagrangian_shift(cfg, rng, phi, g):
    worst = 0.0
    for _ in range(1000):
        u = Frame.from_spatial(rng.uniform(-1.5, 1.5, size=3))
        u_prime = Frame.from_spatial(rng.uniform(-1.5, 1.5, size=3))
        v = Vector4(float(rng.uniform(0.2, 2.0)), *rng.normal(size=3).tolist())
        x = Event(*rng.normal(size=4).tolist())
        lhs = lagrangian_hom(u, cfg.mass, g, phi, x, v) \
            - lagrangian_hom(u_prime, cfg.mass, g, phi, x, v)
        rhs = cfg.mass * sigma(g, u_prime, u).pair(v)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def _loop_legendre_fd(cfg, rng, phi, g):
    m, worst = cfg.mass, 0.0
    for i in range(500):
        u = Frame.from_spatial(rng.uniform(-1.5, 1.5, size=3))
        x = Event(*rng.normal(size=4).tolist())
        if i % 2 == 0:
            w = rng.normal(size=3)
            analytic = legendre_inhom(u, m, g, Frame.from_spatial(w))
            lagrangian = lambda c: lagrangian_inhom(u, m, g, phi, x,
                                                    Frame.from_spatial(c))
            coords = w
        else:
            v = Vector4(float(rng.uniform(0.2, 2.0)), *rng.normal(size=3))
            analytic = legendre_hom(u, m, g, phi, x, v).as_array()
            lagrangian = lambda c: lagrangian_hom(u, m, g, phi, x,
                                                  Vector4.from_array(c))
            coords = v.as_array()
        fd = np.empty(len(coords))
        for j in range(len(coords)):
            step = 1e-6 * (1.0 + abs(coords[j]))
            plus, minus = coords.copy(), coords.copy()
            plus[j] += step
            minus[j] -= step
            fd[j] = (lagrangian(plus) - lagrangian(minus)) / (2.0 * step)
        err = float(np.max(np.abs(analytic - fd)))
        worst = max(worst, err / max(1.0, float(np.max(np.abs(fd)))))
    return worst


@pytest.mark.parametrize("seed", [0, 5, 90])
@pytest.mark.parametrize("check, name, loop", [
    (check_lagrangian_shift, "lagrangian.shift_identity",
     _loop_lagrangian_shift),
    (check_legendre_fd, "legendre.fd_consistency", _loop_legendre_fd),
])
def test_array_check_equals_its_per_sample_loop(seed, check, name, loop):
    # Same draws from the same stream, same arithmetic: the same float.
    cfg = dataclasses.replace(
        default_config(), seed=seed, mass=1.7,
        metric=((2.0, 0.3, 0.1), (0.3, 1.0, -0.2), (0.1, -0.2, 0.7)),
        potential=PotentialSpec("custom", expr="sin(q1)*q2 + 0.2*q3^2 - t*q1"))
    expected = loop(cfg, _rng(cfg, name), cfg.build_potential(),
                    cfg.build_metric())
    assert check(cfg).max_err == expected


# --- NaN-honest Morse and offset verdicts ---------------------------------
# Each reduction sees a NaN that is not the first error: Python's max
# would keep the finite value in front of it.

def _nan_after_first(monkeypatch, name, index=1):
    """Wrap checks.<name> so that entry index of its first output is NaN."""
    real = getattr(checks, name)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        if name == "kappas":
            out[index].covector[:] = np.nan
        else:
            out = out.copy()
            out.reshape(-1, out.shape[-1])[index] = np.nan
        return out

    monkeypatch.setattr(checks, name, patched)


def test_rank_check_nan_rank_fails():
    # The mixed Hessian of the second point is not finite.
    fam = FunctionFamily(
        1, 1, lambda b, f: 0.0,
        lambda b, f: (np.zeros_like(b),
                      np.where(b > 0.5, np.nan, 4 * f ** 3 - b)),
        name="nan-at-second")
    points = [CriticalPoint(np.array([x]), np.array([0.0])) for x in (0.0, 1.0, 0.0)]
    assert is_morse(fam, points).ranks[0] == 1
    result = _rank_check("morse.nan.rank", fam, points, 1)
    assert math.isnan(result.max_err) and not result.passed
    assert result.n == 3


def test_fam1_vs_fam2_nan_covector_fails(monkeypatch):
    cfg = default_config()
    assert _fam1_vs_fam2(cfg, Frame.from_spatial(cfg.frames[0])).passed
    _nan_after_first(monkeypatch, "kappas", index=3)
    result = _fam1_vs_fam2(cfg, Frame.from_spatial(cfg.frames[0]))
    assert math.isnan(result.max_err) and not result.passed
    assert result.n == 25


def test_fam3_chart_residuals_nan_value_fails(monkeypatch):
    cfg = default_config()
    assert _fam3_chart_residuals(cfg).passed
    _nan_after_first(monkeypatch, "_charted", index=7)
    result = _fam3_chart_residuals(cfg)
    assert math.isnan(result.max_err) and not result.passed
    assert result.n == 100


def test_momentum_offset_nan_frame_fails():
    cfg = default_config()
    traj = frame_trajectories(cfg)
    assert check_momentum_offset(cfg, traj).passed
    p = traj.p.copy()
    p[-1, 2] = np.nan  # the third frame, after two finite ones
    result = check_momentum_offset(cfg, dataclasses.replace(traj, p=p))
    assert math.isnan(result.max_err) and not result.passed
    assert result.n == (len(traj.frames) - 1) * len(traj)
