"""Direct tests of the check layer, mostly the parts the CLI cannot reach."""

import dataclasses

import pytest

from galimech.galilean_core import SpatialMetric
from galimech.harness.checks import (
    boost_checks,
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
