"""Direct tests of the check layer, mostly the parts the CLI cannot reach."""

import ast
import dataclasses
import inspect
import json
import math
import warnings

import numpy as np
import pytest

from galimech.frame_dynamics import (
    Trajectory,
    lagrangian_hom,
    lagrangian_inhom,
    legendre_hom,
    legendre_inhom,
)
from galimech.galilean_core import (
    SpatialMetric, maxabs, pair, sigma)
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
from galimech.harness.cli import main
from galimech.harness.config import PotentialSpec, default_config

from conftest import at


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
    clean = check_residual_preservation(default_config(), sigma)
    dirty = check_residual_preservation(default_config(), corrupted_sigma)
    assert clean.passed
    assert dirty.max_err > 1e6 * clean.max_err


def test_checks_are_order_independent():
    # Same named check, same config: identical numbers no matter what ran
    # before it, because each check derives its own rng stream.
    cfg = default_config()
    alone = check_residual_preservation(cfg, sigma)
    after_suite = [c for c in suite_checks(cfg, "dynamics")
                   if c.name == "boost.residual_preservation"]
    assert after_suite == [alone]


def test_seed_changes_samples_but_not_verdict():
    cfg = default_config()
    other = dataclasses.replace(cfg, seed=1234)
    a = check_residual_preservation(cfg, sigma)
    b = check_residual_preservation(other, sigma)
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
    args = (sigma,) if check is check_residual_preservation else ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape either
        result = check(cfg, *args)
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


# --- the array checks against per-sample loops over single entries -------

def _loop_lagrangian_shift(cfg, rng, phi, g):
    worst = 0.0
    rows = zip(*checks._draws(rng, 1000, checks._FRAME, checks._FRAME,
                              checks._FUTURE, checks._NORMAL4))
    for u, u_prime, v, x in rows:
        phi_x = at(phi, x)
        lhs = lagrangian_hom(u, cfg.mass, g, phi_x, v) \
            - lagrangian_hom(u_prime, cfg.mass, g, phi_x, v)
        rhs = cfg.mass * pair(sigma(g, u_prime, u), v)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def _loop_legendre_fd(cfg, rng, phi, g):
    m, worst = cfg.mass, 0.0
    u0, x0, w0, u1, x1, v1 = checks._draws(
        rng, 250, checks._FRAME, checks._NORMAL4, (3,),
        checks._FRAME, checks._NORMAL4, checks._FUTURE)
    for i in range(500):
        k = i // 2
        u = (u0, u1)[i % 2][k]
        phi_x = at(phi, (x0, x1)[i % 2][k])
        if i % 2 == 0:
            coords = w0[k]
            analytic = legendre_inhom(u, m, g, coords)
            lagrangian = lambda c: lagrangian_inhom(u, m, g, phi_x, c)
        else:
            coords = v1[k]
            analytic = legendre_hom(u, m, g, phi_x, coords)
            lagrangian = lambda c: lagrangian_hom(u, m, g, phi_x, c)
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
        out = real(*args, **kwargs).copy()
        out.reshape(-1, out.shape[-1])[index] = np.nan
        return out

    monkeypatch.setattr(checks, name, patched)


def test_rank_check_nan_rank_fails():
    # The mixed Hessian of the second point is not finite.
    fam = FunctionFamily(
        1, 1, lambda b, f: 0.0,
        lambda b, f: (np.zeros_like(b),
                      np.where(b > 0.5, np.nan, 4 * f ** 3 - b)),
        lambda b, f: np.where(b[..., None] > 0.5, np.nan,
                              np.stack([-np.ones_like(f), 12 * f ** 2], axis=-1)),
        name="nan-at-second")
    points = CriticalPoint(np.array([[0.0], [1.0], [0.0]]), np.zeros((3, 1)))
    assert is_morse(fam, points)[0] == 1
    result = _rank_check("morse.nan.rank", fam, points, 1)
    assert math.isnan(result.max_err) and not result.passed
    assert result.n == 3


def test_fam1_vs_fam2_nan_covector_fails(monkeypatch):
    cfg = default_config()
    assert _fam1_vs_fam2(cfg, cfg.build_frames()[0]).passed
    _nan_after_first(monkeypatch, "kappa", index=3)
    result = _fam1_vs_fam2(cfg, cfg.build_frames()[0])
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
    result = check_momentum_offset(
        cfg, Trajectory(traj.t, traj.q, p, traj.h, traj.frames, traj.mass))
    assert math.isnan(result.max_err) and not result.passed
    assert result.n == (len(traj.frames) - 1) * len(traj)


# --- self-explaining verdicts ---------------------------------------------

def test_verdict_names_the_worst_sample_and_counts_non_finite():
    errs = np.array([0.0, 3.0, np.inf, 1.0, np.nan, np.nan])
    result = _verdict("x", errs, 1.0)
    assert (result.worst_index, result.nonfinite) == (4, 3)
    result = _verdict("x", np.array([0.0, 2e-9, 5e-9, 5e-9]), 1.0)
    assert (result.worst_index, result.nonfinite) == (2, 0)
    result = _verdict("x", np.array([False, False, True, True]), 0.0, count=True)
    assert (result.worst_index, result.max_err) == (2, 2.0)
    assert _verdict("x", np.zeros(0), 0.0).worst_index is None


def test_one_nan_sample_is_named_in_the_report(tmp_path, monkeypatch):
    # Sample 123 of every potential evaluation is NaN: each check that
    # reads the potential names sample 123 and counts it, twice for the
    # Legendre check, whose errors are 250 inhomogeneous samples and then
    # 250 homogeneous ones, each with its own potential values.
    real = checks._potential_at

    def one_nan(phi, x):
        out = real(phi, x).copy()
        out[123] = np.nan
        return out

    monkeypatch.setattr(checks, "_potential_at", one_nan)
    out = tmp_path / "report.json"
    assert main(["invariants", "--suite", "dynamics", "--out", str(out)]) == 1
    report = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name, nonfinite in (("lagrangian.shift_identity", 1),
                            ("legendre.fd_consistency", 2),
                            ("mass_shell.on_shell_residual", 1),
                            ("boost.residual_preservation", 1)):
        assert report[name]["status"] == "fail"
        assert (report[name]["worst_index"], report[name]["nonfinite"]) == \
            (123, nonfinite)
    assert report["energy.drift"]["nonfinite"] == 0


def test_worst_index_replays_from_the_seed_and_the_check_name():
    # The check's stream, drawn in the check's block layout, gives back the
    # worst sample; one evaluation of it alone reproduces max_err.
    cfg = dataclasses.replace(
        default_config(), seed=7, mass=1.3,
        potential=PotentialSpec("custom", expr="sin(q1)*q2 + 0.2*q3^2"))
    result = check_lagrangian_shift(cfg)
    u, u_prime, v, x = checks._draws(
        _rng(cfg, result.name), result.n,
        checks._FRAME, checks._FRAME, checks._FUTURE, checks._NORMAL4)
    i, g, phi = result.worst_index, cfg.build_metric(), cfg.build_potential()
    phi_x = at(phi, x[i])
    lhs = lagrangian_hom(u[i], cfg.mass, g, phi_x, v[i]) \
        - lagrangian_hom(u_prime[i], cfg.mass, g, phi_x, v[i])
    rhs = cfg.mass * pair(sigma(g, u_prime[i], u[i]), v[i])
    assert abs(lhs - rhs) / max(1.0, abs(rhs)) == result.max_err
    assert result.nonfinite == 0


def test_world_line_and_offset_name_a_step_and_frame():
    cfg = default_config()
    traj = frame_trajectories(cfg)
    q = traj.q.copy()
    q[17, 3, 1] += 1.0  # step 17, frame 3
    p = traj.p.copy()
    p[17, 3, 1] = np.nan
    broken = Trajectory(traj.t, q, p, traj.h, traj.frames, traj.mass)
    frames = len(traj.frames) - 1
    for result in (check_world_lines(cfg, broken),
                   check_momentum_offset(cfg, broken)):
        assert not result.passed
        assert divmod(result.worst_index, frames) == (17, 2)
    assert check_momentum_offset(cfg, broken).nonfinite == 1


# --- the draw driver against the per-draw masks it replaced ---------------

def _masked_draws(rng, n, *draws):
    """The draw driver before its column plan was cached: boolean column
    masks built on every call, kept here as the reference."""
    blocks = [b for draw in draws for b in draw]
    normal = np.concatenate([np.full(b, True) if isinstance(b, int)
                             else np.full(b[2], False) for b in blocks])
    low, high = np.array([b[:2] for b in blocks if not isinstance(b, int)
                          for _ in range(b[2])]).reshape(-1, 2).T
    out = np.empty((n, normal.size))
    if low.size:
        out[:, ~normal] = low + (high - low) * rng.random((n, low.size))
    if normal.any():
        out[:, normal] = rng.standard_normal((n, int(normal.sum())))
    widths = [sum(b if isinstance(b, int) else b[2] for b in d) for d in draws]
    return np.split(out, np.cumsum(widths)[:-1], axis=1)


def _layouts_in_checks() -> list[tuple]:
    """Every layout that checks.py passes to _draws, read from its source."""
    tree = ast.parse(inspect.getsource(checks))
    namespace = vars(checks)
    layouts = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_draws":
            layout = []
            for arg in node.args[2:]:
                starred = isinstance(arg, ast.Starred)
                value = eval(compile(ast.Expression(
                    arg.value if starred else arg), "<layout>", "eval"), namespace)
                layout += value if starred else [value]
            layouts.append(tuple(layout))
    return layouts


def test_layouts_are_read_from_the_source():
    layouts = _layouts_in_checks()
    assert len(layouts) > 10
    assert (checks._FRAME, checks._FRAME, checks._FUTURE,
            checks._NORMAL4) in layouts
    assert (checks._NORMAL4, *[checks._FRAME] * 20) in layouts


@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("layout", _layouts_in_checks(), ids=str)
def test_draws_keep_the_masked_values_and_strides(layout, n):
    got = checks._draws(np.random.default_rng([3, n]), n, *layout)
    want = _masked_draws(np.random.default_rng([3, n]), n, *layout)
    assert len(got) == len(want) == len(layout)
    for a, b in zip(got, want):
        assert (a.shape, a.strides) == (b.shape, b.strides)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_draws_leave_the_stream_where_the_masks_did():
    layout = (checks._FRAME, checks._NORMAL4, (3,), checks._FUTURE)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    checks._draws(rng, 50, *layout)
    _masked_draws(ref, 50, *layout)
    assert rng.random() == ref.random()


# --- the row maximum as a column fold -------------------------------------

def _rows(width: int) -> np.ndarray:
    """(8, width) rows holding NaN, +-inf, -0.0 and a maximum in the last
    column, next to plain values."""
    rng = np.random.default_rng(width)
    a = rng.normal(size=(8, width))
    if width:
        a[0, -1] = np.nan
        a[1, 0] = -np.inf
        a[2, -1] = np.inf
        a[3] = -0.0
        a[4, -1] = 1e3
        a[5, 0], a[5, -1] = np.nan, -np.inf
        a[6, -1] = -1e3
    return a


@pytest.mark.parametrize("width", range(6))
@pytest.mark.parametrize("shape", [(), (3,)], ids=["rows", "stacked"])
def test_maxabs_equals_the_reduction_bit_for_bit(width, shape):
    a = _rows(width)
    if shape:
        a = np.stack([a, -a[::-1], a * 0.5], axis=1)  # (n, k, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.asarray(maxabs(a))
        want = np.max(np.abs(a), axis=-1, initial=0.0) if not width \
            else np.max(np.abs(a), axis=-1)
    assert got.shape == want.shape == a.shape[:-1]
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
