"""energy.drift checks the energy balance of the paper's homogeneous picture.

Along a solution in frame u, the energy E = |p|^2 / 2m + phi changes at
the rate of the potential along the frame's world line, d phi/dt +
<grad phi, u>.  The check compares E(t_k) - E(0) with the integral of that
rate, so its verdict must not depend on which inertial frame describes the
motion.  The boosted twin of a scenario is the same motion seen from a
frame moving at w: events (t, q - wt), velocities and frames shifted by
-w, and the potential phi(t, q + wt) as a ``custom`` expression.  A static
potential then depends on time, and the twin's energy in its own rest
frame is not conserved.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from galimech.frame_dynamics import Potential
from galimech.harness.checks import _cumulative_simpson
from galimech.harness.cli import main
from galimech.harness.config import default_config

from test_golden_outputs import SCENARIOS, TIME_METRIC

DEFAULT = default_config()
UNIFORM = {"potential": {"kind": "uniform", "force": [0.3, -1.1, 0.6]}}
BOOSTS = [(0.5, -0.3, 0.2), (2.0, 1.0, -3.0)]


def boosted(cfg: dict, w, own_frame_first: bool) -> dict:
    """The scenario seen from a frame moving at w.  The frames are the
    original ones shifted by -w; with own_frame_first, the twin's own rest
    frame (the frame moving at w) comes first, ahead of them."""
    pot = cfg["potential"]
    q = [f"(q{i + 1}+({w[i]})*t)" for i in range(3)]
    if pot["kind"] == "harmonic":
        c = pot.get("center", [0.0, 0.0, 0.0])
        expr = f"0.5*{pot['k']}*(" + "+".join(
            f"({q[i]}-({c[i]}))^2" for i in range(3)) + ")"
    else:
        f = pot["force"]
        expr = "-(" + "+".join(f"({f[i]})*{q[i]}" for i in range(3)) + ")"
    t0, *q0 = cfg.get("initial_event", DEFAULT.initial_event)
    frames = [[u[i] - w[i] for i in range(3)]
              for u in cfg.get("frames", DEFAULT.frames)]
    return {**cfg,
            "potential": {"kind": "custom", "expr": expr},
            "initial_event": [t0, *(q0[i] - w[i] * t0 for i in range(3))],
            "initial_velocity": [v - wi for v, wi in zip(
                cfg.get("initial_velocity", DEFAULT.initial_velocity), w)],
            "frames": [[0.0, 0.0, 0.0]] * own_frame_first + frames}


def run(tmp_path, argv, config):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--config", str(path), "--out", str(out)])
    return code, out


def dynamics(tmp_path, config) -> tuple[int, dict]:
    """Exit code and {check name: max_err} of invariants --suite dynamics."""
    code, out = run(tmp_path, ["invariants", "--suite", "dynamics"], config)
    return code, {c["name"]: c["max_err"]
                  for c in json.loads(out.read_text())["checks"]}


def raw_drift(tmp_path, config) -> float:
    """The largest |E(t) - E(0)| of the simulate CSV, frame 0."""
    code, out = run(tmp_path, ["simulate"], config)
    assert code == 0
    energy = np.loadtxt(out, delimiter=",", skiprows=1)[:, 8]
    return float(np.max(np.abs(energy - energy[0])))


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
    def test_exact_on_cubics_past_the_first_step(self, n):
        h = 0.25
        t = h * np.arange(n + 1)
        got = _cumulative_simpson(1.0 - 2.0 * t + 3.0 * t**2 + 4.0 * t**3, h)
        want = t - t**2 + t**3 + t**4
        assert got[0] == 0.0
        assert np.allclose(got[2:], want[2:], rtol=0.0, atol=1e-13)
        # the first step's three-point rule is exact on quadratics
        quad = _cumulative_simpson(1.0 - 2.0 * t + 3.0 * t**2, h)
        assert np.allclose(quad, t - t**2 + t**3, rtol=0.0, atol=1e-13)

    def test_one_step_is_the_trapezoid(self):
        assert _cumulative_simpson(np.array([1.0, 3.0]), 0.5).tolist() == \
            [0.0, 1.0]

    def test_zero_rate_integrates_to_zero(self):
        assert not _cumulative_simpson(np.zeros(8), 1e-3).any()


class TestEnergyBalance:
    def test_time_dependent_potential_balances(self, tmp_path):
        # Raw drift 1.3e-2: the potential's time derivative does the work.
        assert raw_drift(tmp_path, TIME_METRIC) > 1e-2
        code, errs = dynamics(tmp_path, TIME_METRIC)
        assert code == 0 and errs["energy.drift"] <= 1e-12

    @pytest.mark.parametrize("w", BOOSTS)
    @pytest.mark.parametrize("name", ["harmonic_metric", "uniform"])
    @pytest.mark.parametrize("own_frame_first", [True, False])
    def test_boosted_twin_keeps_every_verdict(self, tmp_path, name, w,
                                              own_frame_first):
        original = UNIFORM if name == "uniform" else SCENARIOS[name]
        twin = boosted(original, w, own_frame_first)
        if own_frame_first:
            # E is not conserved in the twin's rest frame.
            assert raw_drift(tmp_path, twin) > 0.1
        code, errs = dynamics(tmp_path, twin)
        assert code == 0
        assert errs["energy.drift"] <= 1e-10

    def test_static_potential_from_a_moving_frame_balances(self, tmp_path):
        # With u first, E changes at <grad phi, u>, by 0.97 over the run.
        config = {**UNIFORM, "frames": [[1.0, -0.5, 0.2], [0.0, 0.0, 0.0]]}
        assert raw_drift(tmp_path, config) > 0.1
        code, errs = dynamics(tmp_path, config)
        assert code == 0 and errs["energy.drift"] <= 1e-10

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_static_potential_at_rest_is_not_differentiated(
            self, tmp_path, monkeypatch, name):
        # The rate is exactly 0 there, so the check is conservation, with
        # the same bits, and Potential.d is never called.
        def refuse(self, x):
            raise AssertionError("Potential.d called")
        monkeypatch.setattr(Potential, "d", refuse)
        code, errs = dynamics(tmp_path, SCENARIOS[name] or {})
        assert code == 0 and errs["energy.drift"] <= 1e-12
