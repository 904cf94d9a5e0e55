"""Golden-output regression: the CLI outputs of three scenarios, hashed.

The hashes were recorded from the per-frame integrator that stored one
object per step, those of the full ``invariants`` and ``morse-check``
reports and of the ``--corrupt-sigma`` negative control from the sampled
checks that looped over one sample at a time, and the ``morse-check``
report of a time-dependent potential under a non-diagonal metric from the
Morse engine that differentiated one critical point at a time.  Any change to the
integrator, the trajectory storage, the CSV writer, the kernels or the
checks that alters a single bit of these outputs fails here, so refactors
of those layers have to keep every float the same.

The one exception is the custom-potential ``simulate`` CSV, re-recorded
when the finite-difference gradient moved to the numpy evaluator, whose
``power`` and ``exp`` may round differently from the scalar ``math``
path.  A bounded test holds that CSV against a scalar reference instead.
"""

import hashlib
import json

import numpy as np
import pytest

from galimech.harness.cli import main
from galimech.harness.expressions import compile_expression

SCENARIOS = {
    "default": None,
    "harmonic_metric": {
        "metric": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]],
        "potential": {"kind": "harmonic", "k": 1.5, "center": [0.1, 0.0, 0.0]},
        "initial_event": [0.0, 1.0, 0.0, 0.0],
        "initial_velocity": [0.2, 0.3, 0.0],
    },
    "custom_anharmonic": {
        "potential": {"kind": "custom",
                      "expr": "0.5*q1^2 + 0.25*q2^4 + 0.1*q1*q3"},
        "initial_event": [0.0, 0.8, 0.5, 0.1],
        "n": 50,
    },
}

# A time-dependent custom potential under a non-diagonal metric: the Morse
# families then take the time derivative of the potential and every
# off-diagonal metric entry.  Only its morse-check report is pinned.
TIME_METRIC = {
    "metric": [[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 0.5]],
    "potential": {"kind": "custom", "expr": "0.5*(q1^2+q2^2+q3^2)*(1+0.1*t)"},
}

COMMANDS = {
    "simulate": ["simulate"],
    "boost-check": ["boost-check"],
    "invariants": ["invariants", "--suite", "dynamics"],
    "invariants-all": ["invariants", "--suite", "all"],
    "morse-check": ["morse-check", "--family", "all"],
    "boost-check-corrupt": ["boost-check", "--corrupt-sigma"],
}

GOLDEN = {
    ("custom_anharmonic", "boost-check"):
        (0, "3f5ddf76f92a3c3bfc8778058b3eb568b4df3630146a73341e81fc4848f7e171"),
    ("custom_anharmonic", "invariants"):
        (0, "31b3b4bc077ef0aa0b5e8793f3b3ff0bd23e37ffe49283ee4f18a91481eddf5e"),
    ("custom_anharmonic", "simulate"):
        (0, "38f8d03ee0379fb0ae77baca047b0ab4840bf860f1a47c22d3ab4e3d2436cc67"),
    ("default", "boost-check"):
        (0, "1d5f501039864c0c9ae345245214dac6ff6b5665eb93f2f12122dfbb0f57435a"),
    ("default", "invariants"):
        (0, "396704d045e0de489d5e5b447a2871755a10d36cae6bb5b2962f7d21043df0d7"),
    ("default", "simulate"):
        (0, "83ca5c0bb33ea15f1b05a90e1b34e1fac660ba4f8323ffdf9e3f98205b02461d"),
    ("harmonic_metric", "boost-check"):
        (0, "a00866d934563a470631a8d7f7fefcf1e74b161ab2fe6e3c2d8ac0dd142b0d82"),
    ("harmonic_metric", "invariants"):
        (0, "43c8fe7949d65bbdce3e46a984d217cbe5008d767448f48ffd61a35ae77ef3c8"),
    ("harmonic_metric", "simulate"):
        (0, "562a4e49d1773acc4369c17dd068c500877223d7dd4d846ef80de30a13eeddba"),
    ("custom_anharmonic", "invariants-all"):
        (0, "94f6527d3d72aca16bb156f937e94b0813997fb9eec74dfe00680547881c1f30"),
    ("custom_anharmonic", "morse-check"):
        (0, "25ca87d09e843953ad84fefd2273f3d9f374dc4e7b01362e8d15d89bace86deb"),
    ("custom_anharmonic", "boost-check-corrupt"):
        (1, "cad8171808b0299221b15d3e0bbc5de0a941acb4bacb6b1b1506c82b42314629"),
    ("default", "invariants-all"):
        (0, "a3ef06c05f5cac0810ab98fc3b02926118bacf707d2a331e6e89629498ab85f4"),
    ("default", "morse-check"):
        (0, "bd811e8bcc32bdc7ccf5c3cc3bdda7cb98613c771f928c796f0984e9d5eae33e"),
    ("default", "boost-check-corrupt"):
        (1, "4f36989cad39ae2f1ba097f49668acdf0b33dd1172e634f95ea4aa8970bcf65d"),
    ("harmonic_metric", "invariants-all"):
        (0, "fd546e6d38dd2f1e9d6a1ee7f0ca38c0a30f3ddf8a8787f269869b7d493d1d29"),
    ("harmonic_metric", "morse-check"):
        (0, "8452433f42fff1d7c5587a12097861919ec60c9442e7fdd9f32c54acd5a4baaa"),
    ("harmonic_metric", "boost-check-corrupt"):
        (1, "a5f25a8c46a1f09282656de6e5c731fc881262a23a8096787522dfffbc488711"),
}


def _run(tmp_path, scenario: str | dict, command: str) -> tuple[int, str]:
    argv = list(COMMANDS[command])
    config = SCENARIOS[scenario] if isinstance(scenario, str) else scenario
    if config is not None:
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out"
    argv += ["--out", str(out)]
    code = main(argv)
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_output_matches_golden_hash(tmp_path, scenario, command):
    assert _run(tmp_path, scenario, command) == GOLDEN[(scenario, command)]


def test_time_dependent_metric_morse_check_matches_golden_hash(tmp_path):
    assert _run(tmp_path, TIME_METRIC, "morse-check") == (
        0, "a33be2fe3b2ac1961d56192c07e69b9abc06b07dafa9b5510e99958594d33e68")


def _scalar_reference_rows(scenario: dict) -> np.ndarray:
    """RK4 in the lab frame with identity metric and unit mass, one point
    at a time through the scalar evaluator, with the integrator's central
    differences (step 1e-6 * (1 + |q_i|)): rows step,t,q1..3,p1..3,H."""
    phi = compile_expression(scenario["potential"]["expr"])
    h, n = 1e-3, scenario["n"]

    def grad(t, q):
        out = []
        for i in range(3):
            step = 1e-6 * (1.0 + abs(q[i]))
            plus, minus = list(q), list(q)
            plus[i] += step
            minus[i] -= step
            out.append((phi(t, *plus) - phi(t, *minus)) / (2.0 * step))
        return np.array(out)

    t, q, p = scenario["initial_event"][0], \
        np.array(scenario["initial_event"][1:]), np.array([1.0, 0.0, 0.0])
    rows = []
    for k in range(n + 1):
        rows.append([k, t, *q, *p, 0.5 * p @ p + phi(t, *q)])
        k1q, k1p = p, -grad(t, q)
        k2q, k2p = p + 0.5 * h * k1p, -grad(t + 0.5 * h, q + 0.5 * h * k1q)
        k3q, k3p = p + 0.5 * h * k2p, -grad(t + 0.5 * h, q + 0.5 * h * k2q)
        k4q, k4p = p + h * k3p, -grad(t + h, q + h * k3q)
        q = q + h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
        p = p + h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        t = t + h
    return np.array(rows)


def test_custom_csv_matches_scalar_reference(tmp_path):
    scenario = SCENARIOS["custom_anharmonic"]
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    ref = _scalar_reference_rows(scenario)
    assert got.shape == ref.shape == (scenario["n"] + 1, 9)
    assert np.all(np.abs(got - ref) <= 1e-10 * (1.0 + np.abs(ref)))
