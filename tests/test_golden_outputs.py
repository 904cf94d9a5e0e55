"""Golden-output regression: the CLI outputs of three scenarios, hashed.

The three ``simulate`` CSV hashes were recorded from the per-frame
integrator that stored one object per step.  The 16 JSON report hashes
(``boost-check``, ``invariants``, ``morse-check`` and the
``--corrupt-sigma`` negative control, plus the ``morse-check`` report of a
time-dependent potential under a non-diagonal metric) were re-recorded
once, for three report changes together:

* each check carries ``worst_index``, the flat index of its worst
  per-sample error, and ``nonfinite``, the count of NaN or infinite errors;
* ``momentum.offset_constant`` takes the rounding of momenta of size |p|
  off each error before scaling it by the offset;
* sampled checks draw block-wise: ``checks._draws`` lays the blocks of
  every draw side by side as columns and makes one ``rng.random((n, U))``
  call for the U uniform columns, then one ``rng.standard_normal((n, N))``
  call for the N normal ones.  Checks whose draws are all of one kind kept
  every sample; the checks that mix the kinds got new ones.

A sampled check's ``worst_index`` replays from the config seed and the
check name: ``checks._draws(checks._rng(cfg, name), n, *layout)``, row
``worst_index``.  Any change to the integrator, the trajectory storage,
the CSV writer, the kernels or the checks that alters a single bit of
these outputs fails here, so refactors of those layers have to keep every
float the same.

The custom-potential ``simulate`` CSV was re-recorded twice before: when
the finite-difference gradient moved to the numpy evaluator, whose
``power`` and ``exp`` may round differently from the scalar ``math``
path, and when the ``H`` column moved there too (one value, at step 14,
moved by 1 ulp, a scaled difference of 6.0e-17).  A bounded test holds
that CSV against a scalar reference instead.

When the central differences gave way to the exact force derived from
the parsed expression, the five ``custom_anharmonic`` outputs that
integrate it were re-recorded once, after a sweep of seeds 1-50 in which
every exit code and check status matched the central-difference version.
Largest scaled differences, |new - old| / (1 + |old|) for the CSV and the
change of each ``max_err`` that moved:

* ``simulate`` CSV: 1.2e-13 (step 45, p1); 50 of its 51 rows moved.
* ``boost-check`` and ``boost-check --corrupt-sigma`` JSON:
  ``world_line.agreement`` 1.1e-16 -> 0.0 and ``momentum.offset_constant``
  2.2e-14 -> 0.0 at every seed (1.1e-9 and 2.2e-5 of their tolerances).
* ``invariants --suite dynamics`` and ``--suite all`` JSON:
  ``energy.drift`` 6.8e-14 -> 4.4e-16 at every seed (6.8e-6 of its
  tolerance).

The ``morse-check`` reports, which read the force through the
differentials of the Morse families, kept every byte at all 50 seeds, as
did every output of the built-in potentials.

When the built-in kinds, whose force is affine in q, moved from RK4's
four stages to one precomputed RK4 step map (the same scheme, its sums
in another order), the five ``harmonic_metric`` outputs that integrate
were re-recorded once, after a sweep of seeds 1-50 in which every exit
code and check status matched the stage loop.  Largest scaled
differences, as above:

* ``simulate`` CSV: 2.6e-16 (step 557, H); 861 of its 1001 rows moved.
* ``boost-check`` and ``boost-check --corrupt-sigma`` JSON:
  ``momentum.offset_constant`` 9.8e-16 -> 1.1e-15 at every seed (1.1e-6
  of its tolerance); its ``worst_index`` and that of
  ``world_line.agreement`` moved, and no other ``max_err``.
* ``invariants --suite dynamics`` and ``--suite all`` JSON: only the
  ``worst_index`` of ``energy.drift`` moved; its ``max_err`` kept every
  bit.

The ``default`` (free) outputs kept every byte at all 50 seeds, as did
the ``custom_anharmonic`` ones, which still run the stage loop.

When the step map came to advance a block of steps at a time (each
block predicts its states from powers of the map, takes the step
increments there and adds them in step order), the same five
``harmonic_metric`` outputs were re-recorded once more, after a sweep of
seeds 1-50 in which every exit code and check status matched the
per-step map.  Largest scaled differences, as above:

* ``simulate`` CSV: 1.3e-16 (step 679, H); 988 of its 1001 rows moved.
* ``boost-check`` and ``boost-check --corrupt-sigma`` JSON:
  ``momentum.offset_constant`` 1.1e-15 -> 9.2e-16 and
  ``world_line.agreement`` 6.6e-16 -> 4.4e-16 at every seed (2.2e-16 each,
  2.2e-7 and 2.2e-9 of their tolerances); the ``worst_index`` of
  ``world_line.agreement`` moved.
* ``invariants --suite dynamics`` and ``--suite all`` JSON:
  ``energy.drift`` 2.9e-15 -> 2.7e-15 (2.2e-16, 2.2e-8 of its tolerance),
  and its ``worst_index`` moved.

No other ``max_err`` moved.  The ``default`` and ``custom_anharmonic``
outputs kept every byte at all 50 seeds: a free particle's increments
are exact, and a ``custom`` potential runs the stage loop.

When the built-in kinds came to be compiled from expression text like a
``custom`` potential, their forces kept every bit, and so did every
trajectory; their values are now summed left to right by the graph, not
by ``np.vecdot``, and moved by a few ulps.  Only the ``harmonic_metric``
``simulate`` CSV was re-recorded, after a sweep of seeds 1-50 over the
golden scenarios and two uniform-force ones in which every exit code and
check status matched: its ``H`` column moved in 9 of 1001 rows, by at
most 6.5e-17 scaled (step 961).  Its reports at the golden seed kept
their bytes; at other seeds the sampled checks that read values moved
(``legendre.fd_consistency`` by at most 1.2e-10, 1.2e-4 of its
tolerance, through its finite differences).  A uniform force of
(0, 0, -1) kept every byte at all 50 seeds.
"""

import hashlib
import json
import os
import subprocess
import sys

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
        (0, "36e8021e2f88436b86eb8e018e02f6307d1a4a5d7e31df5819c94a57250c1b65"),
    ("custom_anharmonic", "invariants"):
        (0, "e6e6cdcf117fe3504ac11a24e961781f7eebf572433850783d8b9cc2b5be9f11"),
    ("custom_anharmonic", "simulate"):
        (0, "b15440d446c504d47cb847d96c2b54d8883d655eb7a4d771abf9e72b4e33730e"),
    ("default", "boost-check"):
        (0, "8781a3f909da51855fe3d2aa4cf7a6e9d03b0b2600f331095204c689182e7444"),
    ("default", "invariants"):
        (0, "0fe1af92147f75c7190d2cc1a22711231594931411c963c406791b1041305571"),
    ("default", "simulate"):
        (0, "83ca5c0bb33ea15f1b05a90e1b34e1fac660ba4f8323ffdf9e3f98205b02461d"),
    ("harmonic_metric", "boost-check"):
        (0, "01b75ab0c8d33d81e0b922703b03eb965ed5160e1c434d19a4daf07eb9e35e4f"),
    ("harmonic_metric", "invariants"):
        (0, "ee4f1220ebd9ec3c3e446a166a794d688c8e387727f54e8fe004360d38f4f129"),
    ("harmonic_metric", "simulate"):
        (0, "c593abbc3cc18028a536721fc315377fda043b57f226744edd9c80bc9f3ca15d"),
    ("custom_anharmonic", "invariants-all"):
        (0, "e2dd50b5473e2441dc605bd91853d23a7838de746bba3ebdc62f057e9d2a85df"),
    ("custom_anharmonic", "morse-check"):
        (0, "c417579cf26710f0173f1e9dc58c5c93af0f3b61bb606adbd29ffc13b5f29d3d"),
    ("custom_anharmonic", "boost-check-corrupt"):
        (1, "2ac3b1407b2292e3b8ac1dee4003062539145778c2c2afdb8c76d44135b01b60"),
    ("default", "invariants-all"):
        (0, "d5f717af120348109450433a744e1a0def61347dce92d122bb5aec1cb85fd785"),
    ("default", "morse-check"):
        (0, "06aabcf05d1751e8aeb00bc40722ccc1f7cc135f37b14dc0fa51302dc26fec47"),
    ("default", "boost-check-corrupt"):
        (1, "81eaa1c74dc8af60cb9556e60722ced7ef1d52341ee86847f378d6af174e0f8c"),
    ("harmonic_metric", "invariants-all"):
        (0, "3f11423ea438e23c137dd487796856271b4e96877f26d3f25b9acb5b1e79f7ad"),
    ("harmonic_metric", "morse-check"):
        (0, "0a7991d2ea12663c84808b94184afff5bf17257b23e1428435de70b918a7278e"),
    ("harmonic_metric", "boost-check-corrupt"):
        (1, "e884f253c2b67755285b130662f23bf12be6f50e4a67fd5bf54d63d3d40c2838"),
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
        0, "aa76b534313564922c3a711bff652ce0ccdbee69e4bf75c33c797e9f0f473475")


@pytest.mark.parametrize("scenario", ["default", "harmonic_metric"])
def test_morse_check_makes_no_per_row_lstsq(tmp_path, monkeypatch, scenario):
    def per_row(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", per_row)
    assert _run(tmp_path, scenario, "morse-check") == GOLDEN[(scenario, "morse-check")]


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


@pytest.mark.parametrize("command", ["invariants-all", "morse-check"])
def test_long_reports_do_not_depend_on_the_hash_seed(tmp_path, command):
    # str hashes change with PYTHONHASHSEED; nothing that sets an output
    # byte may depend on them, caches keyed by the check layouts included.
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(SCENARIOS["harmonic_metric"]))
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out-{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, GALIMECH_LOG="error")
        proc = subprocess.run(
            [sys.executable, "-m", "galimech", *COMMANDS[command],
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0]).hexdigest() == \
        GOLDEN[("harmonic_metric", command)][1]
