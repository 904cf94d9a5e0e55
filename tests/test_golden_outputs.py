"""Golden-output regression: the CLI outputs of three scenarios, hashed.

The hashes were recorded from the per-frame integrator that stored one
object per step.  Any change to the integrator, the trajectory storage, the
CSV writer, or the checks that alters a single bit of these outputs fails
here, so refactors of those layers have to keep every float the same.
"""

import hashlib
import json

import pytest

from galimech.harness.cli import main

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

COMMANDS = {
    "simulate": ["simulate"],
    "boost-check": ["boost-check"],
    "invariants": ["invariants", "--suite", "dynamics"],
}

GOLDEN = {
    ("custom_anharmonic", "boost-check"):
        (0, "3f5ddf76f92a3c3bfc8778058b3eb568b4df3630146a73341e81fc4848f7e171"),
    ("custom_anharmonic", "invariants"):
        (0, "31b3b4bc077ef0aa0b5e8793f3b3ff0bd23e37ffe49283ee4f18a91481eddf5e"),
    ("custom_anharmonic", "simulate"):
        (0, "d8be9ed3edd82346420eac501e46ca1c1c56990fd2b7abd9bfb8b99f303c5bfc"),
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
}


def _run(tmp_path, scenario: str, command: str) -> tuple[int, str]:
    argv = list(COMMANDS[command])
    if SCENARIOS[scenario] is not None:
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(SCENARIOS[scenario]))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out"
    argv += ["--out", str(out)]
    code = main(argv)
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_output_matches_golden_hash(tmp_path, scenario, command):
    assert _run(tmp_path, scenario, command) == GOLDEN[(scenario, command)]
