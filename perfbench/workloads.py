"""Seeded inputs for the benchmark workloads.

Every input a workload feeds the CLI is derived from the workload seed:
the scenario configs (frames, initial state, potential parameters) and the
per-iteration check seeds passed with ``--seed``.  The program itself only
ever sees ``--config`` and ``--seed``.

One iteration is a fixed pair of commands.  Iteration i uses config
``i % POOL`` and check seed ``seeds[i]``, so a run of any length cycles
through the same pool and a replay of the first K iterations reproduces
exactly the same commands.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Reserved for re-checking a performance claim after a change was written.
# Never use it while tuning a change or the benchmark itself.
HELDOUT_SEED = 90217

POOL = 6
SEED_COUNT = 4096
FRAMES = 8

# RK4 steps per integration.  Short trajectories keep each command short
# (boost-check about 0.2 s), so a run holds over a hundred samples, while
# integrate stays above 80% of the command time.  The custom potential
# costs about four times as much per step, so its n is shorter and an
# iteration lasts about as long as a world_lines iteration.  verify_suites
# keeps the default n of the stock scenario.
N_STEPS = {"world_lines": 200, "custom_field": 50, "verify_suites": 1000}

# Commands of one iteration, with the extension of their --out file.
COMMANDS = {
    "world_lines": (("simulate", "csv", ()), ("boost-check", "json", ())),
    "custom_field": (("simulate", "csv", ()), ("boost-check", "json", ())),
    "verify_suites": (("invariants", "json", ("--suite", "all")),
                      ("morse-check", "json", ("--family", "all"))),
}

WORKLOADS = tuple(COMMANDS)


def _r(x: float) -> float:
    return round(float(x), 4)


def _vec(rng: np.random.Generator, lo: float, hi: float) -> list[float]:
    return [_r(v) for v in rng.uniform(lo, hi, size=3)]


def _custom_expr(rng: np.random.Generator, k: float, c: list[float]) -> str:
    """Time-independent anharmonic well: a quadratic bowl with a quartic
    term, a bounded trigonometric ripple and a Gaussian bump."""
    a, b, e = _r(rng.uniform(0.05, 0.2)), _r(rng.uniform(0.1, 0.4)), \
        _r(rng.uniform(0.2, 0.6))
    d = [f"(q{i + 1}-({c[i]}))" for i in range(3)]
    return (f"0.5*{k}*({d[0]}^2+{d[1]}^2+{d[2]}^2) + {a}*{d[0]}^4"
            f" + {b}*sin(q2)*cos(q3) + {e}*exp(-0.5*(q1^2+q3^2))")


def scenario(workload: str, rng: np.random.Generator) -> dict:
    """One scenario config for the workload, drawn from rng.

    Frame 0 is always the lab frame: energy is conserved only there, and
    both ``simulate`` (frame 0) and ``energy.drift`` rely on it.
    """
    k = _r(rng.uniform(0.5, 2.0))
    center = _vec(rng, -1.0, 1.0)
    if workload == "custom_field":
        potential = {"kind": "custom", "expr": _custom_expr(rng, k, center)}
    else:
        potential = {"kind": "harmonic", "k": k, "center": center}
    frames = [[0.0, 0.0, 0.0]] + [_vec(rng, -1.5, 1.5)
                                  for _ in range(FRAMES - 1)]
    return {
        "potential": potential,
        "frames": frames,
        "initial_event": [_r(rng.uniform(0.0, 1.0))] + _vec(rng, -1.0, 1.0),
        "initial_velocity": _vec(rng, -1.0, 1.0),
        "n": N_STEPS[workload],
    }


def generate(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's configs into directory and return the plan the
    child process executes."""
    if workload not in COMMANDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    configs = []
    for i in range(POOL):
        path = os.path.join(directory, f"config-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario(workload, rng), fh, indent=1)
        configs.append(path)
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=SEED_COUNT)]
    return {
        "workload": workload,
        "configs": configs,
        "seeds": seeds,
        "commands": [[name, ext, list(extra)]
                     for name, ext, extra in COMMANDS[workload]],
    }


def iteration_argv(plan: dict, i: int,
                   out_dir: str) -> list[tuple[str, list[str], str]]:
    """(command, argv, out path) for every command of iteration i."""
    cfg = plan["configs"][i % len(plan["configs"])]
    seed = plan["seeds"][i % len(plan["seeds"])]
    out = []
    for name, ext, extra in plan["commands"]:
        path = os.path.join(out_dir, f"{i:05d}-{name}.{ext}")
        argv = [name, "--config", cfg, "--seed", str(seed), "--out", path,
                *extra]
        out.append((name, argv, path))
    return out
