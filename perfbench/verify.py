"""Verification of every command a benchmark run issued.

A command counts as failed unless its output is right:

* ``simulate``: exit 0; one CSV row per step, numbered 0..n; the drift of
  the ``H`` column within the ``energy.drift`` tolerance; and on the
  harmonic workload the final event and momentum within the world-line
  tolerance of the closed-form oscillator.
* ``boost-check``, ``invariants``, ``morse-check``: exit 0, verdict pass,
  every ``max_err`` finite and at most its ``tol``, and the list of
  (check name, n, tol) equal to the manifest recorded at the seed commit,
  so that no change gets faster by dropping or shrinking a check.

Run as a script to re-record ``manifest.json`` from the current source:

    PYTHONPATH=src python3 perfbench/verify.py
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(_HERE, "manifest.json")


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def _tol(manifest: dict, workload: str, command: str, check: str) -> float:
    return next(tol for name, _, tol in manifest[workload][command]
                if name == check)


def _oscillator(cfg: dict, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form lab-frame state of the isotropic harmonic oscillator
    (identity metric) at time t."""
    m = cfg.get("mass", 1.0)
    k = cfg["potential"]["k"]
    c = np.array(cfg["potential"]["center"])
    t0, *q0 = cfg["initial_event"]
    v0 = np.array(cfg["initial_velocity"])
    w = math.sqrt(k / m)
    tau = t - t0
    d0 = np.array(q0) - c
    q = c + d0 * math.cos(w * tau) + v0 / w * math.sin(w * tau)
    p = m * (-d0 * w * math.sin(w * tau) + v0 * math.cos(w * tau))
    return q, p


def _check_trajectory(path: str, cfg: dict, workload: str,
                      manifest: dict) -> str | None:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = cfg["n"]
    if rows.shape != (n + 1, 9) or \
            not np.array_equal(rows[:, 0], np.arange(n + 1)):
        return f"expected {n + 1} rows numbered 0..{n}, got {rows.shape}"
    energy = rows[:, 8]
    drift = float(np.max(np.abs(energy - energy[0]))) \
        / max(1.0, abs(energy[0]))
    drift_tol = _tol(manifest, "verify_suites", "invariants", "energy.drift")
    if not drift <= drift_tol:
        return f"energy drift {drift:.3e} above {drift_tol:.1e}"
    if cfg["potential"]["kind"] == "harmonic":
        if "metric" in cfg:
            return "closed form assumes the identity metric"
        q, p = _oscillator(cfg, rows[-1, 1])
        err = max(float(np.max(np.abs(rows[-1, 2:5] - q))),
                  float(np.max(np.abs(rows[-1, 5:8] - p))))
        scale = max(1.0, float(np.max(np.abs(q))), float(np.max(np.abs(p))))
        tol = _tol(manifest, workload, "boost-check", "world_line.agreement")
        if not err / scale <= tol:
            return f"final state off the closed form by {err:.3e}"
    return None


def _check_report(path: str, workload: str, command: str,
                  manifest: dict) -> tuple[str | None, int]:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    checks = report["checks"]
    samples = sum(int(c["n"]) for c in checks)
    shape = [[c["name"], c["n"], c["tol"]] for c in checks]
    if shape != manifest[workload][command]:
        return "checks differ from the manifest", samples
    bad = [c["name"] for c in checks
           if c["status"] != "pass"
           or not (math.isfinite(c["max_err"]) and c["max_err"] <= c["tol"])]
    if bad or report["verdict"] != "pass":
        return f"failed checks {bad}", samples
    return None, samples


def verify(record: dict, cfg: dict, workload: str,
           manifest: dict) -> tuple[str | None, int]:
    """(reason the command failed or None, check samples it reported)."""
    if record["error"] is not None:
        return record["error"], 0
    if record["rc"] != 0:
        return f"exit code {record['rc']}", 0
    try:
        if record["cmd"] == "simulate":
            return _check_trajectory(record["out"], cfg, workload,
                                     manifest), 0
        return _check_report(record["out"], workload, record["cmd"],
                             manifest)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", 0


def record_manifest() -> dict:
    """Checks (name, n, tol) of each report command on each workload, from
    one iteration of seed 0 of the current source."""
    import workloads
    from galimech.harness.cli import main

    manifest: dict = {}
    work = os.path.join(os.path.dirname(_HERE), ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in workloads.WORKLOADS:
            plan = workloads.generate(workload, 0, tmp)
            manifest[workload] = {}
            for name, argv, path in workloads.iteration_argv(plan, 0, tmp):
                if main(argv) != 0:
                    raise SystemExit(f"{workload} {name} failed")
                if path.endswith(".json"):
                    with open(path, encoding="utf-8") as fh:
                        checks = json.load(fh)["checks"]
                    manifest[workload][name] = [
                        [c["name"], c["n"], c["tol"]] for c in checks]
    return manifest


if __name__ == "__main__":
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(record_manifest(), fh, indent=1)
        fh.write("\n")
