"""Repeat the benchmark over seeds and summarise every metric.

    python3 perfbench/baseline.py [--out perfbench/results/NAME.json]

Runs ``run.py`` with tracing off once per workload and seed 1 to 10, one
run at a time, and then does it all a second time; then it runs each
workload once with tracing on (seed 1).  For each end-to-end metric and
each of the two sets it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json, and the same spread without the host-speed rescale
(run.py's ``raw`` line).  Last it prints how far the second set's median
is worse than the first's, as a share of the first, against the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)
SEEDS = list(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(_HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for key in ("env", "raw"):
        result[key] = next((json.loads(line[len(key) + 1:]) for line in lines
                            if line.startswith(key + " ")), None)
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "min": min(values), "max": max(values)}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_set(workload: str, seconds: int, bounds: dict, out: dict) -> dict:
    """Ten untraced runs of the workload; their summary."""
    runs = []
    for seed in SEEDS:
        result = run_once(workload, seed, seconds, 0)
        out["env"] = result.pop("env")
        runs.append(result)
        print(workload, seed, f"commands={result['attempted']}",
              f"failed={result['failed']}",
              {k: round(v["value"], 5) for k, v in result["metrics"].items()},
              flush=True)
    summary = {}
    for name, bound in bounds.items():
        stats = summarise([r["metrics"][name]["value"] for r in runs])
        stats.update(unit=runs[0]["metrics"][name]["unit"], bound=bound)
        if name in runs[0]["raw"]:
            stats["raw"] = summarise([r["raw"][name] for r in runs])
        summary[name] = stats
        flag = "" if stats["spread"] <= bound / 3 else \
            ("  above bound/3" if stats["spread"] <= bound
             else "  ABOVE BOUND")
        raw = f"  raw spread {stats['raw']['spread']:.4f}" \
            if "raw" in stats else ""
        print(f"  {name:<12} median {stats['median']:<12.6g} "
              f"{stats['unit']:<4} q1 {stats['q1']:<12.6g} "
              f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
              f"(bound {bound}, {len(runs)} runs){flag}{raw}", flush=True)
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": summary,
        "runs": [{k: v["value"] for k, v in r["metrics"].items()}
                 for r in runs],
        "raw_runs": [r["raw"] for r in runs],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    assert workloads.HELDOUT_SEED not in SEEDS

    out: dict = {"run_seconds": seconds, "seeds": SEEDS,
                 "heldout_seed": workloads.HELDOUT_SEED, "workloads": {
                     w: {"sets": []} for w in workloads.WORKLOADS}}
    for number in range(1, SETS + 1):
        print(f"set {number}", flush=True)
        for workload in workloads.WORKLOADS:
            out["workloads"][workload]["sets"].append(
                run_set(workload, seconds, bounds, out))
    for workload, entry in out["workloads"].items():
        sets = entry["sets"]
        attempted = sum(s["attempted"] for s in sets)
        entry["failed_frac"] = sum(s["failed"] for s in sets) / attempted
        entry["second_set_worse_by"] = {
            name: worse_by(sets[0]["end_to_end"][name]["median"],
                           sets[-1]["end_to_end"][name]["median"],
                           better[name]) for name in bounds}
        print(workload, "second set worse by", {
            name: f"{v:+.4f} (bound {bounds[name]})"
            for name, v in entry["second_set_worse_by"].items()},
            flush=True)
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        layer = entry["traced"]
        print(f"  failed_frac {entry['failed_frac']}  "
              f"integrate share {layer['frame_dynamics.integrate.share']:.3f}"
              "  eval calls/iter "
              f"{layer['harness.expressions.eval.calls']:.0f}"
              f"  trace overhead {layer['trace.overhead_frac']:.3f}",
              flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
