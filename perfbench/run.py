"""galimech benchmark: CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs (scenario configs
and check seeds) are generated from --seed before any child process
starts.  Each measurement runs in a fresh interpreter with BLAS threads
pinned to 1, one child at a time; the child issues the workload's command
pair through ``galimech.harness.cli.main`` in a closed loop, each command
only after the previous one returned.  Every command output is verified
afterwards (see verify.py); a command that fails verification is counted
in ``failed``.

--trace 0 reports the end-to-end metrics:

  setup_s       spawn to ready (interpreter, galimech import, configs
                parsed) of a set-up-only child, over spawn to ready of a
                bare child (interpreter and numpy import) started just
                before it, times BARE_REF_S: the median over SETUPS such
                pairs run before the measuring child and SETUPS after it
  lead_cmd_s    latency of the iteration's first command (simulate, or
                invariants on verify_suites)
  check_cmd_s   latency of the second command (boost-check, or
                morse-check on verify_suites)
  work_per_s    an iteration's useful work over lead_cmd_s plus
                check_cmd_s: frame-steps, (frames + 1) * n per iteration,
                on the trajectory workloads; reported check samples on
                verify_suites
  peak_rss_mb   peak resident memory of the measuring child

Each command timing is the mean of its samples in the run, rescaled to
the speed of the reference host.  On a small shared host the CPU
alternates between a fast and a slow mode, about 1.6x apart, in phases
of under a second to minutes; process CPU time moves with wall time, so
this is not run-queue waiting.  The share of slow time in a 30 s run
ranges from a fifth to four fifths, and every timing of the run moves
with it.  So the measuring child also times a fixed calibration loop
(child.calibrate) at a steady rate through the run, and each mean is
multiplied by CAL_REF_S over the mean calibration time, which sees the
same share of slow time.  The loop slows down about 1.8x in the slow
mode but an interpreter start only about 1.35x, so set-up is measured
against the bare start instead, which slows down as set-up does: their
ratio held at about 1.5 in both modes.  A change to galimech can move
neither the calibration loop nor the bare start.  The summary lines give
every timing as measured too (mean, median, quartiles, and the 10th and
90th percentile where a hundred samples or more put ten beyond each),
and a ``raw`` line gives every end-to-end timing metric without the
rescale: plain means, and the plain median set-up time.

--trace 1 spends half the time budget on an untraced child, then replays
exactly the same iterations in a child whose layers are wrapped by
tracer.py, and reports per-layer metrics (per iteration unless the name
says otherwise) plus the tracing overhead.  The spans of the traced child
are written to .perfbench_work/<workload>/spans.npz.

The last line of standard output is the JSON result; the lines before it
give sample counts, quartiles and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import verify
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
# Pairs of a bare and a set-up-only child started before the measuring
# child, and again after it.
SETUPS = 6
# Spawn to ready of the bare child on the reference host.
BARE_REF_S = 0.12
# Mean time of child.calibrate on the reference host (2-core Xeon VM,
# Python 3.11, numpy 2.4); timings are rescaled to it.
CAL_REF_S = 0.0064
# Every child is killed this long after the run started.
RUN_TIMEOUT_S = 170

# Useful frame-steps a command needs, in units of n, by the frames it
# reports on: simulate one, boost-check every frame, invariants the one
# behind energy.drift.
USEFUL_FRAMES = {"simulate": lambda f: 1, "boost-check": lambda f: f,
                 "invariants": lambda f: 1, "morse-check": lambda f: 0}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", GALIMECH_LOG="error")
    return env


def spawn(work: str, mode: str, budget,
          deadline: float) -> tuple[float, dict | None]:
    """Run one child to completion, killing it at the deadline
    (time.monotonic); (spawn to ready seconds, its result or None)."""
    result_path = os.path.join(work, f"result-{mode}.json")
    with open(os.path.join(work, f"stderr-{mode}.txt"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, os.path.join(work, "plan.json"),
             result_path, mode, str(budget)],
            stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT,
            text=True)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                                   proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        with open(os.path.join(work, f"stderr-{mode}.txt")) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{mode} child exited {code}:\n{tail}")
    if mode in ("bare", "setup"):
        return setup_s, None
    with open(result_path, encoding="utf-8") as fh:
        return setup_s, json.load(fh)


def set_up_pair(work: str, deadline: float) -> tuple[float, float]:
    """Spawn to ready of a bare child, then of a set-up-only child."""
    return (spawn(work, "bare", 0, deadline)[0],
            spawn(work, "setup", 0, deadline)[0])


def env_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(), "cpu": cpu,
            "git_rev": rev, "src_sha256": src_digest()}


def src_digest() -> str:
    """Hash of the package sources, a revision id that needs no git."""
    import hashlib
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def check_outputs(workload: str, records: list[dict], manifest: dict,
                  configs: list[dict]) -> int:
    """Verify every record, noting its failure and useful work in place;
    returns the number of failed commands."""
    failed = 0
    for rec in records:
        cfg = configs[rec["iter"] % len(configs)]
        reason, rec["samples"] = verify.verify(rec, cfg, workload, manifest)
        rec["frame_steps"] = \
            USEFUL_FRAMES[rec["cmd"]](len(cfg["frames"])) * cfg["n"]
        if reason is not None:
            failed += 1
            print(f"FAILED {rec['cmd']} iteration {rec['iter']}: {reason}",
                  file=sys.stderr)
    return failed


def useful(records: list[dict], unit: str) -> int:
    return sum(r[unit] for r in records)


def by_iteration(records: list[dict]) -> list[list[dict]]:
    """Records grouped per complete iteration (both commands ran)."""
    groups: dict[int, list[dict]] = {}
    for rec in records:
        groups.setdefault(rec["iter"], []).append(rec)
    return [recs for recs in groups.values() if len(recs) == 2]


def iteration_times(records: list[dict]) -> list[float]:
    return [sum(r["s"] for r in recs) for recs in by_iteration(records)]


def percentiles(values: list[float]) -> str:
    """Median and quartiles of values as measured, and the 10th and 90th
    percentile when at least ten samples lie beyond each."""
    if len(values) < 2:
        return f"median {values[0]:.6g}  n=1"
    q1, med, q3 = statistics.quantiles(values, n=4)
    text = f"q1 {q1:.6g}  median {med:.6g}  q3 {q3:.6g}"
    if len(values) >= 100:
        tenths = statistics.quantiles(values, n=10)
        text = f"p10 {tenths[0]:.6g}  {text}  p90 {tenths[8]:.6g}"
    return f"{text}  n={len(values)}"


def run_speed(records: list[dict]) -> float:
    """CAL_REF_S over the mean calibration time of a run: above 1 when
    the host ran the child faster than the reference host."""
    return CAL_REF_S / statistics.fmean(c for r in records
                                        for c in r["cal_s"])


def end_to_end(workload: str, setups: list[tuple[float, float]],
               result: dict, lines: list[str]) -> dict:
    """Command timings are run means rescaled to the reference host
    speed, and setup_s a median set-up time against the bare start (see
    the module docstring for why); the ``raw`` line gives each as a plain
    mean or median.  The work rate is an
    iteration's useful work over the two command latencies."""
    records = result["records"]
    first, second = (c[0] for c in workloads.COMMANDS[workload])
    unit = "samples" if workload == "verify_suites" else "frame_steps"
    speed = run_speed(records)
    setup_raw = [s for _, s in setups]
    setup_scaled = [s / bare * BARE_REF_S for bare, s in setups]
    metrics = {"setup_s": {"value": statistics.median(setup_scaled),
                           "unit": "s"}}
    raw = {"setup_s": statistics.median(setup_raw)}
    lines.append(f"{'setup_s':<12} {metrics['setup_s']['value']:<12.6g} s     "
                 f"as measured: {percentiles(setup_raw)}  bare start: "
                 f"{percentiles([b for b, _ in setups])}")
    for name, cmd in (("lead_cmd_s", first), ("check_cmd_s", second)):
        values = [r["s"] for r in records if r["cmd"] == cmd]
        raw[name] = statistics.fmean(values)
        metrics[name] = {"value": raw[name] * speed, "unit": "s"}
        lines.append(f"{name:<12} {raw[name] * speed:<12.6g} s     "
                     f"as measured: mean {raw[name]:.6g}  "
                     f"{percentiles(values)}")
    work = statistics.median(useful(recs, unit)
                             for recs in by_iteration(records))
    metrics["work_per_s"] = {
        "value": work / (metrics["lead_cmd_s"]["value"]
                         + metrics["check_cmd_s"]["value"]),
        "unit": "1/s"}
    raw["work_per_s"] = work / (raw["lead_cmd_s"] + raw["check_cmd_s"])
    metrics["peak_rss_mb"] = {"value": result["maxrss_kb"] / 1024.0,
                              "unit": "MB"}
    lines.append(f"work_per_s   {metrics['work_per_s']['value']:<12.6g} 1/s   "
                 f"{work} {unit} per iteration")
    lines.append(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:<12.6g} MB")
    calls = sum(len(r["cal_s"]) for r in records)
    lines.append(f"host speed   {speed:.4f} of the reference host, from "
                 f"{calls} calibration loops")
    lines.append("raw " + json.dumps(raw, sort_keys=True))
    return metrics


def per_layer(plain: dict, traced: dict) -> dict:
    """Per-layer metrics from the traced child, per iteration unless the
    name says otherwise; command latencies (rescaled means, as end to
    end) and the overhead base from the untraced child over the same
    iterations."""
    tr = traced["trace"]
    iters = traced["iterations"]
    layer, counters = tr["layers"], tr["counters"]

    def per_iter(x: float) -> float:
        return x / iters

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    traced_s = sum(r["s"] for r in traced["records"])
    # rescaled mean iteration times, like the end-to-end timings
    plain_iter = statistics.fmean(iteration_times(plain["records"])) \
        * run_speed(plain["records"])
    traced_iter = statistics.fmean(iteration_times(traced["records"])) \
        * run_speed(traced["records"])
    steps = counters.get("integrate.frame_steps", 0.0)
    rows = counters.get("write_trajectory_csv.rows", 0.0)
    seeds = counters.get("solve_critical.seeds", 0.0)
    points = counters.get("solve_critical.points", 0.0)
    integrate = layer["frame_dynamics.integrate"]
    csv = layer["frame_dynamics.write_trajectory_csv"]
    solve = layer["generating_objects.solve_critical"]
    evals = layer["harness.expressions.eval"]
    loads = layer["harness.config.load"]

    m = {
        "trace.overhead_frac": (ratio(traced_iter, plain_iter) - 1.0, "ratio"),
        "frame_dynamics.integrate.calls":
            (per_iter(integrate["calls"]), "count"),
        "frame_dynamics.integrate.frame_steps": (per_iter(steps), "count"),
        "frame_dynamics.integrate.self_s":
            (per_iter(integrate["self_s"]), "s"),
        "frame_dynamics.integrate.us_per_step":
            (1e6 * ratio(integrate["total_s"], steps), "us"),
        "frame_dynamics.integrate.useful_ratio":
            (ratio(useful(traced["records"], "frame_steps"), steps), "ratio"),
        "frame_dynamics.integrate.share":
            (ratio(integrate["total_s"], traced_s), "ratio"),
        "frame_dynamics.trajectory.bytes_per_step":
            (tr["bytes_per_step"], "B"),
        "frame_dynamics.write_trajectory_csv.self_s":
            (per_iter(csv["self_s"]), "s"),
        "frame_dynamics.write_trajectory_csv.us_per_row":
            (1e6 * ratio(csv["total_s"], rows), "us"),
        "harness.expressions.eval.calls": (per_iter(evals["calls"]), "count"),
        "harness.expressions.eval.self_s": (per_iter(evals["self_s"]), "s"),
        "harness.expressions.eval.evals_per_step":
            (ratio(tr["evals_in_integrate"], steps), "count"),
        "generating_objects.solve_critical.seeds": (per_iter(seeds), "count"),
        "generating_objects.solve_critical.points":
            (per_iter(points), "count"),
        "generating_objects.solve_critical.points_per_seed":
            (ratio(points, seeds), "ratio"),
        "generating_objects.solve_critical.us_per_point":
            (1e6 * ratio(solve["total_s"], points), "us"),
        "harness.config.load_s":
            (ratio(loads["total_s"], loads["calls"]), "s"),
        "harness.report.render_s":
            (ratio(layer["harness.report.render"]["total_s"],
                   len(traced["records"])), "s"),
    }
    for name in ("frame_dynamics.potential_grad",
                 "frame_dynamics.lagrangian_legendre", "galilean_core.sigma",
                 "affine_phase", "generating_objects.solve_critical",
                 "generating_objects.fiber_gradient", "harness.checks"):
        m[f"{name}.calls"] = (per_iter(layer[name]["calls"]), "count")
        m[f"{name}.self_s"] = (per_iter(layer[name]["self_s"]), "s")
    for name in ("generating_objects.hessian",
                 "generating_objects.numerical_rank", "harness.cli"):
        m[f"{name}.self_s"] = (per_iter(layer[name]["self_s"]), "s")
    for commands_checks in verify.load_manifest().values():
        for checks in commands_checks.values():
            for check, _, _ in checks:
                m[f"harness.checks.{check}.s"] = (
                    per_iter(tr["check_s"].get(check, 0.0)), "s")
    speed = run_speed(plain["records"])
    for command in USEFUL_FRAMES:
        values = [r["s"] for r in plain["records"] if r["cmd"] == command]
        m[f"cmd.{command.replace('-', '_')}_s"] = (
            statistics.fmean(values) * speed if values else 0.0, "s")
    return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work_dir = os.path.join(WORK, workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    plan = workloads.generate(workload, seed, work_dir)
    with open(os.path.join(work_dir, "plan.json"), "w",
              encoding="utf-8") as fh:
        json.dump(plan, fh)
    configs = []
    for path in plan["configs"]:
        with open(path, encoding="utf-8") as fh:
            configs.append(json.load(fh))
    manifest = verify.load_manifest()

    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        _, plain = spawn(work_dir, "run", seconds / 2, deadline)
        _, traced = spawn(work_dir, "traced", plain["iterations"], deadline)
        runs = [plain, traced]
    else:
        # untimed: the first start in a checkout also compiles bytecode
        spawn(work_dir, "setup", 0, deadline)
        setups = [set_up_pair(work_dir, deadline) for _ in range(SETUPS)]
        _, plain = spawn(work_dir, "run", seconds, deadline)
        setups += [set_up_pair(work_dir, deadline) for _ in range(SETUPS)]
        runs = [plain]

    records = [r for res in runs for r in res["records"]]
    failed = check_outputs(workload, records, manifest, configs)
    for name in ("out-run", "out-traced"):
        shutil.rmtree(os.path.join(work_dir, name), ignore_errors=True)

    lines = [f"workload {workload}  seed {seed}  seconds {seconds}  "
             f"trace {int(trace)}  iterations {plain['iterations']}  "
             f"commands {len(records)}  failed {failed}"]
    if trace:
        metrics = per_layer(plain, traced)
        for name, m in metrics.items():
            lines.append(f"{name:<58} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = end_to_end(workload, setups, plain, lines)
    lines.append("env " + json.dumps(env_info(), sort_keys=True))
    print("\n".join(lines))
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
