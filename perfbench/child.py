"""One benchmark run inside a fresh interpreter.

    python3 perfbench/child.py PLAN RESULT MODE BUDGET

MODE is ``bare`` (import numpy only, report ready, exit: the reference
start that set-up is measured against), ``setup`` (import, parse the
configs, report ready, exit), ``run`` (untraced closed loop for BUDGET
seconds) or ``traced`` (closed loop over exactly BUDGET iterations with
every layer wrapped by the tracer).  In a run, before every command, a
calibration loop is timed apart from it, once per CAL_EVERY_S of the
previous command, so that calibration samples the host at a steady rate
through the run.  Runs write their result to RESULT.

Set-up is everything before the ``ready`` line: interpreter start, the
galimech import, and parsing and validating every workload config.  The
parent times it from spawn to that line.  Commands go through the real
CLI entry point, one after another; each output file is left for the
parent to verify.
"""

import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
CAL_EVERY_S = 0.05


def _ready(plan_path: str):
    import galimech
    from galimech.harness.cli import main
    from galimech.harness.config import load_config

    # A galimech installed elsewhere must not stand in for the checkout.
    if not os.path.abspath(galimech.__file__).startswith(_SRC + os.sep):
        raise SystemExit(f"galimech imported from {galimech.__file__}, "
                         f"not from {_SRC}")
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    for path in plan["configs"]:
        load_config(path)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return plan, main


def _call(run, argv):
    """Exit code of one CLI call; an escaping exception counts as a failed
    command with its text recorded, and the loop goes on."""
    try:
        return run(argv), None
    except SystemExit as exc:
        return exc.code, None
    except Exception as exc:  # noqa: BLE001 - recorded as a failed command
        return None, f"{type(exc).__name__}: {exc}"


def calibrate() -> float:
    """Seconds taken by a fixed loop of small numpy operations and float
    arithmetic, the same mix as an RK4 step.  Timed before every command,
    it tracks the speed the host is giving this process."""
    import numpy as np

    q, p, g = np.zeros(3), np.ones(3), np.eye(3)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(1500):
        q = q + 1e-3 * (g @ p)
        p = p - 1e-3 * q
        acc += float(q[0])
    return time.perf_counter() - t0


def main() -> int:
    plan_path, result_path, mode, budget = sys.argv[1:5]
    budget = float(budget)
    if mode == "bare":
        import numpy  # noqa: F401
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    plan, cli_main = _ready(plan_path)
    if mode == "setup":
        return 0

    import workloads

    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out_dir = os.path.join(os.path.dirname(result_path), f"out-{mode}")
    os.makedirs(out_dir, exist_ok=True)
    records = []
    begin = time.perf_counter()
    last_s = 0.0
    i = 0
    while (time.perf_counter() - begin < budget) if mode == "run" \
            else i < budget:
        for name, argv, path in workloads.iteration_argv(plan, i, out_dir):
            run = cli_main if tracer is None else (
                lambda a: tracer.command(len(records), name, cli_main, a))
            cal = [calibrate()
                   for _ in range(max(1, round(last_s / CAL_EVERY_S)))]
            t0 = time.perf_counter()
            code, error = _call(run, argv)
            last_s = time.perf_counter() - t0
            records.append({"iter": i, "cmd": name, "rc": code,
                            "s": last_s, "out": path, "error": error,
                            "cal_s": cal})
        i += 1

    import resource
    result = {"records": records, "iterations": i,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["trace"]["bytes_per_step"] = _trajectory_bytes(plan)
        tracer.save(os.path.join(os.path.dirname(result_path), "spans.npz"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _trajectory_bytes(plan: dict) -> float:
    """Memory one integrated trajectory holds per step, by tracemalloc,
    for the first config of the plan."""
    import tracemalloc

    from galimech.frame_dynamics import integrate
    from galimech.harness.config import load_config

    cfg = load_config(plan["configs"][0])
    u = cfg.build_frames()[0]
    args = (u, cfg.mass, cfg.build_metric(), cfg.build_potential(),
            cfg.initial_state(u), cfg.h, cfg.n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate(*args)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(traj)


if __name__ == "__main__":
    sys.exit(main())
