"""Command line entry point.

Commands
--------
simulate     integrate the configured scenario in one frame, emit CSV
boost-check  frame-independence checks on the integrated scenario
morse-check  rank and equivalence checks for the generating families
invariants   randomized identity checks, grouped into suites

Exit status: 0 all checks passed (or simulation written), 1 at least one
check failed, 2 configuration problem, 3 the integrator hit a non-finite
state, a check needed the potential where it raised an arithmetic error,
or a Newton solve started from a non-finite gradient.  Reports go to
--out or stdout as JSON; a human-readable summary always goes to stderr.
Output files are written atomically: full content to a temp file in the
target directory, then renamed over the path.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import logging
import os
import sys
import tempfile

from ..frame_dynamics import NonFiniteState, integrate, write_trajectory_csv
from ..galilean_core import DomainError, sigma_array
from .checks import (
    MORSE_FAMILIES,
    boost_checks,
    corrupted_sigma,
    morse_checks,
    suite_checks,
)
from .config import ConfigError, ScenarioConfig, default_config, load_config
from .report import Report

log = logging.getLogger("galimech.cli")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _configure_logging() -> None:
    raw = os.environ.get("GALIMECH_LOG", "error").strip().lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.ERROR
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    if raw and raw not in _LOG_LEVELS:
        log.error("GALIMECH_LOG=%r not recognized, using error", raw)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".galimech-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)
        log.info("wrote %s", out)


def _load(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is None:
        cfg = default_config()
        log.info("no --config given, using the built-in scenario")
    else:
        cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _finish(report: Report, out: str | None) -> int:
    _emit(report.render_json(), out)
    sys.stderr.write(report.render_lines())
    return 0 if report.passed else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    frames = cfg.build_frames()
    if not 0 <= args.frame < len(frames):
        raise ConfigError(
            "frame", f"index {args.frame} outside 0..{len(frames) - 1}")
    u = frames[args.frame]
    g = cfg.build_metric()
    potential = cfg.build_potential()
    traj = integrate(u, cfg.mass, g, potential, cfg.initial_state(u),
                     cfg.h, cfg.n)
    buf = io.StringIO()
    write_trajectory_csv(traj, g, potential, buf)
    _emit(buf.getvalue(), args.out)
    log.info("simulated %d steps in frame %d", cfg.n, args.frame)
    return 0


def _cmd_boost_check(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if len(cfg.frames) < 2:
        raise ConfigError("frames", "boost-check needs at least two frames")
    sigma_fn = corrupted_sigma if args.corrupt_sigma else sigma_array
    if args.corrupt_sigma:
        log.warning("running with a corrupted frame-shift covector")
    return _finish(Report(tuple(boost_checks(cfg, sigma_fn))), args.out)


def _cmd_morse_check(args: argparse.Namespace) -> int:
    cfg = _load(args)
    families = MORSE_FAMILIES if args.family == "all" else (args.family,)
    results = []
    for fam in families:
        log.info("checking family %s", fam)
        results.extend(morse_checks(cfg, fam))
    return _finish(Report(tuple(results)), args.out)


def _cmd_invariants(args: argparse.Namespace) -> int:
    cfg = _load(args)
    return _finish(Report(tuple(suite_checks(cfg, args.suite))), args.out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: a parser is a
    web of reference cycles, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="galimech",
        description="Frame-independent particle mechanics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH",
                       help="scenario JSON (defaults to a built-in scenario)")
        p.add_argument("--out", metavar="PATH",
                       help="write output here instead of stdout")
        p.add_argument("--seed", type=int, metavar="N",
                       help="override the config seed")

    p = sub.add_parser("simulate", help="integrate and emit a CSV trajectory")
    common(p)
    p.add_argument("--frame", type=int, default=0, metavar="N",
                   help="index into the config frame list (default 0)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("boost-check",
                       help="frame independence of the integrated scenario")
    common(p)
    p.add_argument("--corrupt-sigma", action="store_true",
                   help="negative control: corrupt the frame-shift covector")
    p.set_defaults(func=_cmd_boost_check)

    p = sub.add_parser("morse-check",
                       help="rank certification of the generating families")
    common(p)
    p.add_argument("--family", choices=MORSE_FAMILIES + ("all",),
                   default="all", help="which family to check (default all)")
    p.set_defaults(func=_cmd_morse_check)

    p = sub.add_parser("invariants", help="randomized identity checks")
    common(p)
    p.add_argument("--suite", choices=("core", "dynamics", "affine", "all"),
                   default="all", help="check suite to run (default all)")
    p.set_defaults(func=_cmd_invariants)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteState as exc:
        print(f"integration diverged: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
