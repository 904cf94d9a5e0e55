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
or a Newton solve started from a non-finite gradient, 4 any other error
(one line on stderr; the traceback too at GALIMECH_LOG=debug).  Commands
run with numpy's floating-point errors ignored: a non-finite value fails a
verdict or raises where it lands, and numpy prints no warning.  Reports
go to --out or stdout as JSON; a human-readable summary always goes to
stderr.  Output files are written atomically: full content to a temp file
in the target directory, then renamed over the path (through a symlink,
keeping a replaced file's mode); an --out that cannot be written, or that
names an existing special file, is a configuration problem (exit 2).  The
checks are imported by the commands that run them, so ``simulate`` never
loads them.  ``logging`` is imported only for a log line that
GALIMECH_LOG lets through, so the default level never loads it.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import stat
import sys
import tempfile

import numpy as np

from .. import _log
from .._log import DEBUG, ERROR, INFO, WARNING
from ..frame_dynamics import NonFiniteState, integrate, write_trajectory_csv
from ..galilean_core import DomainError, sigma
from .config import (
    MORSE_FAMILIES,
    ConfigError,
    ScenarioConfig,
    default_config,
    load_config,
)
from .report import Report

log = functools.partial(_log.log, "galimech.cli")


def _check_log_level() -> None:
    """One ERROR line when GALIMECH_LOG is set to no known level."""
    raw = _log.level_name()
    if raw and raw not in _log.LEVELS:
        log(ERROR, "GALIMECH_LOG=%r not recognized, using error", raw)


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a temp file in its directory, removed
    on failure; a path that cannot be written is the --out argument's
    fault, a ConfigError naming the path as given.  A symlink is written
    through to the file it resolves to, a replaced file keeps its mode, and
    a new one gets 0o666 less the umask.  An existing path that is neither a
    regular file nor a directory (a device, a FIFO, a socket) is refused
    before anything is written, so the rename cannot replace it."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not (os.path.isfile(target) or os.path.isdir(target)):
        raise ConfigError("--out", f"cannot write {path}: not a regular file")
    umask = os.umask(0o022)
    os.umask(umask)
    mode = stat.S_IMODE(os.stat(target).st_mode) if os.path.isfile(target) \
        else 0o666 & ~umask
    try:
        fd, tmp = tempfile.mkstemp(prefix=".galimech-",
                                   dir=os.path.dirname(target))
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                os.fchmod(fd, mode)
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ConfigError(
            "--out", f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)
        log(INFO, "wrote %s", out)


def _load(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is None:
        cfg = default_config()
        log(INFO, "no --config given, using the built-in scenario")
    else:
        cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError(
                "--seed", f"expected a non-negative integer, got {args.seed}")
        cfg = cfg.with_seed(args.seed)
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
    log(INFO, "simulated %d steps in frame %d", cfg.n, args.frame)
    return 0


def _cmd_boost_check(args: argparse.Namespace) -> int:
    from .checks import boost_checks, corrupted_sigma
    cfg = _load(args)
    if len(cfg.frames) < 2:
        raise ConfigError("frames", "boost-check needs at least two frames")
    sigma_fn = corrupted_sigma if args.corrupt_sigma else sigma
    if args.corrupt_sigma:
        log(WARNING, "running with a corrupted frame-shift covector")
    return _finish(Report(tuple(boost_checks(cfg, sigma_fn))), args.out)


def _cmd_morse_check(args: argparse.Namespace) -> int:
    from .checks import morse_checks
    cfg = _load(args)
    families = MORSE_FAMILIES if args.family == "all" else (args.family,)
    results = []
    for fam in families:
        log(INFO, "checking family %s", fam)
        results.extend(morse_checks(cfg, fam))
    return _finish(Report(tuple(results)), args.out)


def _cmd_invariants(args: argparse.Namespace) -> int:
    from .checks import suite_checks
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
    _check_log_level()
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
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
    except Exception as exc:  # noqa: BLE001 - every other failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        log(DEBUG, "traceback of the internal error", exc_info=exc)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
