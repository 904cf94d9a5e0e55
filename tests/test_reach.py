"""Every function of the library modules is run by a command, or is listed.

The four library modules hold the paper's constructions.  A function there
that no command runs is verified by nothing the CLI reports, so it must
either be reached or have a stated reason to exist.  This test runs
``simulate``, ``boost-check``, ``morse-check --family all`` and
``invariants --suite all`` in process under ``sys.setprofile``, on the
golden scenarios and one uniform-force scenario, and asserts that every
handwritten function, method and nested function of those modules was
called, unless it or a function enclosing it is on the allow-list:

* the names ``perfbench/tracer.py`` wraps by name, read from its
  ``layers()``, and the ``len`` its CSV counter takes of a trajectory and
  its ``solve_critical`` counter of the critical points found;
* library API that an acceptance criterion or the README tour uses;
* error paths these runs do not take;
* the ``value`` of each generating family with its helpers, the oracle
  of the gradient tests, and ``beta``, the test reference for
  ``beta_inv``.
"""

import contextlib
import importlib
import inspect
import io
import json
import sys
import types

from galimech.harness.cli import main

from test_golden_outputs import SCENARIOS, TIME_METRIC
from test_tracer_contract import load_tracer

MODULES = ["galimech.galilean_core", "galimech.frame_dynamics",
           "galimech.generating_objects", "galimech.affine_phase"]

UNIFORM = {"potential": {"kind": "uniform", "force": [0.0, 0.0, -1.0]},
           "n": 50}

COMMANDS = [["simulate"], ["boost-check"], ["morse-check", "--family", "all"],
            ["invariants", "--suite", "all"]]

# Module-relative qualnames; an entry covers the functions nested in it.
LIBRARY_API = [
    "affine_phase.AffineMetric.__init__",
    "affine_phase.affine_metric_apply",
    "affine_phase.section_from_affine_metric",
    "generating_objects.generate",
    "generating_objects.reduce_family",
    "galilean_core.SpatialMetric.identity",
    "galilean_core.SpatialMetric.diagonal",
]
ERROR_PATHS = [
    "generating_objects._raise_lstsq_error",
    "frame_dynamics.Trajectory.energies.<locals>.stop",
    # The per-call force entry of the RK4 stage program: it runs a force
    # without a bound schedule, and redoes a step that raised.  Every
    # golden force binds, and no golden step raises.
    "frame_dynamics._stage_steps.<locals>.per_call",
    # The divergence of a potential that raised, in a step or in the
    # step map's probe: no golden potential raises.
    "frame_dynamics._raised",
]
TEST_ORACLES = [
    "generating_objects.family_fam1.<locals>.value",
    "generating_objects.family_fam2.<locals>.value",
    "generating_objects.family_example31.<locals>.value",
    "affine_phase.beta",
]
BENCHMARK_CALLS = ["frame_dynamics.Trajectory.__len__",
                   "generating_objects.CriticalPoint.__len__"]


def library_functions() -> dict:
    """Code object -> qualname for every function, method and nested
    function written in the library modules (the methods a dataclass
    generates are not)."""
    out = {}

    def walk(code, qualname):
        out[code] = qualname
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, f"{qualname}.<locals>.{const.co_name}")

    for name in MODULES:
        mod = importlib.import_module(name)
        short = name.rsplit(".", 1)[1]
        for attr, value in vars(mod).items():
            if getattr(value, "__module__", None) != name:
                continue
            if inspect.isfunction(value):
                walk(value.__code__, f"{short}.{attr}")
            elif isinstance(value, type):
                for key, member in vars(value).items():
                    fn = getattr(member, "__func__", None) \
                        or getattr(member, "fget", None) or member
                    if inspect.isfunction(fn) \
                            and fn.__code__.co_filename == mod.__file__:
                        walk(fn.__code__, f"{short}.{attr}.{key}")
    return out


def tracer_names() -> list:
    """The library names the benchmark tracer wraps by name.  The public
    functions of affine_phase it wraps are read from ``__all__``, so none
    of them is pinned by the tracer."""
    tracer = load_tracer()
    listed = set(tracer._public_functions("galimech.affine_phase"))
    return [f"{module.rsplit('.', 1)[1]}.{path}"
            for _, module, paths, _ in tracer.layers() if module in MODULES
            for path in paths
            if not (module == "galimech.affine_phase" and path in listed)]


def allowed(qualname: str, allow: set) -> bool:
    parts = qualname.split(".<locals>.")
    return any(".<locals>.".join(parts[:i]) in allow
               for i in range(1, len(parts) + 1))


def test_every_library_function_is_reached_or_listed(tmp_path):
    functions = library_functions()
    allow = set(LIBRARY_API + ERROR_PATHS + TEST_ORACLES + BENCHMARK_CALLS
                + tracer_names())
    assert allow <= set(functions.values()), "allow-list names a lost function"

    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    cfg = tmp_path / "scenario.json"
    for scenario in [*SCENARIOS.values(), TIME_METRIC, UNIFORM]:
        config = [] if scenario is None else ["--config", str(cfg)]
        if scenario is not None:
            cfg.write_text(json.dumps(scenario))
        for command in COMMANDS:
            argv = command + config + ["--out", str(tmp_path / "out")]
            with contextlib.redirect_stderr(io.StringIO()):
                sys.setprofile(profile)
                try:
                    code = main(argv)
                finally:
                    sys.setprofile(None)
            assert code == 0, (scenario, command)

    unreached = sorted(f"{name} (line {code.co_firstlineno})"
                       for code, name in functions.items()
                       if code not in reached and not allowed(name, allow))
    assert unreached == []
