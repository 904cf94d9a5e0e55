"""The benchmark tracer still finds, wraps and restores every name it needs.

``perfbench/tracer.py`` wraps galimech functions and methods by name, and
``Tracer.install`` raises when one of them is gone.  This test installs
the tracer, runs ``simulate`` and ``boost-check`` in process through
``cli.main`` (the CSV counter takes ``len`` of the trajectory), then
uninstalls it and checks that every module binding, class attribute and
default argument is the original object again.  A deletion that breaks
the traced benchmark fails here first.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["galimech.galilean_core", "galimech.frame_dynamics",
           "galimech.generating_objects", "galimech.affine_phase",
           "galimech.harness.checks", "galimech.harness.cli",
           "galimech.harness.config", "galimech.harness.expressions",
           "galimech.harness.report"]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict:
    """Every attribute of the galimech modules, of the classes they define,
    and the default arguments of their functions."""
    state = {}
    for name in MODULES:
        for attr, value in vars(sys.modules[name]).items():
            state[name, attr] = value
            if inspect.isfunction(value):
                state[name, attr, "__defaults__"] = value.__defaults__
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    state[name, attr, key] = member
    return state


def test_install_run_uninstall_restores_everything(tmp_path):
    for name in MODULES:
        importlib.import_module(name)
    from galimech.harness.cli import main

    before = bindings()
    tracer = load_tracer().Tracer()
    try:
        tracer.install()  # raises on a wrapped name that is gone
        patched = [key for key, value in bindings().items()
                   if key in before and value is not before[key]]
        with contextlib.redirect_stderr(io.StringIO()):
            codes = [main([command, "--out", str(tmp_path / command)])
                     for command in ("simulate", "boost-check")]
    finally:
        tracer.uninstall()

    assert codes == [0, 0]
    assert patched
    assert tracer.counters["write_trajectory_csv.rows"] > 0
    assert len(tracer.end) > 0 and len(tracer.marks) > 0
    after = bindings()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
