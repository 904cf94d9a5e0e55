"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each galimech module from the
outside: the package itself is not modified.  ``from x import f`` copies
the binding of f into the importing module, so a function is replaced in
every loaded galimech module that binds it, and in the default arguments
of galimech functions that captured it.  ``uninstall`` restores all of it.

A span is (name, start, end, parent, request).  Spans are appended to flat
arrays as they open, so a parent always precedes its children, and a
span's self time is its duration minus the durations of its direct
children (calls are strictly nested on one thread).  The untraced run
never imports this module.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

_FD = "galimech.frame_dynamics"
_GO = "galimech.generating_objects"
_AP = "galimech.affine_phase"
_CHECKS = "galimech.harness.checks"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_integrate(counters, args, kwargs, result):
    counters["integrate.frame_steps"] += int(_arg(args, kwargs, 6, "n"))


def _count_csv(counters, args, kwargs, result):
    counters["write_trajectory_csv.rows"] += len(_arg(args, kwargs, 0, "traj"))


def _count_solve(counters, args, kwargs, result):
    counters["solve_critical.seeds"] += len(_arg(args, kwargs, 2, "seeds"))
    counters["solve_critical.points"] += len(result)


def _public_functions(module: str) -> list[str]:
    mod = importlib.import_module(module)
    return [name for name in mod.__all__
            if inspect.isfunction(getattr(mod, name))
            and getattr(mod, name).__module__ == module]


def _check_functions() -> list[str]:
    mod = importlib.import_module(_CHECKS)
    return [name for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == _CHECKS
            and (name.startswith("check_") or name == "morse_checks")]


def layers() -> list[tuple[str, str, list[str], object]]:
    """(layer, module, attribute paths, counter hook) for every wrapped
    function.  Must be called after galimech is imported."""
    return [
        ("galilean_core.sigma", "galimech.galilean_core", ["sigma"], None),
        ("frame_dynamics.integrate", _FD, ["integrate"], _count_integrate),
        ("frame_dynamics.potential_grad", _FD,
         ["Potential.d_s", "Potential.d"], None),
        ("frame_dynamics.write_trajectory_csv", _FD,
         ["write_trajectory_csv"], _count_csv),
        ("frame_dynamics.lagrangian_legendre", _FD,
         ["lagrangian_inhom", "lagrangian_hom", "legendre_inhom",
          "legendre_hom", "mass_shell_residual"], None),
        ("affine_phase", _AP, _public_functions(_AP) + [
            "PElement.from_chart", "PElement.in_chart",
            "WElement.from_chart", "WElement.in_chart"], None),
        ("generating_objects.solve_critical", _GO, ["solve_critical"],
         _count_solve),
        ("generating_objects.fiber_gradient", _GO, ["fiber_gradient"], None),
        ("generating_objects.hessian", _GO, ["hessian"], None),
        ("generating_objects.numerical_rank", _GO, ["numerical_rank"], None),
        ("harness.checks", _CHECKS, _check_functions(), None),
        ("harness.config.load", "galimech.harness.config", ["load_config"],
         None),
        ("harness.report.render", "galimech.harness.report",
         ["Report.render_json", "Report.render_lines"], None),
    ]


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self._stack = [-1]
        self._req = [-1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        # (time, request, check name) when each CheckResult is built
        self.marks: list[tuple[float, int, str]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def wrap(self, name: str, layer: str, fn, count=None):
        """fn wrapped so that every call records one span."""
        nid = self._name_id(name, layer)
        start, end, names, parent, request = (
            self.start, self.end, self.name, self.parent, self.request)
        stack, req, counters = self._stack, self._req, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(end)
            names.append(nid)
            parent.append(stack[-1])
            request.append(req[0])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def command(self, request: int, name: str, fn, *args):
        """Run one CLI command as the root span of a request."""
        self._req[0] = request
        return self.wrap(f"harness.cli.{name}", "harness.cli", fn)(*args)

    # --- patching -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # a class keeps its raw descriptor, so a classmethod is restored as one
        old = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Replace every module binding and default argument that holds
        original, across the loaded galimech modules."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("galimech"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)
                elif inspect.isfunction(value) and value.__defaults__ \
                        and any(d is original for d in value.__defaults__):
                    self._set(value, "__defaults__", tuple(
                        replacement if d is original else d
                        for d in value.__defaults__))

    def install(self) -> None:
        for layer, module, attrs, count in layers():
            mod = importlib.import_module(module)
            for path in attrs:
                qualname = f"{module}.{path}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    raw = vars(cls)[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(
                            self.wrap(qualname, layer, raw.__func__, count))
                    else:
                        wrapped = self.wrap(qualname, layer, raw, count)
                    self._set(cls, attr, wrapped)
                else:
                    original = getattr(mod, path)
                    self._rebind(original,
                                 self.wrap(qualname, layer, original, count))
        self._install_expressions()
        self._install_marks()

    def _install_expressions(self) -> None:
        """Compiled potential expressions are closures made at run time, so
        the compiler is patched to return traced closures."""
        mod = importlib.import_module("galimech.harness.expressions")
        compile_expression = mod.compile_expression
        name = "galimech.harness.expressions.evaluate"

        def traced_compile(text):
            return self.wrap(name, "harness.expressions.eval",
                             compile_expression(text))

        self._rebind(compile_expression, traced_compile)

    def _install_marks(self) -> None:
        """Note the time each named check finishes; per-check time is the
        gap since the previous mark of the same request."""
        cls = importlib.import_module("galimech.harness.report").CheckResult
        post_init = vars(cls)["__post_init__"]
        marks, req, clock = self.marks, self._req, time.perf_counter

        def marked(result) -> None:
            post_init(result)
            marks.append((clock(), req[0], result.name))

        self._set(cls, "__post_init__", marked)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- results ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-layer totals over the whole traced run."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent],
                              weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        # layers registered lazily, on the first command or expression
        layer_names = sorted(set(self.layer_of) | {
            "harness.cli", "harness.expressions.eval"})
        layer_index = np.array(
            [layer_names.index(layer) for layer in self.layer_of],
            dtype=np.int64)
        span_layer = layer_index[a["name"]]
        size = len(layer_names)
        calls = np.bincount(span_layer, minlength=size)
        self_s = np.bincount(span_layer, weights=self_time, minlength=size)
        total_s = np.bincount(span_layer, weights=dur, minlength=size)

        # spans with an integrate call among their ancestors
        is_integrate = span_layer == layer_names.index(
            "frame_dynamics.integrate")
        under = is_integrate.copy()
        parent = np.where(has_parent, a["parent"], 0)
        while True:
            nxt = is_integrate | (under[parent] & has_parent)
            if np.array_equal(nxt, under):
                break
            under = nxt
        evals_in_integrate = int(np.sum(under & (
            span_layer == layer_names.index("harness.expressions.eval"))))

        layers_out = {name: {"calls": int(calls[i]),
                             "self_s": float(self_s[i]),
                             "total_s": float(total_s[i])}
                      for i, name in enumerate(layer_names)}
        return {
            "layers": layers_out,
            "counters": dict(self.counters),
            "evals_in_integrate": evals_in_integrate,
            "check_s": self._check_times(a),
        }

    def _check_times(self, a: dict[str, np.ndarray]) -> dict[str, float]:
        """Seconds per named check, summed over the run.

        A check's interval runs from the previous check's mark in the same
        request, or from the end of that request's config load, to its own.
        """
        load_ids = {i for i, n in enumerate(self.names)
                    if n.endswith(".load_config")}
        load_end: dict[int, float] = {}
        for i in np.flatnonzero(np.isin(a["name"], list(load_ids))):
            load_end[int(a["request"][i])] = float(a["end"][i])
        last: dict[int, float] = {}
        out: defaultdict[str, float] = defaultdict(float)
        for t, request, name in self.marks:
            begin = last.get(request, load_end.get(request, t))
            out[name] += t - begin
            last[request] = t
        return dict(out)
