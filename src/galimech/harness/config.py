"""Scenario configuration: parsing, validation, defaults.

A scenario is a single JSON object.  Parsing is strict: unknown keys,
wrong shapes, and non-finite numbers are rejected with the offending field
named, because a config typo that silently falls back to a default would
poison every downstream determinism comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ..galilean_core import Event, Frame, GalimechError, SingularMetric, SpatialMetric
from ..frame_dynamics import (
    PhasePoint,
    Potential,
    free_potential,
    harmonic_potential,
    legendre_inhom,
    uniform_potential,
)
from .expressions import (
    ExpressionError,
    compile_array_expression,
    compile_expression,
)

__all__ = [
    "MAX_FRAME_STEPS",
    "ConfigError",
    "Tolerances",
    "PotentialSpec",
    "ScenarioConfig",
    "default_config",
    "parse_config",
    "load_config",
]


# Upper bound on (n + 1) * frames: the integrator stores positions and
# momenta for every step of every frame, 48 bytes each, so about 0.5 GB.
MAX_FRAME_STEPS = 10**7


class ConfigError(GalimechError):
    """Invalid scenario configuration; names the field at fault."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class Tolerances:
    """Per-check tolerances, overridable from the config file."""

    cocycle: float = 1e-12
    lagrangian_shift: float = 1e-10
    legendre_fd: float = 1e-6
    mass_shell: float = 1e-10
    residual_preservation: float = 1e-12
    world_line_free: float = 1e-9
    world_line_bound: float = 1e-7
    momentum_offset: float = 1e-9
    energy_drift: float = 1e-8
    chart_battery: float = 1e-10
    covector_match: float = 1e-8
    section_fd: float = 1e-6


_TOLERANCE_NAMES = tuple(f.name for f in fields(Tolerances))


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative potential description from the config file.

    The Potential is built once per spec, on the first ``build`` call, and
    kept outside the fields, so equality, ``dataclasses.replace`` and the
    JSON form see only the description.
    """

    kind: str
    force: tuple[float, float, float] | None = None
    k: float | None = None
    center: tuple[float, float, float] | None = None
    expr: str | None = None

    def build(self) -> Potential:
        return self._potential

    @cached_property
    def _potential(self) -> Potential:
        if self.kind == "free":
            return free_potential()
        if self.kind == "uniform":
            return uniform_potential(self.force)
        if self.kind == "harmonic":
            return harmonic_potential(self.k, self.center)
        # kind == "custom"; raises ExpressionError for a malformed expr
        fn = compile_expression(self.expr)
        return Potential(value=lambda x: fn(x.t, x.q1, x.q2, x.q3),
                         values=compile_array_expression(self.expr))

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "uniform":
            out["force"] = list(self.force)
        elif self.kind == "harmonic":
            out["k"] = self.k
            out["center"] = list(self.center)
        elif self.kind == "custom":
            out["expr"] = self.expr
        return out


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully validated scenario.

    Pure data: the domain objects (metric, potential, frames) are built on
    demand so the config itself stays comparable and serializable.  The
    metric and the potential are built once per config and then shared.
    """

    mass: float
    metric: tuple[tuple[float, float, float], ...]
    potential: PotentialSpec
    frames: tuple[tuple[float, float, float], ...]
    initial_event: tuple[float, float, float, float]
    initial_velocity: tuple[float, float, float]
    h: float
    n: int
    seed: int
    tolerances: Tolerances

    def build_metric(self) -> SpatialMetric:
        return self._metric

    @cached_property
    def _metric(self) -> SpatialMetric:
        return SpatialMetric(np.array(self.metric, dtype=float))

    def build_potential(self) -> Potential:
        return self.potential.build()

    def build_frames(self) -> list[Frame]:
        return [Frame.from_spatial(f) for f in self.frames]

    def build_initial_event(self) -> Event:
        return Event(*self.initial_event)

    def initial_state(self, u: Frame) -> PhasePoint:
        """Phase-space start in frame u for the configured world velocity."""
        w = Frame.from_spatial(self.initial_velocity)
        p = legendre_inhom(u, self.mass, self.build_metric(), w)
        return PhasePoint.spatial(self.build_initial_event(), p)

    def to_json(self) -> dict:
        return {
            "mass": self.mass,
            "metric": [list(row) for row in self.metric],
            "potential": self.potential.to_json(),
            "frames": [list(f) for f in self.frames],
            "initial_event": list(self.initial_event),
            "initial_velocity": list(self.initial_velocity),
            "h": self.h,
            "n": self.n,
            "seed": self.seed,
            "tolerances": {name: getattr(self.tolerances, name)
                           for name in _TOLERANCE_NAMES},
        }


def _finite_floats(field: str, value, count: int) -> tuple[float, ...]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)) \
            or len(value) != count:
        raise ConfigError(field, f"expected a list of {count} numbers")
    out = []
    for entry in value:
        if not isinstance(entry, (int, float)) or isinstance(entry, bool) \
                or not math.isfinite(entry):
            raise ConfigError(field, f"expected a finite number, got {entry!r}")
        out.append(float(entry))
    return tuple(out)


def _parse_potential(value) -> PotentialSpec:
    if not isinstance(value, Mapping):
        raise ConfigError("potential", "expected an object with a 'kind' key")
    kind = value.get("kind")
    if kind == "free":
        extra = set(value) - {"kind"}
        if extra:
            raise ConfigError("potential", f"unknown keys {sorted(extra)}")
        return PotentialSpec("free")
    if kind == "uniform":
        extra = set(value) - {"kind", "force"}
        if extra:
            raise ConfigError("potential", f"unknown keys {sorted(extra)}")
        force = _finite_floats("potential.force", value.get("force"), 3)
        return PotentialSpec("uniform", force=force)
    if kind == "harmonic":
        extra = set(value) - {"kind", "k", "center"}
        if extra:
            raise ConfigError("potential", f"unknown keys {sorted(extra)}")
        k = value.get("k")
        if not isinstance(k, (int, float)) or isinstance(k, bool) \
                or not math.isfinite(k):
            raise ConfigError("potential.k", f"expected a finite number, got {k!r}")
        center = _finite_floats("potential.center",
                                value.get("center", [0.0, 0.0, 0.0]), 3)
        return PotentialSpec("harmonic", k=float(k), center=center)
    if kind == "custom":
        extra = set(value) - {"kind", "expr"}
        if extra:
            raise ConfigError("potential", f"unknown keys {sorted(extra)}")
        spec = PotentialSpec("custom", expr=value.get("expr"))
        try:
            spec.build()
        except ExpressionError as err:
            raise ConfigError("potential.expr", str(err)) from err
        return spec
    raise ConfigError(
        "potential.kind",
        f"expected one of free|uniform|harmonic|custom, got {kind!r}")


_TOP_LEVEL_KEYS = {
    "mass", "metric", "potential", "frames", "initial_event",
    "initial_velocity", "h", "n", "seed", "tolerances",
}


def parse_config(data) -> ScenarioConfig:
    """Validate a decoded JSON object into a ScenarioConfig.

    Every failure is a ConfigError naming the field, so the CLI can report
    it and exit with the dedicated status code.
    """
    if not isinstance(data, Mapping):
        raise ConfigError("config", "top level must be a JSON object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError("config", f"unknown keys {sorted(unknown)}")

    defaults = default_config()

    mass = data.get("mass", defaults.mass)
    if not isinstance(mass, (int, float)) or isinstance(mass, bool) \
            or not math.isfinite(mass) or mass <= 0:
        raise ConfigError("mass", f"expected a positive number, got {mass!r}")

    metric_raw = data.get("metric", [list(r) for r in defaults.metric])
    if not isinstance(metric_raw, Sequence) or len(metric_raw) != 3:
        raise ConfigError("metric", "expected a 3x3 matrix")
    metric = tuple(_finite_floats(f"metric[{i}]", row, 3)
                   for i, row in enumerate(metric_raw))
    try:
        SpatialMetric(np.array(metric, dtype=float))
    except (SingularMetric, ValueError) as err:
        raise ConfigError("metric", str(err)) from err

    potential = _parse_potential(data.get("potential", {"kind": "free"}))

    frames_raw = data.get("frames", [list(f) for f in defaults.frames])
    if not isinstance(frames_raw, Sequence) or len(frames_raw) == 0:
        raise ConfigError("frames", "expected a non-empty list of 3-vectors")
    frames = tuple(_finite_floats(f"frames[{i}]", f, 3)
                   for i, f in enumerate(frames_raw))

    initial_event = _finite_floats(
        "initial_event", data.get("initial_event", list(defaults.initial_event)), 4)
    initial_velocity = _finite_floats(
        "initial_velocity",
        data.get("initial_velocity", list(defaults.initial_velocity)), 3)

    h = data.get("h", defaults.h)
    if not isinstance(h, (int, float)) or isinstance(h, bool) \
            or not math.isfinite(h) or h <= 0:
        raise ConfigError("h", f"expected a positive number, got {h!r}")

    n = data.get("n", defaults.n)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("n", f"expected an integer >= 1, got {n!r}")
    if (n + 1) * len(frames) > MAX_FRAME_STEPS:
        raise ConfigError(
            "n", f"(n + 1) * {len(frames)} frames exceeds {MAX_FRAME_STEPS} "
                 f"stored steps, got n = {n}")

    seed = data.get("seed", defaults.seed)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed", f"expected a non-negative integer, got {seed!r}")

    tol_raw = data.get("tolerances", {})
    if not isinstance(tol_raw, Mapping):
        raise ConfigError("tolerances", "expected an object")
    unknown = set(tol_raw) - set(_TOLERANCE_NAMES)
    if unknown:
        raise ConfigError("tolerances", f"unknown keys {sorted(unknown)}")
    overrides = {}
    for name, value in tol_raw.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value) or value <= 0:
            raise ConfigError(f"tolerances.{name}",
                              f"expected a positive number, got {value!r}")
        overrides[name] = float(value)
    tolerances = replace(Tolerances(), **overrides)

    return ScenarioConfig(
        mass=float(mass),
        metric=metric,
        potential=potential,
        frames=frames,
        initial_event=initial_event,
        initial_velocity=initial_velocity,
        h=float(h),
        n=n,
        seed=seed,
        tolerances=tolerances,
    )


def default_config() -> ScenarioConfig:
    """Free particle watched from five frames; the stock CI scenario."""
    return ScenarioConfig(
        mass=1.0,
        metric=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        potential=PotentialSpec("free"),
        frames=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                (-0.5, 0.25, 0.0), (0.3, -0.7, 0.2)),
        initial_event=(0.0, 0.0, 0.0, 0.0),
        initial_velocity=(1.0, 0.0, 0.0),
        h=1e-3,
        n=1000,
        seed=42,
        tolerances=Tolerances(),
    )


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            data = json.load(stream)
    except OSError as err:
        raise ConfigError("config", f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"invalid JSON in {path}: {err}") from err
    return parse_config(data)
