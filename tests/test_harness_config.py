"""Scenario config parsing and validation, and the report model."""

import dataclasses
import json

import numpy as np
import pytest

from galimech.galilean_core import SpatialMetric
from galimech.harness import expressions
from galimech.harness.cli import main
from galimech.harness.config import (
    MAX_FRAME_STEPS,
    ConfigError,
    PotentialSpec,
    Tolerances,
    default_config,
    load_config,
    parse_config,
)
from galimech.harness.report import CheckResult, Report

from conftest import at


def minimal(**overrides) -> dict:
    """Smallest explicit config dict, with overrides applied on top."""
    data = {
        "mass": 2.0,
        "metric": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "potential": {"kind": "harmonic", "k": 3.0, "center": [0.0, 1.0, 0.0]},
        "frames": [[0.0, 0.0, 0.0], [0.5, -0.25, 1.0]],
        "initial_event": [0.0, 1.0, 0.0, 0.0],
        "initial_velocity": [0.2, 0.0, 0.0],
        "h": 0.01,
        "n": 50,
        "seed": 7,
        "tolerances": {"energy_drift": 1e-6},
    }
    data.update(overrides)
    return data


class TestParse:
    def test_round_trip_through_actual_json_text(self):
        # Every field set away from its default, sent through JSON text.
        tolerances = {name: 10.0 ** -(i + 2) for i, name in
                      enumerate(f.name for f in dataclasses.fields(Tolerances))}
        data = minimal(tolerances=tolerances)
        cfg = parse_config(json.loads(json.dumps(data)))
        assert cfg.mass == 2.0
        assert cfg.metric == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        assert cfg.potential == PotentialSpec("harmonic", k=3.0,
                                              center=(0.0, 1.0, 0.0))
        assert cfg.frames == ((0.0, 0.0, 0.0), (0.5, -0.25, 1.0))
        assert cfg.initial_event == (0.0, 1.0, 0.0, 0.0)
        assert cfg.initial_velocity == (0.2, 0.0, 0.0)
        assert (cfg.h, cfg.n, cfg.seed) == (0.01, 50, 7)
        assert cfg.tolerances == Tolerances(**tolerances)
        assert [f.name for f in dataclasses.fields(cfg)] == list(data)

    def test_omitted_fields_take_defaults(self):
        cfg = parse_config({})
        assert cfg == default_config()

    def test_tolerance_override_applies(self):
        cfg = parse_config(minimal())
        assert cfg.tolerances.energy_drift == 1e-6
        # untouched fields keep their defaults
        assert cfg.tolerances.cocycle == Tolerances().cocycle

    def test_initial_state_uses_relative_velocity(self):
        cfg = parse_config(minimal())
        u = cfg.build_frames()[1]
        x, p = cfg.initial_state(u)
        expected = cfg.mass * (np.array(cfg.initial_velocity) - u)
        assert x.tolist() == list(cfg.initial_event)
        assert np.allclose(p, expected)


class TestRejection:
    def field_of(self, data):
        with pytest.raises(ConfigError) as info:
            parse_config(data)
        return info.value.field

    def test_unknown_top_level_key(self):
        assert self.field_of(minimal(masss=1.0)) == "config"

    def test_non_object_top_level(self):
        assert self.field_of([1, 2, 3]) == "config"

    @pytest.mark.parametrize("bad", [0, -1.0, "heavy", True, float("nan")])
    def test_bad_mass(self, bad):
        assert self.field_of(minimal(mass=bad)) == "mass"

    def test_metric_wrong_shape(self):
        assert self.field_of(minimal(metric=[[1, 0], [0, 1]])) == "metric"

    def test_metric_row_named(self):
        data = minimal(metric=[[1, 0, 0], [0, "x", 0], [0, 0, 1]])
        assert self.field_of(data) == "metric[1]"

    def test_metric_must_be_positive(self):
        data = minimal(metric=[[1, 0, 0], [0, 1, 0], [0, 0, -1.0]])
        assert self.field_of(data) == "metric"

    def test_unknown_potential_kind(self):
        assert self.field_of(minimal(potential={"kind": "coulomb"})) \
            == "potential.kind"

    def test_uniform_needs_force(self):
        assert self.field_of(minimal(potential={"kind": "uniform"})) \
            == "potential.force"

    def test_harmonic_rejects_extra_keys(self):
        data = minimal(potential={"kind": "harmonic", "k": 1.0, "kk": 2.0})
        assert self.field_of(data) == "potential"

    @pytest.mark.parametrize("kind", ["free", "uniform", "harmonic", "custom"])
    def test_unknown_keys_are_named_before_any_field(self, kind):
        # The key test comes first, so a missing field does not hide it.
        with pytest.raises(ConfigError) as info:
            parse_config(minimal(potential={"kind": kind, "zz": 1, "aa": 2}))
        assert (info.value.field, str(info.value)) == \
            ("potential", "potential: unknown keys ['aa', 'zz']")

    @pytest.mark.parametrize("kind", [None, ["free"], {"k": 1}, 3, "Free"])
    def test_kind_that_is_no_known_name(self, kind):
        # An unknown kind is named before its keys are looked at.
        assert self.field_of(minimal(potential={"kind": kind, "zz": 1})) \
            == "potential.kind"

    def test_custom_expression_checked_at_parse_time(self):
        data = minimal(potential={"kind": "custom", "expr": "q1 +"})
        assert self.field_of(data) == "potential.expr"

    @pytest.mark.parametrize("expr", [["q1"], {"q1": 1}, None, 3])
    def test_custom_expression_must_be_a_string(self, expr):
        # Compiled potentials are cached by their text, and a list from
        # JSON is no key: it is named as a config error, not raised.
        with pytest.raises(ConfigError) as info:
            parse_config(minimal(potential={"kind": "custom", "expr": expr}))
        assert str(info.value) == f"potential.expr: expected a string, got {expr!r}"

    def test_empty_frames(self):
        assert self.field_of(minimal(frames=[])) == "frames"

    def test_short_frame_named_by_index(self):
        assert self.field_of(minimal(frames=[[0, 0, 0], [1, 2]])) == "frames[1]"

    def test_bad_initial_event(self):
        assert self.field_of(minimal(initial_event=[0, 0, 0])) == "initial_event"

    @pytest.mark.parametrize("bad", [0, -0.1, float("inf")])
    def test_bad_step(self, bad):
        assert self.field_of(minimal(h=bad)) == "h"

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_bad_step_count(self, bad):
        assert self.field_of(minimal(n=bad)) == "n"

    def test_step_count_bounded_by_stored_steps(self):
        # Two frames: (n + 1) * 2 may reach the bound but not pass it.
        largest = MAX_FRAME_STEPS // 2 - 1
        assert parse_config(minimal(n=largest)).n == largest
        assert self.field_of(minimal(n=largest + 1)) == "n"
        assert self.field_of(minimal(n=10**12)) == "n"

    @pytest.mark.parametrize("bad", [-1, 1.5, "42"])
    def test_bad_seed(self, bad):
        assert self.field_of(minimal(seed=bad)) == "seed"

    def test_unknown_tolerance_key(self):
        assert self.field_of(minimal(tolerances={"cocyle": 1e-9})) \
            == "tolerances"

    def test_section_fd_is_not_a_tolerance(self, tmp_path, capsys):
        # No check reads a section finite-difference tolerance, so the key
        # is rejected like any other unknown one.
        data = minimal(tolerances={"section_fd": 1e-6})
        assert self.field_of(data) == "tolerances"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["invariants", "--config", str(path),
                     "--out", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err == \
            "config error: tolerances: unknown keys ['section_fd']\n"
        assert not (tmp_path / "report.json").exists()

    def test_nonpositive_tolerance(self):
        assert self.field_of(minimal(tolerances={"cocycle": 0.0})) \
            == "tolerances.cocycle"


class TestPotentialBuild:
    x = np.array([0.5, 1.0, -2.0, 0.25])

    def test_free_is_zero(self):
        phi = PotentialSpec("free").build()
        assert at(phi, self.x) == 0.0
        assert np.all(phi.d_s(self.x) == 0.0)

    def test_uniform_value_and_gradient(self):
        phi = PotentialSpec("uniform", force=(1.0, 2.0, 3.0)).build()
        assert at(phi, self.x) == -(1.0 * 1.0 + 2.0 * -2.0 + 3.0 * 0.25)
        assert np.allclose(phi.d_s(self.x), [-1.0, -2.0, -3.0])

    def test_harmonic_value(self):
        phi = PotentialSpec("harmonic", k=4.0, center=(1.0, 0.0, 0.0)).build()
        assert at(phi, self.x) == pytest.approx(0.5 * 4.0 * (4.0 + 0.0625))

    def test_custom_matches_builtin_harmonic(self):
        spec = PotentialSpec("custom",
                             expr="0.5*4*((q1-1)^2 + q2^2 + q3^2)")
        custom = spec.build()
        builtin = PotentialSpec("harmonic", k=4.0, center=(1.0, 0.0, 0.0)).build()
        assert at(custom, self.x) == pytest.approx(at(builtin, self.x),
                                                   rel=1e-15)
        assert np.array_equal(custom.d_s(self.x), builtin.d_s(self.x))


@pytest.fixture
def scalar_points(monkeypatch):
    """Every point a program over the scalar table runs at, as
    (t, q1, q2, q3): the scalar evaluator and the judges of the kernels."""
    points, program = [], expressions._program

    def counted_program(graph, roots):
        run, registers = program(graph, roots)
        if graph.table is not expressions._SCALAR:
            return run, registers

        def evaluate(*point):
            points.append(point)
            return run(*point)

        return evaluate, registers

    monkeypatch.setattr(expressions, "_program", counted_program)
    return points


class TestBuildOnce:
    def test_config_objects_are_shared_and_fields_unchanged(self):
        cfg = parse_config(minimal(potential={"kind": "custom",
                                              "expr": "q1^2 + q2"}))
        assert cfg.build_metric() is cfg.build_metric()
        assert cfg.build_potential() is cfg.build_potential()
        other = dataclasses.replace(cfg, seed=8)
        assert other.build_potential() is cfg.build_potential()
        assert dataclasses.replace(cfg) == cfg

    def test_custom_runs_parse_only_the_array_table(self, tmp_path,
                                                    monkeypatch,
                                                    scalar_points):
        parses, metrics = [], []
        parse, init = expressions._parse, SpatialMetric.__init__

        def counted_parse(text, table):
            parses.append(table)
            return parse(text, table)

        def counted_init(self, matrix):
            metrics.append(matrix)
            init(self, matrix)

        monkeypatch.setattr(expressions, "_parse", counted_parse)
        monkeypatch.setattr(SpatialMetric, "__init__", counted_init)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({  # the golden custom_anharmonic scenario
            "potential": {"kind": "custom",
                          "expr": "0.5*q1^2 + 0.25*q2^4 + 0.1*q1*q3"},
            "initial_event": [0.0, 0.8, 0.5, 0.1], "n": 50}))
        for argv in (["simulate"], ["boost-check"],
                     ["invariants", "--suite", "all"],
                     ["morse-check", "--family", "all"]):
            metrics.clear()
            assert main([*argv, "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0
            # the metric built to validate the config serves the checks
            assert len(metrics) == 1
        # the array evaluator, once in the process; the scalar one, never
        assert parses == [expressions._ARRAY]
        assert scalar_points == []

    @pytest.mark.parametrize("argv", [["simulate"], ["boost-check"],
                                      ["invariants", "--suite", "all"],
                                      ["morse-check", "--family", "all"]])
    def test_each_command_builds_the_metric_once(self, tmp_path, monkeypatch,
                                                 argv):
        # A --seed override copies the config; the copy keeps the metric.
        metrics, init = [], SpatialMetric.__init__

        def counted_init(self, matrix):
            metrics.append(matrix)
            init(self, matrix)

        monkeypatch.setattr(SpatialMetric, "__init__", counted_init)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal()))
        for extra in ([], ["--seed", "3"], ["--config", str(path)],
                      ["--config", str(path), "--seed", "3"]):
            metrics.clear()
            assert main([*argv, *extra, "--out", str(tmp_path / "out")]) == 0
            assert len(metrics) == 1, extra

    def test_with_seed_shares_the_built_metric(self):
        cfg = parse_config(minimal())
        other = cfg.with_seed(8)
        assert other == dataclasses.replace(cfg, seed=8)
        assert other.build_metric() is cfg.build_metric()
        assert other.build_potential() is cfg.build_potential()

    def test_scalar_evaluator_judges_only_finite_points(self, tmp_path,
                                                        scalar_points):
        # (q1-2)^0.5 is NaN from the first step on: the integrator names
        # that step, and no point past it goes to the scalar evaluator.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "potential": {"kind": "custom", "expr": "(q1-2)^0.5"},
            "initial_event": [0, 1, 0, 0]}))
        assert main(["boost-check", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert scalar_points
        assert np.isfinite(scalar_points).all()


class TestLoad:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal()))
        assert load_config(str(path)) == parse_config(minimal())

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(str(tmp_path / "nope.json"))
        assert info.value.field == "config"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestReport:
    def test_pass_is_inclusive_of_the_tolerance(self):
        assert CheckResult("c", 1e-9, 1e-9, 10).passed
        assert not CheckResult("c", 1.0000001e-9, 1e-9, 10).passed

    def test_verdict_requires_every_check(self):
        good = CheckResult("a", 0.0, 1e-9, 1)
        bad = CheckResult("b", 1.0, 1e-9, 1)
        assert Report((good,)).verdict == "pass"
        assert Report((good, bad)).verdict == "fail"
        assert not Report((good, bad)).passed

    def test_json_shape(self):
        report = Report((CheckResult("a", 0.5, 1.0, 3),))
        data = json.loads(report.render_json())
        assert data["verdict"] == "pass"
        assert data["checks"][0] == {
            "name": "a", "status": "pass", "max_err": 0.5, "tol": 1.0, "n": 3,
            "worst_index": None, "nonfinite": 0,
        }

    def test_render_matches_json_dumps(self):
        # NaN and the infinities as json spells them, escaped names,
        # integers of any size, and a report without checks.
        for checks in [(), (
                CheckResult("a.b", float("nan"), 1e-12, 1000, 5, 1),
                CheckResult('q"\\\n\u00e9', float("inf"), 0.0, 0),
                CheckResult("c", -float("inf"), 5e-324, 7, 2**70, 2),
                CheckResult("d", -0.0, 1e22, 1, 0))]:
            report = Report(checks)
            assert report.render_json() == json.dumps(
                report.to_json(), indent=2, sort_keys=True) + "\n"

    def test_render_is_deterministic(self):
        report = Report((CheckResult("a", 0.5, 1.0, 3),
                         CheckResult("b", 2.0, 1.0, 4)))
        assert report.render_json() == report.render_json()
        assert report.render_json().endswith("\n")

    def test_render_lines_mentions_each_check(self):
        report = Report((CheckResult("alpha", 0.0, 1.0, 1),
                         CheckResult("beta", 9.0, 1.0, 1)))
        text = report.render_lines()
        assert "alpha" in text and "beta" in text
        assert "verdict: fail" in text
