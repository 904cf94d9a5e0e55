"""End-to-end command line tests, run through real subprocesses."""

import gc
import json
import os
import subprocess
import sys

import pytest

_CMD = [sys.executable, "-m", "galimech"]


def run(*args, log="error"):
    env = os.environ.copy()
    env["GALIMECH_LOG"] = log
    return subprocess.run([*_CMD, *args], capture_output=True, text=True,
                          env=env)


def write_config(tmp_path, name="scenario.json", **overrides):
    data = {
        "potential": {"kind": "free"},
        "frames": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        "initial_velocity": [1.0, 0.0, 0.0],
        "h": 0.1,
        "n": 10,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestSimulate:
    def test_free_particle_rows(self, tmp_path):
        proc = run("simulate", "--config", write_config(tmp_path))
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "step,t,q1,q2,q3,p1,p2,p3,H"
        assert len(lines) == 12  # header + n+1 points
        for line in lines[1:]:
            cells = line.split(",")
            # rest frame, unit velocity along q1: the q1 column reproduces
            # the time column digit for digit
            assert cells[2] == cells[1]
            assert cells[3] == "0" and cells[4] == "0"

    def test_frame_choice_shifts_momentum(self, tmp_path):
        cfg = write_config(tmp_path)
        comoving = run("simulate", "--config", cfg, "--frame", "1")
        assert comoving.returncode == 0
        row = comoving.stdout.strip().split("\n")[1].split(",")
        assert row[5] == "0"  # p1 = m (w - u) vanishes in the comoving frame

    def test_harmonic_energy_column_constant(self, tmp_path):
        cfg = write_config(
            tmp_path,
            potential={"kind": "harmonic", "k": 4.0, "center": [0, 0, 0]},
            initial_event=[0.0, 1.0, 0.0, 0.0],
            h=0.001, n=200)
        proc = run("simulate", "--config", cfg)
        assert proc.returncode == 0
        energies = [float(line.split(",")[8])
                    for line in proc.stdout.strip().split("\n")[1:]]
        assert max(abs(e - energies[0]) for e in energies) < 1e-8

    def test_out_file_and_atomicity(self, tmp_path):
        out = tmp_path / "traj.csv"
        proc = run("simulate", "--config", write_config(tmp_path),
                   "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert out.read_text().startswith("step,t,")
        leftovers = [p for p in os.listdir(tmp_path)
                     if p.startswith(".galimech-")]
        assert leftovers == []

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        first = run("simulate", "--config", cfg)
        second = run("simulate", "--config", cfg)
        assert first.stdout == second.stdout

    def test_bad_frame_index_is_config_error(self, tmp_path):
        proc = run("simulate", "--config", write_config(tmp_path),
                   "--frame", "7")
        assert proc.returncode == 2
        assert "frame" in proc.stderr

    def test_divergence_exits_3_without_output(self, tmp_path):
        cfg = write_config(
            tmp_path,
            potential={"kind": "harmonic", "k": -400.0},
            h=0.5, n=2000)
        out = tmp_path / "never.csv"
        proc = run("simulate", "--config", cfg, "--out", str(out))
        assert proc.returncode == 3
        assert "non-finite" in proc.stderr
        assert not out.exists()


class TestPotentialArithmeticErrors:
    @pytest.mark.parametrize("command", ["simulate", "boost-check"])
    @pytest.mark.parametrize("expr, error", [("1/q1", "ZeroDivisionError"),
                                             ("10^400*q1", "OverflowError")])
    def test_exits_3_with_one_line(self, tmp_path, command, expr, error):
        cfg = write_config(tmp_path,
                           potential={"kind": "custom", "expr": expr},
                           initial_event=[0, 0, 0, 0],
                           initial_velocity=[0, 0, 0])
        proc = run(command, "--config", cfg)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1  # no traceback
        assert f"{error} at step 1" in lines[0]

    def test_energy_column_error_exits_3_without_output(self, tmp_path):
        # The gradient's differences never touch the origin; the H column does.
        cfg = write_config(tmp_path,
                           potential={"kind": "custom",
                                      "expr": "1/(q1^2+q2^2+q3^2)"},
                           initial_event=[0, 0, 0, 0],
                           initial_velocity=[0, 0, 0])
        out = tmp_path / "never.csv"
        proc = run("simulate", "--config", cfg, "--out", str(out))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1  # no traceback
        assert "ZeroDivisionError in the energy at step 0" in lines[0]
        assert not out.exists()


    @pytest.mark.parametrize("expr", ["(-1)^0.5*q1", "sin(q1*1e308*10)"])
    def test_nan_potential_in_the_checks_exits_3(self, tmp_path, expr):
        # NaN in the scalar evaluator (a complex power, sin of infinity):
        # the sampled checks fail, then energy.drift diverges.
        cfg = write_config(tmp_path,
                           potential={"kind": "custom", "expr": expr})
        proc = run("invariants", "--suite", "dynamics", "--config", cfg)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1  # no traceback
        assert "non-finite at step 1" in lines[0]


class TestPotentialDomainErrors:
    """A potential that fails where a check cannot do without it ends the
    run with exit 3 and one stderr line."""

    @pytest.mark.parametrize("args", [("morse-check", "--family", "all"),
                                      ("invariants", "--suite", "affine")])
    def test_arithmetic_error_at_the_initial_event(self, tmp_path, args):
        # The default initial event is the origin, where 1/q1 divides by 0.
        cfg = write_config(tmp_path, potential={"kind": "custom", "expr": "1/q1"})
        out = tmp_path / "never.json"
        proc = run(*args, "--config", cfg, "--out", str(out))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1  # no traceback
        assert lines[0].startswith("domain error: potential raised "
                                   "ZeroDivisionError")
        assert not out.exists()

    def test_nan_potential_stops_the_newton_solve(self, tmp_path):
        # NaN everywhere: the first Newton solve starts from a NaN
        # gradient, which is a domain error, not a rejected seed.
        cfg = write_config(tmp_path,
                           potential={"kind": "custom", "expr": "(-1)^0.5*q1"})
        proc = run("morse-check", "--config", cfg)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1  # no traceback
        assert lines[0].startswith("domain error: fam1: fiber gradient not finite")

    @pytest.mark.parametrize("family", ["fam2", "fam3"])
    def test_nan_potential_ends_families_without_a_solve(self, tmp_path,
                                                         family):
        # These families certify given points without a Newton solve; a
        # potential that is not finite at the initial event is the same
        # domain error as in fam1, not a failed check.
        cfg = write_config(tmp_path,
                           potential={"kind": "custom", "expr": "(-1)^0.5*q1"})
        proc = run("morse-check", "--family", family, "--config", cfg)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1  # no traceback
        assert lines[0].startswith(f"domain error: {family}: potential not "
                                   "finite at the initial event")


class TestConfigErrors:
    def test_bad_mass_names_field(self, tmp_path):
        proc = run("simulate", "--config", write_config(tmp_path, mass=0))
        assert proc.returncode == 2
        assert "mass" in proc.stderr

    def test_bad_expression_names_field(self, tmp_path):
        cfg = write_config(tmp_path,
                           potential={"kind": "custom", "expr": "q1 +"})
        proc = run("simulate", "--config", cfg)
        assert proc.returncode == 2
        assert "potential.expr" in proc.stderr

    @pytest.mark.parametrize("expr", ["(" * 2000 + "q1" + ")" * 2000,
                                      "+".join(["q1"] * 5001)])
    def test_over_deep_expression_exits_2(self, tmp_path, expr):
        cfg = write_config(tmp_path, potential={"kind": "custom", "expr": expr})
        proc = run("simulate", "--config", cfg)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]  # no traceback
        assert proc.stderr.startswith("config error: potential.expr: expression")

    def test_unbounded_step_count_exits_2(self, tmp_path):
        proc = run("simulate", "--config", write_config(tmp_path, n=10**12))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("config error: n:")

    def test_missing_file(self, tmp_path):
        proc = run("simulate", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 2

    def test_unknown_suite_rejected_by_argparse(self):
        proc = run("invariants", "--suite", "bogus")
        assert proc.returncode == 2

    def test_unknown_command_rejected(self):
        proc = run("frobnicate")
        assert proc.returncode == 2


class TestReports:
    def test_invariants_core_passes(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run("invariants", "--suite", "core", "--out", str(out))
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "pass"
        names = [c["name"] for c in report["checks"]]
        assert "sigma.cocycle" in names
        assert "verdict: pass" in proc.stderr

    def test_report_reruns_byte_identical(self):
        first = run("invariants", "--suite", "core")
        second = run("invariants", "--suite", "core")
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")

    def test_seed_override_changes_samples(self):
        base = run("invariants", "--suite", "core")
        other = run("invariants", "--suite", "core", "--seed", "7")
        assert base.returncode == other.returncode == 0
        assert base.stdout != other.stdout

    def test_tolerance_override_reaches_report(self, tmp_path):
        cfg = write_config(tmp_path, tolerances={"cocycle": 0.5})
        proc = run("invariants", "--suite", "core", "--config", cfg)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert all(c["tol"] == 0.5 for c in report["checks"]
                   if c["name"].startswith("sigma."))


class TestBoostCheck:
    def test_passes_on_default_scenario(self):
        proc = run("boost-check")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "pass"
        assert {c["name"] for c in report["checks"]} == {
            "world_line.agreement",
            "momentum.offset_constant",
            "boost.residual_preservation",
        }

    def test_corrupt_sigma_is_detected(self):
        proc = run("boost-check", "--corrupt-sigma")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["verdict"] == "fail"
        failed = {c["name"] for c in report["checks"]
                  if c["status"] == "fail"}
        assert "boost.residual_preservation" in failed

    def test_single_frame_config_rejected(self, tmp_path):
        cfg = write_config(tmp_path, frames=[[0.0, 0.0, 0.0]])
        proc = run("boost-check", "--config", cfg)
        assert proc.returncode == 2
        assert "frames" in proc.stderr


class TestMorseCheck:
    def test_single_family(self):
        proc = run("morse-check", "--family", "example31")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert [c["name"] for c in report["checks"]] == ["morse.example31.rank"]
        assert report["verdict"] == "pass"

    def test_family_choices_are_validated(self):
        proc = run("morse-check", "--family", "fam9")
        assert proc.returncode == 2


class TestLogging:
    def test_quiet_by_default(self, tmp_path):
        proc = run("simulate", "--config", write_config(tmp_path),
                   "--out", str(tmp_path / "t.csv"))
        assert proc.stderr == ""

    def test_debug_goes_to_stderr(self, tmp_path):
        proc = run("simulate", "--config", write_config(tmp_path),
                   "--out", str(tmp_path / "t.csv"), log="debug")
        assert proc.returncode == 0
        assert "INFO" in proc.stderr or "DEBUG" in proc.stderr

    def test_unrecognized_level_still_runs(self, tmp_path):
        proc = run("simulate", "--config", write_config(tmp_path), log="loud")
        assert proc.returncode == 0


class TestInProcess:
    def test_repeated_main_leaves_no_argparse_garbage(self, tmp_path, capsys):
        # The parser is built once per process; a parser built per call
        # leaves its reference cycles to the cyclic collector every time.
        from galimech.harness.cli import main

        argv = ["morse-check", "--family", "fam2",
                "--out", str(tmp_path / "m.json")]
        assert main(argv) == 0  # warm-up
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(3):
                assert main(argv) == 0
            gc.collect()
            leaked = [o for o in gc.garbage
                      if "argparse" in (type(o).__module__,
                                        getattr(o, "__module__", None))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []
