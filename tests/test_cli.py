"""End-to-end command line tests, run through real subprocesses."""

import gc
import json
import os
import stat
import subprocess
import sys
import tempfile

import pytest

_CMD = [sys.executable, "-W", "error::RuntimeWarning", "-m", "galimech"]


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

    @pytest.mark.parametrize("command", [
        "simulate", "boost-check", "invariants --suite all",
        "morse-check --family all"])
    @pytest.mark.parametrize("potential", [
        # the probe of an affine force overflows where the value's square
        # does, as the stage loop's first step would
        {"kind": "harmonic", "k": 1e308, "center": [1e308, 1e308, 1e308]},
        # a constant that overflows is no affine coefficient
        {"kind": "custom", "expr": "10^400*q1"},
    ], ids=["harmonic", "custom"])
    def test_overflow_exits_3_in_every_command(self, tmp_path, command,
                                               potential):
        cfg = write_config(tmp_path, potential=potential, n=5)
        proc = run(*command.split(), "--config", cfg)
        assert proc.returncode == 3
        where = "in morse_checks('fam1')" if command.startswith("morse") \
            else "at step 1"
        kind = "domain error" if command.startswith("morse") \
            else "integration diverged"
        assert proc.stderr.splitlines() == [
            f"{kind}: potential raised OverflowError {where}: "
            "(34, 'Numerical result out of range')"]

    @pytest.mark.parametrize("command", ["simulate", "boost-check"])
    def test_force_error_at_the_start_exits_3(self, tmp_path, command):
        # The exact force of 1/r^2 at the origin divides by zero, where
        # central differences around it never did.
        cfg = write_config(tmp_path,
                           potential={"kind": "custom",
                                      "expr": "1/(q1^2+q2^2+q3^2)"},
                           initial_event=[0, 0, 0, 0],
                           initial_velocity=[0, 0, 0])
        out = tmp_path / "never.out"
        proc = run(command, "--config", cfg, "--out", str(out))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1  # no traceback
        assert "ZeroDivisionError at step 1" in lines[0]
        assert not out.exists()

    def test_energy_column_error_exits_3_without_output(self, tmp_path):
        # The force of 1/t + q1 never divides by t; the H column does.
        cfg = write_config(tmp_path,
                           potential={"kind": "custom", "expr": "1/t + q1"},
                           initial_event=[0, 0, 0, 0],
                           initial_velocity=[0, 0, 0])
        out = tmp_path / "never.csv"
        proc = run("simulate", "--config", cfg, "--out", str(out))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1  # no traceback
        assert "ZeroDivisionError in the energy at step 0" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "invariants"])
    @pytest.mark.parametrize("warnings", ["default", "error"])
    def test_infinite_energy_at_finite_states_exits_3(self, tmp_path, command,
                                                      warnings):
        # |p|^2 overflows at a momentum of 1e200; the states stay finite.
        # Under -W error a numpy overflow warning would end in exit 4.
        cfg = write_config(tmp_path, initial_velocity=[1e200, 0, 0], n=5)
        out = tmp_path / "never.out"
        proc = subprocess.run(
            [sys.executable, "-W", warnings, "-m", "galimech", command,
             "--config", cfg, "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "GALIMECH_LOG": "error"})
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "integration diverged: energy inf is not finite at step 0"]
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

    @pytest.mark.parametrize("config, args, prefix", [
        ({"frames": [[2.5e282, 0, 0], [0, 0, 0]]}, ("morse-check",),
         "domain error: fam1: fiber gradient not finite"),
        ({"potential": {"kind": "uniform", "force": [1e308, 1e308, 0]},
          "n": 5}, ("simulate",),
         "integration diverged: energy nan is not finite at step 1"),
        ({"potential": {"kind": "uniform", "force": [1e308, 1e308, 0]},
          "n": 5}, ("morse-check",),
         "domain error: fam1: fiber gradient not finite"),
        ({"potential": {"kind": "harmonic", "k": 1e308}, "n": 5},
         ("morse-check",), "domain error: fam1: fiber gradient not finite"),
        ({"potential": {"kind": "harmonic", "k": -1e308},
          "initial_event": [0, 1, 0, 0], "n": 5}, ("morse-check",),
         "domain error: fam1: fiber gradient not finite"),
        ({"mass": 2.0, "initial_velocity": [0, 0, 1e308]}, ("boost-check",),
         "integration diverged: state became non-finite at step 1"),
        ({"mass": 2.0, "initial_velocity": [0, 0, 1e308]},
         ("invariants", "--suite", "dynamics"),
         "integration diverged: state became non-finite at step 1"),
    ], ids=["frame-morse", "uniform-simulate", "uniform-morse", "k-morse",
            "negative-k-morse", "velocity-boost", "velocity-invariants"])
    def test_extreme_frame_exits_3_without_a_warning(self, tmp_path, config,
                                                     args, prefix):
        # Extreme magnitudes overflow: Legendre images in a frame of speed
        # 2.5e282, the uniform potential's value at a force of 1e308, the
        # harmonic force at k = +-1e308, the momentum of a velocity of
        # 1e308.  A non-finite base or state is a domain error or a
        # divergence, and the overflow itself prints no numpy warning.
        cfg = tmp_path / "extreme.json"
        cfg.write_text(json.dumps(config))
        proc = run(*args, "--config", str(cfg))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Warning" not in proc.stderr
        assert lines[0].startswith(prefix)


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

    def test_repeated_main_leaves_no_cyclic_garbage(self, tmp_path, capsys):
        # A whole command, report rendering included, frees everything it
        # made by reference counting alone.
        from galimech.harness.cli import main

        argv = ["morse-check", "--family", "fam2",
                "--out", str(tmp_path / "m.json")]
        assert main(argv) == 0  # warm-up
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(10):
                assert main(argv) == 0
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []

    def test_log_level_is_read_at_every_call(self, tmp_path, monkeypatch,
                                              capsys):
        # Each main() call applies GALIMECH_LOG anew, so a later call may
        # print lines an earlier one did not, and stop printing them again.
        from galimech.harness.cli import main

        out = tmp_path / "t.csv"
        argv = ["simulate", "--config", write_config(tmp_path),
                "--out", str(out)]
        info = [f"INFO galimech.cli: wrote {out}",
                "INFO galimech.cli: simulated 10 steps in frame 0"]
        for level, want in [("error", []), ("info", info), ("error", [])]:
            monkeypatch.setenv("GALIMECH_LOG", level)
            assert main(argv) == 0
            assert capsys.readouterr().err.splitlines() == want


class TestUnwritableOut:
    """An --out that cannot be written exits 2 with one line naming it."""

    COMMANDS = [["simulate"], ["boost-check"], ["invariants", "--suite", "core"],
                ["morse-check", "--family", "example31"]]

    @staticmethod
    def assert_usage_error(argv, out, capsys, reason):
        from galimech.harness.cli import main

        assert main([*argv, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: --out: cannot write {out}: {reason}\n"

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_missing_directory(self, tmp_path, capsys, argv):
        out = str(tmp_path / "missing" / "x.out")
        self.assert_usage_error(argv, out, capsys, "No such file or directory")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_read_only_directory(self, tmp_path, capsys, monkeypatch, argv):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o555)
        if os.geteuid() == 0:
            # Permission bits do not bind root: refuse the temp file as
            # the kernel refuses it to anyone else.
            def refused(*args, dir=None, **kwargs):
                raise PermissionError(13, "Permission denied", dir)

            monkeypatch.setattr(tempfile, "mkstemp", refused)
        try:
            self.assert_usage_error(argv, str(locked / "x.out"), capsys,
                                    "Permission denied")
        finally:
            locked.chmod(0o755)
        assert os.listdir(locked) == []

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_rename_onto_a_directory_removes_the_temp_file(self, tmp_path,
                                                           capsys, argv):
        (tmp_path / "taken").mkdir()
        self.assert_usage_error(argv, str(tmp_path / "taken"), capsys,
                                "Is a directory")
        assert sorted(os.listdir(tmp_path)) == ["taken"]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_special_file_is_refused_and_kept(self, tmp_path, capsys, argv):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        self.assert_usage_error(argv, str(fifo), capsys, "not a regular file")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["fifo"]


class TestOutFileTarget:
    """--out keeps the mode of a file it replaces, gives a new file the
    mode open() would, and writes through a symlink to its target."""

    @staticmethod
    def write(out):
        from galimech.harness.cli import main

        assert main(["invariants", "--suite", "core", "--out", str(out)]) == 0

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("old")
        out.chmod(0o640)
        self.write(out)
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
        assert json.loads(out.read_text())["verdict"] == "pass"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_new_file_gets_the_umask_mode(self, tmp_path, umask):
        out = tmp_path / "report.json"
        old = os.umask(umask)
        try:
            self.write(out)
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o666 & ~umask

    def test_symlink_is_written_through(self, tmp_path, monkeypatch):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        target = elsewhere / "target.json"
        target.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        made_in = []
        real_mkstemp = tempfile.mkstemp

        def recording(*args, dir=None, **kwargs):
            made_in.append(dir)
            return real_mkstemp(*args, dir=dir, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", recording)
        self.write(link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text())["verdict"] == "pass"
        assert made_in == [str(elsewhere)]
        assert sorted(os.listdir(tmp_path)) == ["elsewhere", "link.json"]
        assert os.listdir(elsewhere) == ["target.json"]

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        target = tmp_path / "new.json"
        link = tmp_path / "link.json"
        link.symlink_to(target)
        self.write(link)
        assert link.is_symlink()
        assert json.loads(target.read_text())["verdict"] == "pass"


class TestNegativeSeed:
    """--seed is checked as the config's seed is: a negative one exits 2."""

    @pytest.mark.parametrize("argv", TestUnwritableOut.COMMANDS)
    def test_exits_2_with_one_line(self, tmp_path, capsys, argv):
        from galimech.harness.cli import main

        out = tmp_path / "x.out"
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "config error: --seed: expected a non-negative integer, got -1\n"
        assert not out.exists()


class TestInternalError:
    """Any other exception ends in exit 4 with one stderr line."""

    def test_exits_4_with_one_line(self, monkeypatch, capsys):
        from galimech.harness import cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_load", broken)
        for argv in (["simulate"], ["boost-check"], ["morse-check"],
                     ["invariants"]):
            assert cli.main(argv) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_pass_through(self, monkeypatch, exc):
        from galimech.harness import cli

        def interrupted(args):
            raise exc()

        monkeypatch.setattr(cli, "_load", interrupted)
        with pytest.raises(exc):
            cli.main(["simulate"])

    @pytest.mark.parametrize("log", ["error", "debug"])
    def test_traceback_only_at_debug(self, log):
        code = ("import galimech.harness.cli as cli\n"
                "def broken(args):\n"
                "    raise RuntimeError('boom')\n"
                "cli._load = broken\n"
                "raise SystemExit(cli.main(['simulate']))\n")
        env = os.environ.copy()
        env["GALIMECH_LOG"] = log
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert lines[0] == "internal error: RuntimeError: boom"
        if log == "error":
            assert lines == lines[:1]
        else:
            assert "Traceback (most recent call last):" in lines
            assert lines[-1] == "RuntimeError: boom"


# Modules that only some commands need.
_LAZY = ("galimech.harness.checks", "galimech.generating_objects",
         "galimech.affine_phase")


def _loaded_after(code: str) -> list[str]:
    """The galimech modules a fresh interpreter holds after running code."""
    probe = code + ("\nimport sys\n"
                    "print(' '.join(m for m in sys.modules "
                    "if m.startswith('galimech')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _logging_loaded_after(code: str) -> bool:
    """Whether a fresh interpreter at the default GALIMECH_LOG holds
    ``logging`` after running code."""
    env = os.environ.copy()
    env.pop("GALIMECH_LOG", None)
    probe = code + "\nimport sys\nprint('logging' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


class TestImports:
    def test_simulate_loads_only_the_integrator(self, tmp_path):
        out = tmp_path / "t.csv"
        loaded = _loaded_after(
            "import runpy, sys\n"
            f"sys.argv = ['galimech', 'simulate', '--out', {str(out)!r}]\n"
            "try:\n"
            "    runpy.run_module('galimech', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n")
        assert out.read_text().startswith("step,t,")
        assert "galimech.frame_dynamics" in loaded
        # every potential, the default free one too, is compiled
        assert "galimech.harness.expressions" in loaded
        assert not set(_LAZY) & set(loaded)

    def test_custom_config_loads_the_expression_compiler(self, tmp_path):
        cfg = write_config(tmp_path, potential={"kind": "custom",
                                                "expr": "q1^2"})
        loaded = _loaded_after(
            "from galimech.harness.config import load_config\n"
            f"load_config({cfg!r}).build_potential()\n")
        assert "galimech.harness.expressions" in loaded

    @pytest.mark.parametrize("command", ["simulate", "boost-check"])
    def test_default_level_never_loads_logging(self, tmp_path, command):
        out = tmp_path / "out"
        assert not _logging_loaded_after(
            "import runpy, sys\n"
            f"sys.argv = ['galimech', {command!r}, '--out', {str(out)!r}]\n"
            "try:\n"
            "    runpy.run_module('galimech', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n")
        assert out.stat().st_size > 0

    def test_set_up_never_loads_logging(self, tmp_path):
        cfg = write_config(tmp_path, potential={"kind": "harmonic", "k": 2.0})
        assert not _logging_loaded_after(
            "import galimech.harness.cli\n"
            "from galimech.harness.config import load_config\n"
            f"assert load_config({cfg!r}).potential.kind == 'harmonic'\n")

    @pytest.mark.parametrize("argv, info", [
        (["simulate"], ["wrote {out}", "simulated 10 steps in frame 0"]),
        (["boost-check"], ["wrote {out}"]),
        (["morse-check", "--family", "fam1"],
         ["checking family fam1", "wrote {out}"]),
    ])
    def test_info_lines(self, tmp_path, argv, info):
        out = tmp_path / "out"
        proc = run(*argv, "--config", write_config(tmp_path),
                   "--out", str(out), log="info")
        assert proc.returncode == 0
        assert [line for line in proc.stderr.splitlines()
                if line.startswith("INFO ")] == [
            "INFO galimech.cli: " + line.format(out=out) for line in info]

    def test_malformed_expression_still_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, potential={"kind": "custom", "expr": "q1+"})
        proc = run("simulate", "--config", cfg)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: potential.expr: ")
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
