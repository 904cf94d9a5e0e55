"""Every scenario file ends one of three ways, by property test.

Any JSON config, drawn over every field with extreme magnitudes and
expressions from the grammar, runs through all four commands in process.
Each ends with exit 0 or 1 and the report, with exit 2 and one config
error line, or with exit 3 and one divergence or domain error line.  No
command prints a numpy warning or a traceback, and none exits 4.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from galimech.harness.cli import main  # noqa: E402

EXTREMES = (1e308, -1e308, 1e300, -1e300, 1e-320, 2.5e282, 0.0, -0.0)

number = st.one_of(st.sampled_from(EXTREMES),
                   st.floats(-3.0, 3.0, allow_nan=False),
                   st.integers(-3, 3))
# Mostly positive, where a config asks for it: a mass, a step, the
# diagonal of a metric.  number itself draws the config errors.
size = st.one_of(st.sampled_from([x for x in EXTREMES if x > 0]),
                 st.floats(1e-3, 3.0), number)


def vector(length: int):
    return st.lists(number, min_size=length, max_size=length)


leaf = st.sampled_from(
    ["t", "q1", "q2", "q3", "pi", "1e308", "1e-320", "2", "0.5"])


def _extend(children):
    binary = st.builds("({} {} {})".format, children,
                       st.sampled_from("+-*/^"), children)
    unary = st.builds("{}({})".format,
                      st.sampled_from(["sin", "cos", "exp", "-"]), children)
    return binary | unary


expression = st.recursive(leaf, _extend, max_leaves=8)

potential = st.one_of(
    st.just({"kind": "free"}),
    st.fixed_dictionaries({"kind": st.just("uniform"), "force": vector(3)}),
    st.fixed_dictionaries({"kind": st.just("harmonic"), "k": number},
                          optional={"center": vector(3)}),
    st.fixed_dictionaries({"kind": st.just("custom"), "expr": expression}),
)


def diagonal(entry):
    return st.builds(lambda a, b, c: [[a, 0, 0], [0, b, 0], [0, 0, c]],
                     entry, entry, entry)


metric = st.one_of(
    diagonal(st.floats(0.5, 3.0)),
    diagonal(size),
    st.builds(lambda a, b, c, d, e, f: [[a, d, e], [d, b, f], [e, f, c]],
              size, size, size, number, number, number),
)

config = st.fixed_dictionaries({}, optional={
    "mass": size,
    "metric": metric,
    "potential": potential,
    "frames": st.lists(vector(3), min_size=1, max_size=3),
    "initial_event": vector(4),
    "initial_velocity": vector(3),
    "h": size,
    "n": st.integers(1, 20),
    "seed": st.integers(0, 2**31),
    "tolerances": st.dictionaries(
        st.sampled_from(["world_line_free", "energy_drift", "covector_match"]),
        number, max_size=2),
})

COMMANDS = [["simulate"], ["boost-check"], ["invariants", "--suite", "all"],
            ["morse-check", "--family", "all"]]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_every_config_ends_one_of_three_ways(tmp_path, monkeypatch, command):
    monkeypatch.setenv("GALIMECH_LOG", "error")

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(config)
    def ends_one_of_three_ways(data):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([*command, "--config", str(path),
                         "--out", str(tmp_path / "out")])
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3), err
        assert "Warning" not in err and "Traceback" not in err, err
        if code in (2, 3):
            assert len(err.splitlines()) == 1, err

    ends_one_of_three_ways()
