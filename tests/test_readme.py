"""The README's library tour runs against the current API.

The first ``python`` code block under "## Library tour" is executed in
process, so a rename that the tour does not follow fails here.
"""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs():
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(tour_code(), str(README), "exec"), namespace)
    assert namespace["traj"].q.shape == (1001, 1, 3)
    # the shift to a frame moving at 1 along q1: (-|u2|^2 / 2, u2)
    assert out.getvalue().splitlines()[1] == str(np.array([-0.5, 1.0, 0.0, 0.0]))
