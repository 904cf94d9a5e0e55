import numpy as np
import pytest

from galimech.galilean_core import Frame, SpatialMetric


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_metric(rng) -> SpatialMetric:
    """Well-conditioned random SPD matrix, eigenvalues roughly in [1.5, 4]."""
    a = rng.normal(0.0, 0.5, size=(3, 3))
    return SpatialMetric(a @ a.T + 1.5 * np.eye(3))


def random_frame(rng, scale: float = 1.0) -> Frame:
    return Frame.from_spatial(rng.uniform(-scale, scale, size=3))


def at(potential, x) -> float:
    """The potential's value at one event x, coordinates (t, q1, q2, q3)."""
    x = np.asarray(x, dtype=float)
    return float(potential.values(x[0], x[1:]))
