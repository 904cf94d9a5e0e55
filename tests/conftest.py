import sys

import numpy as np
import pytest

from galimech import generating_objects
from galimech.frame_dynamics import Potential
from galimech.galilean_core import SpatialMetric
from galimech.harness.config import PotentialSpec
from galimech.harness.expressions import compile_potential


@pytest.fixture(autouse=True)
def fresh_potentials():
    """Each test compiles its potentials afresh, as a new process does, so
    a potential compiled under a patch never reaches another test."""
    compile_potential.cache_clear()
    yield
    compile_potential.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# The built-in kinds, built as a scenario builds them.
def free_potential() -> Potential:
    return PotentialSpec("free").build()


def uniform_potential(force) -> Potential:
    return PotentialSpec("uniform", force=tuple(map(float, force))).build()


def harmonic_potential(k: float, center=(0.0, 0.0, 0.0)) -> Potential:
    return PotentialSpec("harmonic", k=float(k),
                         center=tuple(map(float, center))).build()


def random_metric(rng) -> SpatialMetric:
    """Well-conditioned random SPD matrix, eigenvalues roughly in [1.5, 4]."""
    a = rng.normal(0.0, 0.5, size=(3, 3))
    return SpatialMetric(a @ a.T + 1.5 * np.eye(3))


def random_frame(rng, scale: float = 1.0) -> np.ndarray:
    return rng.uniform(-scale, scale, size=3)


def at(potential, x) -> float:
    """The potential's value at one event x, coordinates (t, q1, q2, q3)."""
    x = np.asarray(x, dtype=float)
    return float(potential.values(x[0], x[1:]))


class RankSpy:
    """What the full-rank certificate decided, and what reached the SVD
    from generating_objects, over the calls made while it is installed."""

    def __init__(self):
        self.decided: list[tuple[np.ndarray, np.ndarray]] = []
        self.svd: list[np.ndarray] = []

    def undecided(self) -> list[np.ndarray]:
        """The rows the certificate left open, one stack per call that
        left any."""
        return [m[~ok] for m, ok in self.decided if not ok.all()]

    def assert_svd_saw_exactly_the_undecided(self) -> None:
        """One SVD per call that left rows open, of exactly those rows
        (all finite in the runs that assert this)."""
        undecided = self.undecided()
        assert len(self.svd) == len(undecided)
        for got, want in zip(self.svd, undecided):
            assert np.isfinite(want).all()
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.fixture
def rank_spy(monkeypatch) -> RankSpy:
    spy = RankSpy()
    certify, svd = generating_objects._full_rank_certified, np.linalg.svd

    def recorded_certify(matrices, rel_tol):
        certified = certify(matrices, rel_tol)
        spy.decided.append((np.array(matrices), certified))
        return certified

    def recorded_svd(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == generating_objects.__name__:
            spy.svd.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(generating_objects, "_full_rank_certified",
                        recorded_certify)
    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    return spy
