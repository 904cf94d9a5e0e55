import numpy as np
import pytest

from galimech.galilean_core import (
    SingularMetric,
    SpatialMetric,
    iota_u_array,
    pair,
    pair_frame,
    sigma,
)

from conftest import random_frame, random_metric

E0 = np.array([0.0, 0.0, 0.0])
# The time covector: the time elapsed along a vector.
TAU = np.array([1.0, 0.0, 0.0, 0.0])


def velocity(u: np.ndarray) -> np.ndarray:
    """The frame's four-velocity (1, u)."""
    return np.concatenate([[1.0], u])


class TestBasicTypes:
    def test_pairing_is_component_sum(self):
        p = np.array([1.0, 2.0, 3.0, 4.0])
        v = np.array([1.0, 1.0, 1.0, 1.0])
        assert pair(p, v) == 10.0

    def test_pairing_accepts_frame(self):
        p = np.array([5.0, 1.0, 2.0, 3.0])
        u = np.array([1.0, 0.0, 0.0])
        assert pair_frame(p, u) == 6.0
        assert pair(p, velocity(u)) == 6.0

    def test_event_difference_is_vector(self):
        x = np.array([3.0, 1.0, 0.0, 2.0])
        xp = np.array([1.0, 0.0, 0.0, 0.0])
        d = x - xp
        assert d.tolist() == [2.0, 1.0, 0.0, 2.0]
        assert np.array_equal(xp + d, x)


class TestSpatialMetric:
    def test_identity_and_diagonal(self):
        assert np.array_equal(SpatialMetric.identity().apply(np.eye(3)), np.eye(3))
        d = SpatialMetric.diagonal(4.0, 1.0, 1.0)
        assert d.quadratic([1.0, 0.0, 0.0]) == 4.0

    def test_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            SpatialMetric(m)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(SingularMetric):
            SpatialMetric(np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(SingularMetric):
            SpatialMetric(np.diag([1.0, 1.0, -2.0]))

    def test_inverse_consistency(self, rng):
        for _ in range(20):
            g = random_metric(rng)
            s = rng.normal(size=3)
            assert np.allclose(g.apply_inverse(g.apply(s)), s, atol=1e-12)


class TestTimeAndDistance:
    """The time between two events is TAU on their difference; between
    simultaneous events the metric measures the spatial distance."""

    def test_time_between_example(self):
        x = np.array([3.0, 5.0, 0.0, 0.0])
        xp = np.array([1.0, 2.0, 0.0, 0.0])
        assert pair(TAU, x - xp) == 2.0
        assert pair(TAU, xp - x) == -2.0

    def test_time_between_matches_coordinate_difference(self, rng):
        # Oracle: direct subtraction of time coordinates.
        for _ in range(100):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            assert pair(TAU, a - b) == a[0] - b[0]

    def test_spatial_distance_euclidean(self):
        g = SpatialMetric.identity()
        x = np.array([1.0, 3.0, 4.0, 0.0])
        xp = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.sqrt(g.quadratic(x[1:] - xp[1:])) == \
            pytest.approx(5.0, rel=1e-15)

    def test_spatial_distance_weighted(self):
        g = SpatialMetric.diagonal(4.0, 1.0, 1.0)
        x = np.array([0.0, 1.0, 0.0, 0.0])
        xp = np.array([0.0, 0.0, 0.0, 0.0])
        assert np.sqrt(g.quadratic(x[1:] - xp[1:])) == \
            pytest.approx(2.0, rel=1e-15)


class TestProjections:
    """iota_u_array and the splits it defines: a vector v splits in frame u
    into (iota_u_array(u, v), v0) and is rebuilt as v0 (1, u) + (0, s); a
    covector p splits into (p[1:], pair_frame(p, u)) and is rebuilt with
    time component pair_frame(p, u) - <p[1:], u>."""

    def test_iota_rest_frame(self):
        v = np.array([2.0, 1.0, 0.0, 0.0])
        assert iota_u_array(E0, v).tolist() == [1.0, 0.0, 0.0]

    def test_iota_moving_frame(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([2.0, 1.0, 0.0, 0.0])
        assert iota_u_array(u, v).tolist() == [-1.0, 0.0, 0.0]

    def test_iota_kills_frame_velocity(self, rng):
        for _ in range(20):
            u = random_frame(rng)
            assert np.array_equal(
                iota_u_array(u, velocity(u)), np.zeros(3))

    def test_iota_fixes_spatial_vectors(self, rng):
        for _ in range(20):
            u = random_frame(rng)
            s = np.array([0.0, *rng.normal(size=3)])
            assert np.array_equal(iota_u_array(u, s), s[1:])

    def test_iota_result_is_spatial(self, rng):
        # Read as a vector with time component 0, the projection is fixed
        # by a second projection along any frame.
        for _ in range(50):
            u, u2 = random_frame(rng), random_frame(rng)
            s = iota_u_array(u, rng.normal(size=4))
            assert np.array_equal(
                iota_u_array(u2, np.concatenate([[0.0], s])), s)

    def test_split_example(self):
        v = np.array([2.0, 1.0, 0.0, 0.0])
        assert iota_u_array(E0, v).tolist() == [1.0, 0.0, 0.0]
        assert v[0] == 2.0

    def test_split_unsplit_roundtrip(self, rng):
        for _ in range(100):
            u = random_frame(rng)
            v = rng.normal(size=4)
            s, tv = iota_u_array(u, v), v[0]
            back = np.concatenate([[tv], s + tv * u])
            assert np.allclose(back, v, atol=1e-12)
            assert np.allclose(iota_u_array(u, back), s, atol=1e-12)

    def test_split_linearity(self, rng):
        u = random_frame(rng)
        for _ in range(20):
            v, w = rng.normal(size=4), rng.normal(size=4)
            assert np.allclose(iota_u_array(u, v + w),
                               iota_u_array(u, v) + iota_u_array(u, w),
                               atol=1e-12)

    def test_cosplit_example(self):
        p = np.array([5.0, 1.0, 2.0, 3.0])
        assert p[1:].tolist() == [1.0, 2.0, 3.0]
        assert pair_frame(p, E0) == 5.0

    def test_cosplit_uncosplit_roundtrip(self, rng):
        for _ in range(100):
            u = random_frame(rng)
            p = rng.normal(size=4)
            f, e = p[1:], pair_frame(p, u)
            back = np.concatenate([[e - f @ u], f])
            assert np.allclose(back, p, atol=1e-12)


class TestGPrime:
    """The degenerate inverse metric on covectors p: apply_inverse of the
    spatial restriction p[1:]; the time component is discarded."""

    def test_kernel_contains_tau(self):
        g = SpatialMetric.identity()
        for p in (TAU, 3.5 * TAU):
            assert np.array_equal(g.apply_inverse(p[1:]), np.zeros(3))

    def test_identity_metric_example(self):
        g = SpatialMetric.identity()
        out = g.apply_inverse(np.array([7.0, 1.0, 2.0, 3.0])[1:])
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_scaled_metric_example(self):
        g = SpatialMetric.diagonal(2.0, 2.0, 2.0)
        out = g.apply_inverse(np.array([0.0, 2.0, 0.0, 0.0])[1:])
        assert out.tolist() == [1.0, 0.0, 0.0]

    def test_inverts_lowering_on_spatial_vectors(self, rng):
        for _ in range(50):
            g = random_metric(rng)
            s = rng.normal(size=3)
            assert np.allclose(g.apply_inverse(g.apply(s)), s, atol=1e-12)


class TestSigma:
    def test_vanishes_on_equal_frames(self, rng):
        g = SpatialMetric.identity()
        assert np.array_equal(sigma(g, E0, E0), np.zeros(4))
        for _ in range(10):
            u = random_frame(rng)
            gg = random_metric(rng)
            assert np.array_equal(sigma(gg, u, u), np.zeros(4))

    def test_worked_example_x_boost(self):
        g = SpatialMetric.identity()
        up = np.array([1.0, 0.0, 0.0])
        s = sigma(g, up, E0)
        assert s.tolist() == [-0.5, 1.0, 0.0, 0.0]

    def test_worked_example_y_boost(self):
        g = SpatialMetric.identity()
        upp = np.array([0.0, 1.0, 0.0])
        s = sigma(g, upp, E0)
        assert s.tolist() == [-0.5, 0.0, 1.0, 0.0]

    def test_pairing_formula(self, rng):
        # Oracle: evaluate <g(u'-u), v - <TAU,v>(u+u')/2> directly.
        for _ in range(200):
            g = random_metric(rng)
            u = random_frame(rng)
            up = random_frame(rng)
            v = rng.normal(size=4)
            lowered = g.apply(up - u)
            mid = (u + up) / 2.0
            expected = float(lowered @ (v[1:] - v[0] * mid))
            assert pair(sigma(g, up, u), v) == \
                pytest.approx(expected, abs=1e-13)

    def test_antisymmetry_exact(self, rng):
        for _ in range(200):
            g = random_metric(rng)
            u = random_frame(rng)
            up = random_frame(rng)
            a = sigma(g, up, u)
            b = sigma(g, u, up)
            assert np.array_equal(a, -b)

    def test_cocycle(self, rng):
        worst = 0.0
        for _ in range(200):
            g = random_metric(rng)
            u = random_frame(rng)
            up = random_frame(rng)
            upp = random_frame(rng)
            lhs = sigma(g, upp, up) + sigma(g, up, u)
            rhs = sigma(g, upp, u)
            scale = max(1.0, float(np.max(np.abs(rhs))))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
        assert worst <= 1e-12
