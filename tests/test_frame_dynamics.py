import io

import numpy as np
import pytest

from galimech.galilean_core import (
    TAU,
    Covector4,
    Event,
    Frame,
    SpatialMetric,
    Vector4,
    iota_u,
    sigma,
)
from galimech.frame_dynamics import (
    NonFiniteState,
    NotFutureDirected,
    PhasePoint,
    Potential,
    boost,
    free_potential,
    harmonic_potential,
    hamiltonian_inhom,
    homogeneous_dynamics_violation,
    in_homogeneous_dynamics,
    integrate,
    lagrangian_hom,
    lagrangian_inhom,
    legendre_hom,
    legendre_inhom,
    mass_shell_residual,
    uniform_potential,
    vector_field_inhom,
    write_trajectory_csv,
)
from galimech.harness.config import PotentialSpec

from conftest import random_frame, random_metric

E0 = Frame.from_spatial([0.0, 0.0, 0.0])
ORIGIN = Event(0.0, 0.0, 0.0, 0.0)
ID3 = SpatialMetric.identity()


def fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central differences with per-coordinate step 1e-6 * (1 + |coordinate|)."""
    out = np.empty_like(x)
    for i in range(len(x)):
        h = 1e-6 * (1.0 + abs(x[i]))
        plus, minus = x.copy(), x.copy()
        plus[i] += h
        minus[i] -= h
        out[i] = (f(plus) - f(minus)) / (2.0 * h)
    return out


class TestPotentials:
    def test_free_is_zero(self):
        phi = free_potential()
        assert phi.at(Event(1.0, 2.0, 3.0, 4.0)) == 0.0
        assert np.array_equal(phi.d_s(ORIGIN), np.zeros(3))
        assert np.array_equal(phi.d(ORIGIN).as_array(), np.zeros(4))

    def test_uniform_value_and_gradient(self):
        phi = uniform_potential([1.0, 0.0, -2.0])
        x = Event(0.0, 2.0, 5.0, 1.0)
        assert phi.at(x) == pytest.approx(-(2.0 - 2.0), abs=1e-15)
        assert np.array_equal(phi.d_s(x), [-1.0, 0.0, 2.0])

    def test_harmonic_value_and_gradient(self):
        phi = harmonic_potential(2.0, center=[1.0, 0.0, 0.0])
        x = Event(0.0, 3.0, 0.0, 0.0)
        assert phi.at(x) == pytest.approx(4.0)
        assert np.allclose(phi.d_s(x), [4.0, 0.0, 0.0])

    def test_analytic_gradients_match_differences(self, rng):
        pots = [uniform_potential([0.3, -1.2, 0.7]),
                harmonic_potential(1.7, center=[0.2, -0.4, 1.0])]
        for phi in pots:
            for _ in range(50):
                coords = rng.normal(size=4)
                x = Event.from_array(coords)
                numeric = fd_gradient(
                    lambda c: phi.at(Event.from_array(c)), coords)
                analytic = phi.d(x).as_array()
                assert np.allclose(analytic, numeric,
                                   atol=1e-6 * (1.0 + np.max(np.abs(numeric))))

    @pytest.mark.parametrize("expr", [
        "0.5*q1^2 + 0.25*q2^4 + 0.1*q1*q3",
        "q1*q2*sin(t) + exp(q3)/(1 + q1^2)",
        "0.5*1.3*((q1-0.2)^2 + (q2+0.4)^2 + (q3-0.7)^2) + 0.1*(q1-0.2)^4"
        " + 0.3*sin(q2)*cos(q3) + 0.4*exp(-0.5*(q1^2 + q3^2))",
    ])
    def test_array_gradient_matches_scalar_differences(self, rng, expr):
        phi = PotentialSpec("custom", expr=expr).build()
        t = 0.4
        q = rng.normal(scale=1.5, size=(8, 3))
        got = phi.grad_s(t, q)
        assert got.shape == (8, 3)
        for row, coords in zip(got, q):
            ref = fd_gradient(lambda c: phi.at(Event(t, *c)), coords)
            assert np.all(np.abs(row - ref) <= 1e-8 * (1.0 + np.abs(ref)))
        assert np.array_equal(phi.grad_s(t, q[3]), got[3])

    def test_fd_fallback_when_no_gradient(self):
        phi = Potential(value=lambda x: x.q1 ** 2 + 0.5 * x.t,
                        values=lambda t, q: q[..., 0] ** 2 + 0.5 * t)
        x = Event(1.0, 3.0, 0.0, 0.0)
        assert np.allclose(phi.d_s(x), [6.0, 0.0, 0.0], atol=1e-8)
        assert phi.d(x).a0 == pytest.approx(0.5, abs=1e-9)


class TestInhomogeneous:
    def test_lagrangian_rest_frame(self):
        w = Frame.from_spatial([1.0, 0.0, 0.0])
        val = lagrangian_inhom(E0, 1.0, ID3, free_potential(), ORIGIN, w)
        assert val == pytest.approx(0.5)

    def test_lagrangian_with_potential(self):
        w = Frame.from_spatial([3.0, 0.0, 0.0])
        phi = Potential(value=lambda x: 1.0)
        val = lagrangian_inhom(E0, 2.0, ID3, phi, ORIGIN, w)
        assert val == pytest.approx(8.0)

    def test_lagrangian_lower_bound(self, rng):
        phi = harmonic_potential(1.3)
        for _ in range(50):
            u = random_frame(rng)
            w = random_frame(rng, scale=2.0)
            g = random_metric(rng)
            x = Event.from_array(rng.normal(size=4))
            assert lagrangian_inhom(u, 1.5, g, phi, x, w) >= -phi.at(x)

    def test_legendre_rest_frame(self):
        w = Frame.from_spatial([3.0, 0.0, 0.0])
        assert np.array_equal(legendre_inhom(E0, 2.0, ID3, w), [6.0, 0.0, 0.0])

    def test_legendre_moving_frame(self):
        u = Frame.from_spatial([1.0, 0.0, 0.0])
        w = Frame.from_spatial([1.0, 2.0, 0.0])
        assert np.array_equal(legendre_inhom(u, 1.0, ID3, w), [0.0, 2.0, 0.0])

    def test_legendre_matches_velocity_derivative(self, rng):
        # Oracle: finite differences of the lagrangian in the velocity slot.
        phi = harmonic_potential(0.9)
        checked = 0
        for _ in range(50):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = Event.from_array(rng.normal(size=4))
            ws = rng.uniform(-2.0, 2.0, size=3)
            numeric = fd_gradient(
                lambda s: lagrangian_inhom(u, m, g, phi, x, Frame.from_spatial(s)),
                ws)
            analytic = legendre_inhom(u, m, g, Frame.from_spatial(ws))
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) / scale <= 1e-6
            checked += 1
        assert checked == 50

    def test_hamiltonian_example(self):
        g = SpatialMetric.diagonal(2.0, 2.0, 2.0)
        val = hamiltonian_inhom(E0, 2.0, g, free_potential(), ORIGIN, [2.0, 0.0, 0.0])
        assert val == pytest.approx(0.5)

    def test_hamiltonian_legendre_inversion(self, rng):
        # h(x, legendre(w)) + l(x, w) should equal <p, w - u> (Legendre duality).
        phi = harmonic_potential(1.1)
        for _ in range(30):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = Event.from_array(rng.normal(size=4))
            w = random_frame(rng, scale=2.0)
            p = legendre_inhom(u, m, g, w)
            lhs = hamiltonian_inhom(u, m, g, phi, x, p) + \
                lagrangian_inhom(u, m, g, phi, x, w)
            rhs = float(p @ (w.spatial - u.spatial))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_vector_field_example(self):
        phi = harmonic_potential(1.0)
        state = PhasePoint.spatial(Event(0.0, 1.0, 0.0, 0.0), [0.0, 0.0, 0.0])
        xdot, pdot = vector_field_inhom(E0, 1.0, ID3, phi, state)
        assert xdot.as_array().tolist() == [1.0, 0.0, 0.0, 0.0]
        assert np.array_equal(pdot, [-1.0, 0.0, 0.0])

    def test_vector_field_moving_frame(self):
        u = Frame.from_spatial([0.0, 1.0, 0.0])
        state = PhasePoint.spatial(ORIGIN, [2.0, 0.0, 0.0])
        xdot, _ = vector_field_inhom(u, 2.0, ID3, free_potential(), state)
        assert xdot.as_array().tolist() == [1.0, 1.0, 1.0, 0.0]


class TestHomogeneous:
    def test_restriction_to_unit_slice(self, rng):
        phi = harmonic_potential(0.7)
        for _ in range(30):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = Event.from_array(rng.normal(size=4))
            w = random_frame(rng, scale=2.0)
            hom = lagrangian_hom(u, m, g, phi, x, w.velocity)
            inhom = lagrangian_inhom(u, m, g, phi, x, w)
            assert hom == pytest.approx(inhom, abs=1e-12)

    def test_worked_example(self):
        v = Vector4(2.0, 2.0, 0.0, 0.0)
        val = lagrangian_hom(E0, 1.0, ID3, free_potential(), ORIGIN, v)
        assert val == pytest.approx(1.0)

    def test_degree_one_homogeneity(self, rng):
        phi = harmonic_potential(1.2)
        for _ in range(50):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = Event.from_array(rng.normal(size=4))
            v = Vector4(float(rng.uniform(0.4, 2.0)), *rng.normal(size=3))
            c = float(rng.uniform(0.1, 5.0))
            assert lagrangian_hom(u, m, g, phi, x, c * v) == pytest.approx(
                c * lagrangian_hom(u, m, g, phi, x, v), rel=1e-12)

    def test_rejects_past_directed(self):
        with pytest.raises(NotFutureDirected):
            lagrangian_hom(E0, 1.0, ID3, free_potential(), ORIGIN,
                           Vector4(0.0, 1.0, 0.0, 0.0))
        with pytest.raises(NotFutureDirected):
            legendre_hom(E0, 1.0, ID3, free_potential(), ORIGIN,
                         Vector4(-1.0, 1.0, 0.0, 0.0))

    def test_legendre_hom_worked_example(self):
        p = legendre_hom(E0, 1.0, ID3, free_potential(), ORIGIN,
                         Vector4(1.0, 1.0, 0.0, 0.0))
        assert p.as_array().tolist() == [-0.5, 1.0, 0.0, 0.0]

    def test_legendre_hom_scale_invariance(self, rng):
        phi = harmonic_potential(0.8)
        for _ in range(50):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = Event.from_array(rng.normal(size=4))
            v = Vector4(float(rng.uniform(0.4, 2.0)), *rng.normal(size=3))
            c = float(rng.uniform(0.2, 4.0))
            a = legendre_hom(u, m, g, phi, x, v).as_array()
            b = legendre_hom(u, m, g, phi, x, c * v).as_array()
            assert np.allclose(a, b, atol=1e-10 * (1.0 + np.max(np.abs(a))))

    def test_legendre_hom_matches_velocity_derivative(self, rng):
        # Oracle: finite differences of the homogeneous lagrangian in all
        # four velocity components.
        phi = uniform_potential([0.4, -0.2, 0.9])
        for _ in range(50):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = Event.from_array(rng.normal(size=4))
            v = np.concatenate([[rng.uniform(0.5, 2.0)], rng.normal(size=3)])
            numeric = fd_gradient(
                lambda c: lagrangian_hom(u, m, g, phi, x, Vector4.from_array(c)),
                v)
            analytic = legendre_hom(u, m, g, phi, x, Vector4.from_array(v)).as_array()
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) / scale <= 1e-6

    def test_mass_shell_residual_example(self):
        p = Covector4(-0.5, 1.0, 0.0, 0.0)
        assert mass_shell_residual(E0, 1.0, ID3, free_potential(), ORIGIN, p) == 0.0

    def test_legendre_output_is_on_shell(self, rng):
        pots = [free_potential(), uniform_potential([1.0, 0.0, 0.0]),
                harmonic_potential(2.0)]
        for phi in pots:
            for _ in range(50):
                u = random_frame(rng)
                g = random_metric(rng)
                m = float(rng.uniform(0.5, 3.0))
                x = Event.from_array(rng.normal(size=4))
                v = Vector4(float(rng.uniform(0.3, 2.5)), *rng.normal(size=3))
                p = legendre_hom(u, m, g, phi, x, v)
                assert abs(mass_shell_residual(u, m, g, phi, x, p)) <= 1e-12

    def test_lagrangian_difference_is_sigma_pairing(self, rng):
        # l_{h,u} - l_{h,u'} evaluated on the same (x, v) must equal
        # m <sigma(u', u), v>; the potential terms cancel.
        phi = harmonic_potential(1.4, center=[0.3, 0.0, -0.2])
        worst = 0.0
        for _ in range(200):
            u = random_frame(rng)
            up = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = Event.from_array(rng.normal(size=4))
            v = Vector4(float(rng.uniform(0.3, 2.0)), *rng.normal(size=3))
            lhs = lagrangian_hom(u, m, g, phi, x, v) - \
                lagrangian_hom(up, m, g, phi, x, v)
            rhs = m * sigma(g, up, u).pair(v)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        assert worst <= 1e-10


class TestMembershipAndBoost:
    def test_free_particle_state_is_member(self):
        v = Vector4(1.0, 1.0, 0.0, 0.0)
        p = Covector4(-0.5, 1.0, 0.0, 0.0)
        zero = Covector4(0.0, 0.0, 0.0, 0.0)
        assert in_homogeneous_dynamics(E0, 1.0, ID3, free_potential(),
                                       (ORIGIN, p, v, zero), 1e-12)

    def test_time_reversed_state_is_rejected(self):
        v = Vector4(-1.0, -1.0, 0.0, 0.0)
        p = Covector4(-0.5, 1.0, 0.0, 0.0)
        zero = Covector4(0.0, 0.0, 0.0, 0.0)
        assert not in_homogeneous_dynamics(E0, 1.0, ID3, free_potential(),
                                           (ORIGIN, p, v, zero), 1e-12)

    def test_wrong_momentum_is_rejected(self):
        v = Vector4(1.0, 1.0, 0.0, 0.0)
        p = Covector4(-0.5, 2.0, 0.0, 0.0)
        zero = Covector4(0.0, 0.0, 0.0, 0.0)
        assert not in_homogeneous_dynamics(E0, 1.0, ID3, free_potential(),
                                           (ORIGIN, p, v, zero), 1e-6)

    def test_violation_scales_with_perturbation(self):
        v = Vector4(1.0, 1.0, 0.0, 0.0)
        p = Covector4(-0.5, 1.0 + 1e-4, 0.0, 0.0)
        zero = Covector4(0.0, 0.0, 0.0, 0.0)
        viol = homogeneous_dynamics_violation(E0, 1.0, ID3, free_potential(),
                                              ORIGIN, p, v, zero)
        assert viol == pytest.approx(1e-4, rel=1e-6)

    def test_boost_worked_example(self):
        up = Frame.from_spatial([1.0, 0.0, 0.0])
        x, p = boost(up, E0, 1.0, ID3, (ORIGIN, Covector4(0.0, 0.0, 0.0, 0.0)))
        assert x == ORIGIN
        assert p.as_array().tolist() == [-0.5, 1.0, 0.0, 0.0]

    def test_boost_preserves_shell_residual(self, rng):
        phi = harmonic_potential(1.6)
        for _ in range(100):
            u = random_frame(rng)
            up = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = Event.from_array(rng.normal(size=4))
            p = Covector4.from_array(rng.normal(size=4))
            _, q = boost(up, u, m, g, (x, p))
            before = mass_shell_residual(up, m, g, phi, x, p)
            after = mass_shell_residual(u, m, g, phi, x, q)
            assert after == pytest.approx(before, abs=1e-12 * (1.0 + abs(before)))

    def test_boost_maps_legendre_images_between_frames(self, rng):
        # The fiber derivative in frame u' plus the shift covector must be
        # the fiber derivative in frame u, applied to the same velocity.
        phi = uniform_potential([0.5, 0.0, -0.3])
        for _ in range(100):
            u = random_frame(rng)
            up = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = Event.from_array(rng.normal(size=4))
            v = Vector4(float(rng.uniform(0.3, 2.0)), *rng.normal(size=3))
            p_up = legendre_hom(up, m, g, phi, x, v)
            _, boosted = boost(up, u, m, g, (x, p_up))
            p_u = legendre_hom(u, m, g, phi, x, v)
            assert np.allclose(boosted.as_array(), p_u.as_array(), atol=1e-12)

    def test_boosted_member_stays_member(self, rng):
        phi = harmonic_potential(0.9)
        for _ in range(50):
            u = random_frame(rng)
            up = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = Event.from_array(rng.normal(size=4))
            v = Vector4(float(rng.uniform(0.4, 2.0)), *rng.normal(size=3))
            p = legendre_hom(up, m, g, phi, x, v)
            pdot = -TAU.pair(v) * phi.d(x)
            assert in_homogeneous_dynamics(up, m, g, phi, (x, p, v, pdot), 1e-10)
            _, q = boost(up, u, m, g, (x, p))
            assert in_homogeneous_dynamics(u, m, g, phi, (x, q, v, pdot), 1e-10)


class TestIntegrate:
    def test_rejects_bad_arguments(self):
        init = PhasePoint.spatial(ORIGIN, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            integrate(E0, 1.0, ID3, free_potential(), init, 0.1, 0)
        with pytest.raises(ValueError):
            integrate(E0, 1.0, ID3, free_potential(), init, -0.1, 10)
        with pytest.raises(ValueError):
            integrate(E0, 0.0, ID3, free_potential(), init, 0.1, 10)
        with pytest.raises(ValueError):
            integrate([E0, E0], 1.0, ID3, free_potential(), [init], 0.1, 10)

    def test_free_particle_linear_motion(self):
        init = PhasePoint.spatial(ORIGIN, [1.0, 0.0, 0.0])
        traj = integrate(E0, 1.0, ID3, free_potential(), init, 0.1, 10)
        assert len(traj) == 11
        # identical accumulation, bit for bit
        assert np.array_equal(traj.q[:, 0, 0], traj.t)
        assert np.all(traj.p[:, 0] == [1.0, 0.0, 0.0])

    def test_time_advances_by_h(self):
        phi = harmonic_potential(1.0)
        init = PhasePoint.spatial(Event(0.3, 1.0, 0.0, 0.0), [0.0, 0.2, 0.0])
        h = 0.001
        traj = integrate(E0, 1.0, ID3, phi, init, h, 500)
        ts = traj.t
        dt = np.diff(ts)
        assert np.max(np.abs(dt - h)) <= 4e-16 * (1.0 + np.max(np.abs(ts)))

    def test_harmonic_oscillator_quarter_period(self):
        # Closed form: q1(t) = cos t, p1(t) = -sin t.
        phi = harmonic_potential(1.0)
        init = PhasePoint.spatial(Event(0.0, 1.0, 0.0, 0.0), [0.0, 0.0, 0.0])
        n = 500
        h = (np.pi / 2.0) / n
        traj = integrate(E0, 1.0, ID3, phi, init, h, n)
        assert abs(traj.q[-1, 0, 0] - 0.0) <= 1e-9
        assert abs(traj.p[-1, 0, 0] - (-1.0)) <= 1e-9

    def test_harmonic_oscillator_energy_drift(self):
        phi = harmonic_potential(1.0)
        init = PhasePoint.spatial(Event(0.0, 1.0, 0.0, 0.0), [0.0, 0.3, 0.0])
        traj = integrate(E0, 1.0, ID3, phi, init, 1e-3, 2000)
        energies = [hamiltonian_inhom(E0, 1.0, ID3, phi, Event(t, *q), p)
                    for t, q, p in zip(traj.t.tolist(), traj.q[:, 0].tolist(),
                                       traj.p[:, 0])]
        assert np.max(np.abs(np.array(energies) - energies[0])) <= 1e-10

    def test_blowup_raises_non_finite(self):
        # Inverted quadratic potential: exponential runaway then overflow.
        phi = harmonic_potential(-1e6)
        init = PhasePoint.spatial(Event(0.0, 1.0, 0.0, 0.0), [0.0, 0.0, 0.0])
        with pytest.raises(NonFiniteState):
            integrate(E0, 1.0, ID3, phi, init, 0.01, 500)

    @pytest.mark.parametrize("metric", ["identity", "random"])
    @pytest.mark.parametrize("kind", ["harmonic", "custom"])
    def test_batched_equals_single_frame_calls(self, rng, metric, kind):
        g = ID3 if metric == "identity" else random_metric(rng)
        if kind == "harmonic":
            phi = harmonic_potential(1.3, (0.1, -0.2, 0.0))
        else:  # the array evaluator's finite-difference gradient
            phi = PotentialSpec(
                "custom", expr="0.5*q1^2 + 0.25*q2^4 + 0.1*q1*q3").build()
        frames = [random_frame(rng, scale=1.5) for _ in range(4)]
        x0 = Event(0.3, 0.8, -0.4, 0.2)
        inits = [PhasePoint.spatial(x0, rng.normal(size=3)) for _ in frames]
        batched = integrate(frames, 1.2, g, phi, inits, 0.01, 50)
        assert batched.q.shape == batched.p.shape == (51, 4, 3)
        for f, (u, init) in enumerate(zip(frames, inits)):
            single = integrate(u, 1.2, g, phi, init, 0.01, 50)
            assert np.array_equal(batched.t, single.t)
            assert np.array_equal(batched.q[:, f], single.q[:, 0])
            assert np.array_equal(batched.p[:, f], single.p[:, 0])

    def test_batched_start_times_must_match(self):
        inits = [PhasePoint.spatial(ORIGIN, [1.0, 0.0, 0.0]),
                 PhasePoint.spatial(Event(0.1, 0.0, 0.0, 0.0), [1.0, 0.0, 0.0])]
        with pytest.raises(ValueError, match="start time"):
            integrate([E0, E0], 1.0, ID3, free_potential(), inits, 0.1, 10)

    def test_csv_export_shape_and_precision(self):
        init = PhasePoint.spatial(ORIGIN, [1.0, 0.0, 0.0])
        traj = integrate(E0, 1.0, ID3, free_potential(), init, 0.1, 3)
        buf = io.StringIO()
        write_trajectory_csv(traj, ID3, free_potential(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "step,t,q1,q2,q3,p1,p2,p3,H"
        assert len(lines) == 5
        row = lines[2].split(",")
        assert row[0] == "1"
        assert float(row[1]) == pytest.approx(0.1)
        assert float(row[8]) == pytest.approx(0.5)
        # 17 significant digits round-trip exactly.
        assert float(row[1]) == 0.1
