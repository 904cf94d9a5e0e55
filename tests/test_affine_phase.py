import numpy as np
import pytest

from galimech.galilean_core import (
    SpatialMetric,
    pair,
    pair_frame,
    sigma,
)
from galimech.frame_dynamics import (
    Potential,
    homogeneous_dynamics_violation_array,
    integrate,
    lagrangian_hom,
    lagrangian_inhom,
    legendre_hom,
    mass_shell_residual,
)
from galimech.affine_phase import (
    AffineMetric,
    PElement,
    REFERENCE_FRAME,
    WElement,
    W_UNIT,
    affine_lagrangian_array,
    affine_metric_apply,
    alpha,
    beta,
    beta_inv,
    dynamics_membership_universal_array,
    eval_affine_array,
    family_fam3,
    family_fam4,
    gamma,
    hamiltonian_fun_array,
    p_change_chart,
    pairing_array,
    psi_m_array,
    section_from_affine_metric,
    w_add_array,
    w_change_chart,
    w_pack,
    w_scale_array,
)
from galimech.generating_objects import (
    family_fam1,
    family_fam2,
    solve_critical,
    vector_to_fiber,
)

from conftest import (
    at,
    free_potential,
    harmonic_potential,
    random_frame,
    random_metric,
)

X0 = np.array([0.0, 0.0, 0.0, 0.0])
REST_VELOCITY = np.array([1.0, 0.0, 0.0, 0.0])  # of REFERENCE_FRAME
U1 = np.array([1.0, 0.0, 0.0])


ID3 = SpatialMetric.identity()


def universal_residual(m: float, g: SpatialMetric, potential: Potential,
                       x: np.ndarray, pp: PElement) -> float:
    """The mass-shell residual on the quotient: the frame residual of the
    canonical representative, taken at the reference frame."""
    return float(mass_shell_residual(REFERENCE_FRAME, m, g, at(potential, x),
                                     pp.p))


def constant_potential(c: float) -> Potential:
    return Potential(values=lambda t, q: np.full(np.shape(q)[:-1], c),
                     force=free_potential().force)


class TestChartChange:
    def test_same_frame_is_identity(self):
        m, g = 1.0, ID3
        w = np.array([1.0, 0.3, -0.2, 0.5, 0.7])
        assert w_change_chart(m, g, w, U1, U1).tolist() == \
            w.tolist()
        p = np.array([0.1, 0.2, 0.3, 0.4])
        assert p_change_chart(m, g, p, U1, U1).tolist() == \
            p.tolist()

    def test_worked_example(self):
        m, g = 1.0, ID3
        w = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        rr = w_change_chart(m, g, w, REFERENCE_FRAME, U1)[4]
        assert rr == pytest.approx(-0.5, abs=1e-15)

    def test_chain_equals_direct(self, rng):
        for _ in range(50):
            m, g = rng.uniform(0.5, 2.0), random_metric(rng)
            u1, u2, u3 = (random_frame(rng) for _ in range(3))
            w = w_pack(rng.normal(size=4), rng.normal())
            step = w_change_chart(m, g, w_change_chart(m, g, w, u1, u2),
                                  u2, u3)[4]
            direct = w_change_chart(m, g, w, u1, u3)[4]
            assert step == pytest.approx(direct, abs=1e-12 * (1 + abs(direct)))
            p = rng.normal(size=4)
            two = p_change_chart(m, g, p_change_chart(m, g, p, u1, u2), u2, u3)
            one = p_change_chart(m, g, p, u1, u3)
            assert np.allclose(two, one, atol=1e-12)

    def test_round_trip(self, rng):
        m, g = 1.7, SpatialMetric.diagonal(2.0, 1.0, 0.5)
        w = WElement(np.array([1.0, 0.4, -0.1, 0.2, 0.9]))
        for _ in range(20):
            u = random_frame(rng)
            back = w_change_chart(m, g, w.in_chart(m, g, u),
                                  u, REFERENCE_FRAME)
            assert back[:4].tolist() == w.w[:4].tolist()
            assert back[4] == pytest.approx(w.w[4], abs=1e-13)

    def test_elements_built_from_a_chart_are_read_only(self):
        m, g = 1.7, SpatialMetric.diagonal(2.0, 1.0, 0.5)
        w = WElement.from_chart(m, g, [1.0, 0.4, -0.1, 0.2], 0.9, U1)
        pp = PElement.from_chart(m, g, [0.3, 1.0, -2.0, 0.5], U1)
        assert REFERENCE_FRAME.tolist() == [0.0, 0.0, 0.0]
        for a in (w.w, pp.p, W_UNIT.w, REFERENCE_FRAME):
            with pytest.raises(ValueError):
                a[0] = 1.0
        with pytest.raises(AttributeError):
            pp.p = np.zeros(4)


class TestWSpace:
    def test_zero_and_unit(self):
        m, g = 1.0, ID3
        w = np.array([1.0, 2.0, 3.0, 4.0, -0.5])
        assert np.array_equal(w_add_array(w, np.zeros(5)), w)
        # The unit element is literally the same pair in every chart.
        for spatial in ([0.4, 0.0, 0.0], [-1.0, 2.0, 0.3]):
            assert W_UNIT.in_chart(m, g, np.array(spatial)).tolist() == \
                [0.0, 0.0, 0.0, 0.0, -1.0]

    def test_vector_space_axioms(self, rng):
        add, scale = w_add_array, w_scale_array
        for _ in range(50):
            a, b, c = rng.normal(size=(3, 5))
            s, t = float(rng.normal()), float(rng.normal())
            assert np.array_equal(add(a, b), add(b, a))
            assoc1 = add(add(a, b), c)
            assoc2 = add(a, add(b, c))
            assert np.allclose(assoc1[:4], assoc2[:4])
            assert assoc1[4] == pytest.approx(assoc2[4], rel=1e-12, abs=1e-12)
            dist = scale(s, add(a, b))
            dist2 = add(scale(s, a), scale(s, b))
            assert np.allclose(dist[:4], dist2[:4], atol=1e-12)
            assert dist[4] == pytest.approx(dist2[4], rel=1e-12, abs=1e-12)
            again = scale(s, scale(t, a))
            once = scale(s * t, a)
            assert np.allclose(again[:4], once[:4], atol=1e-12)

    def test_addition_commutes_with_chart_change(self, rng):
        # Adding representatives in a random chart, then canonicalizing,
        # equals adding the canonical representatives.
        m, g = 0.8, SpatialMetric.diagonal(1.0, 3.0, 0.7)
        for _ in range(20):
            u = random_frame(rng)
            a, b = WElement(rng.normal(size=5)), WElement(rng.normal(size=5))
            both = a.in_chart(m, g, u) + b.in_chart(m, g, u)
            mixed = WElement.from_chart(m, g, both[:4], both[4], u)
            direct = w_add_array(a.w, b.w)
            assert np.allclose(mixed.w[:4], direct[:4])
            assert mixed.w[4] == pytest.approx(direct[4], abs=1e-12)


class TestEvalAndPairing:
    def test_unit_evaluates_to_one(self, rng):
        for _ in range(10):
            p = rng.normal(size=4)
            assert eval_affine_array(W_UNIT.w, p) == 1.0

    def test_worked_example(self):
        w = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        p = np.array([0.0, 1.0, 0.0, 0.0])
        assert eval_affine_array(w, p) == pytest.approx(1.0)

    def test_chart_independence(self, rng):
        m, g = 1.4, SpatialMetric.diagonal(0.5, 1.0, 2.0)
        w = WElement(np.array([1.0, 0.5, -0.3, 0.2, 0.4]))
        pp = PElement(np.array([-0.2, 0.7, 0.1, -0.5]))
        ref = eval_affine_array(w.w, pp.p)
        for _ in range(100):
            u = random_frame(rng)
            w_u = w.in_chart(m, g, u)
            p_u = pp.in_chart(m, g, u)
            again = eval_affine_array(
                WElement.from_chart(m, g, w_u[:4], w_u[4], u).w,
                PElement.from_chart(m, g, p_u, u).p)
            assert again == pytest.approx(ref, abs=1e-12 * (1 + abs(ref)))

    def test_pairing_zero_velocity(self):
        p = np.array([3.0, -1.0, 2.0, 0.5])
        assert np.array_equal(pairing_array(p, np.zeros(4)), np.zeros(5))

    def test_pairing_worked_example(self):
        p = np.array([0.0, 1.0, 0.0, 0.0])
        v = np.array([1.0, 1.0, 0.0, 0.0])
        w = pairing_array(p, v)
        assert np.array_equal(w[:4], v) and w[4] == pytest.approx(1.0)

    def test_pairing_chart_independent(self, rng):
        m, g = 2.0, SpatialMetric.diagonal(1.0, 0.5, 3.0)
        pp = PElement(np.array([0.3, -0.4, 0.8, 0.1]))
        v = np.array([1.0, 0.2, -0.6, 0.9])
        direct = pairing_array(pp.p, v)
        for _ in range(50):
            u = random_frame(rng)
            p_u = pp.in_chart(m, g, u)
            rebuilt = WElement.from_chart(m, g, v, pair(p_u, v), u)
            assert np.array_equal(rebuilt.w[:4], direct[:4])
            assert rebuilt.w[4] == pytest.approx(direct[4], abs=1e-12)

    def test_pairing_difference_identity(self, rng):
        # f_{pairing(p, v)}(q) = <q - p, v> whenever q and p are read in
        # one shared chart.
        for _ in range(20):
            p, q, v = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
            val = eval_affine_array(pairing_array(p, v), q)
            assert val == pytest.approx(pair(q - p, v), abs=1e-12)

    def test_duality_rank(self):
        # Five independent W elements evaluated at five generic momenta:
        # the evaluation matrix must have full rank, so w -> f_w is
        # injective on a spanning set.
        ws = np.concatenate([np.eye(4, 5), W_UNIT.w[None]])
        ps = np.random.default_rng(7).normal(size=(5, 4))
        mat = eval_affine_array(ws[:, None], ps)
        assert np.linalg.matrix_rank(mat, tol=1e-10) == 5

    def test_linearity_of_evaluation(self, rng):
        for _ in range(20):
            a, b = rng.normal(size=(2, 5))
            p = rng.normal(size=4)
            s = float(rng.normal())
            lhs = eval_affine_array(w_add_array(a, b), p)
            rhs = eval_affine_array(a, p) + eval_affine_array(b, p)
            assert lhs == pytest.approx(rhs, abs=1e-12)
            lhs = eval_affine_array(w_scale_array(s, a), p)
            # Scaling rescales the whole affine function, unit part included.
            rhs = s * eval_affine_array(a, p)
            assert lhs == pytest.approx(rhs, abs=1e-11)


class TestMassShellFunctions:
    def test_psi_zero_momentum(self):
        m, g = 1.0, ID3
        assert psi_m_array(m, g, np.zeros(4)) == 0.0

    def test_psi_worked_example(self):
        m, g = 1.0, ID3
        p = np.array([0.0, 1.0, 0.0, 0.0])
        assert psi_m_array(m, g, p) == pytest.approx(0.5)

    def test_psi_hand_computed_other_chart(self):
        # Same class carried to the chart of u' = (1,1,0,0) has the
        # representative (0.5, 0, 0, 0); the defining formula evaluated
        # there gives 0.5 * 0 + <p', u'> = 0.5 again.
        m, g = 1.0, ID3
        pp = PElement(np.array([0.0, 1.0, 0.0, 0.0]))
        p_u = pp.in_chart(m, g, U1)
        assert np.allclose(p_u, [0.5, 0.0, 0.0, 0.0])
        ps = p_u[1:]
        by_hand = 0.5 * float(ps @ ps) + pair_frame(p_u, U1)
        assert by_hand == pytest.approx(psi_m_array(m, g, pp.p))

    def test_psi_chart_battery(self, rng):
        m, g = 1.2, SpatialMetric.diagonal(2.0, 1.0, 0.5)
        pp = PElement(np.array([0.4, -0.3, 0.8, 0.2]))
        ref = psi_m_array(m, g, pp.p)
        for _ in range(100):
            u = random_frame(rng)
            rebuilt = PElement.from_chart(m, g, pp.in_chart(m, g, u), u)
            assert psi_m_array(m, g, rebuilt.p) == pytest.approx(
                ref, abs=1e-12 * (1 + abs(ref)))

    def test_universal_residual_worked_example(self):
        m, g, potential = 1.0, ID3, constant_potential(1.0)
        pp = PElement(np.array([0.0, 1.0, 0.0, 0.0]))
        assert universal_residual(m, g, potential, X0, pp) == \
            pytest.approx(1.5)

    def test_residual_vanishes_on_fiber_derivative_classes(self, rng):
        m, g = 1.6, SpatialMetric.diagonal(1.0, 2.0, 0.5)
        potential = harmonic_potential(0.7)
        x = np.array([0.3, 0.1, -0.4, 0.2])
        for _ in range(20):
            u = random_frame(rng)
            v = np.array([rng.uniform(0.2, 2.0), *rng.normal(size=3)])
            p_u = legendre_hom(u, m, g, at(potential, x), v)
            pp = PElement.from_chart(m, g, p_u, u)
            res = universal_residual(m, g, potential, x, pp)
            assert abs(res) <= 1e-12

    def test_matches_frame_residual_in_every_chart(self, rng):
        m, g = 0.9, SpatialMetric.diagonal(2.0, 0.5, 1.0)
        potential = harmonic_potential(1.1)
        x = np.array([0.0, 0.4, -0.2, 0.6])
        pp = PElement(np.array([0.2, 0.5, -0.7, 0.3]))
        universal = universal_residual(m, g, potential, x, pp)
        for _ in range(50):
            u = random_frame(rng)
            per_frame = mass_shell_residual(u, m, g, at(potential, x),
                                            pp.in_chart(m, g, u))
            assert per_frame == pytest.approx(universal,
                                              abs=1e-11 * (1 + abs(universal)))


class TestAffineLagrangian:
    def test_reference_chart_value(self):
        m, g = 1.0, ID3
        v = np.array([1.0, 1.0, 0.0, 0.0])
        w = affine_lagrangian_array(m, g, 0.0, v)
        assert np.array_equal(w[:4], v)
        assert w[4] == pytest.approx(0.5)

    def test_other_chart_construction_agrees(self):
        # In the comoving chart the lagrangian value is zero; re-charting
        # that zero must recover the canonical 0.5.
        m, g = 1.0, ID3
        v = np.array([1.0, 1.0, 0.0, 0.0])
        l_u1 = float(lagrangian_hom(U1, 1.0, g, at(free_potential(), X0), v))
        assert l_u1 == pytest.approx(0.0, abs=1e-15)
        rebuilt = WElement.from_chart(m, g, v, l_u1, U1)
        direct = affine_lagrangian_array(m, g, 0.0, v)
        assert np.array_equal(rebuilt.w[:4], direct[:4])
        assert rebuilt.w[4] == pytest.approx(direct[4], abs=1e-13)

    def test_chart_battery(self, rng):
        m, g = 1.5, SpatialMetric.diagonal(1.0, 0.5, 2.0)
        potential = harmonic_potential(0.9)
        x = np.array([0.2, -0.3, 0.5, 0.1])
        v = np.array([0.8, 0.4, -0.2, 0.6])
        direct = affine_lagrangian_array(m, g, at(potential, x), v)
        for _ in range(100):
            u = random_frame(rng)
            l_u = lagrangian_hom(u, m, g, at(potential, x), v)
            rebuilt = WElement.from_chart(m, g, v, l_u, u)
            assert rebuilt.w[4] == pytest.approx(direct[4],
                                              abs=1e-11 * (1 + abs(direct[4])))

    def test_rejects_past_directed(self):
        # The class is built from the reference-chart lagrangian value,
        # which exists only for future-directed velocities: the quotient
        # dynamics rejects a past-directed velocity whose momentum and rate
        # are the reference-chart formulas there, and accepts the same
        # construction at the reversed, future-directed velocity.
        m, g = 1.3, SpatialMetric.diagonal(1.0, 2.0, 0.5)
        potential = harmonic_potential(0.7)
        x = np.array([0.1, -0.2, 0.3, 0.4])
        phi, dphi = at(potential, x), potential.d(x)
        for sign, member in ((-1.0, False), (1.0, True)):
            v = sign * np.array([1.0, 0.4, -0.3, 0.2])
            p = legendre_hom(REFERENCE_FRAME, m, g, phi, v)
            assert bool(dynamics_membership_universal_array(
                m, g, phi, dphi, p, v, -v[0] * dphi, 1e-9)) is member

    def test_positive_homogeneity(self, rng):
        m, g = 1.1, SpatialMetric.diagonal(1.0, 2.0, 3.0)
        v = np.array([1.0, 0.3, -0.5, 0.2])
        for lam in (0.5, 2.0, 7.3):
            scaled = affine_lagrangian_array(m, g, 0.0, lam * v)
            via_w = w_scale_array(
                lam, affine_lagrangian_array(m, g, 0.0, v))
            assert np.allclose(scaled[:4], via_w[:4])
            assert scaled[4] == pytest.approx(via_w[4], rel=1e-12)


class TestHamiltonianFun:
    def test_worked_example(self):
        m, g = 1.0, ID3
        v = np.array([1.0, 1.0, 0.0, 0.0])
        assert hamiltonian_fun_array(m, g, 0.0, v, np.zeros(4)) == \
            pytest.approx(-0.5)

    def test_single_chart_formula(self, rng):
        m, g = 1.3, SpatialMetric.diagonal(0.5, 1.0, 2.0)
        potential = harmonic_potential(0.6)
        x = np.array([0.1, 0.2, -0.1, 0.4])
        for _ in range(30):
            u = random_frame(rng)
            v = np.array([rng.uniform(0.3, 1.8), *rng.normal(size=3)])
            p_u = rng.normal(size=4)
            pp = PElement.from_chart(m, g, p_u, u)
            in_chart = pair(p_u, v) - lagrangian_hom(
                u, m, g, at(potential, x), v)
            h = hamiltonian_fun_array(m, g, at(potential, x), v, pp.p)
            assert h == pytest.approx(in_chart, abs=1e-11 * (1 + abs(in_chart)))


class TestTripleMaps:
    """The tuple maps on (event, momentum, velocity, rate) components."""

    def rand_tuple(self, rng):
        return tuple(rng.normal(size=4) for _ in range(4))

    @staticmethod
    def same(s, t):
        return len(s) == len(t) and all(np.array_equal(a, b)
                                        for a, b in zip(s, t))

    def test_alpha_shape(self, rng):
        x, p, v, a = self.rand_tuple(rng)
        assert self.same(alpha((x, p, v, a)), (x, v, a, p))

    def test_beta_round_trip(self, rng):
        for _ in range(20):
            t = self.rand_tuple(rng)
            assert self.same(beta_inv(beta(t)), t)

    def test_beta_squared_flips_fiber(self, rng):
        x, p, v, a = self.rand_tuple(rng)
        assert self.same(beta(beta((x, p, v, a))), (x, p, -v, -a))

    def test_gamma_is_alpha_after_beta_inv(self, rng):
        for _ in range(100):
            t = self.rand_tuple(rng)
            assert self.same(gamma(t), alpha(beta_inv(t)))


class TestUniversalMembership:
    def test_boosted_on_shell_state(self, rng):
        m, g = 1.2, SpatialMetric.diagonal(1.0, 2.0, 0.5)
        potential = harmonic_potential(0.8)
        x = np.array([0.0, 0.3, -0.2, 0.1])
        for _ in range(10):
            u = random_frame(rng)
            v = np.array([1.0, *rng.normal(size=3)])
            p_u = legendre_hom(u, m, g, at(potential, x), v)
            pp = PElement.from_chart(m, g, p_u, u)
            dphi = potential.d(x)
            pdot = -v[0] * dphi
            assert dynamics_membership_universal_array(
                m, g, at(potential, x), dphi, pp.p, v, pdot,
                1e-9)

    def test_past_directed_is_rejected(self):
        m, g = 1.0, ID3
        bad = np.array([-1.0, 0.0, 0.0, 0.0])
        assert not dynamics_membership_universal_array(
            m, g, 0.0, np.zeros(4), np.zeros(4), bad, np.zeros(4), 1e-9)

    def test_off_shell_momentum_is_rejected(self):
        m, g = 1.0, ID3
        v = np.array([1.0, 1.0, 0.0, 0.0])
        p = np.array([7.0, 1.0, 0.0, 0.0])  # wrong time component
        assert not dynamics_membership_universal_array(
            m, g, 0.0, np.zeros(4), p, v, np.zeros(4), 1e-9)


class TestP0:
    """The spatial momentum of a class: the spatial components of its
    reference-chart covector, modulo multiples of the time covector
    (1, 0, 0, 0)."""

    def test_projection_worked_example(self):
        pp = PElement(np.array([-0.5, 1.0, 2.0, 3.0]))
        assert np.array_equal(pp.p[1:], [1.0, 2.0, 3.0])

    def test_time_translates_project_equally(self):
        p = np.array([0.3, 1.0, -2.0, 0.5])
        shifted = p + 7.0 * np.array([1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(p[1:], shifted[1:])

    def test_project_after_lift(self, rng):
        for _ in range(10):
            p0 = rng.normal(size=3)
            pp = PElement(np.array([float(rng.normal()), *p0]))
            assert np.array_equal(pp.p[1:], p0)

    def test_chart_covariance_of_projection(self, rng):
        m, g = 1.4, SpatialMetric.diagonal(2.0, 1.0, 0.5)
        pp = PElement(np.array([0.2, 0.6, -0.3, 0.9]))
        for _ in range(20):
            u = random_frame(rng)
            shift = m * sigma(g, u, REFERENCE_FRAME)[1:]
            assert np.allclose(pp.in_chart(m, g, u)[1:], pp.p[1:] - shift,
                               atol=1e-12)


class TestInhomogeneousMembership:
    """The time-normalized dynamics (x, p0, xdot, p0dot), with xdot on the
    unit-time slice: the spatial rows of
    homogeneous_dynamics_violation_array.  The time rows of the momentum
    and its rate are completed with the values the kernel expects."""

    @staticmethod
    def violation(m, g, potential, x, p0, xdot, p0dot) -> float:
        u, v = REFERENCE_FRAME, xdot
        phi = at(potential, x)
        dphi = potential.d(x)
        p = legendre_hom(u, m, g, phi, v)
        pdot = -dphi
        p[1:], pdot[1:] = p0, p0dot
        return float(homogeneous_dynamics_violation_array(
            u, m, g, phi, dphi, p, v, pdot))

    def test_free_rest_state(self):
        assert self.violation(1.0, ID3, free_potential(), X0, np.zeros(3),
                              REST_VELOCITY, np.zeros(3)) <= 1e-12

    def test_integrated_harmonic_state(self):
        m, g = 1.0, ID3
        potential = harmonic_potential(1.0)
        initial = (np.array([0.0, 1.0, 0.0, 0.0]), [0.0, 1.0, 0.0])
        traj = integrate(REFERENCE_FRAME, m, g, potential, initial, h=1e-3,
                         n=100)
        x = np.array([traj.t[-1], *traj.q[-1, 0]])
        p0 = traj.p[-1, 0]
        # the equations of motion, as integrate's rates state them
        xdot = np.concatenate([[1.0],
                               g.apply_inverse(p0) / m + REFERENCE_FRAME])
        p0dot = potential.force(x[0], x[1:])
        assert self.violation(m, g, potential, x, p0, xdot, p0dot) <= 1e-12

    def test_wrong_force_rejected(self):
        assert self.violation(1.0, ID3, free_potential(), X0, np.zeros(3),
                              REST_VELOCITY, np.array([1.0, 0.0, 0.0])) > 1e-9


class TestAffineMetric:
    def test_identity_metric_section(self):
        m, g = 2.0, ID3
        a = np.array([0.5, 0.0, -0.5])
        h = AffineMetric(a, np.zeros(3))
        section, c = section_from_affine_metric(m, g, h)
        assert c == 0.0
        for spatial in ([1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [-0.3, 0.4, 0.5]):
            b = np.array(spatial)
            d = b - a
            assert section(b) == pytest.approx(0.5 * 2.0 * float(d @ d))

    def test_vertical_derivative_matches_metric(self, rng):
        m, g = 1.3, SpatialMetric.diagonal(1.0, 2.0, 0.5)
        a = np.array([0.1, -0.2, 0.3])
        h = AffineMetric(a, np.array([0.4, -0.1, 0.7]))
        section, _ = section_from_affine_metric(m, g, h)
        for _ in range(30):
            b_s = rng.normal(size=3)
            fd = np.empty(3)
            for i in range(3):
                step = 1e-6 * (1.0 + abs(b_s[i]))
                plus, minus = b_s.copy(), b_s.copy()
                plus[i] += step
                minus[i] -= step
                fd[i] = (section(plus) - section(minus)) / (2 * step)
            expected = affine_metric_apply(m, g, h, b_s)
            assert np.allclose(fd, expected, atol=1e-6 * (1 + np.max(np.abs(expected))))

    def test_derivative_at_base_point_is_base_value(self):
        m, g = 1.7, ID3
        a = np.array([0.2, 0.1, -0.3])
        h = AffineMetric(a, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(affine_metric_apply(m, g, h, a),
                              h.value_at_base)

    def test_rebased_sections_differ_by_constant(self, rng):
        m, g = 0.9, SpatialMetric.diagonal(2.0, 1.0, 3.0)
        a1 = np.array([0.0, 0.0, 0.0])
        h1 = AffineMetric(a1, np.array([0.3, 0.4, -0.2]))
        a2 = np.array([1.0, -0.5, 0.2])
        h2 = AffineMetric(a2, affine_metric_apply(m, g, h1, a2))
        s1, _ = section_from_affine_metric(m, g, h1)
        s2, _ = section_from_affine_metric(m, g, h2)
        diffs = []
        for _ in range(50):
            b = rng.normal(size=3)
            diffs.append(s1(b) - s2(b))
        assert np.std(diffs) <= 1e-12 * (1 + np.max(np.abs(diffs)))

    def test_legendre_metric_reproduces_kinetic_term(self, rng):
        m, g = 1.8, SpatialMetric.diagonal(1.0, 0.5, 2.0)
        potential = harmonic_potential(0.7)
        # The time-normalized fiber-derivative map: zero at the reference
        # velocity, linear part m g.
        h = AffineMetric(REFERENCE_FRAME, np.zeros(3))
        section, _ = section_from_affine_metric(m, g, h)
        x = np.array([0.0, 0.3, -0.1, 0.2])
        phi = at(potential, x)
        for _ in range(20):
            w = rng.normal(size=3)
            kinetic = lagrangian_inhom(REFERENCE_FRAME, m, g, phi, w) + phi
            assert section(w) == pytest.approx(kinetic, rel=1e-12, abs=1e-12)

    def test_base_shapes_validated(self):
        with pytest.raises(ValueError, match="base value"):
            AffineMetric(REFERENCE_FRAME, np.zeros(4))
        for bad in (np.zeros(2), np.zeros((1, 3))):
            with pytest.raises(ValueError, match="base point"):
                AffineMetric(bad, np.zeros(3))

    def test_holds_read_only_copies(self):
        a, value = np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.0, 0.3])
        h = AffineMetric(a, value)
        a[0] = value[0] = 9.0
        assert h.base_point.tolist() == [0.5, -1.0, 2.0]
        assert h.value_at_base.tolist() == [1.0, 0.0, 0.3]
        for held in (h.base_point, h.value_at_base):
            with pytest.raises(ValueError):
                held[0] = 1.0


class TestQuotientFamilies:
    def setup_model(self):
        return (1.3, SpatialMetric.diagonal(1.0, 2.0, 0.5),
                harmonic_potential(0.8, center=[0.1, 0.0, -0.3]))

    def test_fam3_matches_reference_chart_family(self, rng):
        m, g, potential = self.setup_model()
        fam3 = family_fam3(m, g, potential)
        fam2 = family_fam2(REFERENCE_FRAME, m, g, potential)
        assert fam3.name == "fam3"
        for _ in range(10):
            base = np.concatenate([rng.normal(size=4), rng.normal(size=4)])
            r = [float(rng.uniform(0.3, 2.0))]
            assert fam3.value(base, r) == fam2.value(base, r)

    def test_fam3_residual_chart_independent(self, rng):
        # The same momentum class presented through 20 different charts
        # must produce the same family values once canonicalized.
        m, g, potential = self.setup_model()
        fam3 = family_fam3(m, g, potential)
        x = np.array([0.0, 0.4, -0.1, 0.3])
        pp = PElement(np.array([0.3, -0.6, 0.2, 0.8]))
        ref = fam3.value(np.concatenate([x, pp.p]), [1.0])
        for _ in range(20):
            u = random_frame(rng)
            rebuilt = PElement.from_chart(m, g, pp.in_chart(m, g, u), u)
            val = fam3.value(np.concatenate([x, rebuilt.p]), [1.0])
            assert val == pytest.approx(ref, abs=1e-11 * (1 + abs(ref)))

    def test_fam4_value_is_hamiltonian_fun(self, rng):
        m, g, potential = self.setup_model()
        fam4 = family_fam4(m, g, potential)
        x = np.array([0.1, 0.2, -0.3, 0.4])
        for _ in range(10):
            pp = PElement(rng.normal(size=4))
            v = np.array([float(rng.uniform(0.4, 1.6)), *rng.normal(size=3)])
            direct = hamiltonian_fun_array(m, g, at(potential, x),
                                           v, pp.p)
            via_family = fam4.value(np.concatenate([x, pp.p]),
                                    vector_to_fiber(v))
            assert via_family == pytest.approx(direct, abs=1e-12 * (1 + abs(direct)))

    def test_fam4_stationarity_reproduces_shell(self):
        m, g, potential = self.setup_model()
        fam4 = family_fam4(m, g, potential)
        x = np.array([0.0, 0.3, 0.1, -0.2])
        v = np.array([1.0, 0.5, -0.2, 0.4])
        p_on = legendre_hom(REFERENCE_FRAME, m, g, at(potential, x), v)
        base_on = np.concatenate([x, p_on])
        pts = solve_critical(fam4, base_on, seeds=[vector_to_fiber(v) + 0.01],
                             tol=1e-10)
        assert len(pts)
        # Gauge-normalize the critical velocity to the unit-time slice and
        # confirm the base momentum class sits on the universal shell.
        found = pts.fiber[0]
        tv = found[3]
        assert tv > 0
        res = universal_residual(m, g, potential, x, PElement(p_on))
        assert abs(res) <= 1e-8
        # Off the shell there is no critical velocity at all.
        base_off = np.concatenate([x, p_on + [0.4, 0.0, 0.0, 0.0]])
        assert len(solve_critical(fam4, base_off, seeds=[vector_to_fiber(v)],
                                  tol=1e-10)) == 0

    def test_boost_commutes_with_class_formation(self, rng):
        # Bookkeeping carried u' -> reference by the frame-level boost,
        # p + m sigma(u', reference), must agree bit for bit with
        # canonicalizing the u' representative directly.
        m, g, potential = self.setup_model()
        for _ in range(25):
            u_prime = random_frame(rng)
            p_u = rng.normal(size=4)
            via_boost = p_u + m * sigma(g, u_prime, REFERENCE_FRAME)
            direct = PElement.from_chart(m, g, p_u, u_prime)
            assert np.array_equal(via_boost, direct.p)

