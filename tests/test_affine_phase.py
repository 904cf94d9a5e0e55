import json

import numpy as np
import pytest

from galimech.galilean_core import (
    Covector4,
    Event,
    Frame,
    SpatialMetric,
    TAU,
    Vector4,
    sigma,
)
from galimech.frame_dynamics import (
    NotFutureDirected,
    PhasePoint,
    Potential,
    boost,
    free_potential,
    harmonic_potential,
    integrate,
    lagrangian_hom,
    lagrangian_inhom,
    legendre_hom,
    mass_shell_residual,
    vector_field_inhom,
)
from galimech.affine_phase import (
    AffineMetric,
    NewtonModel,
    PElement,
    ProjectionMismatch,
    REFERENCE_FRAME,
    WElement,
    W_UNIT,
    W_ZERO,
    affine_lagrangian,
    affine_metric_apply,
    alpha,
    beta,
    beta_inv,
    dynamics_membership_universal,
    eval_affine,
    family_fam3,
    family_fam4,
    gamma,
    hamiltonian_fun,
    inhomogeneous_dynamics_membership,
    legendre_affine_metric,
    lift_P0,
    p_change_chart,
    pairing,
    project_P0,
    psi_m,
    section_from_affine_metric,
    universal_hamiltonian_residual,
    w_add,
    w_change_chart,
    w_scale,
)
from galimech.generating_objects import (
    family_fam1,
    family_fam2,
    solve_critical,
    state_to_base,
    vector_to_fiber,
)

from conftest import random_frame, random_metric

X0 = Event(0.0, 0.0, 0.0, 0.0)
U1 = Frame.from_spatial([1.0, 0.0, 0.0])


def free_model(m: float = 1.0, g: SpatialMetric | None = None) -> NewtonModel:
    return NewtonModel(m, g or SpatialMetric.identity(), free_potential())


def constant_potential(c: float) -> Potential:
    return Potential(value=lambda x: c,
                     spatial_gradient=lambda t, q: np.zeros(np.shape(q)),
                     time_independent=True)


class TestChartChange:
    def test_same_frame_is_identity(self):
        model = free_model()
        v = Vector4(1.0, 0.3, -0.2, 0.5)
        vv, rr = w_change_chart(model, v, 0.7, U1, U1)
        assert vv == v and rr == 0.7
        p = Covector4(0.1, 0.2, 0.3, 0.4)
        assert p_change_chart(model, p, U1, U1) == p

    def test_worked_example(self):
        model = free_model()
        v = Vector4(1.0, 1.0, 0.0, 0.0)
        _, rr = w_change_chart(model, v, 0.0, REFERENCE_FRAME, U1)
        assert rr == pytest.approx(-0.5, abs=1e-15)

    def test_chain_equals_direct(self, rng):
        for _ in range(50):
            g = random_metric(rng)
            model = NewtonModel(rng.uniform(0.5, 2.0), g, free_potential())
            u1, u2, u3 = (random_frame(rng) for _ in range(3))
            v = Vector4(*rng.normal(size=4))
            r = float(rng.normal())
            _, step = w_change_chart(model, *w_change_chart(model, v, r, u1, u2),
                                     u2, u3)
            _, direct = w_change_chart(model, v, r, u1, u3)
            assert step == pytest.approx(direct, abs=1e-12 * (1 + abs(direct)))
            p = Covector4(*rng.normal(size=4))
            two = p_change_chart(model, p_change_chart(model, p, u1, u2), u2, u3)
            one = p_change_chart(model, p, u1, u3)
            assert np.allclose(two.as_array(), one.as_array(), atol=1e-12)

    def test_round_trip(self, rng):
        model = free_model(1.7, SpatialMetric.diagonal(2.0, 1.0, 0.5))
        w = WElement(Vector4(1.0, 0.4, -0.1, 0.2), 0.9)
        for _ in range(20):
            u = random_frame(rng)
            v_back, r_back = w_change_chart(model, *w.in_chart(model, u),
                                            u, model.reference)
            assert v_back == w.v
            assert r_back == pytest.approx(w.r, abs=1e-13)


class TestWSpace:
    def test_zero_and_unit(self):
        model = free_model()
        w = WElement(Vector4(1.0, 2.0, 3.0, 4.0), -0.5)
        assert w_add(model, w, W_ZERO) == w
        # The unit element is literally the same pair in every chart.
        for spatial in ([0.4, 0.0, 0.0], [-1.0, 2.0, 0.3]):
            u = Frame.from_spatial(spatial)
            v, r = W_UNIT.in_chart(model, u)
            assert v == Vector4(0.0, 0.0, 0.0, 0.0)
            assert r == -1.0

    def test_vector_space_axioms(self, rng):
        model = free_model(1.3)
        def rand_w():
            return WElement(Vector4(*rng.normal(size=4)), float(rng.normal()))
        for _ in range(50):
            a, b, c = rand_w(), rand_w(), rand_w()
            s, t = float(rng.normal()), float(rng.normal())
            lhs = w_add(model, a, b)
            rhs = w_add(model, b, a)
            assert lhs == rhs
            assoc1 = w_add(model, w_add(model, a, b), c)
            assoc2 = w_add(model, a, w_add(model, b, c))
            assert np.allclose(assoc1.v.as_array(), assoc2.v.as_array())
            assert assoc1.r == pytest.approx(assoc2.r, rel=1e-12, abs=1e-12)
            dist = w_scale(model, s, w_add(model, a, b))
            dist2 = w_add(model, w_scale(model, s, a), w_scale(model, s, b))
            assert np.allclose(dist.v.as_array(), dist2.v.as_array(), atol=1e-12)
            assert dist.r == pytest.approx(dist2.r, rel=1e-12, abs=1e-12)
            again = w_scale(model, s, w_scale(model, t, a))
            once = w_scale(model, s * t, a)
            assert np.allclose(again.v.as_array(), once.v.as_array(), atol=1e-12)

    def test_addition_commutes_with_chart_change(self, rng):
        # Adding representatives in a random chart, then canonicalizing,
        # equals adding the canonical representatives.
        model = free_model(0.8, SpatialMetric.diagonal(1.0, 3.0, 0.7))
        for _ in range(20):
            u = random_frame(rng)
            a = WElement(Vector4(*rng.normal(size=4)), float(rng.normal()))
            b = WElement(Vector4(*rng.normal(size=4)), float(rng.normal()))
            va, ra = a.in_chart(model, u)
            vb, rb = b.in_chart(model, u)
            mixed = WElement.from_chart(model, va + vb, ra + rb, u)
            direct = w_add(model, a, b)
            assert np.allclose(mixed.v.as_array(), direct.v.as_array())
            assert mixed.r == pytest.approx(direct.r, abs=1e-12)


class TestEvalAndPairing:
    def test_unit_evaluates_to_one(self, rng):
        model = free_model()
        for _ in range(10):
            pp = PElement(Covector4(*rng.normal(size=4)))
            assert eval_affine(model, W_UNIT, pp) == 1.0

    def test_worked_example(self):
        model = free_model()
        w = WElement(Vector4(1.0, 1.0, 0.0, 0.0), 0.0)
        pp = PElement(Covector4(0.0, 1.0, 0.0, 0.0))
        assert eval_affine(model, w, pp) == pytest.approx(1.0)

    def test_chart_independence(self, rng):
        model = free_model(1.4, SpatialMetric.diagonal(0.5, 1.0, 2.0))
        w = WElement(Vector4(1.0, 0.5, -0.3, 0.2), 0.4)
        pp = PElement(Covector4(-0.2, 0.7, 0.1, -0.5))
        ref = eval_affine(model, w, pp)
        for _ in range(100):
            u = random_frame(rng)
            v_u, r_u = w.in_chart(model, u)
            p_u = pp.in_chart(model, u)
            again = eval_affine(model,
                                WElement.from_chart(model, v_u, r_u, u),
                                PElement.from_chart(model, p_u, u))
            assert again == pytest.approx(ref, abs=1e-12 * (1 + abs(ref)))

    def test_pairing_zero_velocity(self):
        model = free_model()
        pp = PElement(Covector4(3.0, -1.0, 2.0, 0.5))
        assert pairing(model, pp, Vector4(0.0, 0.0, 0.0, 0.0)) == W_ZERO

    def test_pairing_worked_example(self):
        model = free_model()
        pp = PElement(Covector4(0.0, 1.0, 0.0, 0.0))
        v = Vector4(1.0, 1.0, 0.0, 0.0)
        w = pairing(model, pp, v)
        assert w.v == v and w.r == pytest.approx(1.0)

    def test_pairing_chart_independent(self, rng):
        model = free_model(2.0, SpatialMetric.diagonal(1.0, 0.5, 3.0))
        pp = PElement(Covector4(0.3, -0.4, 0.8, 0.1))
        v = Vector4(1.0, 0.2, -0.6, 0.9)
        direct = pairing(model, pp, v)
        for _ in range(50):
            u = random_frame(rng)
            p_u = pp.in_chart(model, u)
            rebuilt = WElement.from_chart(model, v, p_u.pair(v), u)
            assert rebuilt.v == direct.v
            assert rebuilt.r == pytest.approx(direct.r, abs=1e-12)

    def test_pairing_difference_identity(self, rng):
        # f_{pairing(p, v)}(q) = <q - p, v> whenever q and p are read in
        # one shared chart.
        model = free_model()
        for _ in range(20):
            p = Covector4(*rng.normal(size=4))
            q = Covector4(*rng.normal(size=4))
            v = Vector4(*rng.normal(size=4))
            w = pairing(model, PElement(p), v)
            val = eval_affine(model, w, PElement(q))
            assert val == pytest.approx((q - p).pair(v), abs=1e-12)

    def test_duality_rank(self):
        # Five independent W elements evaluated at five generic momenta:
        # the evaluation matrix must have full rank, so w -> f_w is
        # injective on a spanning set.
        model = free_model()
        ws = [WElement(Vector4(1.0, 0.0, 0.0, 0.0), 0.0),
              WElement(Vector4(0.0, 1.0, 0.0, 0.0), 0.0),
              WElement(Vector4(0.0, 0.0, 1.0, 0.0), 0.0),
              WElement(Vector4(0.0, 0.0, 0.0, 1.0), 0.0),
              W_UNIT]
        rng = np.random.default_rng(7)
        ps = [PElement(Covector4(*rng.normal(size=4))) for _ in range(5)]
        mat = np.array([[eval_affine(model, w, pp) for pp in ps] for w in ws])
        assert np.linalg.matrix_rank(mat, tol=1e-10) == 5

    def test_linearity_of_evaluation(self, rng):
        model = free_model()
        for _ in range(20):
            a = WElement(Vector4(*rng.normal(size=4)), float(rng.normal()))
            b = WElement(Vector4(*rng.normal(size=4)), float(rng.normal()))
            pp = PElement(Covector4(*rng.normal(size=4)))
            s = float(rng.normal())
            lhs = eval_affine(model, w_add(model, a, b), pp)
            rhs = eval_affine(model, a, pp) + eval_affine(model, b, pp)
            assert lhs == pytest.approx(rhs, abs=1e-12)
            lhs = eval_affine(model, w_scale(model, s, a), pp)
            # Scaling rescales the whole affine function, unit part included.
            rhs = s * eval_affine(model, a, pp)
            assert lhs == pytest.approx(rhs, abs=1e-11)


class TestMassShellFunctions:
    def test_psi_zero_momentum(self):
        model = free_model()
        assert psi_m(model, X0, PElement(Covector4(0, 0, 0, 0))) == 0.0

    def test_psi_worked_example(self):
        model = free_model()
        pp = PElement(Covector4(0.0, 1.0, 0.0, 0.0))
        assert psi_m(model, X0, pp) == pytest.approx(0.5)

    def test_psi_hand_computed_other_chart(self):
        # Same class carried to the chart of u' = (1,1,0,0) has the
        # representative (0.5, 0, 0, 0); the defining formula evaluated
        # there gives 0.5 * 0 + <p', u'> = 0.5 again.
        model = free_model()
        pp = PElement(Covector4(0.0, 1.0, 0.0, 0.0))
        p_u = pp.in_chart(model, U1)
        assert np.allclose(p_u.as_array(), [0.5, 0.0, 0.0, 0.0])
        ps = p_u.spatial
        by_hand = 0.5 * float(ps @ ps) + p_u.pair(U1)
        assert by_hand == pytest.approx(psi_m(model, X0, pp))

    def test_psi_chart_battery(self, rng):
        model = free_model(1.2, SpatialMetric.diagonal(2.0, 1.0, 0.5))
        pp = PElement(Covector4(0.4, -0.3, 0.8, 0.2))
        ref = psi_m(model, X0, pp)
        for _ in range(100):
            u = random_frame(rng)
            rebuilt = PElement.from_chart(model, pp.in_chart(model, u), u)
            assert psi_m(model, X0, rebuilt) == pytest.approx(
                ref, abs=1e-12 * (1 + abs(ref)))

    def test_universal_residual_worked_example(self):
        model = NewtonModel(1.0, SpatialMetric.identity(),
                            constant_potential(1.0))
        pp = PElement(Covector4(0.0, 1.0, 0.0, 0.0))
        assert universal_hamiltonian_residual(model, X0, pp) == pytest.approx(1.5)

    def test_residual_vanishes_on_fiber_derivative_classes(self, rng):
        model = NewtonModel(1.6, SpatialMetric.diagonal(1.0, 2.0, 0.5),
                            harmonic_potential(0.7))
        x = Event(0.3, 0.1, -0.4, 0.2)
        for _ in range(20):
            u = random_frame(rng)
            v = Vector4(float(rng.uniform(0.2, 2.0)), *rng.normal(size=3))
            p_u = legendre_hom(u, model.mass, model.metric, model.potential,
                               x, v)
            pp = PElement.from_chart(model, p_u, u)
            res = universal_hamiltonian_residual(model, x, pp)
            assert abs(res) <= 1e-12

    def test_matches_frame_residual_in_every_chart(self, rng):
        model = NewtonModel(0.9, SpatialMetric.diagonal(2.0, 0.5, 1.0),
                            harmonic_potential(1.1))
        x = Event(0.0, 0.4, -0.2, 0.6)
        pp = PElement(Covector4(0.2, 0.5, -0.7, 0.3))
        universal = universal_hamiltonian_residual(model, x, pp)
        for _ in range(50):
            u = random_frame(rng)
            per_frame = mass_shell_residual(u, model.mass, model.metric,
                                            model.potential, x,
                                            pp.in_chart(model, u))
            assert per_frame == pytest.approx(universal,
                                              abs=1e-11 * (1 + abs(universal)))


class TestAffineLagrangian:
    def test_reference_chart_value(self):
        model = free_model()
        v = Vector4(1.0, 1.0, 0.0, 0.0)
        w = affine_lagrangian(model, X0, v)
        assert w.v == v
        assert w.r == pytest.approx(0.5)

    def test_other_chart_construction_agrees(self):
        # In the comoving chart the lagrangian value is zero; re-charting
        # that zero must recover the canonical 0.5.
        model = free_model()
        v = Vector4(1.0, 1.0, 0.0, 0.0)
        l_u1 = lagrangian_hom(U1, 1.0, model.metric, model.potential, X0, v)
        assert l_u1 == pytest.approx(0.0, abs=1e-15)
        rebuilt = WElement.from_chart(model, v, l_u1, U1)
        direct = affine_lagrangian(model, X0, v)
        assert rebuilt.v == direct.v
        assert rebuilt.r == pytest.approx(direct.r, abs=1e-13)

    def test_chart_battery(self, rng):
        model = NewtonModel(1.5, SpatialMetric.diagonal(1.0, 0.5, 2.0),
                            harmonic_potential(0.9))
        x = Event(0.2, -0.3, 0.5, 0.1)
        v = Vector4(0.8, 0.4, -0.2, 0.6)
        direct = affine_lagrangian(model, x, v)
        for _ in range(100):
            u = random_frame(rng)
            l_u = lagrangian_hom(u, model.mass, model.metric, model.potential,
                                 x, v)
            rebuilt = WElement.from_chart(model, v, l_u, u)
            assert rebuilt.r == pytest.approx(direct.r,
                                              abs=1e-11 * (1 + abs(direct.r)))

    def test_positive_homogeneity(self, rng):
        model = free_model(1.1, SpatialMetric.diagonal(1.0, 2.0, 3.0))
        v = Vector4(1.0, 0.3, -0.5, 0.2)
        for lam in (0.5, 2.0, 7.3):
            scaled = affine_lagrangian(model, X0, lam * v)
            via_w = w_scale(model, lam, affine_lagrangian(model, X0, v))
            assert np.allclose(scaled.v.as_array(), via_w.v.as_array())
            assert scaled.r == pytest.approx(via_w.r, rel=1e-12)

    def test_rejects_past_directed(self):
        model = free_model()
        with pytest.raises(NotFutureDirected):
            affine_lagrangian(model, X0, Vector4(-1.0, 0.0, 0.0, 0.0))


class TestHamiltonianFun:
    def test_worked_example(self):
        model = free_model()
        pp = PElement(Covector4(0.0, 0.0, 0.0, 0.0))
        v = Vector4(1.0, 1.0, 0.0, 0.0)
        assert hamiltonian_fun(model, X0, v, pp) == pytest.approx(-0.5)

    def test_single_chart_formula(self, rng):
        model = NewtonModel(1.3, SpatialMetric.diagonal(0.5, 1.0, 2.0),
                            harmonic_potential(0.6))
        x = Event(0.1, 0.2, -0.1, 0.4)
        for _ in range(30):
            u = random_frame(rng)
            v = Vector4(float(rng.uniform(0.3, 1.8)), *rng.normal(size=3))
            p_u = Covector4(*rng.normal(size=4))
            pp = PElement.from_chart(model, p_u, u)
            in_chart = p_u.pair(v) - lagrangian_hom(
                u, model.mass, model.metric, model.potential, x, v)
            assert hamiltonian_fun(model, x, v, pp) == pytest.approx(
                in_chart, abs=1e-11 * (1 + abs(in_chart)))

    def test_mismatched_velocities_rejected(self):
        from galimech.affine_phase import _fiber_difference
        a = WElement(Vector4(1.0, 0.0, 0.0, 0.0), 0.3)
        b = WElement(Vector4(1.0, 1.0, 0.0, 0.0), 0.3)
        with pytest.raises(ProjectionMismatch):
            _fiber_difference(a, b)


class TestTripleMaps:
    def rand_tuple(self, rng):
        return (Event(*rng.normal(size=4)),
                PElement(Covector4(*rng.normal(size=4))),
                Vector4(*rng.normal(size=4)),
                Covector4(*rng.normal(size=4)))

    def test_alpha_shape(self, rng):
        x, pp, v, a = self.rand_tuple(rng)
        assert alpha((x, pp, v, a)) == (x, v, a, pp)

    def test_beta_round_trip(self, rng):
        for _ in range(20):
            t = self.rand_tuple(rng)
            assert beta_inv(beta(t)) == t

    def test_beta_squared_flips_fiber(self, rng):
        x, pp, v, a = self.rand_tuple(rng)
        assert beta(beta((x, pp, v, a))) == (x, pp, -v, -a)

    def test_gamma_is_alpha_after_beta_inv(self, rng):
        for _ in range(100):
            x, pp, a, v = (Event(*rng.normal(size=4)),
                           PElement(Covector4(*rng.normal(size=4))),
                           Covector4(*rng.normal(size=4)),
                           Vector4(*rng.normal(size=4)))
            assert gamma((x, pp, a, v)) == alpha(beta_inv((x, pp, a, v)))


class TestUniversalMembership:
    def test_boosted_on_shell_state(self, rng):
        model = NewtonModel(1.2, SpatialMetric.diagonal(1.0, 2.0, 0.5),
                            harmonic_potential(0.8))
        x = Event(0.0, 0.3, -0.2, 0.1)
        for _ in range(10):
            u = random_frame(rng)
            v = Vector4(1.0, *rng.normal(size=3))
            p_u = legendre_hom(u, model.mass, model.metric, model.potential,
                               x, v)
            pp = PElement.from_chart(model, p_u, u)
            pdot = -TAU.pair(v) * model.potential.d(x)
            assert dynamics_membership_universal(model, (x, pp, v, pdot),
                                                 1e-9)

    def test_past_directed_is_rejected(self):
        model = free_model()
        pp = PElement(Covector4(0.0, 0.0, 0.0, 0.0))
        bad = Vector4(-1.0, 0.0, 0.0, 0.0)
        assert not dynamics_membership_universal(
            model, (X0, pp, bad, Covector4(0, 0, 0, 0)), 1e-9)

    def test_off_shell_momentum_is_rejected(self):
        model = free_model()
        v = Vector4(1.0, 1.0, 0.0, 0.0)
        pp = PElement(Covector4(7.0, 1.0, 0.0, 0.0))  # wrong time component
        assert not dynamics_membership_universal(
            model, (X0, pp, v, Covector4(0, 0, 0, 0)), 1e-9)


class TestP0:
    def test_projection_worked_example(self):
        model = free_model()
        pp = PElement(Covector4(-0.5, 1.0, 2.0, 3.0))
        assert np.array_equal(project_P0(model, pp), [1.0, 2.0, 3.0])

    def test_time_translates_project_equally(self):
        model = free_model()
        p = Covector4(0.3, 1.0, -2.0, 0.5)
        shifted = p + 7.0 * TAU
        assert np.array_equal(project_P0(model, PElement(p)),
                              project_P0(model, PElement(shifted)))

    def test_project_after_lift(self, rng):
        model = free_model()
        for _ in range(10):
            p0 = rng.normal(size=3)
            pp = lift_P0(model, p0, time=float(rng.normal()))
            assert np.array_equal(project_P0(model, pp), p0)

    def test_chart_covariance_of_projection(self, rng):
        model = free_model(1.4, SpatialMetric.diagonal(2.0, 1.0, 0.5))
        pp = PElement(Covector4(0.2, 0.6, -0.3, 0.9))
        for _ in range(20):
            u = random_frame(rng)
            shift = model.mass * sigma(model.metric, u, model.reference)
            assert np.allclose(pp.in_chart(model, u).spatial,
                               project_P0(model, pp) - shift.spatial,
                               atol=1e-12)

    def test_lift_validates_shape(self):
        model = free_model()
        with pytest.raises(ValueError):
            lift_P0(model, [1.0, 2.0], time=0.0)


class TestInhomogeneousMembership:
    def test_free_rest_state(self):
        model = free_model()
        element = (X0, np.zeros(3), REFERENCE_FRAME.velocity, np.zeros(3))
        assert inhomogeneous_dynamics_membership(model, element, 1e-12)

    def test_integrated_harmonic_state(self):
        model = NewtonModel(1.0, SpatialMetric.identity(),
                            harmonic_potential(1.0))
        initial = PhasePoint.spatial(Event(0.0, 1.0, 0.0, 0.0),
                                     [0.0, 1.0, 0.0])
        traj = integrate(REFERENCE_FRAME, model.mass, model.metric,
                         model.potential, initial, h=1e-3, n=100)
        pt = PhasePoint(Event(traj.t[-1], *traj.q[-1, 0]), traj.p[-1, 0])
        xdot, pdot = vector_field_inhom(REFERENCE_FRAME, model.mass,
                                        model.metric, model.potential, pt)
        element = (pt.x, pt.p, xdot, pdot)
        assert inhomogeneous_dynamics_membership(model, element, 1e-12)

    def test_wrong_force_rejected(self):
        model = free_model()
        element = (X0, np.zeros(3), REFERENCE_FRAME.velocity,
                   np.array([1.0, 0.0, 0.0]))
        assert not inhomogeneous_dynamics_membership(model, element, 1e-9)

    def test_gauge_violation_raises(self):
        model = free_model()
        bad = Vector4(2.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            inhomogeneous_dynamics_membership(
                model, (X0, np.zeros(3), bad, np.zeros(3)), 1e-9)


class TestAffineMetric:
    def test_identity_metric_section(self):
        model = free_model(2.0)
        a = Frame.from_spatial([0.5, 0.0, -0.5])
        h = AffineMetric(a, np.zeros(3))
        section, c = section_from_affine_metric(model, h)
        assert c == 0.0
        for spatial in ([1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [-0.3, 0.4, 0.5]):
            b = Frame.from_spatial(spatial)
            d = b.spatial - a.spatial
            assert section(b) == pytest.approx(0.5 * 2.0 * float(d @ d))

    def test_vertical_derivative_matches_metric(self, rng):
        model = NewtonModel(1.3, SpatialMetric.diagonal(1.0, 2.0, 0.5),
                            free_potential())
        a = Frame.from_spatial([0.1, -0.2, 0.3])
        h = AffineMetric(a, np.array([0.4, -0.1, 0.7]))
        section, _ = section_from_affine_metric(model, h)
        for _ in range(30):
            b_s = rng.normal(size=3)
            fd = np.empty(3)
            for i in range(3):
                step = 1e-6 * (1.0 + abs(b_s[i]))
                plus, minus = b_s.copy(), b_s.copy()
                plus[i] += step
                minus[i] -= step
                fd[i] = (section(Frame.from_spatial(plus)) -
                         section(Frame.from_spatial(minus))) / (2 * step)
            expected = affine_metric_apply(model, h, Frame.from_spatial(b_s))
            assert np.allclose(fd, expected, atol=1e-6 * (1 + np.max(np.abs(expected))))

    def test_derivative_at_base_point_is_base_value(self):
        model = free_model(1.7)
        a = Frame.from_spatial([0.2, 0.1, -0.3])
        h = AffineMetric(a, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(affine_metric_apply(model, h, a),
                              h.value_at_base)

    def test_rebased_sections_differ_by_constant(self, rng):
        model = NewtonModel(0.9, SpatialMetric.diagonal(2.0, 1.0, 3.0),
                            free_potential())
        a1 = Frame.from_spatial([0.0, 0.0, 0.0])
        h1 = AffineMetric(a1, np.array([0.3, 0.4, -0.2]))
        a2 = Frame.from_spatial([1.0, -0.5, 0.2])
        h2 = AffineMetric(a2, affine_metric_apply(model, h1, a2))
        s1, _ = section_from_affine_metric(model, h1)
        s2, _ = section_from_affine_metric(model, h2)
        diffs = []
        for _ in range(50):
            b = Frame.from_spatial(rng.normal(size=3))
            diffs.append(s1(b) - s2(b))
        assert np.std(diffs) <= 1e-12 * (1 + np.max(np.abs(diffs)))

    def test_legendre_metric_reproduces_kinetic_term(self, rng):
        model = NewtonModel(1.8, SpatialMetric.diagonal(1.0, 0.5, 2.0),
                            harmonic_potential(0.7))
        h = legendre_affine_metric(model)
        section, _ = section_from_affine_metric(model, h)
        x = Event(0.0, 0.3, -0.1, 0.2)
        phi = model.potential.at(x)
        for _ in range(20):
            w = Frame.from_spatial(rng.normal(size=3))
            kinetic = lagrangian_inhom(model.reference, model.mass,
                                       model.metric, model.potential,
                                       x, w) + phi
            assert section(w) == pytest.approx(kinetic, rel=1e-12, abs=1e-12)

    def test_base_value_shape_validated(self):
        with pytest.raises(ValueError):
            AffineMetric(REFERENCE_FRAME, np.zeros(4))


class TestQuotientFamilies:
    def setup_model(self):
        return NewtonModel(1.3, SpatialMetric.diagonal(1.0, 2.0, 0.5),
                           harmonic_potential(0.8, center=[0.1, 0.0, -0.3]))

    def test_fam3_matches_reference_chart_family(self, rng):
        model = self.setup_model()
        fam3 = family_fam3(model)
        fam2 = family_fam2(model.reference, model.mass, model.metric,
                           model.potential)
        assert fam3.name == "fam3"
        for _ in range(10):
            base = np.concatenate([rng.normal(size=4), rng.normal(size=4)])
            r = [float(rng.uniform(0.3, 2.0))]
            assert fam3.value(base, r) == fam2.value(base, r)

    def test_fam3_residual_chart_independent(self, rng):
        # The same momentum class presented through 20 different charts
        # must produce the same family values once canonicalized.
        model = self.setup_model()
        fam3 = family_fam3(model)
        x = Event(0.0, 0.4, -0.1, 0.3)
        pp = PElement(Covector4(0.3, -0.6, 0.2, 0.8))
        ref = fam3.value(state_to_base(x, pp.p), [1.0])
        for _ in range(20):
            u = random_frame(rng)
            rebuilt = PElement.from_chart(model, pp.in_chart(model, u), u)
            val = fam3.value(state_to_base(x, rebuilt.p), [1.0])
            assert val == pytest.approx(ref, abs=1e-11 * (1 + abs(ref)))

    def test_fam4_value_is_hamiltonian_fun(self, rng):
        model = self.setup_model()
        fam4 = family_fam4(model)
        x = Event(0.1, 0.2, -0.3, 0.4)
        for _ in range(10):
            pp = PElement(Covector4(*rng.normal(size=4)))
            v = Vector4(float(rng.uniform(0.4, 1.6)), *rng.normal(size=3))
            direct = hamiltonian_fun(model, x, v, pp)
            via_family = fam4.value(state_to_base(x, pp.p), vector_to_fiber(v))
            assert via_family == pytest.approx(direct, abs=1e-12 * (1 + abs(direct)))

    def test_fam4_stationarity_reproduces_shell(self):
        model = self.setup_model()
        fam4 = family_fam4(model)
        x = Event(0.0, 0.3, 0.1, -0.2)
        v = Vector4(1.0, 0.5, -0.2, 0.4)
        p_on = legendre_hom(model.reference, model.mass, model.metric,
                            model.potential, x, v)
        base_on = state_to_base(x, p_on)
        pts = solve_critical(fam4, base_on, seeds=[vector_to_fiber(v) + 0.01],
                             tol=1e-10)
        assert pts
        # Gauge-normalize the critical velocity to the unit-time slice and
        # confirm the base momentum class sits on the universal shell.
        found = pts[0].fiber
        tv = found[3]
        assert tv > 0
        res = universal_hamiltonian_residual(model, x, PElement(p_on))
        assert abs(res) <= 1e-8
        # Off the shell there is no critical velocity at all.
        p_off = Covector4(p_on.a0 + 0.4, p_on.a1, p_on.a2, p_on.a3)
        base_off = state_to_base(x, p_off)
        assert solve_critical(fam4, base_off, seeds=[vector_to_fiber(v)],
                              tol=1e-10) == []

    def test_boost_commutes_with_class_formation(self, rng):
        # Bookkeeping carried u' -> reference by the frame-level boost and
        # then canonicalized must agree bit for bit with canonicalizing the
        # u' representative directly.
        model = self.setup_model()
        x = Event(0.0, 0.1, 0.2, 0.3)
        for _ in range(25):
            u_prime = random_frame(rng)
            p_u = Covector4(*rng.normal(size=4))
            _, p_ref = boost(u_prime, model.reference, model.mass,
                             model.metric, (x, p_u))
            via_boost = PElement(p_ref)
            direct = PElement.from_chart(model, p_u, u_prime)
            assert np.array_equal(via_boost.p.as_array(),
                                  direct.p.as_array())


class TestSerialization:
    def test_w_round_trip(self):
        w = WElement(Vector4(1.0, 0.25, -0.5, 0.125), -2.0)
        data = json.loads(json.dumps(w.to_json()))
        assert WElement.from_json(data) == w

    def test_p_round_trip(self):
        pp = PElement(Covector4(-0.5, 1.0, 2.0, 3.0))
        data = json.loads(json.dumps(pp.to_json()))
        assert PElement.from_json(data) == pp

    def test_malformed_inputs_rejected(self):
        with pytest.raises(ValueError):
            WElement.from_json({"v": [1.0, 2.0], "r": 0.0})
        with pytest.raises(ValueError):
            WElement.from_json({"v": [1.0, 2.0, 3.0, 4.0]})
        with pytest.raises(ValueError):
            PElement.from_json({"p": "nope"})
