import hashlib
import io
import json
import math
import re

import numpy as np
import pytest

from galimech.galilean_core import (
    SpatialMetric,
    pair,
    sigma,
)
from galimech import frame_dynamics
from galimech.frame_dynamics import (
    _EYE6,
    _EYE6_2,
    _EYE6_6,
    _FINITE_BLOCK,
    _PROBE,
    NonFiniteState,
    Potential,
    Trajectory,
    homogeneous_dynamics_violation_array,
    integrate,
    lagrangian_hom,
    lagrangian_inhom,
    legendre_hom,
    legendre_inhom,
    mass_shell_residual,
    write_trajectory_csv,
)
from galimech.affine_phase import p_change_chart
from galimech.harness.cli import main
from galimech.harness.config import PotentialSpec
from galimech.harness.expressions import compile_potential

from conftest import (
    at,
    free_potential,
    harmonic_potential,
    random_frame,
    random_metric,
    uniform_potential,
)

E0 = np.array([0.0, 0.0, 0.0])
ORIGIN = np.array([0.0, 0.0, 0.0, 0.0])
ID3 = SpatialMetric.identity()


def energy(m: float, g: SpatialMetric, phi: Potential, x: np.ndarray,
           p) -> float:
    """Trajectory.energies at the single state (x, p)."""
    traj = Trajectory(t=x[:1], q=x[None, None, 1:],
                      p=np.asarray(p, dtype=float)[None, None], h=1.0,
                      frames=E0[None], mass=m)
    return float(traj.energies(g, phi)[0])


def carried(up: np.ndarray, u: np.ndarray, m: float, g: SpatialMetric,
            p: np.ndarray) -> np.ndarray:
    """Momentum p carried from frame up's bookkeeping to frame u: the chart
    change p + m sigma(up, u) of its class."""
    return p_change_chart(m, g, p, up, u)


def stacked(states) -> tuple[np.ndarray, np.ndarray]:
    """integrate's initial pair for a list of (x, p) states, one per frame."""
    xs, ps = zip(*states)
    return np.array(xs, dtype=float), np.array(ps, dtype=float)


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
        assert at(phi, np.array([1.0, 2.0, 3.0, 4.0])) == 0.0
        assert np.array_equal(phi.d_s(ORIGIN), np.zeros(3))
        assert np.array_equal(phi.d(ORIGIN), np.zeros(4))

    def test_uniform_value_and_gradient(self):
        phi = uniform_potential([1.0, 0.0, -2.0])
        x = np.array([0.0, 2.0, 5.0, 1.0])
        assert at(phi, x) == pytest.approx(-(2.0 - 2.0), abs=1e-15)
        assert np.array_equal(phi.d_s(x), [-1.0, 0.0, 2.0])

    def test_harmonic_value_and_gradient(self):
        phi = harmonic_potential(2.0, center=[1.0, 0.0, 0.0])
        x = np.array([0.0, 3.0, 0.0, 0.0])
        assert at(phi, x) == pytest.approx(4.0)
        assert np.allclose(phi.d_s(x), [4.0, 0.0, 0.0])

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_builtin_values_equal_point_values(self, rng, scale):
        # One values call over a stack of events gives, row by row, the
        # point value at each event alone and the formula of the kind's
        # expression text, summed left to right, bit for bit; rows sliced
        # from (..., 4) events are strided.
        f = [0.3, -1.2, 0.7]
        c = [0.2 * scale, -0.4 * scale, 1.0 * scale]
        refs = [
            (free_potential(), lambda q: 0.0),
            (uniform_potential(f),
             lambda q: -(f[0] * q[0] + f[1] * q[1] + f[2] * q[2])),
            (harmonic_potential(1.7, c),
             lambda q: 0.5 * 1.7 * ((q[0] - c[0]) ** 2 + (q[1] - c[1]) ** 2
                                    + (q[2] - c[2]) ** 2)),
        ]
        x = rng.normal(scale=scale, size=(4, 25, 4))
        for phi, ref in refs:
            got = phi.values(x[..., 0], x[..., 1:])
            assert got.shape == (4, 25)
            for index in np.ndindex(4, 25):
                assert got[index] == at(phi, x[index]) == \
                    ref(x[index][1:].tolist())

    def test_analytic_gradients_match_differences(self, rng):
        pots = [uniform_potential([0.3, -1.2, 0.7]),
                harmonic_potential(1.7, center=[0.2, -0.4, 1.0])]
        for phi in pots:
            for _ in range(50):
                coords = rng.normal(size=4)
                numeric = fd_gradient(
                    lambda c: at(phi, c), coords)
                analytic = phi.d(coords)
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
        got = -phi.force(t, q)
        assert got.shape == (8, 3)
        for row, coords in zip(got, q):
            ref = fd_gradient(lambda c: at(phi, [t, *c]), coords)
            assert np.all(np.abs(row - ref) <= 1e-8 * (1.0 + np.abs(ref)))
        assert np.array_equal(-phi.force(t, q[3]), got[3])

    @pytest.mark.parametrize("potential", [
        harmonic_potential(1.3, center=[0.2, -0.1, 0.4]),
        uniform_potential([0.3, -1.0, 0.5]),
        PotentialSpec("custom", expr="0.5*q1^2 + 0.25*q2^4 + sin(q3)").build(),
        PotentialSpec("custom", expr="(q1^2 + q2*q3)*(1 + 0.1*t) + cos(t)*q1").build(),
    ])
    def test_differential_rows_equal_single_events(self, rng, potential):
        # One force call and one time call over a stack of events at
        # different times give, row by row, exactly the differential taken
        # at each event alone.
        x = rng.normal(size=(3, 5, 4))
        got = potential.d(x)
        assert got.shape == x.shape
        for index in np.ndindex(3, 5):
            t, q1, q2, q3 = x[index].tolist()
            q = np.array([q1, q2, q3])
            dt = 0.0 if potential.time is None else float(potential.time(t, q))
            ds = potential.d_s(x[index])
            assert got[index].tolist() == [dt, *ds.tolist()]
            assert potential.d(x[index]).tolist() == got[index].tolist()

    @pytest.mark.parametrize("expr", [
        "0.5*q1^2 + 0.25*q2^4 + 0.1*q1*q3",
        "0.5*(q1^2+q2^2+q3^2)*(1+0.1*t)",
        "0.5*1.3*((q1-0.2)^2 + (q2+0.4)^2 + (q3-0.7)^2) + 0.1*(q1-0.2)^4"
        " + 0.3*sin(q2)*cos(q3) + 0.4*exp(-0.5*(q1^2 + q3^2))",
    ])
    def test_custom_point_values_equal_array_rows(self, rng, expr):
        # One evaluator: the value at an event alone, a row of at_events
        # and a row of one values call carry the same bits.
        phi = PotentialSpec("custom", expr=expr).build()
        x = rng.normal(scale=1.5, size=(1000, 4))
        rows = phi.values(x[:, 0], x[:, 1:])
        assert _bits(phi.at_events(x)).tolist() == _bits(rows).tolist()
        assert _bits(np.array([at(phi, row) for row in x])
                     ).tolist() == _bits(rows).tolist()

    def test_finite_value_through_an_infinite_intermediate(self):
        # numpy carries exp(-1/q1^2) to 0 at q1 = 0 through -inf, and every
        # evaluation keeps that finite value.
        phi = PotentialSpec("custom", expr="exp(-1/q1^2)").build()
        x = np.array([[0.5, 0.0, 1.0, -2.0]])
        assert at(phi, x[0]) == 0.0
        assert phi.at_events(x).tolist() == [0.0]
        assert phi.values(x[:, 0], x[:, 1:]).tolist() == [0.0]

    def test_force_through_an_infinite_intermediate_is_judged(self):
        # At q1 = 0 numpy's value of exp(-1/q1^2) is 0, but its exact force
        # is 0 * inf; the math table judges that point, where -1/q1^2
        # divides by zero, so integrating from there stops at step 1.
        phi = PotentialSpec("custom", expr="exp(-1/q1^2)").build()
        start = (np.array([0.0, 0.0, 1.0, -2.0]), np.zeros(3))
        assert at(phi, start[0]) == 0.0
        with pytest.raises(NonFiniteState,
                           match="ZeroDivisionError at step 1"):
            integrate(np.array([0.0, 0.0, 0.0]), 1.0, ID3, phi,
                      start, 1e-3, 10)

    @pytest.mark.parametrize("expr", ["0.5*q1^2 + sin(q2)*q3", "(-1)^0.5*q1"])
    def test_t_free_custom_potential_has_a_zero_time_derivative(self, rng,
                                                                expr):
        # No value is evaluated for the time column, which is +0.0 even
        # where the potential is NaN.
        phi = PotentialSpec("custom", expr=expr).build()
        assert phi.time is None
        dt = phi.d(rng.normal(size=(5, 4)))[:, 0]
        assert dt.tolist() == [0.0] * 5 and not np.signbit(dt).any()

    def test_force_is_required(self):
        with pytest.raises(TypeError):
            Potential(values=lambda t, q: np.zeros(np.shape(q)[:-1]))

    def test_one_event_keeps_the_scalar_error_contract(self):
        # The array evaluator gives inf at this finite event, so the scalar
        # evaluator judges it and raises instead of returning inf.
        x = np.zeros(4)
        with pytest.raises(ZeroDivisionError):
            PotentialSpec("custom", expr="1/q1").build().values(x[0], x[1:])

    def test_fd_fallback_when_no_gradient(self):
        # A custom potential has exact derivatives in space and in time:
        # no central difference remains.
        phi = PotentialSpec("custom", expr="q1^2 + 0.5*t").build()
        x = np.array([1.0, 3.0, 0.0, 0.0])
        assert np.allclose(phi.d_s(x), [6.0, 0.0, 0.0], atol=1e-8)
        assert phi.d(x)[0] == 0.5

    @pytest.mark.parametrize("kind", ["free", "uniform", "harmonic", "custom"])
    def test_force_kernels_equal_hand_formulas(self, rng, kind):
        # Each force kernel, with and without out, is its hand formula bit
        # for bit, and d_s and d negate it back to the
        # gradient formulas: positions at the center and with zeros of
        # either sign, a center and a force with signed-zero components.
        k, c = 1.7, np.array([0.2, -0.0, 0.0])
        f = np.array([0.3, 0.0, -0.0])
        t = np.linspace(-0.5, 0.5, 6)
        q = rng.normal(size=(6, 3))
        q[0] = c
        q[1] = [-0.0, 0.0, -0.0]
        q[2, 1:] = [0.0, -0.0]
        if kind == "custom":
            phi = PotentialSpec("custom", expr=(
                "0.5*q1^2 + 0.25*q2^4 + sin(t)*q3 + 0.1*q1*q3")).build()
            kernel = phi.force
            # the exact force in the operations the derivative rules build
            gradient = -np.stack([-q[:, 0] + (-0.1) * q[:, 2],
                                  -(q[:, 1] ** np.array(3.0)),
                                  -np.sin(t) + (-0.1) * q[:, 0]], axis=-1)
            dt = np.cos(t) * q[:, 2]
        else:
            phi = {"free": free_potential(), "uniform": uniform_potential(f),
                   "harmonic": harmonic_potential(k, c)}[kind]
            kernel = phi.force
            gradient = {"free": np.zeros(q.shape),
                        "uniform": -np.broadcast_to(f, q.shape),
                        "harmonic": k * (q - c)}[kind]
            dt = np.zeros(len(t))
        force = {"free": np.full(q.shape, -0.0),
                 "uniform": np.broadcast_to(f, q.shape),
                 "harmonic": -(k * (q - c)),
                 "custom": -gradient}[kind]
        for ts, qs, want in [(t, q, force), (t[0], q[0], force[0])]:
            assert _bits(kernel(ts, qs)).tolist() == _bits(want).tolist()
            out = np.empty(qs.shape)
            assert kernel(ts, qs, out) is out
            assert _bits(out).tolist() == _bits(want).tolist()
        assert _bits(phi.d_s(np.column_stack([t, q]))).tolist() == \
            _bits(gradient).tolist()
        assert _bits(phi.d(np.column_stack([t, q]))).tolist() == \
            _bits(np.column_stack([dt, gradient])).tolist()

    @pytest.mark.parametrize("q_shape", [(3,), (3, 3)])
    @pytest.mark.parametrize("kind, expr", [
        ("free", "0"),
        ("uniform", "-(0.3*q1 - 1.1*q2 + 0.6*q3)"),
        ("harmonic", "0.5*1.3*((q1-0.1)^2 + (q2+0.2)^2 + (q3-0.4)^2)"),
    ])
    def test_builtin_kernels_broadcast_t(self, rng, kind, expr, q_shape):
        # t broadcasts against q[..., 0], as for a custom kind, and each
        # row is the kernel at that one time.
        phi = GRID_POTENTIALS[kind]()
        other = compile_potential(expr)
        t, q = np.arange(3.0), rng.normal(size=q_shape)
        got_values, got_force = phi.values(t, q), phi.force(t, q)
        assert got_values.shape == other.values(t, q).shape == (3,)
        assert got_force.shape == other.force(t, q).shape == (3, 3)
        rows = np.broadcast_to(q, got_force.shape)
        for i, ti in enumerate(t.tolist()):
            assert got_values[i] == phi.values(ti, rows[i])
            assert _bits(got_force[i]).tolist() == \
                _bits(phi.force(ti, rows[i])).tolist()


class TestInhomogeneous:
    def test_lagrangian_rest_frame(self):
        w = np.array([1.0, 0.0, 0.0])
        val = lagrangian_inhom(E0, 1.0, ID3, 0.0, w)
        assert val == pytest.approx(0.5)

    def test_lagrangian_with_potential(self):
        w = np.array([3.0, 0.0, 0.0])
        phi = Potential(values=lambda t, q: np.ones(np.shape(q)[:-1]),
                        force=free_potential().force)
        val = lagrangian_inhom(E0, 2.0, ID3, at(phi, ORIGIN), w)
        assert val == pytest.approx(8.0)

    def test_lagrangian_lower_bound(self, rng):
        phi = harmonic_potential(1.3)
        for _ in range(50):
            u = random_frame(rng)
            w = random_frame(rng, scale=2.0)
            g = random_metric(rng)
            x = rng.normal(size=4)
            assert lagrangian_inhom(u, 1.5, g, at(phi, x), w) >= -at(phi, x)

    def test_legendre_rest_frame(self):
        w = np.array([3.0, 0.0, 0.0])
        assert np.array_equal(legendre_inhom(E0, 2.0, ID3, w),
                              [6.0, 0.0, 0.0])

    def test_legendre_moving_frame(self):
        u = np.array([1.0, 0.0, 0.0])
        w = np.array([1.0, 2.0, 0.0])
        assert np.array_equal(legendre_inhom(u, 1.0, ID3, w),
                              [0.0, 2.0, 0.0])

    def test_legendre_matches_velocity_derivative(self, rng):
        # Oracle: finite differences of the lagrangian in the velocity slot.
        phi = harmonic_potential(0.9)
        checked = 0
        for _ in range(50):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = rng.normal(size=4)
            ws = rng.uniform(-2.0, 2.0, size=3)
            numeric = fd_gradient(
                lambda s: lagrangian_inhom(u, m, g, at(phi, x), s), ws)
            analytic = legendre_inhom(u, m, g, ws)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) / scale <= 1e-6
            checked += 1
        assert checked == 50

    def test_hamiltonian_example(self):
        g = SpatialMetric.diagonal(2.0, 2.0, 2.0)
        val = energy(2.0, g, free_potential(), ORIGIN, [2.0, 0.0, 0.0])
        assert val == pytest.approx(0.5)

    def test_hamiltonian_legendre_inversion(self, rng):
        # h(x, legendre(w)) + l(x, w) should equal <p, w - u> (Legendre duality).
        phi = harmonic_potential(1.1)
        for _ in range(30):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = rng.normal(size=4)
            w = random_frame(rng, scale=2.0)
            p = legendre_inhom(u, m, g, w)
            lhs = energy(m, g, phi, x, p) + \
                lagrangian_inhom(u, m, g, at(phi, x), w)
            rhs = float(p @ (w - u))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    # integrate's rates, read from one step of h = 2^-27: the O(h^2) terms
    # of the step fall below the rounding of these states, so the
    # difference quotients are (xdot, pdot) exactly.
    @staticmethod
    def rates(u, m, g, phi, state):
        h = 2.0 ** -27
        traj = integrate(u, m, g, phi, state, h, 1)
        dt, dq, dp = (a[1] - a[0] for a in (traj.t, traj.q[:, 0], traj.p[:, 0]))
        return np.concatenate([[dt], dq]) / h, dp / h

    def test_vector_field_example(self):
        phi = harmonic_potential(1.0)
        state = (np.array([0.0, 1.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
        xdot, pdot = self.rates(E0, 1.0, ID3, phi, state)
        assert xdot.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert np.array_equal(pdot, [-1.0, 0.0, 0.0])

    def test_vector_field_moving_frame(self):
        u = np.array([0.0, 1.0, 0.0])
        state = (ORIGIN, [2.0, 0.0, 0.0])
        xdot, _ = self.rates(u, 2.0, ID3, free_potential(), state)
        assert xdot.tolist() == [1.0, 1.0, 1.0, 0.0]


class TestHomogeneous:
    def test_restriction_to_unit_slice(self, rng):
        phi = harmonic_potential(0.7)
        for _ in range(30):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = rng.normal(size=4)
            w = random_frame(rng, scale=2.0)
            hom = lagrangian_hom(u, m, g, at(phi, x),
                                 np.concatenate([[1.0], w]))
            inhom = lagrangian_inhom(u, m, g, at(phi, x), w)
            assert hom == pytest.approx(inhom, abs=1e-12)

    def test_worked_example(self):
        v = np.array([2.0, 2.0, 0.0, 0.0])
        val = lagrangian_hom(E0, 1.0, ID3, 0.0, v)
        assert val == pytest.approx(1.0)

    def test_degree_one_homogeneity(self, rng):
        phi = harmonic_potential(1.2)
        for _ in range(50):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = rng.normal(size=4)
            v = np.array([rng.uniform(0.4, 2.0), *rng.normal(size=3)])
            c = float(rng.uniform(0.1, 5.0))
            phi_x = at(phi, x)
            assert lagrangian_hom(u, m, g, phi_x, c * v) == pytest.approx(
                c * lagrangian_hom(u, m, g, phi_x, v), rel=1e-12)

    def test_rejects_past_directed(self):
        # The homogeneous kernels are undefined off the future cone, so the
        # membership test rejects such a velocity even where the momentum
        # and its rate are the kernels' own values there.
        phi = harmonic_potential(0.6)
        x = np.array([0.3, 0.2, -0.4, 0.1])
        dphi = phi.d(x)
        v = np.array([-1.0, 1.0, 0.0, 0.0])
        p = legendre_hom(E0, 1.0, ID3, at(phi, x), v)
        pdot = -v[0] * dphi
        viol = homogeneous_dynamics_violation_array(
            E0, 1.0, ID3, at(phi, x), dphi,
            np.stack([p, np.zeros(4)]),
            np.stack([v, np.array([0.0, 1.0, 0.0, 0.0])]),
            np.stack([pdot, np.zeros(4)]))
        assert viol.tolist() == [np.inf, np.inf]

    def test_legendre_hom_worked_example(self):
        p = legendre_hom(E0, 1.0, ID3, 0.0, np.array([1.0, 1.0, 0.0, 0.0]))
        assert p.tolist() == [-0.5, 1.0, 0.0, 0.0]

    def test_legendre_hom_scale_invariance(self, rng):
        phi = harmonic_potential(0.8)
        for _ in range(50):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = rng.normal(size=4)
            v = np.array([rng.uniform(0.4, 2.0), *rng.normal(size=3)])
            c = float(rng.uniform(0.2, 4.0))
            a = legendre_hom(u, m, g, at(phi, x), v)
            b = legendre_hom(u, m, g, at(phi, x), c * v)
            assert np.allclose(a, b, atol=1e-10 * (1.0 + np.max(np.abs(a))))

    def test_legendre_hom_matches_velocity_derivative(self, rng):
        # Oracle: finite differences of the homogeneous lagrangian in all
        # four velocity components.
        phi = uniform_potential([0.4, -0.2, 0.9])
        for _ in range(50):
            u = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = rng.normal(size=4)
            v = np.concatenate([[rng.uniform(0.5, 2.0)], rng.normal(size=3)])
            numeric = fd_gradient(
                lambda c: lagrangian_hom(u, m, g, at(phi, x), c), v)
            analytic = legendre_hom(u, m, g, at(phi, x), v)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) / scale <= 1e-6

    def test_mass_shell_residual_example(self):
        p = np.array([-0.5, 1.0, 0.0, 0.0])
        assert mass_shell_residual(E0, 1.0, ID3, 0.0, p) == 0.0

    def test_legendre_output_is_on_shell(self, rng):
        pots = [free_potential(), uniform_potential([1.0, 0.0, 0.0]),
                harmonic_potential(2.0)]
        for phi in pots:
            for _ in range(50):
                u = random_frame(rng)
                g = random_metric(rng)
                m = float(rng.uniform(0.5, 3.0))
                x = rng.normal(size=4)
                v = np.array([rng.uniform(0.3, 2.5), *rng.normal(size=3)])
                p = legendre_hom(u, m, g, at(phi, x), v)
                assert abs(mass_shell_residual(u, m, g, at(phi, x),
                                               p)) <= 1e-12

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
            x = rng.normal(size=4)
            v = np.array([rng.uniform(0.3, 2.0), *rng.normal(size=3)])
            lhs = lagrangian_hom(u, m, g, at(phi, x), v) - \
                lagrangian_hom(up, m, g, at(phi, x), v)
            rhs = m * pair(sigma(g, up, u), v)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        assert worst <= 1e-10


def free_violation(p, v) -> float:
    """The free particle's defect at the origin with zero momentum rate."""
    return float(homogeneous_dynamics_violation_array(
        E0, 1.0, ID3, 0.0, np.zeros(4), np.asarray(p), np.asarray(v),
        np.zeros(4)))


class TestMembershipAndBoost:
    def test_free_particle_state_is_member(self):
        assert free_violation([-0.5, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]) \
            <= 1e-12

    def test_time_reversed_state_is_rejected(self):
        assert not free_violation([-0.5, 1.0, 0.0, 0.0],
                                  [-1.0, -1.0, 0.0, 0.0]) <= 1e-12

    def test_wrong_momentum_is_rejected(self):
        assert not free_violation([-0.5, 2.0, 0.0, 0.0],
                                  [1.0, 1.0, 0.0, 0.0]) <= 1e-6

    def test_violation_scales_with_perturbation(self):
        v = np.array([1.0, 1.0, 0.0, 0.0])
        p = np.array([-0.5, 1.0 + 1e-4, 0.0, 0.0])
        zero = np.array([0.0, 0.0, 0.0, 0.0])
        viol = homogeneous_dynamics_violation_array(
            E0, 1.0, ID3, 0.0, np.zeros(4), p, v, zero)
        assert viol == pytest.approx(1e-4, rel=1e-6)

    def test_boost_worked_example(self):
        up = np.array([1.0, 0.0, 0.0])
        p = carried(up, E0, 1.0, ID3, np.zeros(4))
        assert p.tolist() == [-0.5, 1.0, 0.0, 0.0]

    def test_boost_preserves_shell_residual(self, rng):
        phi = harmonic_potential(1.6)
        for _ in range(100):
            u = random_frame(rng)
            up = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = rng.normal(size=4)
            p = rng.normal(size=4)
            q = carried(up, u, m, g, p)
            before = mass_shell_residual(up, m, g, at(phi, x), p)
            after = mass_shell_residual(u, m, g, at(phi, x), q)
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
            x = rng.normal(size=4)
            v = np.array([rng.uniform(0.3, 2.0), *rng.normal(size=3)])
            p_up = legendre_hom(up, m, g, at(phi, x), v)
            boosted = carried(up, u, m, g, p_up)
            p_u = legendre_hom(u, m, g, at(phi, x), v)
            assert np.allclose(boosted, p_u, atol=1e-12)

    def test_boosted_member_stays_member(self, rng):
        phi = harmonic_potential(0.9)
        for _ in range(50):
            u = random_frame(rng)
            up = random_frame(rng)
            g = random_metric(rng)
            m = float(rng.uniform(0.5, 3.0))
            x = rng.normal(size=4)
            v = np.array([float(rng.uniform(0.4, 2.0)), *rng.normal(size=3)])
            p = legendre_hom(up, m, g, at(phi, x), v)
            dphi = phi.d(x)
            q = carried(up, u, m, g, p)
            viol = homogeneous_dynamics_violation_array(
                np.stack([up, u]), m, g, at(phi, x), dphi, np.stack([p, q]),
                v, -v[0] * dphi)
            assert (viol <= 1e-10).all()


class TestIntegrate:
    def test_rejects_bad_arguments(self):
        init = (ORIGIN, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            integrate(E0, 1.0, ID3, free_potential(), init, 0.1, 0)
        with pytest.raises(ValueError):
            integrate(E0, 1.0, ID3, free_potential(), init, -0.1, 10)
        for m in (0.0, math.nan):
            with pytest.raises(ValueError, match="mass must be positive"):
                integrate(E0, m, ID3, free_potential(), init, 0.1, 10)
        with pytest.raises(ValueError, match="step count"):
            integrate(E0, 1.0, ID3, free_potential(), init, 0.1, True)
        with pytest.raises(ValueError):
            integrate([E0, E0], 1.0, ID3, free_potential(), stacked([init] * 3),
                      0.1, 10)

    @pytest.mark.parametrize("kind, one, stack", [
        ("harmonic", "7274d8cdfababb35", "b551f2893bb358ea"),
        ("custom", "b4c117b4267ae4e5", "abe9494c4d38277d"),
    ])
    def test_frame_shapes(self, kind, one, stack):
        # A (3,) frame, an (F, 3) stack and a list of (3,) rows give the
        # trajectory bits pinned here, on the step map and on the stage
        # loop.
        phi = harmonic_potential(1.3, (0.1, -0.2, 0.4)) if kind == "harmonic" \
            else PotentialSpec("custom",
                               expr="0.5*q1^2 + 0.25*q2^4 + sin(t)*q3").build()
        g = SpatialMetric(np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.1],
                                    [0.0, 0.1, 0.5]]))
        frames = np.array([[0.0, 0.0, 0.0], [0.5, -0.25, 1.0],
                           [-1.2, 0.4, 0.3]])
        x0 = np.array([0.2, 0.8, -0.4, 0.1])
        p0 = np.array([[0.3, -0.1, 0.6], [1.1, 0.2, -0.5], [-0.4, 0.9, 0.0]])

        def digest(u, p):
            traj = integrate(u, 0.7, g, phi, (x0, p), 0.01, 100)
            assert np.array_equal(traj.frames, np.reshape(u, (-1, 3)))
            assert not traj.frames.flags.writeable
            h = hashlib.sha256()
            for a in (traj.t, traj.q, traj.p):
                h.update(np.ascontiguousarray(a).tobytes())
            return h.hexdigest()[:16]

        assert digest(frames[1], p0[1]) == one
        assert digest(frames, p0) == digest(list(frames), p0) == stack

    @pytest.mark.parametrize("shape", [(2,), (3, 2), (0, 3), (1, 1, 3), ()])
    def test_rejects_a_frame_of_another_shape(self, shape):
        init = (ORIGIN, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="frames must be"):
            integrate(np.zeros(shape), 1.0, ID3, free_potential(), init,
                      0.1, 10)

    @pytest.mark.parametrize("n", [10, 3 * _FINITE_BLOCK + 5])
    def test_free_particle_linear_motion(self, n):
        init = (ORIGIN, [1.0, 0.0, 0.0])
        traj = integrate(E0, 1.0, ID3, free_potential(), init, 0.1, n)
        assert len(traj) == n + 1
        # identical accumulation, bit for bit
        assert np.array_equal(traj.q[:, 0, 0], traj.t)
        assert np.all(traj.p[:, 0] == [1.0, 0.0, 0.0])

    def test_time_advances_by_h(self):
        phi = harmonic_potential(1.0)
        init = (np.array([0.3, 1.0, 0.0, 0.0]), [0.0, 0.2, 0.0])
        h = 0.001
        traj = integrate(E0, 1.0, ID3, phi, init, h, 500)
        ts = traj.t
        dt = np.diff(ts)
        assert np.max(np.abs(dt - h)) <= 4e-16 * (1.0 + np.max(np.abs(ts)))

    def test_harmonic_oscillator_quarter_period(self):
        # Closed form: q1(t) = cos t, p1(t) = -sin t.
        phi = harmonic_potential(1.0)
        init = (np.array([0.0, 1.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
        n = 500
        h = (np.pi / 2.0) / n
        traj = integrate(E0, 1.0, ID3, phi, init, h, n)
        assert abs(traj.q[-1, 0, 0] - 0.0) <= 1e-9
        assert abs(traj.p[-1, 0, 0] - (-1.0)) <= 1e-9

    def test_harmonic_oscillator_energy_drift(self):
        phi = harmonic_potential(1.0)
        init = (np.array([0.0, 1.0, 0.0, 0.0]), [0.0, 0.3, 0.0])
        traj = integrate(E0, 1.0, ID3, phi, init, 1e-3, 2000)
        energies = traj.energies(ID3, phi)
        assert np.max(np.abs(energies - energies[0])) <= 1e-10

    def test_blowup_raises_non_finite(self):
        # Inverted quadratic potential: exponential runaway then overflow,
        # through the step map and through the stage loop.
        init = (np.array([0.0, 1.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
        for affine in (True, False):
            base = harmonic_potential(-1e6)
            phi = Potential(base.values, base.force, affine=affine)
            with pytest.raises(NonFiniteState) as info:
                integrate(E0, 1.0, ID3, phi, init, 0.01, 500)
            # The error names the first step whose state is not finite,
            # or, on the stage loop, whose force overflows where the
            # value's square does too: every step before it integrates
            # to a finite state.
            step = int(re.search(r"at step (\d+)", str(info.value))[1])
            assert step > 1
            traj = integrate(E0, 1.0, ID3, phi, init, 0.01, step - 1)
            assert np.isfinite(traj.q).all() and np.isfinite(traj.p).all()

    def test_trajectory_is_read_only(self):
        init = (ORIGIN, [1.0, 0.0, 0.0])
        traj = integrate([E0, E0], 1.0, ID3, free_potential(), init, 0.1, 3)
        for arr in (traj.t, traj.q, traj.p):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("kind", ["harmonic", "custom"])
    def test_energies_equal_per_step_hamiltonian(self, rng, kind):
        g = SpatialMetric(np.array([[2.0, 0.3, -0.4],
                                    [0.3, 1.5, 0.2],
                                    [-0.4, 0.2, 1.8]]))
        if kind == "harmonic":
            phi = harmonic_potential(1.3, (0.1, -0.2, 0.0))
        else:
            phi = PotentialSpec("custom", expr="0.5*q1^2 + 0.25*q2^4").build()
        u = random_frame(rng)
        init = (np.array([0.3, 0.8, -0.4, 0.2]), rng.normal(size=3))
        traj = integrate(u, 0.7, g, phi, init, 0.01, 100)
        # |p|^2 / 2m + phi(x), one step at a time
        ref = [0.5 / 0.7 * float(p @ g.apply_inverse(p)) + at(phi, [t, *q])
               for t, q, p in zip(traj.t.tolist(), traj.q[:, 0].tolist(),
                                  traj.p[:, 0])]
        assert traj.energies(g, phi).tolist() == ref

    def test_overflowing_potential_value_stops_the_energies(self):
        # The state stays finite, but at step 1 the kinetic energy and the
        # potential's value -<f, q> overflow to inf and -inf: the energy is
        # NaN, and the overflow prints no numpy warning.
        phi = uniform_potential([1e308, 1e308, 0.0])
        traj = integrate(E0, 1.0, ID3, phi, (ORIGIN, [1.0, 0.0, 0.0]),
                         1e-3, 5)
        with pytest.raises(NonFiniteState) as info:
            traj.energies(ID3, phi)
        assert str(info.value) == "energy nan is not finite at step 1"

    @pytest.mark.parametrize("n", [50, 2 * _FINITE_BLOCK + 22])
    @pytest.mark.parametrize("metric", ["identity", "random"])
    @pytest.mark.parametrize("kind", ["harmonic", "linear", "custom"])
    def test_batched_equals_single_frame_calls(self, rng, metric, kind, n):
        g = ID3 if metric == "identity" else random_metric(rng)
        if kind == "harmonic":
            phi = harmonic_potential(1.3, (0.1, -0.2, 0.0))
        elif kind == "linear":
            phi = _linear_force()
        else:  # the array evaluator's finite-difference gradient
            phi = PotentialSpec(
                "custom", expr="0.5*q1^2 + 0.25*q2^4 + 0.1*q1*q3").build()
        frames = [random_frame(rng, scale=1.5) for _ in range(4)]
        x0 = np.array([0.3, 0.8, -0.4, 0.2])
        inits = [(x0, rng.normal(size=3)) for _ in frames]
        batched = integrate(frames, 1.2, g, phi, stacked(inits), 0.01, n)
        assert batched.q.shape == batched.p.shape == (n + 1, 4, 3)
        for f, (u, init) in enumerate(zip(frames, inits)):
            single = integrate(u, 1.2, g, phi, init, 0.01, n)
            assert np.array_equal(batched.t, single.t)
            assert np.array_equal(batched.q[:, f], single.q[:, 0])
            assert np.array_equal(batched.p[:, f], single.p[:, 0])

    def test_initial_pair_shapes(self):
        # One event and one momentum per frame, or one for every frame.
        phi = harmonic_potential(1.0)
        p = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        shared = integrate([E0, E0], 1.0, ID3, phi, (ORIGIN, p), 0.1, 5)
        rows = integrate([E0, E0], 1.0, ID3, phi,
                         (np.stack([ORIGIN, ORIGIN]), p), 0.1, 5)
        assert np.array_equal(shared.q, rows.q)
        for bad in ((ORIGIN[1:], p[0]), (ORIGIN, np.zeros(4)),
                    (np.stack([ORIGIN] * 3), p), (ORIGIN, p[:, :2])):
            with pytest.raises(ValueError, match="one initial state"):
                integrate([E0, E0] if np.ndim(bad[1]) == 2 else E0, 1.0, ID3,
                          phi, bad, 0.1, 5)

    def test_batched_start_times_must_match(self):
        inits = [(ORIGIN, [1.0, 0.0, 0.0]),
                 (np.array([0.1, 0.0, 0.0, 0.0]), [1.0, 0.0, 0.0])]
        with pytest.raises(ValueError, match="start time"):
            integrate([E0, E0], 1.0, ID3, free_potential(), stacked(inits),
                      0.1, 10)

    def test_csv_export_shape_and_precision(self):
        init = (ORIGIN, [1.0, 0.0, 0.0])
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


def reference_integrate(frames, m, g, potential, start, h, n):
    """The RK4 loop one step at a time, each temporary a fresh array and
    the finiteness tested after every step: (ts, ys) or NonFiniteState."""
    u_s = np.array(frames)
    x, p = start
    t = float(x[0, 0])
    ts = np.empty(n + 1)
    ys = np.empty((n + 1, 2, len(frames), 3))
    ts[0] = t
    ys[0, 0], ys[0, 1] = x[:, 1:], p
    y = ys[0]
    k1, k2, k3, k4, stage = (np.empty(y.shape) for _ in range(5))

    def rates(t, y, k):
        np.add(g.apply_inverse(y[1]) / m, u_s, out=k[0])
        k[1][...] = potential.force(t, y[0])

    step = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(n):
                rates(t, y, k1)
                rates(t + 0.5 * h, np.add(y, 0.5 * h * k1, out=stage), k2)
                rates(t + 0.5 * h, np.add(y, 0.5 * h * k2, out=stage), k3)
                rates(t + h, np.add(y, h * k3, out=stage), k4)
                y = np.add(y, h * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0),
                           out=ys[step + 1])
                t = t + h * 1.0
                if not (math.isfinite(t) and np.isfinite(y).all()):
                    raise NonFiniteState(
                        f"state became non-finite at step {step + 1}")
                ts[step + 1] = t
    except ArithmeticError as exc:
        raise NonFiniteState(
            f"potential raised {type(exc).__name__} at step {step + 1}: "
            f"{exc}") from exc
    return ts, ys


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _message(fn, *args):
    """The NonFiniteState message of fn(*args), or None if it returns."""
    try:
        fn(*args)
    except NonFiniteState as exc:
        return str(exc)
    return None


def _step_gradient(schedule):
    """A potential whose gradient is 0 up to the first time in schedule,
    then what the last entry passed says: a float fills the gradient, an
    exception class is raised.  Its force kernel writes the negated
    gradient."""
    def force(t, q, out=None):
        value = 0.0
        for start, what in schedule:
            if t > start:
                value = what
        if isinstance(value, type):
            raise value(f"raised at t={t}")
        if out is None:
            out = np.empty(np.shape(q))
        out[...] = -value
        return out

    return Potential(values=lambda t, q: np.zeros(np.shape(q)[:-1]),
                     force=force)


def _grid_args(rng, phi, metric, frames, n):
    """integrate's arguments on the grid of TestIntegrateBits."""
    g = ID3 if metric == "identity" else random_metric(rng)
    us = [random_frame(rng, scale=1.5) for _ in range(frames)]
    x0 = np.array([0.37, 0.8, -0.4, 0.2])
    inits = [(x0, rng.normal(size=3)) for _ in us]
    return us, 0.7, g, phi, stacked(inits), 0.013, n


def _linear_force() -> Potential:
    """An affine force f0 - A q whose Jacobian is neither isotropic nor
    symmetric, so each entry of the step map's K lands in its own place.
    Its values are not the potential of that force."""
    a = np.array([[1.3, 0.4, -0.2], [-0.1, 0.9, 0.3], [0.5, 0.0, 2.1]])
    f0 = np.array([0.2, -0.7, 0.1])
    return Potential(values=lambda t, q: np.zeros(np.shape(q)[:-1]),
                     force=lambda t, q, out=None: np.subtract(
                         f0, np.matvec(a, q), out),
                     affine=True)


# The custom_field potential of benchmark seed 1, through powers, sin, cos
# and exp.
CUSTOM_FIELD = (
    "0.5*0.9978*((q1-(0.2238))^2+(q2-(0.0153))^2+(q3-(-0.6874))^2)"
    " + 0.1706*(q1-(0.2238))^4 + 0.1057*sin(q2)*cos(q3)"
    " + 0.2307*exp(-0.5*(q1^2+q3^2))")

# Compiled forces that raise or overflow inside a step: (expr, h, the
# stderr line of `galimech simulate` from the stock start at the origin).
HOSTILE = [
    ("q1^-1", 1e-3, "integration diverged: potential raised "
     "ZeroDivisionError at step 1: 0.0 cannot be raised to a negative power"),
    # a finite force whose stage sums overflow
    ("1e308*q1*q1*q1", 1e-3,
     "integration diverged: state became non-finite at step 1"),
    # a division by zero at an exact stage time, t = 2, in mid-block
    ("q1/(t-2)", 0.25, "integration diverged: potential raised "
     "ZeroDivisionError at step 8: float division by zero"),
]

# A custom expression whose force is affine in q, with a cross term, so
# each off-diagonal entry of the step map's K is its own.
CUSTOM_AFFINE = "0.5*q1^2 + 0.7*(q2-0.3)^2 + 0.4*q1*q3 - q2/4 + exp(0)*q3"

GRID_POTENTIALS = {
    "free": free_potential,
    "uniform": lambda: uniform_potential([0.3, -1.1, 0.6]),
    "harmonic": lambda: harmonic_potential(1.3, (0.1, -0.2, 0.4)),
    "linear": _linear_force,
    "custom_affine": lambda: PotentialSpec("custom",
                                           expr=CUSTOM_AFFINE).build(),
    "custom": lambda: PotentialSpec("custom", expr=(
        "0.5*q1^2 + 0.25*q2^4 + sin(t)*q3 + 0.1*q1*q3")).build(),
    "custom_field": lambda: PotentialSpec("custom", expr=CUSTOM_FIELD).build(),
}


def _spied(phi: Potential) -> tuple[Potential, list]:
    """phi with a force that notes the time of each per-call entry, and
    binds as phi's force does; and the list of those times."""
    calls = []

    def force(t, q, out=None):
        calls.append(t)
        return phi.force(t, q, out)

    force.bind = phi.force.bind
    return Potential(phi.values, force, phi.time), calls


class TestIntegrateBits:
    """The stage loop against reference_integrate, bit for bit.  The
    built-in kinds are affine and would take the step map, so they run
    here with the flag cleared."""

    @pytest.mark.parametrize("n", [1, 2 * _FINITE_BLOCK + 22])
    @pytest.mark.parametrize("frames", [1, 8])
    @pytest.mark.parametrize("metric", ["identity", "spd"])
    @pytest.mark.parametrize("kind", ["free", "uniform", "harmonic", "custom",
                                      "custom_field"])
    def test_trajectory_bits(self, rng, kind, metric, frames, n):
        phi = GRID_POTENTIALS[kind]()
        phi = Potential(phi.values, phi.force, phi.time, affine=False)
        args = _grid_args(rng, phi, metric, frames, n)
        ts, ys = reference_integrate(*args)
        traj = integrate(*args)
        assert np.array_equal(_bits(traj.t), _bits(ts))
        assert np.array_equal(_bits(traj.q), _bits(ys[:, 0]))
        assert np.array_equal(_bits(traj.p), _bits(ys[:, 1]))

    @pytest.mark.parametrize("metric", ["identity", "spd"])
    @pytest.mark.parametrize("kind", ["free", "uniform", "harmonic"])
    def test_signed_zero_bits(self, rng, kind, metric):
        # Starts, frames, centers and force components of either sign of
        # zero, with the harmonic start at its center: every stage sum
        # that cancels to zero keeps the reference's sign.
        phi = {
            "free": free_potential(),
            "uniform": uniform_potential([0.0, -0.0, 0.5]),
            "harmonic": harmonic_potential(1.3, (-0.0, 0.0, 0.4)),
        }[kind]
        phi = Potential(phi.values, phi.force, affine=False)
        g = ID3 if metric == "identity" else random_metric(rng)
        zeros = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]]
        us = np.array(zeros)
        inits = [([0.0, *q], p)
                 for q, p in zip([[-0.0, 0.0, 0.4], [0.0, -0.0, 0.4],
                                  [-0.0, -0.0, -0.0]], zeros[::-1])]
        args = (us, 0.7, g, phi, stacked(inits), 0.013, 5)
        ts, ys = reference_integrate(*args)
        traj = integrate(*args)
        assert np.array_equal(_bits(traj.t), _bits(ts))
        assert np.array_equal(_bits(traj.q), _bits(ys[:, 0]))
        assert np.array_equal(_bits(traj.p), _bits(ys[:, 1]))

    @pytest.mark.parametrize("schedule", [
        # blow-up in mid-block, and at the last step of a block
        [(40.25, np.inf)],
        [(2 * _FINITE_BLOCK - 0.75, np.inf)],
        # at the first step of a block, and at the very first step
        [(_FINITE_BLOCK + 0.25, np.nan)],
        [(0.25, np.inf)],
        # an ArithmeticError after the state went non-finite earlier in
        # the same block: the earlier step wins
        [(70.25, np.inf), (75.5, ZeroDivisionError)],
        [(70.25, np.inf), (_FINITE_BLOCK * 2 - 0.5, OverflowError)],
        # and another error after the state went non-finite
        [(70.25, np.nan), (72.5, ValueError)],
        # an ArithmeticError alone, mid-block and at a block's last step
        [(90.5, ZeroDivisionError)],
        [(_FINITE_BLOCK - 0.75, FloatingPointError)],
    ])
    @pytest.mark.parametrize("frames", [1, 8])
    def test_names_the_same_step(self, schedule, frames):
        # Step k runs its stages at times k, k + 1/2 and k + 1 (h = 1).
        phi = _step_gradient(schedule)
        us = [np.array([0.1 * f, 0.0, 0.0]) for f in range(frames)]
        inits = stacked([(ORIGIN, [1.0, 0.0, 0.0]) for _ in us])
        args = (us, 0.7, ID3, phi, inits, 1.0, 3 * _FINITE_BLOCK + 5)
        want = _message(reference_integrate, *args)
        assert want is not None and _message(integrate, *args) == want

    def test_wide_stack_bits(self, rng):
        # 64 frames take the metric's batched products.
        args = _grid_args(rng, GRID_POTENTIALS["custom_field"](), "spd", 64,
                          2 * _FINITE_BLOCK + 22)
        ts, ys = reference_integrate(*args)
        traj = integrate(*args)
        assert np.array_equal(_bits(traj.q), _bits(ys[:, 0]))
        assert np.array_equal(_bits(traj.p), _bits(ys[:, 1]))

    def test_a_finite_run_never_calls_the_force(self, rng):
        # A compiled force runs through its bound schedule; its per-call
        # entry runs only to redo a step that raised, with t a float.
        phi = GRID_POTENTIALS["custom_field"]()
        args = _grid_args(rng, phi, "spd", 8, 2 * _FINITE_BLOCK + 22)
        ts, ys = reference_integrate(*args)
        spy, calls = _spied(phi)
        traj = integrate(*args[:3], spy, *args[4:])
        assert calls == []
        assert np.array_equal(_bits(traj.q), _bits(ys[:, 0]))
        assert np.array_equal(_bits(traj.p), _bits(ys[:, 1]))
        spy, calls = _spied(PotentialSpec("custom", expr="q1^-1").build())
        with pytest.raises(NonFiniteState, match="ZeroDivisionError"):
            integrate(E0, 1.0, ID3, spy, (ORIGIN, [1.0, 0.0, 0.0]), 1e-3, 5)
        assert calls == [0.0]
        assert type(calls[0]) is float

    @pytest.mark.parametrize("frames", [1, 8])
    @pytest.mark.parametrize("expr, h, line", HOSTILE)
    def test_compiled_force_errors_name_the_same_step(self, expr, h, line,
                                                      frames):
        phi = PotentialSpec("custom", expr=expr).build()
        us = np.array([[0.1 * f, 0.0, 0.0] for f in range(frames)])
        ps = legendre_inhom(us, 1.0, ID3, np.array([1.0, 0.0, 0.0]))
        args = (us, 1.0, ID3, phi, stacked([(ORIGIN, p) for p in ps]), h, 40)
        want = _message(reference_integrate, *args)
        assert _message(integrate, *args) == want == \
            line.removeprefix("integration diverged: ")

    @pytest.mark.parametrize("expr, h, line", HOSTILE)
    def test_compiled_force_errors_exit_3(self, tmp_path, capsys, expr, h,
                                          line):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "potential": {"kind": "custom", "expr": expr}, "h": h, "n": 40}))
        out = tmp_path / "never.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    def test_time_column_overflow_is_named(self):
        # t passes the largest float at step 10, long before q does, on
        # the step map as on the stage loop.
        init = (np.array([1.7e308, 0.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
        for affine in (True, False):
            base = free_potential()
            phi = Potential(base.values, base.force, affine=affine)
            args = ([E0], 0.7, ID3, phi, stacked([init]), 1e306, 200)
            want = _message(reference_integrate, *args)
            assert _message(integrate, *args) == want == \
                "state became non-finite at step 10"


class TestStepMap:
    """The step map of the affine potentials against reference_integrate.
    It sums RK4's four stages in another order, so it is held to a bound
    fixed from the dtype: |delta| <= 16 n eps (1 + max |y_ref|)."""

    @pytest.mark.parametrize("n", [1, _FINITE_BLOCK - 1, _FINITE_BLOCK,
                                   _FINITE_BLOCK + 1, 2 * _FINITE_BLOCK + 22])
    @pytest.mark.parametrize("frames", [1, 8])
    @pytest.mark.parametrize("metric", ["identity", "spd"])
    @pytest.mark.parametrize("kind", ["free", "uniform", "harmonic", "linear",
                                      "custom_affine"])
    def test_tracks_the_stage_loop(self, rng, kind, metric, frames, n):
        phi = GRID_POTENTIALS[kind]()
        assert phi.affine
        args = _grid_args(rng, phi, metric, frames, n)
        ts, ys = reference_integrate(*args)
        traj = integrate(*args)
        assert np.array_equal(_bits(traj.t), _bits(ts))
        bound = 16 * n * np.finfo(float).eps * (1.0 + np.max(np.abs(ys)))
        assert np.max(np.abs(traj.q - ys[:, 0])) <= bound
        assert np.max(np.abs(traj.p - ys[:, 1])) <= bound

    def test_affine_custom_potential_takes_the_step_map(self, monkeypatch):
        phi = PotentialSpec("custom", expr="0.5*q1^2").build()
        assert phi.affine
        step_map, maps = frame_dynamics._step_map_steps, []

        def counted(*args):
            maps.append(args)
            return step_map(*args)

        monkeypatch.setattr(frame_dynamics, "_step_map_steps", counted)
        integrate(E0, 1.0, ID3, phi, (ORIGIN, [1.0, 0.0, 0.0]), 0.1, 5)
        assert len(maps) == 1

    @pytest.mark.parametrize("metric", ["identity", "spd"])
    def test_custom_text_of_a_harmonic_spec_gives_its_bits(self, rng, metric):
        # Two compiles of one text, the second under the custom kind: the
        # same step map, so the same trajectory, and within the bound
        # of the stage loop.
        spec = PotentialSpec("harmonic", k=1.3, center=(0.1, -0.2, 0.4))
        harmonic = spec.build()
        compile_potential.cache_clear()
        custom = PotentialSpec("custom", expr=spec.text).build()
        assert custom is not harmonic and custom.affine
        n = 2 * _FINITE_BLOCK + 22
        args = _grid_args(rng, harmonic, metric, 8, n)
        want = integrate(*args)
        got = integrate(*args[:3], custom, *args[4:])
        for a, b in ((got.q, want.q), (got.p, want.p)):
            assert np.array_equal(_bits(a), _bits(b))
        ts, ys = reference_integrate(*args[:3], custom, *args[4:])
        bound = 16 * n * np.finfo(float).eps * (1.0 + np.max(np.abs(ys)))
        assert np.max(np.abs(got.q - ys[:, 0])) <= bound
        assert np.max(np.abs(got.p - ys[:, 1])) <= bound

    def test_affine_potential_has_no_time_kernel(self):
        phi = free_potential()
        with pytest.raises(ValueError, match="time"):
            Potential(values=phi.values, force=phi.force,
                      time=lambda t, q: np.zeros(np.shape(q)[:-1]),
                      affine=True)


def _per_step_map_steps(ys, t, u_s, m, g, potential, h):
    """The step map one step at a time, as before it advanced by blocks,
    kept here as the reference: each step one stacked matvec and one
    add."""
    frames = len(u_s)
    f = potential.force(t, _PROBE)
    x = np.zeros((6, 6))
    x[:3, 3:] = g.apply_inverse(_PROBE[1:]).T * (h / m)
    x[3:, :3] = (f[1:] - f[0]).T * h
    # [D | c_u] for every frame, acting on (q, p, 1).
    a = np.empty((frames, 6, 7))
    a[:, :, :6] = x @ (_EYE6 + x @ (_EYE6_2 + x @ (_EYE6_6 + x / 24.0)))
    hb = np.concatenate([u_s, np.broadcast_to(f[0], u_s.shape)], axis=1) * h
    c = hb / 24.0
    for k in (6.0, 2.0, 1.0):
        c = hb / k + np.matvec(x, c)
    a[:, :, 6] = c
    # One block of states as (q, p, 1) per frame, and the same states in
    # the layout of ys; the block starts from the last state stored.  The
    # views each step reads and writes are taken once per call.
    z = np.empty((min(_FINITE_BLOCK, len(ys) - 1) + 1, frames, 7))
    z[..., 6] = 1.0
    zy = z[..., :6]
    zys = zy.reshape(-1, frames, 2, 3, copy=False).transpose(0, 2, 1, 3)
    dz = np.empty((frames, 6))
    rows = list(zip(z, zy, zy[1:]))

    def advance(start: int, stop: int) -> None:
        steps = stop - start
        zys[0] = ys[start]
        for zk, yk, yk1 in rows[:steps]:
            np.add(yk, np.matvec(a, zk, out=dz), yk1)
        ys[start + 1:stop + 1] = zys[1:steps + 1]

    return advance


class TestBlockOverflow:
    """A block of the step map whose powers overflow where its states do
    not is redone one step at a time, so every run ends as the per-step
    map ends."""

    @pytest.mark.parametrize("k, q1, ending", [
        (-1e10, 1e-290, "state became non-finite at step 90"),
        (-1e10, 1.0, "state became non-finite at step 46"),
        (-1e4, 1.0, None),
    ])
    def test_ends_as_the_per_step_map(self, tmp_path, capsys, monkeypatch,
                                      k, q1, ending):
        # At k = -1e10 the 47-step power overflows, far before the state
        # at q1 = 1e-290 does.
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "potential": {"kind": "harmonic", "k": k},
            "initial_event": [0, q1, 0, 0], "initial_velocity": [0, 0, 0],
            "h": 0.001, "n": 400}))
        runs = []
        for step_map in (frame_dynamics._step_map_steps, _per_step_map_steps):
            monkeypatch.setattr(frame_dynamics, "_step_map_steps", step_map)
            out = tmp_path / f"{step_map.__name__}.csv"
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
            runs.append((code, capsys.readouterr().err, out))
        (code, err, out), (want_code, want_err, want_out) = runs
        assert (code, err) == (want_code, want_err)
        if ending is not None:
            assert (code, err) == (3, f"integration diverged: {ending}\n")
            return
        assert code == 0
        got, want = (np.loadtxt(path, delimiter=",", skiprows=1)[:, 2:8]
                     for path in (out, want_out))
        # each map within TestStepMap's bound of the stage loop
        bound = 32 * 400 * np.finfo(float).eps * (1.0 + np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= bound

    def test_a_frame_redone_alone_keeps_the_others_bits(self, monkeypatch):
        # The second frame's block overflows in its predictions, not in its
        # states, and is redone one step at a time; the first frame keeps
        # the block's states.  Each has the bits it gets alone.
        phi = harmonic_potential(1.0)
        inits = [([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
                 ([0.0, 1e308, 0.0, 0.0], [0.0, 1e308, 0.0])]
        args = ([E0, E0], 1.0, ID3, phi, stacked(inits), 0.05, _FINITE_BLOCK)
        batched = integrate(*args)
        singles = [integrate(E0, *args[1:4], init, *args[5:])
                   for init in inits]
        monkeypatch.setattr(frame_dynamics, "_FINITE_BLOCK", 1)
        stepped = integrate(*args)
        for f, single in enumerate(singles):
            for got, want in ((batched.q[:, f], single.q[:, 0]),
                              (batched.p[:, f], single.p[:, 0])):
                assert np.isfinite(got).all()
                assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(batched.q[:, 1]), _bits(stepped.q[:, 1]))
        assert not np.array_equal(batched.q[:, 0], stepped.q[:, 0])
