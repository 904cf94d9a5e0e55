import math

import numpy as np
import pytest

from galimech.galilean_core import (
    Covector4,
    DomainError,
    Event,
    Frame,
    SpatialMetric,
    Vector4,
    iota_u,
)
from galimech.frame_dynamics import (
    free_potential,
    harmonic_potential,
    legendre_hom,
    mass_shell_residual,
    uniform_potential,
)
from galimech.generating_objects import (
    CriticalPoint,
    FunctionFamily,
    GeneratedCovector,
    NoConvergence,
    NotCritical,
    SectionNotUnique,
    base_gradient,
    family_example31,
    family_fam1,
    family_fam2,
    fiber_gradient,
    generate,
    hessian,
    is_morse,
    kappa,
    numerical_rank,
    reduce_family,
    solve_critical,
    state_to_base,
    vector_to_fiber,
    write_covectors_csv,
)

E0 = Frame.from_spatial([0.0, 0.0, 0.0])
ID3 = SpatialMetric.identity()
ORIGIN = Event(0.0, 0.0, 0.0, 0.0)


def saddle_family(with_gradient: bool) -> FunctionFamily:
    """F(x, s) = x s - s^2 / 2: critical set s = x, generated covector x."""

    def value(base, fiber):
        return float(base[0] * fiber[0] - 0.5 * fiber[0] ** 2)

    grad = None
    if with_gradient:
        def grad(base, fiber):
            return fiber[..., :1], base[..., :1] - fiber[..., :1]

    return FunctionFamily(1, 1, value, grad, name="saddle")


class TestGradients:
    @pytest.mark.parametrize("analytic", [True, False])
    def test_fiber_gradient_example(self, analytic):
        fam = saddle_family(analytic)
        g = fiber_gradient(fam, [1.0], [1.0])
        assert np.allclose(g, [0.0], atol=1e-9)
        g = fiber_gradient(fam, [2.0], [0.5])
        assert np.allclose(g, [1.5], atol=1e-9)

    def test_fd_matches_analytic(self, rng):
        with_g = saddle_family(True)
        without_g = saddle_family(False)
        for _ in range(20):
            b = rng.normal(size=1)
            f = rng.normal(size=1)
            assert np.allclose(fiber_gradient(with_g, b, f),
                               fiber_gradient(without_g, b, f), atol=1e-8)
            assert np.allclose(base_gradient(with_g, b, f),
                               base_gradient(without_g, b, f), atol=1e-8)


class TestSolveCritical:
    def test_saddle_solution(self):
        fam = saddle_family(True)
        pts = solve_critical(fam, [2.0], seeds=[[0.0]], tol=1e-12)
        assert len(pts) == 1
        assert pts[0].fiber[0] == pytest.approx(2.0, abs=1e-10)
        assert pts[0].residual_norm <= 1e-12

    def test_no_critical_point_gives_empty_list(self):
        fam = FunctionFamily(1, 1, lambda b, f: float(f[0]),
                             lambda b, f: (np.zeros_like(b), np.ones_like(f)),
                             name="slope")
        assert solve_critical(fam, [0.0], seeds=[[0.0], [5.0]]) == []

    def test_duplicate_solutions_are_merged(self):
        # F = (s^2 - 1)^2 / 4 has stationary fiber points -1, 0, +1.
        fam = FunctionFamily(
            1, 1,
            lambda b, f: 0.25 * float((f[0] ** 2 - 1.0) ** 2),
            lambda b, f: (np.zeros_like(b), f ** 3 - f),
            name="quartic")
        pts = solve_critical(fam, [0.0], seeds=[[-1.1], [-0.9], [1.2]],
                             tol=1e-12)
        values = sorted(p.fiber[0] for p in pts)
        assert len(pts) == 2
        assert values[0] == pytest.approx(-1.0, abs=1e-10)
        assert values[1] == pytest.approx(1.0, abs=1e-10)


class TestDomain:
    def test_non_finite_start_is_a_domain_error(self):
        # Not a rejected seed: an empty result would let a rank check pass
        # over no points.
        fam = FunctionFamily(1, 1, lambda b, f: math.nan,
                             lambda b, f: (np.zeros_like(b), np.full_like(f, np.nan)),
                             name="nowhere")
        with pytest.raises(DomainError, match="nowhere"):
            solve_critical(fam, [0.0], seeds=[[0.0]])

    def test_non_finite_hessian_has_nan_rank(self):
        fam = FunctionFamily(1, 1, lambda b, f: 0.0,
                             lambda b, f: (np.zeros_like(b), np.where(b > 0.5, np.inf, f)),
                             name="edge")
        points = [CriticalPoint(np.array([x]), np.array([0.0])) for x in (0.0, 1.0)]
        report = is_morse(fam, points)
        assert report.ranks[0] == 1 and math.isnan(report.ranks[1])
        assert not report.ok
        assert math.isnan(numerical_rank(np.array([[1.0, np.nan]])))

    def test_past_directed_velocity_leaves_the_domain(self):
        fam = family_fam1(E0, 1.0, ID3, free_potential())
        base = np.zeros(8)
        gb, gf = fam.gradient(np.stack([base, base]),
                              np.array([[0.1, 0.0, 0.0, 1.0], [0.1, 0.0, 0.0, -1.0]]))
        assert np.isfinite(gb[0]).all() and np.isfinite(gf[0]).all()
        assert np.isnan(gb[1]).all() and np.isnan(gf[1]).all()


class TestHessian:
    def test_parabola(self):
        fam = FunctionFamily(1, 1, lambda b, f: float(f[0] ** 2),
                             name="parabola")
        h = hessian(fam, CriticalPoint(np.array([0.0]), np.array([0.0])))
        assert np.allclose(h, [[0.0, 2.0]], atol=1e-7)

    def test_saddle_both_paths(self):
        for analytic in (True, False):
            fam = saddle_family(analytic)
            h = hessian(fam, CriticalPoint(np.array([1.0]), np.array([1.0])))
            assert np.allclose(h, [[1.0, -1.0]], atol=1e-7)

    def test_fiber_block_symmetry(self, rng):
        # Two-dimensional fiber with crossing terms.
        def value(b, f):
            return float(b[0] * f[0] + f[0] * f[1] + f[1] ** 3 / 3.0)
        fam = FunctionFamily(1, 2, value, name="crossed")
        pt = CriticalPoint(rng.normal(size=1), rng.normal(size=2))
        h = hessian(fam, pt)
        fiber_block = h[:, 1:]
        assert np.max(np.abs(fiber_block - fiber_block.T)) <= 1e-6


class TestMorse:
    def test_degenerate_fiber_saved_by_base_coupling(self):
        fam = FunctionFamily(
            1, 1, lambda b, f: float(f[0] ** 4 - b[0] * f[0]),
            lambda b, f: (-f, 4 * f ** 3 - b),
            name="quartic-coupled")
        pt = CriticalPoint(np.array([0.0]), np.array([0.0]))
        report = is_morse(fam, [pt])
        assert report.ok and report.ranks == (1,)

    def test_cubic_fails(self):
        fam = FunctionFamily(
            1, 1, lambda b, f: float(f[0] ** 3),
            lambda b, f: (np.zeros_like(b), 3 * f ** 2),
            name="cubic")
        pt = CriticalPoint(np.array([0.0]), np.array([0.0]))
        report = is_morse(fam, [pt])
        assert not report.ok and report.ranks == (0,)

    def test_numerical_rank_threshold(self):
        m = np.diag([1.0, 1e-7, 1e-9])
        assert numerical_rank(m, rel_tol=1e-8) == 2


class TestKappa:
    def test_pullback_of_base_function(self):
        # No fiber dependence: every fiber point is critical and the
        # covector is the plain differential of the base function.
        def value(b, f):
            return float(np.sin(b[0]) + b[1] ** 2)
        fam = FunctionFamily(2, 1, value, name="pullback")
        pt = CriticalPoint(np.array([0.3, -1.2]), np.array([7.0]))
        out = kappa(fam, pt)
        assert np.allclose(out.covector, [np.cos(0.3), -2.4], atol=1e-8)

    def test_rejects_non_critical(self):
        fam = saddle_family(True)
        with pytest.raises(NotCritical):
            kappa(fam, CriticalPoint(np.array([2.0]), np.array([0.0])))

    def test_lift_independence(self, rng):
        # <dF, lift> must not depend on the vertical part of the lift at a
        # critical point: compare two lifts directly through the gradient.
        fam = saddle_family(True)
        base = np.array([1.3])
        pt = solve_critical(fam, base, seeds=[[0.0]], tol=1e-13)[0]
        gb = base_gradient(fam, pt.base, pt.fiber)
        gf = fiber_gradient(fam, pt.base, pt.fiber)
        for _ in range(10):
            direction = rng.normal(size=1)
            vertical_a = rng.normal(size=1)
            vertical_b = rng.normal(size=1)
            val_a = float(gb @ direction + gf @ vertical_a)
            val_b = float(gb @ direction + gf @ vertical_b)
            assert val_a == pytest.approx(val_b, abs=1e-11)

    def test_scan_oracle(self):
        # Independent route: scan the fiber for the stationary point, then
        # difference the value in the base direction there.
        fam = saddle_family(False)
        base = np.array([0.8])
        grid = np.linspace(-3.0, 3.0, 60001)
        vals = np.abs(grid * 0.0 + base[0] - grid)  # d/ds (xs - s^2/2) = x - s
        s_star = grid[np.argmin(vals)]
        h = 1e-6
        expected = (fam.value(base + h, [s_star]) -
                    fam.value(base - h, [s_star])) / (2 * h)
        pts = solve_critical(fam, base, seeds=[[0.0]], tol=1e-10)
        out = kappa(fam, pts[0])
        assert out.covector[0] == pytest.approx(expected, abs=1e-4)


class TestGenerate:
    def test_saddle_generates_identity_covector(self):
        fam = saddle_family(True)
        bases = [[x] for x in np.linspace(-2.0, 2.0, 9)]
        out = generate(fam, bases, seeds=[[0.0]], tol=1e-12)
        assert len(out) == 9
        for gc in out:
            assert gc.covector[0] == pytest.approx(gc.base[0], abs=1e-9)

    def test_no_critical_points_contribute_nothing(self):
        fam = FunctionFamily(1, 1, lambda b, f: float(f[0]),
                             lambda b, f: (np.zeros_like(b), np.ones_like(f)),
                             name="slope")
        assert generate(fam, [[0.0], [1.0]], seeds=[[0.0]]) == []

    def test_non_morse_family_is_rejected(self):
        fam = FunctionFamily(
            1, 1, lambda b, f: float(f[0] ** 3),
            lambda b, f: (np.zeros_like(b), 3 * f ** 2),
            name="cubic")
        with pytest.raises(ValueError):
            generate(fam, [[0.0]], seeds=[[0.0]], tol=1e-8)

    def test_csv_export(self):
        fam = saddle_family(True)
        out = generate(fam, [[1.0]], seeds=[[0.0]], tol=1e-12)
        import io
        buf = io.StringIO()
        write_covectors_csv(out, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "base_0,cov_0"
        assert len(lines) == 2


class TestReduce:
    def test_quadratic_two_fiber_example(self):
        # F(x; s1, s2) = x s1 - s1^2/2 + x s2 - s2^2/2, eliminate s1.
        def value(b, f):
            return float(b[0] * f[0] - 0.5 * f[0] ** 2 +
                         b[0] * f[1] - 0.5 * f[1] ** 2)

        def grad(b, f):
            return f[..., :1] + f[..., 1:], b - f

        fam = FunctionFamily(1, 2, value, grad, name="pair")
        red = reduce_family(fam, 1, seeds=[[0.0]], tol=1e-13)
        assert red.base_dim == 1 and red.fiber_dim == 1
        # Reduced value: x^2/2 + x s2 - s2^2/2.
        for x, s2 in [(1.0, 0.5), (-0.7, 1.2), (2.0, -1.0)]:
            expected = 0.5 * x * x + x * s2 - 0.5 * s2 * s2
            assert red.value([x], [s2]) == pytest.approx(expected, abs=1e-9)
        # Same generated covectors as the parent family.
        bases = [[x] for x in np.linspace(-1.5, 1.5, 7)]
        parent = generate(fam, bases, seeds=[[0.0, 0.0]], tol=1e-12)
        child = generate(red, bases, seeds=[[0.0]], tol=1e-12)
        assert len(parent) == len(child) == 7
        for a, b in zip(parent, child):
            assert b.covector[0] == pytest.approx(a.covector[0], abs=1e-8)
            assert b.covector[0] == pytest.approx(2.0 * a.base[0], abs=1e-8)

    def test_empty_block_returns_same_family(self):
        fam = saddle_family(True)
        assert reduce_family(fam, 0, seeds=[[0.0]]) is fam

    def test_inner_no_solution_raises(self):
        def value(b, f):
            return float(f[0] + b[0] * f[1] - 0.5 * f[1] ** 2)
        fam = FunctionFamily(1, 2, value, name="linear-head")
        red = reduce_family(fam, 1, seeds=[[0.0]], tol=1e-10)
        with pytest.raises(NoConvergence):
            red.value([1.0], [0.0])

    def test_multiple_sections_raise(self):
        # Head stationarity s1^3 - s1 = 0 has three roots; two seeds find
        # two distinct ones.
        def value(b, f):
            return float(0.25 * (f[0] ** 2 - 1.0) ** 2 +
                         b[0] * f[1] - 0.5 * f[1] ** 2)

        def grad(b, f):
            s1, s2 = f[..., :1], f[..., 1:]
            return s2, np.concatenate([s1 ** 3 - s1, b - s2], axis=-1)

        fam = FunctionFamily(1, 2, value, grad, name="bistable")
        red = reduce_family(fam, 1, seeds=[[-1.2], [1.2]], tol=1e-12)
        with pytest.raises(SectionNotUnique):
            red.value([0.5], [0.0])


class TestExample31:
    def test_critical_set_is_momentum_over_mass(self, rng):
        fam = family_example31(mass=2.0, stiffness=1.0)
        for _ in range(10):
            base = rng.normal(size=6)
            pts = solve_critical(fam, base, seeds=[np.zeros(3)], tol=1e-12)
            assert len(pts) == 1
            assert np.allclose(pts[0].fiber, base[3:] / 2.0, atol=1e-10)

    def test_hessian_blocks(self):
        fam = family_example31(mass=1.5, stiffness=0.7)
        base = np.array([0.2, -0.1, 0.4, 1.0, -2.0, 0.5])
        pt = solve_critical(fam, base, seeds=[np.zeros(3)], tol=1e-12)[0]
        h = hessian(fam, pt)
        assert h.shape == (3, 9)
        assert np.allclose(h[:, 0:3], np.zeros((3, 3)), atol=1e-7)       # d2F/dv dq
        assert np.allclose(h[:, 3:6], -np.eye(3), atol=1e-7)             # d2F/dv dp
        assert np.allclose(h[:, 6:9], 1.5 * np.eye(3), atol=1e-7)        # d2F/dv dv

    def test_rank_is_configuration_dimension(self, rng):
        fam = family_example31()
        pts = []
        for _ in range(25):
            base = rng.normal(size=6)
            pts.extend(solve_critical(fam, base, seeds=[np.zeros(3)], tol=1e-12))
        report = is_morse(fam, pts)
        assert report.ok
        assert set(report.ranks) == {3}

    def test_generated_covectors_are_oscillator_equations(self, rng):
        fam = family_example31(mass=1.0, stiffness=1.0)
        for _ in range(5):
            base = rng.normal(size=6)
            out = generate(fam, [base], seeds=[np.zeros(3)], tol=1e-12)
            assert len(out) == 1
            q, p = base[:3], base[3:]
            assert np.allclose(out[0].covector[:3], -q, atol=1e-9)
            assert np.allclose(out[0].covector[3:], -p, atol=1e-9)


class TestParticleFamilies:
    def setup_method(self):
        self.u = Frame.from_spatial([0.2, -0.1, 0.4])
        self.m = 1.3
        self.g = SpatialMetric.diagonal(1.0, 2.0, 0.5)
        self.phi = harmonic_potential(0.8, center=[0.1, 0.0, -0.3])

    def on_shell_base(self, v: Vector4, x: Event) -> np.ndarray:
        p = legendre_hom(self.u, self.m, self.g, self.phi, x, v)
        return state_to_base(x, p)

    def test_fam1_critical_velocity_relation(self):
        x = Event(0.1, 0.5, -0.2, 0.3)
        v = Vector4(1.0, 0.7, 0.1, -0.2)
        base = self.on_shell_base(v, x)
        pts = solve_critical(family_fam1(self.u, self.m, self.g, self.phi),
                             base, seeds=[vector_to_fiber(v) + 0.01], tol=1e-11)
        assert pts
        found = pts[0].fiber
        v_found = Vector4(found[3], found[0], found[1], found[2])
        # At criticality the projected velocity is tied to the momentum:
        # iota_u v = (tv / m) g^{-1} iota* p.
        p = Covector4.from_array(base[4:])
        tv = v_found.c0
        lhs = iota_u(self.u, v_found).spatial
        rhs = tv / self.m * self.g.apply_inverse(p.spatial)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_fam1_is_morse_rank_four(self):
        fam = family_fam1(self.u, self.m, self.g, self.phi)
        x = Event(0.0, 0.2, 0.1, -0.1)
        pts = []
        for vx in (0.3, -0.5, 0.9):
            v = Vector4(1.0, vx, 0.2, 0.1)
            base = self.on_shell_base(v, x)
            pts.extend(solve_critical(fam, base, seeds=[vector_to_fiber(v)],
                                      tol=1e-11))
        report = is_morse(fam, pts)
        assert report.ok and set(report.ranks) == {4}

    def test_fam2_critical_iff_on_shell(self):
        fam = family_fam2(self.u, self.m, self.g, self.phi)
        x = Event(0.0, 0.3, 0.0, 0.2)
        v = Vector4(1.0, 0.4, -0.3, 0.2)
        on_base = self.on_shell_base(v, x)
        pts = solve_critical(fam, on_base, seeds=[[1.0]], tol=1e-11)
        assert len(pts) == 1 and pts[0].fiber[0] == pytest.approx(1.0)
        off_base = on_base.copy()
        off_base[4] += 0.5  # move p0 off the shell
        assert solve_critical(fam, off_base, seeds=[[1.0]], tol=1e-11) == []

    def test_fam2_rank_one(self):
        fam = family_fam2(self.u, self.m, self.g, self.phi)
        x = Event(0.0, 0.3, 0.0, 0.2)
        v = Vector4(1.0, 0.4, -0.3, 0.2)
        pt = CriticalPoint(self.on_shell_base(v, x), np.array([1.0]))
        report = is_morse(fam, [pt])
        assert report.ok and report.ranks == (1,)

    def test_reduction_of_fam1_matches_fam2(self):
        fam1 = family_fam1(self.u, self.m, self.g, self.phi)
        fam2 = family_fam2(self.u, self.m, self.g, self.phi)
        red = reduce_family(fam1, 3, seeds=[np.zeros(3)], tol=1e-13)
        assert red.fiber_dim == 1
        x = Event(0.2, -0.4, 0.5, 0.0)
        for vx, r in [(0.5, 1.0), (-0.3, 0.7), (0.8, 1.6)]:
            v = Vector4(1.0, vx, 0.25, -0.15)
            base = self.on_shell_base(v, x)
            val_red = red.value(base, [r])
            val_two = fam2.value(base, [r])
            assert val_red == pytest.approx(val_two, abs=1e-9)
            gb_red, gf_red = red.gradient(base, [r])
            gb_two, gf_two = fam2.gradient(base, [r])
            assert np.allclose(gb_red, gb_two, atol=1e-8)
            assert np.allclose(gf_red, gf_two, atol=1e-8)

    def test_fam1_value_vanishes_on_reduced_critical_set(self):
        fam1 = family_fam1(self.u, self.m, self.g, self.phi)
        red = reduce_family(fam1, 3, seeds=[np.zeros(3)], tol=1e-13)
        x = Event(0.0, 0.1, 0.2, -0.3)
        v = Vector4(1.0, 0.6, -0.2, 0.3)
        base = self.on_shell_base(v, x)
        pts = solve_critical(red, base, seeds=[[1.0]], tol=1e-11)
        assert pts
        assert abs(red.value(base, pts[0].fiber)) <= 1e-10

    def test_fam1_gradient_matches_differences(self, rng):
        fam = family_fam1(self.u, self.m, self.g, self.phi)
        for _ in range(10):
            base = np.concatenate([rng.normal(size=4), rng.normal(size=4)])
            fiber = np.concatenate([rng.normal(size=3),
                                    [rng.uniform(0.5, 1.5)]])
            gb, gf = fam.gradient(base, fiber)
            stripped = FunctionFamily(8, 4, fam.value, None)
            gb_fd = base_gradient(stripped, base, fiber)
            gf_fd = fiber_gradient(stripped, base, fiber)
            assert np.allclose(gb, gb_fd, atol=2e-6 * (1 + np.max(np.abs(gb))))
            assert np.allclose(gf, gf_fd, atol=2e-6 * (1 + np.max(np.abs(gf))))

    def test_fam2_gradient_matches_differences(self, rng):
        fam = family_fam2(self.u, self.m, self.g, self.phi)
        for _ in range(10):
            base = np.concatenate([rng.normal(size=4), rng.normal(size=4)])
            fiber = np.array([rng.uniform(0.3, 2.0)])
            gb, gf = fam.gradient(base, fiber)
            stripped = FunctionFamily(8, 1, fam.value, None)
            gb_fd = base_gradient(stripped, base, fiber)
            gf_fd = fiber_gradient(stripped, base, fiber)
            assert np.allclose(gb, gb_fd, atol=2e-6 * (1 + np.max(np.abs(gb))))
            assert np.allclose(gf, gf_fd, atol=2e-6 * (1 + np.max(np.abs(gf))))
