import math
import re

import numpy as np
import pytest

from galimech.galilean_core import (
    DomainError,
    SpatialMetric,
    iota_u_array,
)
from galimech.frame_dynamics import (
    legendre_hom,
    mass_shell_residual,
)
from galimech.affine_phase import family_fam3, family_fam4
from galimech.generating_objects import (
    CriticalPoint,
    FunctionFamily,
    NoConvergence,
    NotCritical,
    SectionNotUnique,
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
    solve_critical_stack,
    vector_to_fiber,
)
from galimech.harness.config import PotentialSpec

from conftest import at, free_potential, harmonic_potential, uniform_potential

E0 = np.array([0.0, 0.0, 0.0])
ID3 = SpatialMetric.identity()


def constant(matrix):
    """The hessian callable of a family whose mixed Hessian is matrix at
    every point."""
    matrix = np.array(matrix, dtype=float)
    return lambda b, f: np.broadcast_to(matrix, np.shape(f)[:-1] + matrix.shape)


def saddle_family() -> FunctionFamily:
    """F(x, s) = x s - s^2 / 2: critical set s = x, generated covector x."""

    def value(base, fiber):
        return float(base[0] * fiber[0] - 0.5 * fiber[0] ** 2)

    def grad(base, fiber):
        return fiber[..., :1], base[..., :1] - fiber[..., :1]

    return FunctionFamily(1, 1, value, grad, constant([[1.0, -1.0]]),
                          name="saddle")


def points(bases, fibers) -> CriticalPoint:
    """A stack of critical points from rows of bases and fibers."""
    return CriticalPoint(np.array(bases, dtype=float),
                         np.array(fibers, dtype=float))


def row(f, *entries):
    """One mixed Hessian row (..., 1, k) over fibers f (..., w) from k
    entries, each a number or of shape (..., 1)."""
    lead = np.shape(f)[:-1] + (1,)
    return np.concatenate([np.broadcast_to(e, lead) for e in entries],
                          axis=-1)[..., None, :]


def gradient_differences(fam: FunctionFamily, base, fiber) -> np.ndarray:
    """Oracle for an exact mixed Hessian: central differences of the fiber
    gradient at one point, step 1e-5 * (1 + |z|) in each coordinate z,
    shape (f, b + f)."""
    b = fam.base_dim
    z = np.concatenate([np.asarray(base, dtype=float),
                        np.asarray(fiber, dtype=float)])
    out = np.empty((fam.fiber_dim, len(z)))
    for j in range(len(z)):
        h = 1e-5 * (1.0 + abs(z[j]))
        plus, minus = z.copy(), z.copy()
        plus[j] += h
        minus[j] -= h
        out[:, j] = (fam.gradient(plus[:b], plus[b:])[1] -
                     fam.gradient(minus[:b], minus[b:])[1]) / (2.0 * h)
    return out


def value_differences(fam: FunctionFamily, base, fiber):
    """Oracle for an analytic gradient: central differences of fam.value
    at one point, step 1e-6 * (1 + |z|) in each coordinate z, returned
    as (d/d base, d/d fiber)."""
    b = fam.base_dim
    z = np.concatenate([np.asarray(base, dtype=float),
                        np.asarray(fiber, dtype=float)])
    grad = np.empty(len(z))
    for i in range(len(z)):
        h = 1e-6 * (1.0 + abs(z[i]))
        plus, minus = z.copy(), z.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (float(fam.value(plus[:b], plus[b:])) -
                   float(fam.value(minus[:b], minus[b:]))) / (2.0 * h)
    return grad[:b], grad[b:]


class TestGradients:
    def test_fiber_gradient_example(self):
        fam = saddle_family()
        g = fiber_gradient(fam, [1.0], [1.0])
        assert np.allclose(g, [0.0], atol=1e-9)
        g = fiber_gradient(fam, [2.0], [0.5])
        assert np.allclose(g, [1.5], atol=1e-9)

    def test_fd_matches_analytic(self, rng):
        fam = saddle_family()
        for _ in range(20):
            b = rng.normal(size=1)
            f = rng.normal(size=1)
            gb_fd, gf_fd = value_differences(fam, b, f)
            assert np.allclose(fiber_gradient(fam, b, f), gf_fd, atol=1e-8)
            assert np.allclose(fam.gradient(b, f)[0], gb_fd, atol=1e-8)


class TestSolveCritical:
    def test_saddle_solution(self):
        fam = saddle_family()
        pts = solve_critical(fam, [2.0], seeds=[[0.0]], tol=1e-12)
        assert len(pts) == 1 and pts.owner.tolist() == [0]
        assert pts.fiber[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert pts.residual_norm[0] <= 1e-12

    def test_no_critical_point_gives_empty_list(self):
        fam = FunctionFamily(1, 1, lambda b, f: float(f[0]),
                             lambda b, f: (np.zeros_like(b), np.ones_like(f)),
                             constant([[0.0, 0.0]]), name="slope")
        assert len(solve_critical(fam, [0.0], seeds=[[0.0], [5.0]])) == 0

    def test_duplicate_solutions_are_merged(self):
        # F = (s^2 - 1)^2 / 4 has stationary fiber points -1, 0, +1.
        fam = FunctionFamily(
            1, 1,
            lambda b, f: 0.25 * float((f[0] ** 2 - 1.0) ** 2),
            lambda b, f: (np.zeros_like(b), f ** 3 - f),
            lambda b, f: row(f, 0.0, 3.0 * f ** 2 - 1.0),
            name="quartic")
        pts = solve_critical(fam, [0.0], seeds=[[-1.1], [-0.9], [1.2]],
                             tol=1e-12)
        values = sorted(pts.fiber[:, 0])
        assert len(pts) == 2
        assert values[0] == pytest.approx(-1.0, abs=1e-10)
        assert values[1] == pytest.approx(1.0, abs=1e-10)

    def test_one_seed_as_a_vector(self, rng):
        fam = family_example31()
        bases = rng.normal(size=(4, 6))
        one = solve_critical_stack(fam, bases, np.zeros(3))
        want = solve_critical_stack(fam, bases, [np.zeros(3)])
        assert one.owner.tolist() == want.owner.tolist() == [0, 1, 2, 3]
        assert one.fiber.tobytes() == want.fiber.tobytes()

    @pytest.mark.parametrize("seeds", [np.zeros(2), np.zeros((2, 4)),
                                       np.zeros((4, 1, 2)), np.float64(0.0),
                                       np.zeros((1, 4, 1, 3))])
    def test_seeds_of_another_fiber_dimension_are_rejected(self, rng, seeds):
        with pytest.raises(ValueError, match=re.escape(f"not {np.shape(seeds)}")):
            solve_critical_stack(family_example31(), rng.normal(size=(4, 6)),
                                 seeds)

    @pytest.mark.parametrize("case", ["no bases", "no seeds", "[] seeds",
                                      "none converges"])
    def test_empty_stacks_keep_their_shapes(self, case):
        slope = FunctionFamily(2, 3, lambda b, f: 0.0,
                               lambda b, f: (np.zeros_like(b), np.ones_like(f)),
                               constant(np.zeros((3, 5))), name="slope")
        bases, seeds = {"no bases": (np.zeros((0, 2)), np.zeros((1, 3))),
                        "no seeds": (np.ones((3, 2)), np.zeros((3, 0, 3))),
                        "[] seeds": (np.ones((3, 2)), []),
                        "none converges": (np.ones((3, 2)), np.zeros((2, 3)))
                        }[case]
        pts = solve_critical_stack(slope, bases, seeds)
        assert len(pts) == 0
        assert (pts.base.shape, pts.fiber.shape, pts.residual_norm.shape,
                pts.owner.shape) == ((0, 2), (0, 3), (0,), (0,))
        assert hessian(slope, pts).shape == (0, 3, 5)
        assert numerical_rank(hessian(slope, pts)).shape == (0,)
        assert is_morse(slope, pts).shape == (0,)
        assert kappa(slope, pts).shape == (0, 2)
        found, covectors = generate(slope, bases, seeds)
        assert found.base.shape == covectors.shape == (0, 2)
        assert len(found) == 0


class TestDomain:
    def test_non_finite_start_is_a_domain_error(self):
        # Not a rejected seed: an empty result would let a rank check pass
        # over no points.
        fam = FunctionFamily(1, 1, lambda b, f: math.nan,
                             lambda b, f: (np.zeros_like(b), np.full_like(f, np.nan)),
                             constant([[np.nan, np.nan]]), name="nowhere")
        with pytest.raises(DomainError, match="nowhere"):
            solve_critical(fam, [0.0], seeds=[[0.0]])

    def test_non_finite_hessian_has_nan_rank(self):
        fam = FunctionFamily(1, 1, lambda b, f: 0.0,
                             lambda b, f: (np.zeros_like(b), np.where(b > 0.5, np.inf, f)),
                             lambda b, f: row(f, np.where(b > 0.5, np.nan, 0.0),
                                                 np.where(b > 0.5, np.nan, 1.0)),
                             name="edge")
        ranks = is_morse(fam, points([[0.0], [1.0]], [[0.0], [0.0]]))
        assert ranks[0] == 1 and math.isnan(ranks[1])
        assert math.isnan(numerical_rank([[[1.0, np.nan]]])[0])

    def test_past_directed_velocity_leaves_the_domain(self):
        fam = family_fam1(E0, 1.0, ID3, free_potential())
        base = np.zeros(8)
        gb, gf = fam.gradient(np.stack([base, base]),
                              np.array([[0.1, 0.0, 0.0, 1.0], [0.1, 0.0, 0.0, -1.0]]))
        assert np.isfinite(gb[0]).all() and np.isfinite(gf[0]).all()
        assert np.isnan(gb[1]).all() and np.isnan(gf[1]).all()


class TestHessian:
    # The engine passes the family's Hessian through; these hold the test
    # families' hand-written Hessians to differences of their gradients.
    def test_parabola(self):
        fam = FunctionFamily(1, 1, lambda b, f: float(f[0] ** 2),
                             lambda b, f: (np.zeros_like(b), 2.0 * f),
                             constant([[0.0, 2.0]]), name="parabola")
        (h,) = hessian(fam, points([[0.0]], [[0.0]]))
        assert np.allclose(h, gradient_differences(fam, [0.0], [0.0]), atol=1e-7)
        assert np.allclose(h, [[0.0, 2.0]], atol=1e-7)

    def test_saddle(self):
        fam = saddle_family()
        (h,) = hessian(fam, points([[1.0]], [[1.0]]))
        assert np.allclose(h, gradient_differences(fam, [1.0], [1.0]), atol=1e-7)
        assert np.allclose(h, [[1.0, -1.0]], atol=1e-7)

    def test_fiber_block_symmetry(self, rng):
        # Two-dimensional fiber with crossing terms.
        def value(b, f):
            return float(b[0] * f[0] + f[0] * f[1] + f[1] ** 3 / 3.0)

        def grad(b, f):
            s1, s2 = f[..., :1], f[..., 1:]
            return s1, np.concatenate([b + s2, s1 + s2 ** 2], axis=-1)

        def hess(b, f):
            s2 = f[..., 1:]
            return np.concatenate([row(f, 1.0, 0.0, 1.0),
                                   row(f, 0.0, 1.0, 2.0 * s2)], axis=-2)
        fam = FunctionFamily(1, 2, value, grad, hess, name="crossed")
        pt = points([rng.normal(size=1)], [rng.normal(size=2)])
        (h,) = hessian(fam, pt)
        assert np.allclose(h, gradient_differences(fam, pt.base[0], pt.fiber[0]),
                           atol=1e-7)
        fiber_block = h[:, 1:]
        assert np.max(np.abs(fiber_block - fiber_block.T)) <= 1e-6


class TestMorse:
    def test_degenerate_fiber_saved_by_base_coupling(self):
        fam = FunctionFamily(
            1, 1, lambda b, f: float(f[0] ** 4 - b[0] * f[0]),
            lambda b, f: (-f, 4 * f ** 3 - b),
            lambda b, f: row(f, -1.0, 12.0 * f ** 2),
            name="quartic-coupled")
        assert is_morse(fam, points([[0.0]], [[0.0]])).tolist() == [1]

    def test_cubic_fails(self):
        fam = FunctionFamily(
            1, 1, lambda b, f: float(f[0] ** 3),
            lambda b, f: (np.zeros_like(b), 3 * f ** 2),
            lambda b, f: row(f, 0.0, 6.0 * f),
            name="cubic")
        assert is_morse(fam, points([[0.0]], [[0.0]])).tolist() == [0]

    def test_numerical_rank_threshold(self):
        m = np.diag([1.0, 1e-7, 1e-9])
        assert numerical_rank(m[None], rel_tol=1e-8).tolist() == [2]


class TestKappa:
    def test_pullback_of_base_function(self):
        # No fiber dependence: every fiber point is critical and the
        # covector is the plain differential of the base function.
        def value(b, f):
            return float(np.sin(b[0]) + b[1] ** 2)

        def grad(b, f):
            return (np.concatenate([np.cos(b[..., :1]), 2.0 * b[..., 1:]], axis=-1),
                    np.zeros_like(f))
        fam = FunctionFamily(2, 1, value, grad, constant([[0.0, 0.0, 0.0]]),
                             name="pullback")
        out = kappa(fam, points([[0.3, -1.2]], [[7.0]]))
        assert np.allclose(out, [[np.cos(0.3), -2.4]], atol=1e-8)

    def test_rejects_non_critical(self):
        fam = saddle_family()
        with pytest.raises(NotCritical):
            kappa(fam, points([[2.0]], [[0.0]]))

    def test_rejects_a_nan_fiber_gradient(self):
        fam = FunctionFamily(1, 1, lambda b, f: math.nan,
                             lambda b, f: (np.zeros_like(b), np.full_like(f, np.nan)),
                             constant([[np.nan, np.nan]]), name="nowhere")
        with pytest.raises(NotCritical, match="norm nan"):
            kappa(fam, points([[0.0], [1.0]], [[0.0], [0.0]]))

    def test_lift_independence(self, rng):
        # <dF, lift> must not depend on the vertical part of the lift at a
        # critical point: compare two lifts directly through the gradient.
        fam = saddle_family()
        base = np.array([1.3])
        pt = solve_critical(fam, base, seeds=[[0.0]], tol=1e-13)
        gb = fam.gradient(pt.base[0], pt.fiber[0])[0]
        gf = fiber_gradient(fam, pt.base[0], pt.fiber[0])
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
        fam = saddle_family()
        base = np.array([0.8])
        grid = np.linspace(-3.0, 3.0, 60001)
        vals = np.abs(grid * 0.0 + base[0] - grid)  # d/ds (xs - s^2/2) = x - s
        s_star = grid[np.argmin(vals)]
        expected = value_differences(fam, base, [s_star])[0][0]
        pts = solve_critical(fam, base, seeds=[[0.0]], tol=1e-10)
        assert kappa(fam, pts[:1])[0, 0] == pytest.approx(expected, abs=1e-4)


class TestGenerate:
    def test_saddle_generates_identity_covector(self):
        fam = saddle_family()
        bases = [[x] for x in np.linspace(-2.0, 2.0, 9)]
        found, covectors = generate(fam, bases, seeds=[[0.0]], tol=1e-12)
        assert covectors.shape == (9, 1) and len(found) == 9
        assert np.allclose(covectors, found.base, atol=1e-9, rtol=0.0)

    def test_no_critical_points_contribute_nothing(self):
        fam = FunctionFamily(1, 1, lambda b, f: float(f[0]),
                             lambda b, f: (np.zeros_like(b), np.ones_like(f)),
                             constant([[0.0, 0.0]]), name="slope")
        assert generate(fam, [[0.0], [1.0]], seeds=[[0.0]])[1].shape == (0, 1)

    def test_non_morse_family_is_rejected(self):
        fam = FunctionFamily(
            1, 1, lambda b, f: float(f[0] ** 3),
            lambda b, f: (np.zeros_like(b), 3 * f ** 2),
            lambda b, f: row(f, 0.0, 6.0 * f),
            name="cubic")
        with pytest.raises(ValueError):
            generate(fam, [[0.0]], seeds=[[0.0]], tol=1e-8)


class TestReduce:
    def test_quadratic_two_fiber_example(self):
        # F(x; s1, s2) = x s1 - s1^2/2 + x s2 - s2^2/2, eliminate s1.
        def value(b, f):
            return float(b[0] * f[0] - 0.5 * f[0] ** 2 +
                         b[0] * f[1] - 0.5 * f[1] ** 2)

        def grad(b, f):
            return f[..., :1] + f[..., 1:], b - f

        fam = FunctionFamily(1, 2, value, grad,
                             constant([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0]]),
                             name="pair")
        red = reduce_family(fam, 1, seeds=[[0.0]], tol=1e-13)
        assert red.base_dim == 1 and red.fiber_dim == 1
        # Reduced value: x^2/2 + x s2 - s2^2/2.
        for x, s2 in [(1.0, 0.5), (-0.7, 1.2), (2.0, -1.0)]:
            expected = 0.5 * x * x + x * s2 - 0.5 * s2 * s2
            assert red.value([x], [s2]) == pytest.approx(expected, abs=1e-9)
        # Same generated covectors as the parent family.
        bases = [[x] for x in np.linspace(-1.5, 1.5, 7)]
        parent, parent_cov = generate(fam, bases, seeds=[[0.0, 0.0]],
                                      tol=1e-12)
        child_cov = generate(red, bases, seeds=[[0.0]], tol=1e-12)[1]
        assert len(parent_cov) == len(child_cov) == 7
        assert np.allclose(child_cov, parent_cov, atol=1e-8, rtol=0.0)
        assert np.allclose(child_cov, 2.0 * parent.base, atol=1e-8, rtol=0.0)

    def test_empty_block_returns_same_family(self):
        fam = saddle_family()
        assert reduce_family(fam, 0, seeds=[[0.0]]) is fam

    def test_inner_no_solution_raises(self):
        def value(b, f):
            return float(f[0] + b[0] * f[1] - 0.5 * f[1] ** 2)

        def grad(b, f):
            s2 = f[..., 1:]
            return s2, np.concatenate([np.ones_like(s2), b - s2], axis=-1)
        fam = FunctionFamily(1, 2, value, grad,
                             constant([[0.0, 0.0, 0.0], [1.0, 0.0, -1.0]]),
                             name="linear-head")
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

        def hess(b, f):
            s1 = f[..., :1]
            return np.concatenate([row(f, 0.0, 3.0 * s1 ** 2 - 1.0, 0.0),
                                   row(f, 1.0, 0.0, -1.0)], axis=-2)

        fam = FunctionFamily(1, 2, value, grad, hess, name="bistable")
        red = reduce_family(fam, 1, seeds=[[-1.2], [1.2]], tol=1e-12)
        with pytest.raises(SectionNotUnique):
            red.value([0.5], [0.0])


    def test_singular_eliminated_block_is_a_domain_error(self):
        # Over x = 0 every s1 is stationary: the section the seed lands on
        # has a zero head Hessian, so its Schur complement does not exist.
        def grad(b, f):
            return np.zeros_like(b), np.concatenate([b, f[..., 1:] - b], axis=-1)

        fam = FunctionFamily(1, 2, lambda b, f: 0.0, grad,
                             constant([[1.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]),
                             name="flat-head")
        red = reduce_family(fam, 1, seeds=[[0.0]], tol=1e-12)
        with pytest.raises(DomainError, match="eliminated block singular"):
            hessian(red, points([[0.0]], [[0.3]]))


class TestExample31:
    def test_critical_set_is_momentum_over_mass(self, rng):
        fam = family_example31(mass=2.0, stiffness=1.0)
        for _ in range(10):
            base = rng.normal(size=6)
            pts = solve_critical(fam, base, seeds=[np.zeros(3)], tol=1e-12)
            assert len(pts) == 1
            assert np.allclose(pts.fiber[0], base[3:] / 2.0, atol=1e-10)

    def test_hessian_blocks(self):
        fam = family_example31(mass=1.5, stiffness=0.7)
        base = np.array([0.2, -0.1, 0.4, 1.0, -2.0, 0.5])
        pt = solve_critical(fam, base, seeds=[np.zeros(3)], tol=1e-12)
        (h,) = hessian(fam, pt)
        assert h.shape == (3, 9)
        assert np.allclose(h[:, 0:3], np.zeros((3, 3)), atol=1e-7)       # d2F/dv dq
        assert np.allclose(h[:, 3:6], -np.eye(3), atol=1e-7)             # d2F/dv dp
        assert np.allclose(h[:, 6:9], 1.5 * np.eye(3), atol=1e-7)        # d2F/dv dv

    def test_rank_is_configuration_dimension(self, rng):
        fam = family_example31()
        pts = solve_critical_stack(fam, [rng.normal(size=6) for _ in range(25)],
                                   seeds=[np.zeros(3)], tol=1e-12)
        assert len(pts) == 25
        assert set(is_morse(fam, pts).tolist()) == {3}

    def test_gradient_matches_differences(self, rng):
        fam = family_example31(mass=1.3, stiffness=0.6)
        for _ in range(10):
            base, fiber = rng.normal(size=6), rng.normal(size=3)
            gb, gf = fam.gradient(base, fiber)
            gb_fd, gf_fd = value_differences(fam, base, fiber)
            assert np.allclose(gb, gb_fd, atol=2e-6 * (1 + np.max(np.abs(gb))))
            assert np.allclose(gf, gf_fd, atol=2e-6 * (1 + np.max(np.abs(gf))))

    def test_generated_covectors_are_oscillator_equations(self, rng):
        fam = family_example31(mass=1.0, stiffness=1.0)
        for _ in range(5):
            base = rng.normal(size=6)
            _, covectors = generate(fam, [base], seeds=[np.zeros(3)],
                                    tol=1e-12)
            assert covectors.shape == (1, 6)
            q, p = base[:3], base[3:]
            assert np.allclose(covectors[0, :3], -q, atol=1e-9)
            assert np.allclose(covectors[0, 3:], -p, atol=1e-9)


class TestParticleFamilies:
    def setup_method(self):
        self.u = np.array([0.2, -0.1, 0.4])
        self.m = 1.3
        self.g = SpatialMetric.diagonal(1.0, 2.0, 0.5)
        self.phi = harmonic_potential(0.8, center=[0.1, 0.0, -0.3])

    def on_shell_base(self, v: np.ndarray, x: np.ndarray) -> np.ndarray:
        p = legendre_hom(self.u, self.m, self.g, at(self.phi, x), v)
        return np.concatenate([x, p])

    def test_fam1_critical_velocity_relation(self):
        x = np.array([0.1, 0.5, -0.2, 0.3])
        v = np.array([1.0, 0.7, 0.1, -0.2])
        base = self.on_shell_base(v, x)
        pts = solve_critical(family_fam1(self.u, self.m, self.g, self.phi),
                             base, seeds=[vector_to_fiber(v) + 0.01], tol=1e-11)
        assert len(pts)
        found = pts.fiber[0]
        v_found = found[[3, 0, 1, 2]]
        # At criticality the projected velocity is tied to the momentum:
        # iota_u v = (tv / m) g^{-1} iota* p.
        tv = v_found[0]
        lhs = iota_u_array(self.u, v_found)
        rhs = tv / self.m * self.g.apply_inverse(base[5:])
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_fam1_is_morse_rank_four(self):
        fam = family_fam1(self.u, self.m, self.g, self.phi)
        x = np.array([0.0, 0.2, 0.1, -0.1])
        vs = [np.array([1.0, vx, 0.2, 0.1]) for vx in (0.3, -0.5, 0.9)]
        pts = solve_critical_stack(
            fam, [self.on_shell_base(v, x) for v in vs],
            [[vector_to_fiber(v)] for v in vs], tol=1e-11)
        assert pts.owner.tolist() == [0, 1, 2]
        assert set(is_morse(fam, pts).tolist()) == {4}

    def test_fam2_critical_iff_on_shell(self):
        fam = family_fam2(self.u, self.m, self.g, self.phi)
        x = np.array([0.0, 0.3, 0.0, 0.2])
        v = np.array([1.0, 0.4, -0.3, 0.2])
        on_base = self.on_shell_base(v, x)
        pts = solve_critical(fam, on_base, seeds=[[1.0]], tol=1e-11)
        assert len(pts) == 1 and pts.fiber[0, 0] == pytest.approx(1.0)
        off_base = on_base.copy()
        off_base[4] += 0.5  # move p0 off the shell
        assert len(solve_critical(fam, off_base, seeds=[[1.0]], tol=1e-11)) == 0

    def test_fam2_rank_one(self):
        fam = family_fam2(self.u, self.m, self.g, self.phi)
        x = np.array([0.0, 0.3, 0.0, 0.2])
        v = np.array([1.0, 0.4, -0.3, 0.2])
        ranks = is_morse(fam, points([self.on_shell_base(v, x)], [[1.0]]))
        assert ranks.tolist() == [1]

    def test_reduction_of_fam1_matches_fam2(self):
        fam1 = family_fam1(self.u, self.m, self.g, self.phi)
        fam2 = family_fam2(self.u, self.m, self.g, self.phi)
        red = reduce_family(fam1, 3, seeds=[np.zeros(3)], tol=1e-13)
        assert red.fiber_dim == 1
        x = np.array([0.2, -0.4, 0.5, 0.0])
        for vx, r in [(0.5, 1.0), (-0.3, 0.7), (0.8, 1.6)]:
            v = np.array([1.0, vx, 0.25, -0.15])
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
        x = np.array([0.0, 0.1, 0.2, -0.3])
        v = np.array([1.0, 0.6, -0.2, 0.3])
        base = self.on_shell_base(v, x)
        pts = solve_critical(red, base, seeds=[[1.0]], tol=1e-11)
        assert len(pts)
        assert abs(red.value(base, pts.fiber[0])) <= 1e-10

    def test_fam1_gradient_matches_differences(self, rng):
        fam = family_fam1(self.u, self.m, self.g, self.phi)
        for _ in range(10):
            base = np.concatenate([rng.normal(size=4), rng.normal(size=4)])
            fiber = np.concatenate([rng.normal(size=3),
                                    [rng.uniform(0.5, 1.5)]])
            gb, gf = fam.gradient(base, fiber)
            gb_fd, gf_fd = value_differences(fam, base, fiber)
            assert np.allclose(gb, gb_fd, atol=2e-6 * (1 + np.max(np.abs(gb))))
            assert np.allclose(gf, gf_fd, atol=2e-6 * (1 + np.max(np.abs(gf))))

    def test_fam2_gradient_matches_differences(self, rng):
        fam = family_fam2(self.u, self.m, self.g, self.phi)
        for _ in range(10):
            base = np.concatenate([rng.normal(size=4), rng.normal(size=4)])
            fiber = np.array([rng.uniform(0.3, 2.0)])
            gb, gf = fam.gradient(base, fiber)
            gb_fd, gf_fd = value_differences(fam, base, fiber)
            assert np.allclose(gb, gb_fd, atol=2e-6 * (1 + np.max(np.abs(gb))))
            assert np.allclose(gf, gf_fd, atol=2e-6 * (1 + np.max(np.abs(gf))))


class TestExactHessians:
    """Every family's closed-form mixed Hessian against central differences
    of its own gradient, over the potential kinds, a non-diagonal metric,
    a frame off the lab and masses from 1e-8 to 1e12.  Each column j is
    held to 1e-6 of its own largest entry, plus the rounding a central
    difference of step h_j = 1e-5 (1 + |z_j|) makes on a gradient of size
    |g|, eps |g| / h_j, with a margin of about 500."""

    POTENTIALS = {
        "free": free_potential,
        "harmonic": lambda: harmonic_potential(1.3, center=[0.2, -0.1, 0.4]),
        "custom": lambda: PotentialSpec(
            "custom", expr="0.5*q1^2 + 0.25*q2^4 + 0.1*q1*q3 + sin(q2)*exp(-q3^2)"
        ).build(),
        "time_custom": lambda: PotentialSpec(
            "custom", expr="0.5*(q1^2+q2^2+q3^2)*(1+0.1*t) + 0.2*sin(t)*q1"
        ).build(),
    }
    METRIC = SpatialMetric([[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 0.5]])
    FRAME = np.array([0.3, -0.2, 0.5])

    def family(self, name, m, phi):
        fam1 = family_fam1(self.FRAME, m, self.METRIC, phi)
        return {"fam1": lambda: fam1,
                "fam2": lambda: family_fam2(self.FRAME, m, self.METRIC, phi),
                "fam3": lambda: family_fam3(m, self.METRIC, phi),
                "fam4": lambda: family_fam4(m, self.METRIC, phi),
                "example31": lambda: family_example31(m, 0.7),
                # The section's Newton stops on an absolute gradient norm,
                # and the gradient has size m.
                "fam1/reduced": lambda: reduce_family(
                    fam1, 3, seeds=[np.zeros(3)], tol=1e-12 * max(1.0, m)),
                }[name]()

    @staticmethod
    def stack(rng, fam, m, n):
        """n points: momenta of size m, so that no term of the gradient
        is negligible, and future-directed velocities."""
        base = rng.normal(size=(n, fam.base_dim))
        base[:, -3:] *= m
        if fam.base_dim == 8:
            base[:, 4] *= m
        fiber = rng.normal(size=(n, fam.fiber_dim))
        if fam.name not in ("fam2", "fam3", "example31"):
            fiber[:, -1] = rng.uniform(0.5, 1.5, size=n)  # the time component
        return base, fiber

    @pytest.mark.parametrize("mass", [1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12])
    @pytest.mark.parametrize("kind", sorted(POTENTIALS))
    @pytest.mark.parametrize("name", ["fam1", "fam2", "fam3", "fam4",
                                      "example31", "fam1/reduced"])
    def test_hessian_agrees_with_gradient_differences(self, rng, name, kind,
                                                      mass):
        fam = self.family(name, mass, self.POTENTIALS[kind]())
        # 70 rows: the SpatialMetric products batch from 64 rows on.
        n = 10 if name == "fam1/reduced" else 70
        base, fiber = self.stack(rng, fam, mass, n)
        stacked = hessian(fam, points(base, fiber))
        assert stacked.shape == (n, fam.fiber_dim, fam.base_dim + fam.fiber_dim)
        for i in range(n):
            alone = fam.hessian(base[i], fiber[i])
            assert alone.tobytes() == stacked[i].tobytes()
        for i in range(4):
            z = np.abs(np.concatenate([base[i], fiber[i]]))
            differences = gradient_differences(fam, base[i], fiber[i])
            size = np.max(np.abs(fiber_gradient(fam, base[i], fiber[i])))
            bound = (1e-6 * np.max(np.abs(stacked[i]), axis=0)
                     + 1e-13 * size / (1e-5 * (1.0 + z)))
            assert np.all(np.abs(stacked[i] - differences) <= bound), (
                i, np.abs(stacked[i] - differences) / bound)

    @pytest.mark.parametrize("name", ["fam1", "fam4"])
    def test_past_directed_rows_read_nan(self, rng, name):
        fam = self.family(name, 1.3, self.POTENTIALS["harmonic"]())
        base, fiber = self.stack(rng, fam, 1.3, 70)
        fiber[::3, 3] = -fiber[::3, 3]
        fiber[1, 3] = 0.0
        past = fiber[:, 3] <= 0.0
        h = hessian(fam, points(base, fiber))
        assert np.isnan(h[past]).all() and np.isfinite(h[~past]).all()
        with np.errstate(divide="ignore", invalid="ignore"):  # v0 = 0
            for i in range(3):
                assert fam.hessian(base[i], fiber[i]).tobytes() == h[i].tobytes()
        assert np.isnan(is_morse(fam, points(base, fiber))[past]).all()
