"""The SpatialMetric products keep the bits of numpy's per-row products.

``apply``, ``apply_inverse`` and ``quadratic`` take a stack of at least
``_STACK_ROWS`` rows through one BLAS call over all rows, where
``np.matvec``, ``np.vecmat`` and ``np.vecdot`` make one call per row.  The
golden hashes rest on the two agreeing in every bit, so each case here
compares them as int64 bit patterns (NaN by position only).  On a BLAS
where a batched call rounds differently, these tests fail before a golden
hash drifts.  CI also runs them with ``OPENBLAS_NUM_THREADS=1``, the
setting the benchmark pins.
"""

import numpy as np
import pytest

from galimech.galilean_core import _STACK_ROWS, SpatialMetric

R = _STACK_ROWS


def _metric(scale: float) -> SpatialMetric:
    """A non-diagonal SPD metric with every entry scaled by scale."""
    a = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.1], [-0.2, 0.1, 0.5]])
    return SpatialMetric(scale * a)


def _values(rng, shape):
    """Normal samples with magnitudes spread over 1e-8 .. 1e8."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)


def _stack(rng, kind):
    if kind == "vector":
        return _values(rng, 3)
    if kind == "strided columns":
        # A draw as the sampled checks lay it out: a column block of a
        # wider buffer, so rows are 12 apart.
        return _values(rng, (1000, 12))[:, 4:7]
    if kind == "every other column":
        return _values(rng, (1000, 6))[:, ::2]
    if kind == "reversed rows":
        return _values(rng, (1000, 3))[::-1]
    if kind == "F-ordered":
        return np.asfortranarray(_values(rng, (1000, 3)))
    if kind == "broadcast":
        return np.broadcast_to(_values(rng, 3), (1000, 3))
    if kind == "non-finite rows":
        x = _values(rng, (1000, 3))
        x[3] = np.inf
        x[R, 1] = -np.inf
        x[500, 2] = np.nan
        x[999] = [np.inf, -np.inf, 0.0]
        return x
    return _values(rng, kind)


STACKS = ["vector", (1, 3), (2, 3), (R - 1, 3), (R, 3), (R + 1, 3),
          (1000, 3), (1000, 1, 3), (25, 2, 12, 3), (100_000, 3),
          "strided columns", "every other column", "reversed rows",
          "F-ordered", "broadcast", "non-finite rows"]
SCALES = [1e-8, 1.0, 1e8]


def _rows(stack):
    """Indices of up to 64 rows spread over the leading axes of stack, with
    the first, the last and every row holding a non-finite value."""
    lead = stack.shape[:-1]
    n = int(np.prod(lead))
    picks = np.linspace(0, n - 1, min(n, 64)).astype(int)
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=-1))
    return [np.unravel_index(i, lead) for i in np.union1d(picks, bad)]


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.fixture(params=SCALES, ids=lambda s: f"scale={s:g}")
def metric(request):
    return _metric(request.param)


@pytest.fixture(params=STACKS, ids=str)
def stack(request):
    rng = np.random.default_rng(20261020)
    with np.errstate(all="ignore"):
        return _stack(rng, request.param)


@pytest.fixture(autouse=True)
def quiet():
    # inf - inf in the non-finite rows; the bits are compared, not flags.
    with np.errstate(all="ignore"):
        yield


class TestApply:
    def test_equals_matvec(self, metric, stack):
        assert_same_bits(metric.apply(stack), np.matvec(metric._matrix, stack))

    def test_rows_equal_one_vector_at_a_time(self, metric, stack):
        got = metric.apply(stack)
        for i in _rows(stack):
            assert_same_bits(got[i], metric.apply(stack[i]))

    def test_result_is_c_contiguous(self, metric, stack):
        # np.vecdot's per-row BLAS path reads the lowered stack by strides.
        assert metric.apply(stack).flags.c_contiguous


class TestApplyInverse:
    def test_equals_matvec(self, metric, stack):
        assert_same_bits(metric.apply_inverse(stack),
                         np.matvec(metric._inverse, stack))

    def test_rows_equal_one_vector_at_a_time(self, metric, stack):
        got = metric.apply_inverse(stack)
        for i in _rows(stack):
            assert_same_bits(got[i], metric.apply_inverse(stack[i]))

    def test_into_out(self, metric, stack):
        out = np.full(stack.shape, 7.0)
        assert metric.apply_inverse(stack, out=out) is out
        assert_same_bits(out, np.matvec(metric._inverse, stack))

    def test_into_a_strided_out(self, metric, stack):
        buf = np.full(stack.shape[:-1] + (8,), 7.0)
        out = buf[..., 2:5]
        assert metric.apply_inverse(stack, out=out) is out
        assert_same_bits(out, np.matvec(metric._inverse, stack))
        assert (buf[..., :2] == 7.0).all() and (buf[..., 5:] == 7.0).all()

    def test_out_aliasing_the_input(self, metric, stack):
        want = np.matvec(metric._inverse, stack)
        f = np.array(stack)
        assert metric.apply_inverse(f, out=f) is f
        assert_same_bits(f, want)

    def test_out_aliasing_a_strided_input(self, metric):
        buf = _values(np.random.default_rng(7), (1000, 12))
        f = buf[:, 4:7]
        want = np.matvec(metric._inverse, f)
        assert metric.apply_inverse(f, out=f) is f
        assert_same_bits(f, want)


class TestQuadratic:
    def test_equals_vecmat_vecdot(self, metric, stack):
        want = np.vecdot(np.vecmat(stack, metric._matrix), stack)
        assert_same_bits(metric.quadratic(stack), want)

    def test_rows_equal_one_vector_at_a_time(self, metric, stack):
        got = metric.quadratic(stack)
        for i in _rows(stack):
            assert_same_bits(got[i], metric.quadratic(stack[i]))


@pytest.mark.parametrize("bad", [np.zeros(3 * R), np.zeros((R + 1, 4))],
                         ids=["1-D", "(R+1, 4)"])
def test_a_stack_that_is_not_of_vectors_is_refused(bad):
    g = _metric(1.0)
    for product in (g.apply, g.apply_inverse, g.quadratic):
        with pytest.raises(ValueError):
            product(bad)
