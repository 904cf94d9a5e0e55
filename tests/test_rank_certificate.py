"""The full-rank certificate of ``numerical_rank`` against an SVD of every
matrix.

``numerical_rank`` certifies a matrix full rank from a Gershgorin bound
on its Gram matrix and sends only the matrices the bound leaves open to
the SVD.  A rank is an integer, so the certified ranks must equal the
SVD's exactly, on every kind of stack: well and badly conditioned,
exactly rank deficient, within 1e-3 of the cut, at extreme scales, with
non-finite entries, and empty.
"""

import contextlib
import io

import numpy as np
import pytest

from galimech.generating_objects import _full_rank_certified, numerical_rank
from galimech.harness.cli import main

# Wide, square and tall shapes with up to 6 rows.
SHAPES = [(r, c) for r in range(1, 7) for c in (1, 3, 6, 9, 12)]
REL_TOLS = [1e-8, 1e-3, 0.5]
PER_SHAPE = 6


def svd_rank(matrices, rel_tol=1e-8):
    """The rank from one SVD of the whole stack (the function before the
    certificate): singular values above rel_tol times the largest, as
    floats, NaN for a matrix with a non-finite entry."""
    matrices = np.asarray(matrices, dtype=float)
    finite = np.isfinite(matrices).all(axis=(-2, -1))
    sv = np.linalg.svd(np.where(finite[:, None, None], matrices, 0.0),
                       compute_uv=False)
    return np.where(finite, np.sum(sv > rel_tol * sv[:, :1], axis=-1), np.nan)


def orthonormal_columns(rng, n: int, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q[:, :k]


def with_singular_values(rng, shape, s) -> np.ndarray:
    """A matrix of the given shape whose singular values are s."""
    r, c = shape
    k = len(s)
    return (orthonormal_columns(rng, r, k) * s) @ orthonormal_columns(rng, c, k).T


def random(rng, shape):
    return rng.standard_normal((PER_SHAPE, *shape))


def near_identity(rng, shape):
    return np.eye(*shape) + 0.05 * rng.standard_normal((PER_SHAPE, *shape))


def on_short_side(edit):
    """edit applied to the rows of a wide stack, to the columns of a tall
    one, so it lowers the rank."""
    def case(rng, shape):
        m = random(rng, shape)
        if shape[0] <= shape[1]:
            return edit(rng, m)
        return np.swapaxes(edit(rng, np.swapaxes(m, -1, -2)), -1, -2)
    return case


def zero_row(rng, m):
    m[:, rng.integers(m.shape[1])] = 0.0
    return m


def duplicated_row(rng, m):
    if m.shape[1] > 1:
        m[:, -1] = m[:, 0]
    return m


def in_span_row(rng, m):
    if m.shape[1] > 1:
        m[:, -1] = np.einsum("nij,i->nj", m[:, :-1],
                             rng.standard_normal(m.shape[1] - 1))
    return m


def ratio(value):
    """Stacks whose smallest singular value is value times the largest:
    rotated, and diagonal, whose Gram the Gershgorin bound reads exactly."""
    def case(rng, shape):
        k = min(shape)
        if k == 1:
            return np.empty((0, *shape))
        s = np.ones(k)
        s[-1] = value
        rotated = [with_singular_values(rng, shape, rng.permutation(s))
                   for _ in range(PER_SHAPE // 2)]
        diagonal = [np.eye(*shape) * np.pad(rng.permutation(s), (0, shape[1] - k))
                    for _ in range(PER_SHAPE // 2)]
        return np.stack(rotated + diagonal)
    return case


def scaled(base, factor):
    return lambda rng, shape: base(rng, shape) * factor


def non_finite(rng, shape):
    m = near_identity(rng, shape)
    for row, bad in enumerate((np.nan, np.inf, -np.inf)):
        m[row, rng.integers(shape[0]), rng.integers(shape[1])] = bad
    return m


def empty(rng, shape):
    return np.empty((0, *shape))


CASES = {
    "random": random,
    "near_identity": near_identity,
    "zero_row": on_short_side(zero_row),
    "duplicated_row": on_short_side(duplicated_row),
    "in_span_row": on_short_side(in_span_row),
    "ratio_1e-9": ratio(1e-9),
    "ratio_1e-8_below": ratio(1e-8 * (1 - 1e-3)),
    "ratio_1e-8_above": ratio(1e-8 * (1 + 1e-3)),
    "ratio_1e-7": ratio(1e-7),
    "ratio_1e-3_below": ratio(1e-3 * (1 - 1e-3)),
    "ratio_1e-3_above": ratio(1e-3 * (1 + 1e-3)),
    "non_finite": non_finite,
    "empty": empty,
}
for _exp in (150, -150, 300, -300):
    CASES[f"near_identity_1e{_exp}"] = scaled(near_identity, 10.0 ** _exp)
    CASES[f"random_1e{_exp}"] = scaled(random, 10.0 ** _exp)


@pytest.mark.parametrize("rel_tol", REL_TOLS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_certified_rank_matches_svd_reference(case, rel_tol):
    rng = np.random.default_rng(sorted(CASES).index(case))
    for shape in SHAPES:
        stack = CASES[case](rng, shape)
        got = numerical_rank(stack, rel_tol)
        assert got.dtype == float and got.shape == (len(stack),)
        np.testing.assert_array_equal(got, svd_rank(stack, rel_tol),
                                      err_msg=f"{case} {shape}")
        if rel_tol >= 0.5:
            assert not _full_rank_certified(stack, rel_tol).any()


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-3])
@pytest.mark.parametrize("factor", [1.0, 1e-100, 1e100])
def test_well_conditioned_stacks_skip_the_svd(rng, rank_spy, rel_tol, factor):
    for shape in SHAPES:
        stack = near_identity(rng, shape) * factor
        assert numerical_rank(stack, rel_tol).tolist() == [min(shape)] * len(stack)
    assert rank_spy.svd == []


def test_only_undecided_rows_reach_the_svd(tmp_path, rank_spy):
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["morse-check", "--family", "all",
                     "--out", str(tmp_path / "report.json")]) == 0
    rank_spy.assert_svd_saw_exactly_the_undecided()
    undecided = sum(len(m) for m in rank_spy.undecided())
    certified = sum(int(ok.sum()) for _, ok in rank_spy.decided)
    assert 0 < undecided < certified
