"""Linear and affine algebra of flat Newtonian space-time in a fixed chart.

Conventions used by every module in this package:

* An event is its coordinates (t, q1, q2, q3), an array of shape (4,).
* Vectors and covectors are their four components c0..c3 / a0..a3, arrays
  of shape (4,), and pair by the plain sum a0*c0 + a1*c1 + a2*c2 + a3*c3.
* The time covector is (1, 0, 0, 0).  Vectors with vanishing first
  component are spatial (they connect simultaneous events); the metric acts
  on their three spatial components only.
* A frame is a vector with time component exactly 1, given by its spatial
  part alone: the constant velocity of the corresponding family of inertial
  observers, an array of shape (3,).  F frames are an (F, 3) stack.

Everything here is a pure function of values that nothing changes after
construction.  No mutable state.  The kernels (``pair``, ``maxabs``,
``pair_frame``, ``iota_u_array``, ``sigma`` and the ``SpatialMetric``
methods) take arrays of components of shape (..., 3) or (..., 4) and
evaluate every entry in one numpy pass, one entry or a whole stack.
"""

from __future__ import annotations

import numpy as np


class GalimechError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GalimechError):
    """A computation needs a value where it is undefined: an evaluation
    raised an ArithmeticError there, or the value is not finite."""


class SingularMetric(GalimechError):
    """A candidate metric matrix is not positive definite at tolerance."""


# Eigenvalues of a spatial metric must clear this floor.
_SPD_EIGENVALUE_FLOOR = 1e-12


class SpatialMetric:
    """Euclidean metric on the simultaneity directions.

    Wraps a symmetric positive-definite 3x3 matrix together with its inverse.
    Construction rejects asymmetric input and matrices whose smallest
    eigenvalue does not clear a fixed floor, so every instance is safely
    invertible downstream.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"metric must be a 3x3 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("metric entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
            raise ValueError("metric must be symmetric")
        eigenvalues = np.linalg.eigvalsh(m)
        if float(eigenvalues[0]) <= _SPD_EIGENVALUE_FLOOR:
            raise SingularMetric(
                f"metric is not positive definite: smallest eigenvalue "
                f"{eigenvalues[0]:.3e} <= {_SPD_EIGENVALUE_FLOOR:.0e}")
        m = m.copy()
        m.setflags(write=False)
        self._matrix = m
        inv = np.linalg.inv(m)
        inv.setflags(write=False)
        self._inverse = inv

    @classmethod
    def identity(cls) -> "SpatialMetric":
        return cls(np.eye(3))

    @classmethod
    def diagonal(cls, d1: float, d2: float, d3: float) -> "SpatialMetric":
        return cls(np.diag([d1, d2, d3]))

    # Each product rounds every entry of a stack exactly as the 1-D
    # `m @ x`, `x @ m` and `a @ b` do; an elementwise sum of products would
    # not.  A single vector, or a stack of fewer than _STACK_ROWS rows,
    # goes through np.matvec and np.vecmat: one BLAS gemv call per row.  A
    # larger stack makes each BLAS call over all its rows: apply and
    # apply_inverse one gemv per output component i (`rows @ m[i]`, the
    # transposed gemv np.matvec runs on each row), quadratic one gemm for
    # its lowering (`rows @ m`).  These kernels compute each entry as the
    # same length-3 dot product, in the same order, however many rows a
    # call covers, so both size classes give the same bits
    # (tests/test_metric_products.py holds them to it).  `rows @ m.T`
    # would not: its gemm sums in another order.  A one-row matmul goes to
    # ddot instead, so one row is never batched.

    def apply(self, s) -> np.ndarray:
        """Lower an index: spatial vector components -> functional
        components, for one vector or a stack of shape (..., 3)."""
        if getattr(s, "size", 0) < 3 * _STACK_ROWS:
            return np.matvec(self._matrix, s)
        return _matvec_rows(self._matrix, s)

    def apply_inverse(self, f, out=None) -> np.ndarray:
        """Raise an index: functional components -> spatial vector
        components, for one functional or a stack of shape (..., 3),
        written into out when it is given."""
        if getattr(f, "size", 0) < 3 * _STACK_ROWS:
            return np.matvec(self._inverse, f, out=out)
        res = _matvec_rows(self._inverse, f)
        if out is None:
            return res
        out[...] = res
        return out

    def quadratic(self, s) -> np.ndarray:
        """Inner product of spatial vectors with themselves, entry by entry
        for stacks of shape (..., 3)."""
        if getattr(s, "size", 0) < 3 * _STACK_ROWS:
            low = np.vecmat(s, self._matrix)
        else:
            low = _vecmat_rows(s, self._matrix)
        return np.vecdot(low, s)


# Stacks of at least this many rows make one BLAS call per output
# component instead of one per row.  On a 2-core x86-64 host with
# OpenBLAS, apply's two paths cost the same at about 56 rows (3.6 against
# 3.75 µs at 48 rows, 4.4 against 3.8 µs at 64); quadratic's lowering
# breaks even at about 24 rows.
_STACK_ROWS = 64


def _blas_rows(s):
    """A float stack s (..., 3) as an (N, 3) matrix that numpy's matmul
    hands to BLAS row-major: unit stride along a row, rows at least 3
    apart.  Any other layout is copied, because matmul would read it
    column-major (the other gemv kernel) or run its own loop, and both
    round differently.  None for anything but a float stack (..., 3),
    which np.matvec and np.vecmat then take or reject."""
    if s.ndim < 2 or s.shape[-1] != 3 or s.dtype != np.float64:
        return None
    rows = s.reshape(-1, 3)
    step, unit = rows.strides
    if unit != 8 or step < 24 or step % 8:
        rows = np.ascontiguousarray(rows)
    return rows


def _matvec_rows(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """np.matvec(m, s) for a large stack s, C-contiguous in its shape, as
    np.matvec's result is (the per-row BLAS path of an np.vecdot taken of
    it depends on the strides): component i of every row in one gemv
    call, `rows @ m[i]`, the call np.matvec makes once per row.  The three
    go in one matmul call, row i of m as a (3, 1) column, each written
    into its column of the result."""
    rows = _blas_rows(s)
    if rows is None:
        return np.matvec(m, s)
    res = np.empty(s.shape)
    np.matmul(rows, m[:, :, None], out=res.reshape(-1, 3).T[:, :, None])
    return res


def _vecmat_rows(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """np.vecmat(s, m) for a large stack s, C-contiguous in its shape:
    every row in one gemm call, `rows @ m`."""
    rows = _blas_rows(s)
    if rows is None:
        return np.vecmat(s, m)
    return (rows @ m).reshape(s.shape)


def _components(a: np.ndarray) -> list:
    """The components of a along its last axis: floats for a single vector,
    arrays of shape a.shape[:-1] for a stack."""
    return a.tolist() if a.ndim == 1 else [a[..., i] for i in range(a.shape[-1])]


def pair(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<p, v> for stacks of covectors and vectors of shape (..., 4), summed
    in component order: a0*c0 + a1*c1 + a2*c2 + a3*c3."""
    p0, p1, p2, p3 = _components(p)
    v0, v1, v2, v3 = _components(v)
    return p0 * v0 + p1 * v1 + p2 * v2 + p3 * v3


def maxabs(x: np.ndarray) -> np.ndarray:
    """max |x| over the last axis of a stack (..., w), 0.0 where w is 0.

    np.maximum folded over the columns: on short rows about ten times
    faster than np.max(np.abs(x), axis=-1), and bit for bit the same,
    because a maximum is exact, NaN propagates, and |x| holds no -0.0.
    """
    a = np.abs(x)
    if not a.shape[-1]:
        return np.zeros(a.shape[:-1])
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = np.maximum(out, a[..., j])
    return out


def pair_frame(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """<p, u> for covectors (..., 4) and frames given by their spatial
    velocities (..., 3); the time component of a frame is exactly 1."""
    p0, p1, p2, p3 = _components(p)
    u1, u2, u3 = _components(u)
    return p0 + p1 * u1 + p2 * u2 + p3 * u3


def iota_u_array(u, v) -> np.ndarray:
    """Project vectors v (..., 4) onto the simultaneity directions along
    frames with spatial velocities u (..., 3): the spatial components
    (..., 3) of v minus the frame velocity scaled by the time component.
    Spatial vectors pass through unchanged, and the frame's own velocity
    maps to zero.
    """
    return v[..., 1:] - v[..., :1] * u


def sigma(g: SpatialMetric, u_prime, u) -> np.ndarray:
    """Momentum shift covector attached to a change of frame u -> u_prime.

    Lowers the relative velocity u_prime - u with the metric and extends the
    result to a covector on all vectors using the projection along the
    midpoint frame: the value on v is

        <g(u' - u), v - v0 (u + u')/2>,

    with v0 the time component of v.

    Frames are given by their spatial velocities, arrays of shape (..., 3);
    the covectors come back as components (..., 4).  Antisymmetric in its frame
    arguments and additive along chains of frames; both properties are
    exercised by the test suite.
    """
    f = g.apply(u_prime - u)
    mid = (u_prime + u) / 2.0
    out = np.empty(f.shape[:-1] + (4,))
    out[..., 0] = -np.vecdot(f, mid)
    out[..., 1:] = f
    return out

