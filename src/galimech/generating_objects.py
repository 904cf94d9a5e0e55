"""Function families over product fibrations and their generated covectors.

A family assigns a real value to (base, fiber) points of R^b x R^f.  Points
where the fiber gradient vanishes form the critical set; at such points the
base-direction gradient is well defined independently of how base vectors
are lifted, and collecting it over many base points samples the covector
set the family generates.  A family is Morse when the mixed second
derivative matrix (fiber rows, base-plus-fiber columns) has full row rank
along the critical set; ranks are certified through singular values,
bounded from the Gram matrix where that suffices.

The engine is generic and works on stacks: every family supplies its
gradient and its mixed Hessian in closed form, each taking base and fiber
points of shape (..., b) and (..., f) and evaluating every row in one
call.  A set of critical points is one ``CriticalPoint`` record of stacks,
with ``owner``, the base row each point lies over, from Newton to
certificate.  A certification takes the mixed Hessians of every point in
one call and divides each column by its largest magnitude.  A Gershgorin
bound on the Gram matrices of the whole stack proves most of them full
rank; one SVD of the rest decides theirs.  The ranks come back as floats
(N,), NaN where a Hessian is not finite.  Families for the particle
system live at the bottom of the module: the velocity-fibered family
whose critical covectors are the equations of motion in a fixed frame,
its one-variable reduction to a scaled energy constraint, and a
cotangent-bundle textbook family used as a rank reference.

The solver is deliberately plain: one damped Newton over a stack of bases
on the fiber gradient, its Jacobian the fiber block of the family's mixed
Hessian, with least-squares steps so rank deficient Jacobians (which
occur by construction for degree-one homogeneous fibers) still make
progress.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from ._log import DEBUG, log
from .galilean_core import (
    DomainError,
    GalimechError,
    SpatialMetric,
    maxabs,
    pair,
)
from .frame_dynamics import (
    Potential,
    lagrangian_hom,
    legendre_hom,
    mass_shell_residual,
)

# Dedup radius for critical points, in units of the solver tolerance.
_MERGE_FACTOR = 10.0

# Newton least-squares cutoff, relative to the largest singular value of
# the Jacobian: the fiber Jacobian of a degree-one homogeneous family is
# singular by construction, and a direction whose singular value is
# rounding error must not steer the step.
_NEWTON_RCOND = 1e-8

# The Gram trace window of the full-rank certificate: inside it no square
# overflowed and underflow errs far below the Gram's rounding.
_GRAM_TRACE_MIN, _GRAM_TRACE_MAX = 1e-250, 1e250
_EPS = float(np.finfo(float).eps)


class NoConvergence(GalimechError):
    """Newton iteration failed to reach the requested tolerance."""


class NotCritical(GalimechError):
    """Covector extraction requested at a point with non-zero fiber gradient."""


class SectionNotUnique(GalimechError):
    """Fiber elimination found several stationary points over one base point."""


class FunctionFamily:
    """Real function on R^base_dim x R^fiber_dim with its gradient and its
    mixed Hessian.

    ``value(base, fiber)`` returns a float at one point.  ``gradient(base,
    fiber)`` takes stacks of shape (..., base_dim) and (..., fiber_dim)
    with one leading shape and returns the pair (d/d base, d/d fiber) as
    stacks of that leading shape.  ``hessian(base, fiber)`` takes the same
    stacks and returns the derivatives of the fiber gradient, shape
    (..., fiber_dim, base_dim + fiber_dim): rows over the fiber
    directions, columns over the base directions then the fiber
    directions, every entry NaN in a row of the stack where the fiber
    gradient is not finite.  Both compute each row of a stack as it would
    be alone.  The engine reads only the gradient and the Hessian.
    """

    __slots__ = ("base_dim", "fiber_dim", "value", "gradient", "hessian",
                 "name")

    def __init__(self, base_dim: int, fiber_dim: int,
                 value: Callable[[np.ndarray, np.ndarray], float],
                 gradient: Callable[[np.ndarray, np.ndarray],
                                    tuple[np.ndarray, np.ndarray]],
                 hessian: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 name: str = "family"):
        self.base_dim, self.fiber_dim, self.value = base_dim, fiber_dim, value
        self.gradient, self.hessian, self.name = gradient, hessian, name


class CriticalPoint:
    """Critical points as one stack: base (N, b), fiber (N, f), the
    achieved fiber-gradient norm (N,), and owner (N,), the row of the
    solved stack of bases that each point lies over.  Indexing with a
    slice, mask or index array takes those rows."""

    __slots__ = ("base", "fiber", "residual_norm", "owner")

    def __init__(self, base, fiber, residual_norm=None, owner=None):
        n = len(base)
        self.base, self.fiber = base, fiber
        self.residual_norm = np.zeros(n) if residual_norm is None else residual_norm
        self.owner = np.arange(n) if owner is None else owner

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, rows) -> CriticalPoint:
        return CriticalPoint(self.base[rows], self.fiber[rows],
                             self.residual_norm[rows], self.owner[rows])


def _gradient_split(fam: FunctionFamily, base, fiber) -> tuple[np.ndarray, np.ndarray]:
    """(d/d base, d/d fiber) at every row of base (..., b) and fiber
    (..., f), which share one leading shape.  numpy warnings are silenced:
    a non-finite row is the caller's to judge."""
    base = np.asarray(base, dtype=float)
    fiber = np.asarray(fiber, dtype=float)
    with np.errstate(all="ignore"):
        gb, gf = fam.gradient(base, fiber)
    return np.asarray(gb, dtype=float), np.asarray(gf, dtype=float)


def fiber_gradient(fam: FunctionFamily, base, fiber) -> np.ndarray:
    """Gradient of the family value along the fiber directions, at one
    point or at every row of a stack."""
    return _gradient_split(fam, base, fiber)[1]


def _mixed_hessian(fam: FunctionFamily, base, fiber) -> np.ndarray:
    """The family's mixed Hessians (..., f, b + f) at every row of base
    (..., b) and fiber (..., f).  numpy warnings are silenced: a
    non-finite row is the caller's to judge."""
    base = np.asarray(base, dtype=float)
    fiber = np.asarray(fiber, dtype=float)
    with np.errstate(all="ignore"):
        return np.asarray(fam.hessian(base, fiber), dtype=float)


def _by_row(call, bases: np.ndarray, fibers: np.ndarray, shape: tuple):
    """call(bases, fibers), whose rows have the given shape, at every row
    of a stack, and the error each row raised, by row (its output reads
    NaN).  When the stacked call raises, every row is evaluated again
    alone, so each row ends exactly as it would alone."""
    try:
        return call(bases, fibers), {}
    except (GalimechError, ArithmeticError):
        out, errors = np.full(fibers.shape[:-1] + shape, np.nan), {}
    for i, (base, fiber) in enumerate(zip(bases, fibers)):
        try:
            out[i] = call(base, fiber)
        except (GalimechError, ArithmeticError) as exc:
            errors[i] = exc
    return out, errors


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solutions of the systems a (K, m, n) x = b (K, m),
    cutoff _NEWTON_RCOND, in one call of the LAPACK gelsd gufunc behind
    np.linalg.lstsq.  The gufunc solves each matrix as np.linalg.lstsq
    solves it alone, so every row has the same bits, and a matrix the SVD
    fails on raises the same LinAlgError."""
    with np.errstate(call=_raise_lstsq_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x, *_ = _umath_linalg.lstsq(a, b[..., None], _NEWTON_RCOND,
                                    signature="ddd->ddid")
    return x[..., 0]


def _newton(fam: FunctionFamily, bases: np.ndarray, fibers: np.ndarray,
            head: int, tol: float,
            max_iter: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Damped Newton from every row of bases (B, b) and fibers (B, f) on
    the first ``head`` fiber components, the others held fixed; each row
    steps bit for bit as it would alone.

    An iteration takes the Jacobians of all unconverged rows from one call
    of the family's Hessian, whose fiber block (first ``head`` rows and
    fiber columns) each is, then one stacked least-squares solve over the
    rows whose Jacobian is finite; a line-search round makes one gradient
    call over the rows still searching, and shortens the step of a row
    whose trial leaves the domain (its gradient raises a GalimechError or
    is not finite).
    Returns (fiber, norm, errors): the last fiber (B, f) and |grad| (B,)
    of every row, and by row the error of each row that did not converge:
    NoConvergence (stalled, or max_iter ran out), DomainError (gradient at
    the start or Jacobian not finite), or what its gradient raised.  A row
    converged exactly when its norm <= tol.
    """
    b = fam.base_dim

    def gradient(bases, fibers):
        return fiber_gradient(fam, bases, fibers)[..., :head]

    def jacobian(bases, fibers):
        return _mixed_hessian(fam, bases, fibers)[..., :head, b:b + head]

    bases = np.asarray(bases, dtype=float)
    fiber = np.array(fibers, dtype=float)
    grad, errors = _by_row(gradient, bases, fiber, (head,)) if len(fiber) \
        else (np.empty((0, head)), {})
    grad = np.array(grad)  # rows are updated in place as they step
    norm = maxabs(grad)  # NaN once a row has ended
    for i in np.flatnonzero(~np.isfinite(norm)).tolist():
        errors.setdefault(i, DomainError(
            f"{fam.name}: fiber gradient not finite at the start "
            f"{fiber[i].tolist()} over base {bases[i].tolist()}"))
    for _ in range(max_iter):
        norm[list(errors)] = np.nan
        act = np.flatnonzero(norm > tol)
        if not act.size:
            break
        jac, failed = _by_row(jacobian, bases[act], fiber[act], (head, head))
        live = np.isfinite(jac).all(axis=(1, 2))  # a failed row reads NaN
        for k, i in zip(np.flatnonzero(~live).tolist(), act[~live].tolist()):
            errors[i] = failed[k] if k in failed else DomainError(
                f"{fam.name}: fiber Jacobian not finite at "
                f"{fiber[i].tolist()} over base {bases[i].tolist()}")
        search, scale = act[live], 1.0
        steps = _lstsq_stack(jac[live], -grad[search])
        for _ in range(25):
            if not search.size:
                break
            trial = fiber[search]
            trial[:, :head] += scale * steps
            trial_grad, failed = _by_row(gradient, bases[search], trial, (head,))
            trial_norm = maxabs(trial_grad)
            accept = (trial_norm < norm[search]) | (trial_norm <= tol)
            done = search[accept]
            fiber[done], grad[done], norm[done] = (
                trial[accept], trial_grad[accept], trial_norm[accept])
            stay = ~accept
            for k, exc in failed.items():  # a domain exit is shortened
                if not isinstance(exc, (GalimechError, FloatingPointError)):
                    errors[int(search[k])], stay[k] = exc, False
            search, steps, scale = search[stay], steps[stay], 0.5 * scale
        for i in search.tolist():
            errors[i] = NoConvergence(
                f"{fam.name}: damped Newton stalled at |grad|={norm[i]:.3e} "
                f"over base {bases[i].tolist()}")
    norm[list(errors)] = np.nan
    for i in np.flatnonzero(norm > tol).tolist():
        errors[i] = NoConvergence(
            f"{fam.name}: no critical point within {max_iter} iterations "
            f"over base {bases[i].tolist()} (|grad|={norm[i]:.3e})")
    return fiber, norm, errors


def _raise_first(errors: dict, stop: int) -> None:
    """Log each NoConvergence among _newton's errors before row stop, in
    row order, as a rejected seed; raise the first other error there."""
    for i in sorted(i for i in errors if i < stop):
        if not isinstance(errors[i], NoConvergence):
            raise errors[i]
        log(__name__, DEBUG, "seed rejected: %s", errors[i])


def solve_critical_stack(fam: FunctionFamily, bases, seeds,
                         tol: float = 1e-10,
                         max_iter: int = 60) -> CriticalPoint:
    """Find critical fiber points over every base point of a stack (B, b).

    Damped Newton runs from one seed (f,), the seeds (S, f), or per base
    (B, S, f), over all B * S rows at once.  Seeds that fail to converge
    are skipped, and over a base where several converged, a solution
    closer than 10 * tol to one already found is merged (the smaller
    gradient norm is kept).  Returns the points in (base, seed) order,
    each with the row of bases it lies over as its owner.  Raises the
    first other error in that order: DomainError when the gradient is not
    finite at a seed, or what the gradient raised; and ValueError for
    seeds of another shape.
    """
    bases = np.asarray(bases, dtype=float).reshape(-1, fam.base_dim)
    seeds = np.asarray(seeds, dtype=float)
    if seeds.shape in ((0,), (fam.fiber_dim,)):  # no seeds, or one
        seeds = seeds.reshape(-1, fam.fiber_dim)
    if seeds.ndim not in (2, 3) or seeds.shape[-1] != fam.fiber_dim:
        raise ValueError(f"{fam.name}: seeds must be (f,), (S, f) or "
                         f"(B, S, f) with f = {fam.fiber_dim}, not {seeds.shape}")
    seeds = np.broadcast_to(seeds, (len(bases),) + seeds.shape[-2:])
    fiber, norm, errors = _newton(
        fam, np.repeat(bases, seeds.shape[1], axis=0),
        seeds.reshape(-1, fam.fiber_dim), fam.fiber_dim, tol, max_iter)
    _raise_first(errors, len(norm))
    ok = (norm <= tol).reshape(seeds.shape[:2])
    for i in np.flatnonzero(ok.sum(axis=1) > 1).tolist():  # the merge
        kept: list[int] = []
        for j in np.flatnonzero(ok[i]).tolist():
            r = i * seeds.shape[1] + j
            for k in kept:
                if float(np.linalg.norm(fiber[k] - fiber[r])) < _MERGE_FACTOR * tol:
                    if norm[r] < norm[k]:
                        fiber[k], norm[k] = fiber[r], norm[r]
                    ok[i, j] = False
                    break
            else:
                kept.append(r)
    owner = np.nonzero(ok)[0]
    rows = np.flatnonzero(ok)
    return CriticalPoint(bases[owner], fiber[rows], norm[rows], owner)


def solve_critical(fam: FunctionFamily, base, seeds,
                   tol: float = 1e-10, max_iter: int = 60) -> CriticalPoint:
    """solve_critical_stack over one base point."""
    return solve_critical_stack(fam, [base], seeds, tol, max_iter)


def hessian(fam: FunctionFamily, points: CriticalPoint) -> np.ndarray:
    """Mixed second derivatives at every point, shape (N, f, b + f), from
    one call of the family's Hessian.

    Rows run over the fiber directions, columns over base directions then
    fiber directions; a point where the fiber gradient is not finite has
    a NaN matrix.
    """
    return _mixed_hessian(fam, points.base, points.fiber)


def _full_rank_certified(matrices: np.ndarray, rel_tol: float) -> np.ndarray:
    """Rows (N,) of a stack (N, r, c) whose numerical rank, as the SVD in
    ``numerical_rank`` counts it, is k = min(r, c), proved without an SVD.

    G = M Mᵀ over the shorter side of M is k x k, with eigenvalues σᵢ².
    G is symmetric, so by Gershgorin (1931) each eigenvalue is at least
    l = minᵢ(Gᵢᵢ − Σ_{j≠i}|Gᵢⱼ|) and at most trace G: σ_min² ≥ l and
    σ_max² ≤ trace G.  A row is certified when l > c trace G, with
    c = max(4 rel_tol², 100 k n eps) and n = max(r, c).

    Proof sketch.  Each computed Gram entry is within about n eps trace G
    of the exact one, so the computed l is within about 2 k n eps trace G,
    a fiftieth of c at most, and the exact σ_min / σ_max exceeds both
    1.9 rel_tol and 9 (k n eps)^½.  A backward stable SVD returns every
    singular value within a small multiple of eps σ_max of the exact one
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3,
    with Weyl's inequality), far inside that margin, so it counts all k
    values above rel_tol times the largest.  The trace window keeps the
    squares clear of overflow, so every certified matrix is also finite,
    and of underflow, whose absolute error is then far below the rounding
    above.  At rel_tol ≥ ½, c ≥ 1 while l ≤ trace G: nothing is certified.
    """
    rows, cols = matrices.shape[-2:]
    short, long = min(rows, cols), max(rows, cols)
    if short == 0:
        return np.zeros(len(matrices), dtype=bool)
    m = matrices if rows == short else np.swapaxes(matrices, -1, -2)
    ratio = max(4.0 * rel_tol * rel_tol, 100.0 * short * long * _EPS)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m @ np.swapaxes(m, -1, -2)
        diag = np.diagonal(gram, axis1=-2, axis2=-1)
        trace = diag.sum(axis=-1)
        low = (2.0 * diag - np.abs(gram).sum(axis=-1)).min(axis=-1)
        return (trace > _GRAM_TRACE_MIN) & (trace < _GRAM_TRACE_MAX) \
            & (low > ratio * trace)


def numerical_rank(matrices: np.ndarray, rel_tol: float = 1e-8) -> np.ndarray:
    """Numerical rank of each matrix of a stack (N, r, c): the number of
    singular values above rel_tol times the largest one, as floats (N,);
    NaN for a matrix with a non-finite entry.

    A matrix that the Gram bound of ``_full_rank_certified`` proves full
    rank gets min(r, c) without an SVD; the rest (rank deficient, near
    the cut, non-finite or of extreme scale) go to one SVD of their stack.
    Both give the same rank, so the split moves no result.
    """
    matrices = np.asarray(matrices, dtype=float)
    ranks = np.full(len(matrices), float(min(matrices.shape[-2:])))
    undecided = ~_full_rank_certified(matrices, rel_tol)
    if undecided.any():
        rest = matrices[undecided]
        finite = np.isfinite(rest).all(axis=(-2, -1))
        sv = np.linalg.svd(np.where(finite[:, None, None], rest, 0.0),
                           compute_uv=False)
        ranks[undecided] = np.where(
            finite, np.sum(sv > rel_tol * sv[:, :1], axis=-1), np.nan)
    return ranks


def is_morse(fam: FunctionFamily, points: CriticalPoint,
             rank_tol: float = 1e-8) -> np.ndarray:
    """The rank (N,) of the mixed Hessian at every point, NaN where the
    Hessian is not finite; the family is Morse at a point whose rank is
    fam.fiber_dim.  One stacked Hessian for all of them, and
    ``numerical_rank``, which takes an SVD only of those its Gram bound
    cannot prove full rank.

    Each column is divided by its largest magnitude first, and a zero
    column stays zero.  That is a change of unit per coordinate, which
    leaves the rank unchanged in exact arithmetic, so the certificate does
    not depend on the units of mass, momentum or velocity (van der Sluis,
    Numer. Math. 14, 1969).  A NaN column stays NaN.
    """
    h = hessian(fam, points)
    scale = maxabs(np.swapaxes(h, -1, -2))[..., None, :]
    with np.errstate(invalid="ignore"):  # an infinite column reads NaN
        return numerical_rank(h / np.where(scale > 0.0, scale, 1.0), rank_tol)


def kappa(fam: FunctionFamily, points: CriticalPoint,
          tol: float = 1e-8) -> np.ndarray:
    """Covectors (N, b) generated at critical points: the base-direction
    gradient at every point, from one gradient call over all of them.

    Well defined because any two lifts of a base vector differ by a fiber
    vector, on which the gradient vanishes at criticality.  Raises
    NotCritical at the first point whose fiber gradient is not within tol.
    """
    gb, gf = _gradient_split(fam, points.base, points.fiber)
    norms = maxabs(gf)
    bad = np.flatnonzero(~(norms <= tol))
    if bad.size:
        raise NotCritical(f"{fam.name}: fiber gradient norm "
                          f"{norms[bad[0]]:.3e} exceeds {tol:.1e}")
    return gb


def generate(fam: FunctionFamily, bases, seeds,
             tol: float = 1e-10) -> tuple[CriticalPoint, np.ndarray]:
    """Sample the generated covector set over a collection of base points:
    the critical points found (N points) and the covectors (N, b) there.

    For each base point, finds critical fiber points from the given seeds;
    certifies them in one is_morse call, where a rank defect at any point
    raises ValueError naming the first such base; then maps all of them
    through kappa at once.  Base points where no seed converges contribute
    nothing.
    """
    points = solve_critical_stack(fam, bases, seeds, tol=tol)
    ranks = is_morse(fam, points)
    bad = np.flatnonzero(ranks != fam.fiber_dim)
    if bad.size:
        raise ValueError(
            f"{fam.name} is not a Morse family over base "
            f"{points.base[bad[0]].tolist()}: rank {ranks[bad[0]]:g} "
            f"(need {fam.fiber_dim})")
    return points, kappa(fam, points, tol=max(10.0 * tol, 1e-12))


def reduce_family(fam: FunctionFamily, eliminate: int, seeds: Sequence,
                  tol: float = 1e-12, max_iter: int = 60) -> FunctionFamily:
    """Eliminate the leading block of fiber variables by stationarity.

    The fiber R^f is read as R^eliminate x R^(f - eliminate).  Evaluating
    the reduced family at (base, kept) solves the stationarity equations of
    the eliminated block by Newton iteration from each seed and substitutes
    the solution.  The reduced gradient uses the stationarity of the
    eliminated block, so it is the restriction of the parent gradient to
    the section; over a stack it solves every row's section in one stacked
    Newton and then evaluates the parent gradient once.  The reduced
    Hessian is the Schur complement of the eliminated block in the parent
    Hessian on the section, H_k. - H_kh H_hh^-1 H_h. over the base and
    kept columns; a singular H_hh raises DomainError.

    Raises NoConvergence at evaluation when no seed converges and
    SectionNotUnique when distinct seeds land on distinct stationary
    points, which happens exactly when the elimination leaves the
    hyperregular regime.
    """
    if eliminate == 0:
        return fam
    if not 0 < eliminate < fam.fiber_dim:
        raise ValueError(
            f"cannot eliminate {eliminate} of {fam.fiber_dim} fiber variables")
    seeds = np.asarray(seeds, dtype=float).reshape(-1, eliminate)
    if not len(seeds):
        raise ValueError("reduce_family needs at least one seed")
    kept = fam.fiber_dim - eliminate

    def sections(bases: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """The eliminated block (N, eliminate) over bases (N, b) and kept
        fibers (N, kept), from one stacked Newton over every row and seed:
        the first solution over each row.  The first row that fails, or
        that has a solution 10 * tol or more from its first, raises."""
        n, per_base = len(tails), len(seeds)
        fibers = np.concatenate(
            [np.broadcast_to(seeds, (n, per_base, eliminate)),
             np.broadcast_to(tails[:, None], (n, per_base, kept))], axis=-1)
        fiber, norm, errors = _newton(
            fam, np.repeat(bases, per_base, axis=0),
            fibers.reshape(-1, fam.fiber_dim), eliminate, tol, max_iter)
        ok = (norm <= tol).reshape(n, per_base)
        heads = fiber[:, :eliminate].reshape(n, per_base, eliminate)
        head = heads[np.arange(n), ok.argmax(axis=1)]
        with np.errstate(all="ignore"):  # rows that did not converge
            far = ok & ~(np.linalg.norm(heads - head[:, None], axis=-1)
                         < _MERGE_FACTOR * tol)
        bad = np.flatnonzero(~ok.any(axis=1) | far.any(axis=1))
        _raise_first(errors, (bad[0] + 1) * per_base if bad.size else len(norm))
        if bad.size:
            i = int(bad[0])
            if not ok[i].any():
                raise NoConvergence(
                    f"{fam.name}: eliminated-block stationarity has no solution "
                    f"over base {bases[i].tolist()} ({per_base} seed(s) tried)")
            raise SectionNotUnique(
                f"{fam.name}: distinct stationary points of the eliminated "
                f"block over base {bases[i].tolist()}")
        return head

    b = fam.base_dim
    outer = np.r_[:b, b + eliminate:b + fam.fiber_dim]  # base and kept columns

    def lift(base: np.ndarray, tail: np.ndarray):
        """base (..., b) and the parent's fiber (..., f) on the section over
        (base, tail)."""
        base = np.asarray(base, dtype=float)
        tail = np.asarray(tail, dtype=float)
        heads = sections(base.reshape(-1, b), tail.reshape(-1, kept)).reshape(
            tail.shape[:-1] + (eliminate,))
        return base, np.concatenate([heads, tail], axis=-1)

    def value(base: np.ndarray, tail: np.ndarray) -> float:
        return float(fam.value(*lift(base, tail)))

    def gradient(base: np.ndarray, tail: np.ndarray):
        gb, gf = _gradient_split(fam, *lift(base, tail))
        return gb, gf[..., eliminate:]

    def hessian(base: np.ndarray, tail: np.ndarray) -> np.ndarray:
        base, fiber = lift(base, tail)
        h = _mixed_hessian(fam, base, fiber)
        h_head, h_kept = h[..., :eliminate, :], h[..., eliminate:, :]
        try:
            solved = np.linalg.solve(h_head[..., b:b + eliminate],
                                     h_head[..., outer])
        except np.linalg.LinAlgError:
            raise DomainError(f"{fam.name}: eliminated block singular over "
                              f"base {base.tolist()}") from None
        return h_kept[..., outer] - h_kept[..., b:b + eliminate] @ solved

    return FunctionFamily(base_dim=b, fiber_dim=kept, value=value,
                          gradient=gradient, hessian=hessian,
                          name=f"{fam.name}/reduced")


# ---------------------------------------------------------------------------
# Families for the particle system.


def family_example31(mass: float = 1.0, stiffness: float = 1.0) -> FunctionFamily:
    """Cotangent-bundle family over (q, p) with fiber velocity v.

    Value L(q, v) - <p, v> for the quadratic lagrangian
    L = mass/2 |v|^2 - stiffness/2 |q|^2.  The p-block of the mixed Hessian
    is minus the identity, so the rank equals the configuration dimension 3
    everywhere on the critical set v = p / mass.
    """
    m = float(mass)
    k = float(stiffness)

    def value(base: np.ndarray, fiber: np.ndarray) -> float:
        q, p, v = base[:3], base[3:], fiber
        return 0.5 * m * float(v @ v) - 0.5 * k * float(q @ q) - float(p @ v)

    def gradient(base: np.ndarray, fiber: np.ndarray):
        base, v = np.asarray(base, dtype=float), np.asarray(fiber, dtype=float)
        q, p = base[..., :3], base[..., 3:]
        return np.concatenate([-k * q, -v], axis=-1), m * v - p

    blocks = np.concatenate([np.zeros((3, 3)), -np.eye(3), m * np.eye(3)],
                            axis=1)  # [0 | -I | m I]

    def hessian(base: np.ndarray, fiber: np.ndarray) -> np.ndarray:
        base, v = np.asarray(base, dtype=float), np.asarray(fiber, dtype=float)
        finite = np.isfinite(m * v - base[..., 3:]).all(axis=-1)
        return np.where(finite[..., None, None], blocks, np.nan)

    return FunctionFamily(base_dim=6, fiber_dim=3, value=value,
                          gradient=gradient, hessian=hessian, name="example31")


# Fiber ordering for the velocity-fibered families: the three spatial
# components come first and the time component last, so that eliminating
# the leading block removes exactly the spatial directions.
_V_NATURAL_TO_FIBER = np.array([1, 2, 3, 0])
_V_FIBER_TO_NATURAL = np.array([3, 0, 1, 2])


def vector_to_fiber(v) -> np.ndarray:
    """Pack four-velocities (..., 4) into fiber coordinates (spatial block,
    time)."""
    return np.asarray(v, dtype=float)[..., _V_NATURAL_TO_FIBER]


def _potential_jet(potential: Potential,
                   x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The potential (...) and its differential (..., 4) at the events x
    (..., 4)."""
    phi = potential.at_events(np.reshape(x, (-1, 4)))
    return phi.reshape(x.shape[:-1]), potential.d(x)


def family_fam1(u_s: np.ndarray, m: float, g: SpatialMetric,
                potential: Potential) -> FunctionFamily:
    """Velocity-fibered family over (event, covector momentum).

    Value <p, v> minus the homogeneous lagrangian of the frame u_s, a
    spatial velocity (3,).  Critical points pick out velocities whose fiber
    derivative reproduces p; the p-block of the mixed Hessian is a permuted
    identity, so the family is Morse with rank 4.  Fiber coordinates are
    ordered (v1, v2, v3, v0) so that reduce_family with eliminate=3 removes
    the spatial directions and leaves the time component.  The gradient is
    NaN at a velocity that is not future-directed, where the lagrangian is
    undefined.
    """
    def value(base: np.ndarray, fiber: np.ndarray) -> float:
        base, fiber = np.asarray(base, dtype=float), np.asarray(fiber, dtype=float)
        x, p = base[:4], base[4:]
        v = fiber[_V_FIBER_TO_NATURAL]
        phi = potential.at_events(x[None])[0]
        return float(pair(p, v) - lagrangian_hom(u_s, m, g, phi, v))

    def gradient(base: np.ndarray, fiber: np.ndarray):
        base, fiber = np.asarray(base, dtype=float), np.asarray(fiber, dtype=float)
        x, p = base[..., :4], base[..., 4:]
        v = fiber[..., _V_FIBER_TO_NATURAL]
        phi, dphi = _potential_jet(potential, x)
        tv = v[..., :1]
        gb = np.concatenate([tv * dphi, v], axis=-1)
        gf = (p - legendre_hom(u_s, m, g, phi, v))[..., _V_NATURAL_TO_FIBER]
        past = tv <= 0.0
        if np.any(past):
            gb, gf = np.where(past, np.nan, gb), np.where(past, np.nan, gf)
        return gb, gf

    # G itself (its column j lowers the unit vector e_j) and G u.
    g_matrix, g_u = g.apply(np.eye(3)).T, g.apply(u_s)

    def hessian(base: np.ndarray, fiber: np.ndarray) -> np.ndarray:
        """In fiber order (v_s, v0), with s = v_s - v0 u the projected
        velocity: dphi(x) in the v0 row, the permuted identity in the p
        columns and -L in the fiber columns, L the symmetric Hessian of
        lagrangian_hom in v: L_ss = (m/v0) G, L_s0 = -(m/v0) G u -
        (m/v0^2) G s and L_00 = (m/v0^3) <G v_s, v_s>."""
        base, fiber = np.asarray(base, dtype=float), np.asarray(fiber, dtype=float)
        x, p = base[..., :4], base[..., 4:]
        v = fiber[..., _V_FIBER_TO_NATURAL]
        phi, dphi = _potential_jet(potential, x)
        tv = v[..., 0]
        lowered = legendre_hom(u_s, m, g, phi, v)  # its spatial part (m/v0) G s
        m_tv = m / tv
        out = np.zeros(tv.shape + (4, 12))
        out[..., 3, :4] = dphi
        out[..., [0, 1, 2, 3], 4 + _V_NATURAL_TO_FIBER] = 1.0
        out[..., :3, 8:11] = -m_tv[..., None, None] * g_matrix
        out[..., :3, 11] = out[..., 3, 8:11] = \
            m_tv[..., None] * g_u + lowered[..., 1:] / tv[..., None]
        out[..., 3, 11] = -m_tv / (tv * tv) * g.quadratic(v[..., 1:])
        out[(tv <= 0.0) | ~np.isfinite(p - lowered).all(axis=-1)] = np.nan
        return out

    return FunctionFamily(base_dim=8, fiber_dim=4, value=value,
                          gradient=gradient, hessian=hessian, name="fam1")


def family_fam2(u_s: np.ndarray, m: float, g: SpatialMetric,
                potential: Potential) -> FunctionFamily:
    """One-variable family over (event, covector momentum).

    Value r times the mass-shell residual of the frame u_s, a spatial
    velocity (3,).  Critical points exist exactly over on-shell base points,
    where every r is stationary; the generated covector scales the residual
    differentials by r.
    """
    def value(base: np.ndarray, fiber: np.ndarray) -> float:
        base = np.asarray(base, dtype=float)
        x, p = base[:4], base[4:]
        phi = potential.at_events(x[None])[0]
        return float(fiber[0] * mass_shell_residual(u_s, m, g, phi, p))

    def residual(base: np.ndarray):
        """The mass-shell residual (..., 1) at base (..., 8) and its
        differential (..., 8)."""
        x, p = base[..., :4], base[..., 4:]
        phi, dphi = _potential_jet(potential, x)
        res = mass_shell_residual(u_s, m, g, phi, p)[..., None]
        dres_dp = g.apply_inverse(p[..., 1:]) / m + u_s
        return res, np.concatenate([dphi, np.ones_like(res), dres_dp], axis=-1)

    def gradient(base: np.ndarray, fiber: np.ndarray):
        res, dres = residual(np.asarray(base, dtype=float))
        return np.asarray(fiber, dtype=float)[..., :1] * dres, res

    def hessian(base: np.ndarray, fiber: np.ndarray) -> np.ndarray:
        res, dres = residual(np.asarray(base, dtype=float))
        row = np.concatenate([dres, np.zeros_like(res)], axis=-1)  # 0 for r
        return np.where(np.isfinite(res), row, np.nan)[..., None, :]

    return FunctionFamily(base_dim=8, fiber_dim=1, value=value,
                          gradient=gradient, hessian=hessian, name="fam2")
