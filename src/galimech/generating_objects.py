"""Function families over product fibrations and their generated covectors.

A family assigns a real value to (base, fiber) points of R^b x R^f.  Points
where the fiber gradient vanishes form the critical set; at such points the
base-direction gradient is well defined independently of how base vectors
are lifted, and collecting it over many base points samples the covector
set the family generates.  A family is Morse when the mixed second
derivative matrix (fiber rows, base-plus-fiber columns) has full row rank
along the critical set; ranks are certified through singular values.

The engine is generic and works on stacks: a family gradient takes base
and fiber points of shape (..., b) and (..., f) and evaluates every row in
one call, so a certification differentiates the gradient at every
critical point in one call and takes the singular values of every mixed
Hessian in one more.  Families for the particle system live at the bottom
of the module: the velocity-fibered family whose critical covectors are the
equations of motion in a fixed frame, its one-variable reduction to a
scaled energy constraint, and a cotangent-bundle textbook family used as a
rank reference.

The solver is deliberately plain: one damped Newton over a stack of bases
on the fiber gradient with a finite-difference Jacobian, least-squares
steps so rank deficient Jacobians (which occur by construction for
degree-one homogeneous fibers) still make progress.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .galilean_core import (
    Covector4,
    DomainError,
    Event,
    Frame,
    GalimechError,
    SpatialMetric,
    Vector4,
)
from .frame_dynamics import (
    Potential,
    lagrangian_hom,
    legendre_hom_array,
    mass_shell_residual,
    mass_shell_residual_array,
)

log = logging.getLogger(__name__)

# Step scales for the finite-difference fallbacks.
_GRAD_STEP = 1e-6       # first derivatives of the family value
_HESS_GRAD_STEP = 1e-5  # differencing an analytic gradient
_HESS_VALUE_STEP = 2e-4 # direct mixed second differences of the value

# Dedup radius for critical points, in units of the solver tolerance.
_MERGE_FACTOR = 10.0

# Newton least-squares cutoff, well above finite-difference noise: a
# Jacobian direction whose singular value is pure differencing error must
# not steer the step.
_NEWTON_RCOND = 1e-8


class NoConvergence(GalimechError):
    """Newton iteration failed to reach the requested tolerance."""


class NotCritical(GalimechError):
    """Covector extraction requested at a point with non-zero fiber gradient."""


class SectionNotUnique(GalimechError):
    """Fiber elimination found several stationary points over one base point."""


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Real function on R^base_dim x R^fiber_dim with an optional gradient.

    ``value(base, fiber)`` returns a float at one point.  ``gradient(base,
    fiber)``, when provided, takes stacks of shape (..., base_dim) and
    (..., fiber_dim) with one leading shape and returns the pair
    (d/d base, d/d fiber) as stacks of that leading shape, each row
    computed as it would be alone.  Otherwise central differences of the
    value with step 1e-6 * (1 + |coordinate|) stand in, point by point.
    """

    base_dim: int
    fiber_dim: int
    value: Callable[[np.ndarray, np.ndarray], float]
    gradient: Callable[[np.ndarray, np.ndarray],
                       tuple[np.ndarray, np.ndarray]] | None = None
    name: str = "family"


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    """Point of the critical set, with the achieved fiber-gradient norm."""

    base: np.ndarray
    fiber: np.ndarray
    residual_norm: float = 0.0


@dataclass(frozen=True, eq=False)
class GeneratedCovector:
    """Base point paired with the covector the family generates there."""

    base: np.ndarray
    covector: np.ndarray
    source: CriticalPoint


def _gradient_split(fam: FunctionFamily, base, fiber) -> tuple[np.ndarray, np.ndarray]:
    """(d/d base, d/d fiber) at every row of base (..., b) and fiber
    (..., f), which share one leading shape.  numpy warnings are silenced:
    a non-finite row is the caller's to judge."""
    base = np.asarray(base, dtype=float)
    fiber = np.asarray(fiber, dtype=float)
    if fam.gradient is not None:
        with np.errstate(all="ignore"):
            gb, gf = fam.gradient(base, fiber)
        return np.asarray(gb, dtype=float), np.asarray(gf, dtype=float)
    joint = np.concatenate([base, fiber], axis=-1)

    def value_at(z: np.ndarray) -> float:
        return float(fam.value(z[:fam.base_dim], z[fam.base_dim:]))

    grad = np.empty(joint.shape)
    for r, z in zip(grad.reshape(-1, joint.shape[-1]),
                    joint.reshape(-1, joint.shape[-1])):
        for i in range(len(z)):
            h = _GRAD_STEP * (1.0 + abs(z[i]))
            plus, minus = z.copy(), z.copy()
            plus[i] += h
            minus[i] -= h
            r[i] = (value_at(plus) - value_at(minus)) / (2.0 * h)
    return grad[..., :fam.base_dim], grad[..., fam.base_dim:]


def fiber_gradient(fam: FunctionFamily, base, fiber) -> np.ndarray:
    """Gradient of the family value along the fiber directions, at one
    point or at every row of a stack."""
    return _gradient_split(fam, base, fiber)[1]


def base_gradient(fam: FunctionFamily, base, fiber) -> np.ndarray:
    """Gradient of the family value along the base directions of the
    product chart.  Lift independent only where the fiber gradient is zero."""
    return _gradient_split(fam, base, fiber)[0]


def _fiber_gradients(fam: FunctionFamily, bases: np.ndarray,
                     fibers: np.ndarray, head: int):
    """The first ``head`` fiber-gradient components at every row of a
    stack, and the error each row raised, by row (its gradient reads NaN).
    When the stacked call raises, every row is evaluated again alone, so
    each row ends exactly as it would alone."""
    try:
        return fiber_gradient(fam, bases, fibers)[..., :head], {}
    except (GalimechError, ArithmeticError):
        grads, errors = np.full(fibers.shape[:-1] + (head,), np.nan), {}
    for i, (base, fiber) in enumerate(zip(bases, fibers)):
        try:
            grads[i] = fiber_gradient(fam, base, fiber)[..., :head]
        except (GalimechError, ArithmeticError) as exc:
            errors[i] = exc
    return grads, errors


def _newton(fam: FunctionFamily, bases: np.ndarray, fibers: np.ndarray,
            head: int, tol: float, max_iter: int) -> list:
    """Damped Newton from every row of bases (B, b) and fibers (B, f) on
    the first ``head`` fiber components, the others held fixed; each row
    steps bit for bit as it would alone.

    An iteration takes the Jacobians of all unconverged rows from one
    gradient call over their 2 * head shifted fibers, then one lstsq per
    row; a line-search round makes one gradient call over the rows still
    searching, and shortens the step of a row whose trial leaves the
    domain (its gradient raises a GalimechError or is not finite).
    Returns one outcome per row: (fiber, |grad|), or the row's error:
    NoConvergence (stalled, or max_iter ran out), DomainError (gradient at
    the start or Jacobian not finite), or what its gradient raised.
    """
    bases = np.asarray(bases, dtype=float)
    fiber = np.array(fibers, dtype=float)
    grad, errors = _fiber_gradients(fam, bases, fiber, head) if len(fiber) \
        else (np.empty((0, head)), {})
    grad = np.array(grad)  # rows are updated in place as they step
    norm = np.max(np.abs(grad), axis=-1)  # NaN once a row has ended
    for i in np.flatnonzero(~np.isfinite(norm)).tolist():
        errors.setdefault(i, DomainError(
            f"{fam.name}: fiber gradient not finite at the start "
            f"{fiber[i].tolist()} over base {bases[i].tolist()}"))
    cols = np.arange(head)
    for _ in range(max_iter):
        norm[list(errors)] = np.nan
        act = np.flatnonzero(norm > tol)
        if not act.size:
            break
        h = _GRAD_STEP * (1.0 + np.abs(fiber[act, :head]))
        shifted = np.repeat(fiber[act, None], 2 * head, axis=1)
        shifted[:, cols, cols] += h
        shifted[:, head + cols, cols] -= h
        g, failed = _fiber_gradients(fam, np.broadcast_to(
            bases[act, None], shifted.shape[:2] + bases.shape[1:]), shifted, head)
        with np.errstate(all="ignore"):
            jac = np.swapaxes(
                (g[:, :head] - g[:, head:]) / (2.0 * h)[..., None], -1, -2)
        steps = np.zeros((len(act), head))
        for k, i in enumerate(act.tolist()):
            if k in failed:
                errors[i] = failed[k]
            elif not np.isfinite(jac[k]).all():
                errors[i] = DomainError(
                    f"{fam.name}: fiber Jacobian not finite at "
                    f"{fiber[i].tolist()} over base {bases[i].tolist()}")
            else:
                steps[k], *_ = np.linalg.lstsq(jac[k], -grad[i],
                                               rcond=_NEWTON_RCOND)
        live = np.array([i not in errors for i in act.tolist()], dtype=bool)
        search, steps, scale = act[live], steps[live], 1.0
        for _ in range(25):
            if not search.size:
                break
            trial = fiber[search]
            trial[:, :head] += scale * steps
            trial_grad, failed = _fiber_gradients(fam, bases[search], trial, head)
            trial_norm = np.max(np.abs(trial_grad), axis=-1)
            accept = (trial_norm < norm[search]) | (trial_norm <= tol)
            done = search[accept]
            fiber[done], grad[done], norm[done] = (
                trial[accept], trial_grad[accept], trial_norm[accept])
            for k, exc in failed.items():  # a domain exit is shortened
                if not isinstance(exc, (GalimechError, FloatingPointError)):
                    errors[int(search[k])] = exc
            stay = ~accept & np.array([i not in errors for i in search.tolist()],
                                      dtype=bool)
            search, steps, scale = search[stay], steps[stay], 0.5 * scale
        for i in search.tolist():
            errors[i] = NoConvergence(
                f"{fam.name}: damped Newton stalled at |grad|={norm[i]:.3e} "
                f"over base {bases[i].tolist()}")
    return [errors[i] if i in errors else
            (fiber[i].copy(), float(norm[i])) if norm[i] <= tol else
            NoConvergence(
                f"{fam.name}: no critical point within {max_iter} iterations "
                f"over base {bases[i].tolist()} (|grad|={norm[i]:.3e})")
            for i in range(len(fiber))]


def _converged(outcomes: list, blocks: int, per_base: int):
    """The outcomes of _newton in blocks of per_base rows, one block per
    base: the (fiber, |grad|) of each converged row and the count of rows
    rejected by NoConvergence.  Raises the first other error in row order."""
    for i in range(blocks):
        block = outcomes[i * per_base:(i + 1) * per_base]
        for outcome in block:
            if isinstance(outcome, NoConvergence):
                log.debug("seed rejected: %s", outcome)
            elif isinstance(outcome, Exception):
                raise outcome
        yield ([o for o in block if isinstance(o, tuple)],
               sum(isinstance(o, NoConvergence) for o in block))


def solve_critical_stack(fam: FunctionFamily, bases, seeds: Sequence,
                         tol: float = 1e-10,
                         max_iter: int = 60) -> list[list[CriticalPoint]]:
    """Find critical fiber points over every base point of a stack (B, b).

    Damped Newton runs from the seeds (S, f), or per base (B, S, f), over
    all B * S rows at once; then the rows are walked in (base, seed)
    order.  Seeds that fail to converge are skipped, and a solution closer
    than 10 * tol to one already found over its base is merged (the
    smaller gradient norm is kept).  Returns one list per base, possibly
    empty.  Raises the first other error in that order: DomainError when
    the gradient is not finite at a seed, or what the gradient raised.
    """
    bases = np.asarray(bases, dtype=float).reshape(-1, fam.base_dim)
    seeds = np.asarray(seeds, dtype=float)
    seeds = np.broadcast_to(seeds, (len(bases),) + seeds.shape[-2:])
    outcomes = _newton(fam, np.repeat(bases, seeds.shape[1], axis=0),
                       seeds.reshape(-1, fam.fiber_dim), fam.fiber_dim,
                       tol, max_iter)
    out: list[list[CriticalPoint]] = []
    for base, (solved, _) in zip(bases, _converged(outcomes, *seeds.shape[:2])):
        found: list[CriticalPoint] = []
        for fiber, norm in solved:
            for k, existing in enumerate(found):
                if float(np.linalg.norm(existing.fiber - fiber)) < _MERGE_FACTOR * tol:
                    if norm < existing.residual_norm:
                        found[k] = CriticalPoint(base, fiber, norm)
                    break
            else:
                found.append(CriticalPoint(base, fiber, norm))
        out.append(found)
    return out


def solve_critical(fam: FunctionFamily, base, seeds: Sequence,
                   tol: float = 1e-10, max_iter: int = 60) -> list[CriticalPoint]:
    """solve_critical_stack over one base point."""
    return solve_critical_stack(fam, [base], seeds, tol, max_iter)[0]


def _value_hessian(fam: FunctionFamily, joint: np.ndarray) -> np.ndarray:
    """Four-point second differences of the value at one point."""
    b, f = fam.base_dim, fam.fiber_dim
    out = np.empty((f, b + f))

    def value_at(z: np.ndarray) -> float:
        return float(fam.value(z[:b], z[b:]))

    for i in range(f):
        hi = _HESS_VALUE_STEP * (1.0 + abs(joint[b + i]))
        for j in range(b + f):
            hj = _HESS_VALUE_STEP * (1.0 + abs(joint[j]))
            pp, pm, mp, mm = (joint.copy() for _ in range(4))
            pp[b + i] += hi
            pp[j] += hj
            pm[b + i] += hi
            pm[j] -= hj
            mp[b + i] -= hi
            mp[j] += hj
            mm[b + i] -= hi
            mm[j] -= hj
            out[i, j] = (value_at(pp) - value_at(pm) - value_at(mp) +
                         value_at(mm)) / (4.0 * hi * hj)
    return out


def hessians(fam: FunctionFamily, points: Sequence[CriticalPoint]) -> np.ndarray:
    """Mixed second derivatives at every point, shape (N, f, b + f).

    Rows run over the fiber directions, columns over base directions then
    fiber directions.  When the family has an analytic gradient the
    matrices are central differences of it, taken at all N * 2(b + f)
    shifted points in one gradient call; otherwise four-point second
    differences of the value, point by point.
    """
    b, f = fam.base_dim, fam.fiber_dim
    joint = np.array([np.concatenate([pt.base, pt.fiber]) for pt in points],
                     dtype=float).reshape(len(points), b + f)
    if fam.gradient is None:
        return np.array([_value_hessian(fam, z) for z in joint]).reshape(
            len(points), f, b + f)
    h = _HESS_GRAD_STEP * (1.0 + np.abs(joint))
    shifted = np.repeat(joint[:, None, None, :], 2 * (b + f), axis=1).reshape(
        len(points), 2, b + f, b + f)
    cols = np.arange(b + f)
    shifted[:, 0, cols, cols] += h
    shifted[:, 1, cols, cols] -= h
    g = fiber_gradient(fam, shifted[..., :b], shifted[..., b:])
    with np.errstate(all="ignore"):  # a non-finite matrix gets rank NaN
        return np.swapaxes((g[:, 0] - g[:, 1]) / (2.0 * h)[..., None], -1, -2)


def hessian(fam: FunctionFamily, point: CriticalPoint) -> np.ndarray:
    """hessians at one point: a fiber_dim x (base_dim + fiber_dim) matrix."""
    return hessians(fam, [point])[0]


@dataclass(frozen=True)
class MorseReport:
    """Outcome of a full-rank certification over sampled critical points.
    A rank is NaN where the Hessian is not finite."""

    ok: bool
    ranks: tuple[int | float, ...]
    required_rank: int

    def __bool__(self) -> bool:
        return self.ok


def _ranks(matrices: np.ndarray, rel_tol: float) -> list[int | float]:
    """Numerical rank of each matrix of a stack (N, r, c): the number of
    singular values above rel_tol times the largest one, from one SVD of
    the whole stack; NaN for a matrix with a non-finite entry."""
    finite = np.isfinite(matrices).all(axis=(-2, -1))
    sv = np.linalg.svd(np.where(finite[:, None, None], matrices, 0.0),
                       compute_uv=False)
    counts = np.sum(sv > rel_tol * sv[:, :1], axis=-1)
    return [int(c) if ok else math.nan for c, ok in zip(counts, finite)]


def numerical_rank(matrix: np.ndarray, rel_tol: float = 1e-8) -> int | float:
    """Number of singular values above rel_tol times the largest one (NaN
    for a matrix with a non-finite entry)."""
    return _ranks(np.asarray(matrix, dtype=float)[None], rel_tol)[0]


def is_morse(fam: FunctionFamily, points: Sequence[CriticalPoint],
             rank_tol: float = 1e-8) -> MorseReport:
    """Certify that the mixed Hessian has full row rank at every point:
    one stacked Hessian and one stacked SVD for all of them."""
    ranks = tuple(_ranks(hessians(fam, points), rank_tol)) if points else ()
    ok = all(r == fam.fiber_dim for r in ranks)
    return MorseReport(ok=ok, ranks=ranks, required_rank=fam.fiber_dim)


def kappas(fam: FunctionFamily, points: Sequence[CriticalPoint],
           tol: float = 1e-8) -> list[GeneratedCovector]:
    """kappa at every point, from one gradient call over all of them."""
    if not points:
        return []
    gb, gf = _gradient_split(fam, np.array([pt.base for pt in points], dtype=float),
                             np.array([pt.fiber for pt in points], dtype=float))
    grad_norms = np.max(np.abs(gf), axis=-1, initial=0.0)
    for norm in grad_norms.tolist():
        if norm > tol:
            raise NotCritical(
                f"{fam.name}: fiber gradient norm {norm:.3e} exceeds {tol:.1e}")
    return [GeneratedCovector(base=pt.base, covector=cov, source=pt)
            for pt, cov in zip(points, gb)]


def kappa(fam: FunctionFamily, point: CriticalPoint,
          tol: float = 1e-8) -> GeneratedCovector:
    """Covector generated at a critical point: the base-direction gradient.

    Well defined because any two lifts of a base vector differ by a fiber
    vector, on which the gradient vanishes at criticality.  Raises
    NotCritical when the fiber gradient exceeds tol.
    """
    return kappas(fam, [point], tol)[0]


def generate(fam: FunctionFamily, bases: Sequence, seeds: Sequence,
             tol: float = 1e-10, check_morse: bool = True,
             rank_tol: float = 1e-8) -> list[GeneratedCovector]:
    """Sample the generated covector set over a collection of base points.

    For each base point, finds critical fiber points from the given seeds;
    then maps all of them through kappa at once.  With check_morse (the
    default) they are certified in one is_morse call first, and a rank
    defect at any point raises ValueError; base points where no seed
    converges contribute nothing.
    """
    points = [pt for found in solve_critical_stack(fam, bases, seeds, tol=tol)
              for pt in found]
    if check_morse and points:
        report = is_morse(fam, points, rank_tol)
        for pt, rank in zip(points, report.ranks):
            if rank != report.required_rank:
                raise ValueError(
                    f"{fam.name} is not a Morse family over base "
                    f"{pt.base.tolist()}: rank {rank} "
                    f"(need {report.required_rank})")
    return kappas(fam, points, tol=max(10.0 * tol, 1e-12))


def reduce_family(fam: FunctionFamily, eliminate: int, seeds: Sequence,
                  tol: float = 1e-12, max_iter: int = 60) -> FunctionFamily:
    """Eliminate the leading block of fiber variables by stationarity.

    The fiber R^f is read as R^eliminate x R^(f - eliminate).  Evaluating
    the reduced family at (base, kept) solves the stationarity equations of
    the eliminated block by Newton iteration from each seed and substitutes
    the solution.  The reduced gradient uses the stationarity of the
    eliminated block, so it is the restriction of the parent gradient to
    the section; over a stack it solves every row's section in one stacked
    Newton and then evaluates the parent gradient once.

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
        fibers (N, kept), from one stacked Newton over every row and seed;
        the first row that fails raises."""
        n, per_base = len(tails), len(seeds)
        fibers = np.concatenate(
            [np.broadcast_to(seeds, (n, per_base, eliminate)),
             np.broadcast_to(tails[:, None], (n, per_base, kept))], axis=-1)
        outcomes = _newton(fam, np.repeat(bases, per_base, axis=0),
                           fibers.reshape(-1, fam.fiber_dim), eliminate,
                           tol, max_iter)
        heads = np.empty((n, eliminate))
        for i, (solved, failures) in enumerate(_converged(outcomes, n, per_base)):
            solutions: list[np.ndarray] = []
            for fiber, _ in solved:
                if not any(float(np.linalg.norm(fiber[:eliminate] - s))
                           < _MERGE_FACTOR * tol for s in solutions):
                    solutions.append(fiber[:eliminate])
            if not solutions:
                raise NoConvergence(
                    f"{fam.name}: eliminated-block stationarity has no solution "
                    f"over base {bases[i].tolist()} ({failures} seed(s) tried)")
            if len(solutions) > 1:
                raise SectionNotUnique(
                    f"{fam.name}: {len(solutions)} stationary points of the "
                    f"eliminated block over base {bases[i].tolist()}")
            heads[i] = solutions[0]
        return heads

    def value(base: np.ndarray, tail: np.ndarray) -> float:
        base = np.asarray(base, dtype=float)
        tail = np.asarray(tail, dtype=float)
        head = sections(base[None], tail[None])[0]
        return float(fam.value(base, np.concatenate([head, tail])))

    def gradient(base: np.ndarray, tail: np.ndarray):
        base = np.asarray(base, dtype=float)
        tail = np.asarray(tail, dtype=float)
        heads = sections(base.reshape(-1, fam.base_dim),
                         tail.reshape(-1, kept)).reshape(
            tail.shape[:-1] + (eliminate,))
        gb, gf = _gradient_split(fam, base, np.concatenate([heads, tail], axis=-1))
        return gb, gf[..., eliminate:]

    return FunctionFamily(base_dim=fam.base_dim, fiber_dim=kept,
                          value=value, gradient=gradient,
                          name=f"{fam.name}/reduced")


def write_covectors_csv(covectors: Sequence[GeneratedCovector], stream) -> None:
    """Dump generated covectors as CSV rows base_0..,cov_0.. (17 digits)."""
    if not covectors:
        stream.write("\n")
        return
    b = len(covectors[0].base)
    header = [f"base_{i}" for i in range(b)] + [f"cov_{i}" for i in range(b)]
    stream.write(",".join(header) + "\n")
    for gc in covectors:
        vals = list(gc.base) + list(gc.covector)
        stream.write(",".join(f"{v:.17g}" for v in vals) + "\n")


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

    return FunctionFamily(base_dim=6, fiber_dim=3, value=value,
                          gradient=gradient, name="example31")


# Fiber ordering for the velocity-fibered families: the three spatial
# components come first and the time component last, so that eliminating
# the leading block removes exactly the spatial directions.
_V_NATURAL_TO_FIBER = np.array([1, 2, 3, 0])
_V_FIBER_TO_NATURAL = np.array([3, 0, 1, 2])


def _fiber_to_vector(fiber: np.ndarray) -> Vector4:
    return Vector4(*np.asarray(fiber, dtype=float)[_V_FIBER_TO_NATURAL].tolist())


def _base_to_state(base: np.ndarray) -> tuple[Event, Covector4]:
    return Event.from_array(base[:4]), Covector4.from_array(base[4:])


def state_to_base(x: Event, p: Covector4) -> np.ndarray:
    """Pack an event and a covector momentum into the 8-component base chart
    used by the velocity-fibered families."""
    return np.concatenate([x.as_array(), p.as_array()])


def vector_to_fiber(v) -> np.ndarray:
    """Pack four-velocities, a Vector4 or components (..., 4), into fiber
    coordinates (spatial block, time)."""
    a = v.as_array() if isinstance(v, Vector4) else np.asarray(v, dtype=float)
    return a[..., _V_NATURAL_TO_FIBER]


def _potential_jet(potential: Potential,
                   x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The potential (...) and its differential (..., 4) at the events x
    (..., 4), each distinct event evaluated once."""
    flat = np.ascontiguousarray(x).reshape(-1, 4)
    # Rows come in runs over one event (the fiber shifts of one point), so
    # each run of bitwise equal events is evaluated once.
    bits = flat.view(np.int64)
    new = np.ones(len(flat), dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=new[1:])
    events = flat[new]
    run = np.cumsum(new) - 1
    phi = potential.at_events(events)
    dphi = potential.differential(events)
    return phi[run].reshape(x.shape[:-1]), dphi[run].reshape(x.shape)


def family_fam1(u: Frame, m: float, g: SpatialMetric,
                potential: Potential) -> FunctionFamily:
    """Velocity-fibered family over (event, covector momentum).

    Value <p, v> minus the homogeneous frame-u lagrangian.  Critical points
    pick out velocities whose fiber derivative reproduces p; the p-block of
    the mixed Hessian is a permuted identity, so the family is Morse with
    rank 4.  Fiber coordinates are ordered (v1, v2, v3, v0) so that
    reduce_family with eliminate=3 removes the spatial directions and
    leaves the time component.  The gradient is NaN at a velocity that is
    not future-directed, where the lagrangian is undefined.
    """
    u_s = u.spatial

    def value(base: np.ndarray, fiber: np.ndarray) -> float:
        x, p = _base_to_state(base)
        v = _fiber_to_vector(fiber)
        return p.pair(v) - lagrangian_hom(u, m, g, potential, x, v)

    def gradient(base: np.ndarray, fiber: np.ndarray):
        base, fiber = np.asarray(base, dtype=float), np.asarray(fiber, dtype=float)
        x, p = base[..., :4], base[..., 4:]
        v = fiber[..., _V_FIBER_TO_NATURAL]
        phi, dphi = _potential_jet(potential, x)
        tv = v[..., :1]
        gb = np.concatenate([tv * dphi, v], axis=-1)
        gf = (p - legendre_hom_array(u_s, m, g, phi, v))[..., _V_NATURAL_TO_FIBER]
        past = tv <= 0.0
        if np.any(past):
            gb, gf = np.where(past, np.nan, gb), np.where(past, np.nan, gf)
        return gb, gf

    return FunctionFamily(base_dim=8, fiber_dim=4, value=value,
                          gradient=gradient, name="fam1")


def family_fam2(u: Frame, m: float, g: SpatialMetric,
                potential: Potential) -> FunctionFamily:
    """One-variable family over (event, covector momentum).

    Value r times the frame-u mass-shell residual.  Critical points exist
    exactly over on-shell base points, where every r is stationary; the
    generated covector scales the residual differentials by r.
    """
    u_s = u.spatial

    def value(base: np.ndarray, fiber: np.ndarray) -> float:
        x, p = _base_to_state(base)
        return float(fiber[0]) * mass_shell_residual(u, m, g, potential, x, p)

    def gradient(base: np.ndarray, fiber: np.ndarray):
        base, fiber = np.asarray(base, dtype=float), np.asarray(fiber, dtype=float)
        x, p = base[..., :4], base[..., 4:]
        r = fiber[..., :1]
        phi, dphi = _potential_jet(potential, x)
        res = mass_shell_residual_array(u_s, m, g, phi, p)
        dres_dp = g.apply_inverse(p[..., 1:]) / m + u_s
        dres = np.concatenate([dphi, np.ones_like(r), dres_dp], axis=-1)
        return r * dres, res[..., None]

    return FunctionFamily(base_dim=8, fiber_dim=1, value=value,
                          gradient=gradient, name="fam2")
