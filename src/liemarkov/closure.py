"""Closure properties of model subspaces.

Two exact decisions and one numerical verification:

* Lie closure: every commutator of generators stays in the span.
* Matrix-algebra closure: every plain product of generators stays in the
  span (strictly stronger; algebra closure implies Lie closure).
* Multiplicative closure: sampled products P = e^{Q1 t1} e^{Q2 t2} of
  substitution matrices are checked against the span numerically.  For
  an algebra-closed span the check is P - I, with no logarithm: by the
  product rule the span plus the identity is a matrix algebra holding P,
  so P - I and log P both lie in the span.  Any other span has P pushed
  through the principal matrix logarithm.

The first two are exact, decided together by one ``exact_checks`` pass,
which the sampled check runs first.  It reads one stack of generator
products, ``modelgen.SpanStack``, built for one span or for a block of
spans: each
span's generators and rref are scaled to integers once, the stack is
``int64`` when a magnitude bound shows that no product or membership
residual can overflow and ``object`` (Python ints) otherwise, a product is
in the span iff its residual against the scaled rref is zero, and a
bracket is the difference of two products.  Floating point enters the
package only here, in expm/logm and the sampled verification.

expm is scaling and squaring with the [13/13] Pade approximant (Higham,
"The scaling and squaring method for the matrix exponential revisited",
SIMAX 2005).  One stacked kernel, ``_expm_stack``, takes a float stack
of Qt and validates nothing; the public expm checks its input, forms
that stack and calls it, and the sampled verification calls it on the
stack it has built, as ``_logm_stack`` serves logm and the log check.
Entry (i, j), i != j, of e^{Qt} is a sum over paths i -> j of the
off-diagonal nonzero pattern of Qt, in every term of the power series,
so expm sets it to exactly 0 where ``linalg.reach`` finds no such path;
a triangular Q gives a triangular e^{Qt}, whatever the rounding of the
Pade solve.  logm has one route, inverse scaling and squaring: square
roots until a matrix is within 1-norm LOGM_SERIES_RADIUS of the
identity, then a fixed number of terms of the Gregory series log A =
2 atanh((A + I)^-1 (A - I)) (Higham, Functions of Matrices, section
11.3).  Its one square-root kernel is the Denman-Beavers iteration
(ibid. section 6.1), which stops a matrix once its step is small or has
stagnated at rounding level.

Failure is per-matrix data: the log kernel returns its results with a
boolean mask of the matrices it could serve, and a non-finite logarithm
counts as none.  Only the public logm raises, once, if any matrix of its
stack failed; the sampled verification's log check reads the mask and
counts those trials as discarded.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import Matrix, Scalar
from .modelgen import ModelSubspace, SpanStack

# [13/13] Pade coefficients b_0..b_13 and the largest 1-norm at which the
# approximant's backward error stays below the unit roundoff (Higham 2005)
EXPM_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
EXPM_THETA13 = 5.371920351148152
LOGM_SERIES_RADIUS = 0.5
# Inside the radius r, Z = (A + I)^-1 (A - I) has 1-norm at most
# rho = r / (2 - r) = 1/3, and the series tail after N terms is at most
# 2 rho^(2N+1) / ((2N + 1)(1 - rho^2)): 1.3e-19 for N = 18 (1.3e-18 for 17)
LOGM_SERIES_TERMS = 18
LOGM_MAX_SQRT_DEPTH = 40


class LogmConvergenceError(ArithmeticError):
    """Principal matrix logarithm did not converge for this input."""


@dataclass(frozen=True)
class ClosureWitness:
    """Offending generator pair and the matrix that escapes the span."""

    i: int
    j: int
    matrix: Matrix


@dataclass(frozen=True)
class ClosureCheck:
    closed: bool
    witness: ClosureWitness | None


@dataclass(frozen=True)
class ClosureReport:
    lie_closed: bool
    lie_witness: ClosureWitness | None
    algebra_closed: bool
    algebra_witness: ClosureWitness | None
    numeric_trials: int
    discarded_trials: int
    max_residual: float
    tolerance: float
    status: str  # "pass" | "fail" | "inconclusive"
    check: str  # "product" | "log"


def commutator(
    a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]
) -> Matrix:
    """The Lie bracket AB - BA, exact; preserves zero column sums."""
    a = linalg.mat(a)
    b = linalg.mat(b)
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def exact_checks(stack: SpanStack) -> list[tuple[ClosureCheck, ClosureCheck]]:
    """The (algebra, Lie) checks of every span of a stack, from its product residuals.

    Algebra closure implies Lie closure, so a span that passes the
    algebra check passes both, and the brackets are read only for a span
    that fails it.  An algebra witness is the first escaping g_i g_j,
    i != j, in row-major order, else the first escaping square; a Lie
    witness is the first escaping bracket, i < j, in row-major order.
    Both are recomputed exactly from the span's ``basis``.
    """
    closed = ClosureCheck(True, None)
    checks = []
    for s, failed in enumerate(stack.residuals.any(axis=(1, 2, 3)).tolist()):
        if not failed:
            checks.append((closed, closed))
            continue
        res = stack.residuals[s]
        esc = (res != 0).any(axis=-1)
        cross = esc & ~np.eye(len(esc), dtype=bool)
        i, j = np.argwhere(cross if cross.any() else esc)[0].tolist()
        g = stack.spans[s].basis
        algebra = ClosureCheck(False, ClosureWitness(i, j, linalg.mat_mul(g[i], g[j])))
        # a bracket escapes iff the residuals of its two products differ
        escaped = np.argwhere(np.triu((res != res.swapaxes(0, 1)).any(axis=-1), 1))
        lie = closed
        if escaped.size:
            i, j = escaped[0].tolist()
            lie = ClosureCheck(False, ClosureWitness(i, j, commutator(g[i], g[j])))
        checks.append((algebra, lie))
    return checks


def check_lie_closed(m: ModelSubspace) -> ClosureCheck:
    """Exact test of commutator closure over all generator pairs i < j.

    The Lie half of :func:`exact_checks` on a stack of one span.
    """
    return exact_checks(SpanStack([m]))[0][1]


def check_algebra_closed(m: ModelSubspace) -> ClosureCheck:
    """Exact test of product closure over all ordered generator pairs.

    The algebra half of :func:`exact_checks` on a stack of one span.
    Semigroup-derived generators satisfy L_i L_j = -L_i - L_j + L_k with
    a_i a_j = a_k, so derived models always pass; fixture models may not.
    """
    return exact_checks(SpanStack([m]))[0][0]


def _norm1(a: np.ndarray) -> np.ndarray:
    """Maximum absolute column sum of each matrix in a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)


def _as_stack(a: np.ndarray | Sequence, name: str) -> tuple[np.ndarray, bool]:
    """A float (n, k, k) stack, and whether the input was one (k, k) matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} needs a square matrix or a stack of them")
    return (a[None] if a.ndim == 2 else a), a.ndim == 2


@functools.cache
def _identities(k: int) -> np.ndarray:
    """The read-only (3, k, k) stack I, b_1 I, b_0 I for the [13/13] Pade coefficients b."""
    ident = np.eye(k)
    out = np.stack([ident, EXPM_PADE13[1] * ident, EXPM_PADE13[0] * ident])
    out.flags.writeable = False
    return out


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """e^A of each matrix of a float (n, k, k) stack, with no validation.

    The one exponential kernel, behind :func:`expm` and the sampled
    closure check.  Each matrix is scaled by its own power of two to
    1-norm <= EXPM_THETA13, its [13/13] Pade approximant is taken from
    one batched solve, and it is squared back as often as it was scaled
    (Higham, SIMAX 2005, without the lower-degree approximants).  A stack
    whose largest 1-norm is at most EXPM_THETA13 needs no scaling for any
    matrix and takes no scaling step: no scaling count, no scaled copy and
    no squaring, with the same result, since each of its matrices would
    get the count 0.  The constant terms b_1 I and b_0 I come from one
    cached array per order.  Entry (i, j), i != j, is exactly 0 when the
    off-diagonal nonzero pattern of A has no path i -> j
    (``linalg.reach``), as it is in every term of the power series.
    """
    x, squarings = a, 0
    norm = _norm1(a)
    # NaN compares false, so a stack with a NaN norm takes the scaling step
    if not norm.max(initial=0.0) <= EXPM_THETA13:
        # norm / theta = m * 2**e with 0.5 <= m < 1, so the least s >= 0 with
        # norm / 2**s <= theta is e, or e - 1 when norm / theta is a power of 2
        m, e = np.frexp(norm / EXPM_THETA13)
        s = np.maximum(e - (m == 0.5), 0)
        x = np.ldexp(a, -s[:, None, None])
        squarings = s.max()
    b = EXPM_PADE13
    k = a.shape[-1]
    _, b1_ident, b0_ident = _identities(k)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (
        x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
        + b[7] * x6 + b[5] * x4 + b[3] * x2 + b1_ident
    )
    v = (
        x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
        + b[6] * x6 + b[4] * x4 + b[2] * x2 + b0_ident
    )
    result = np.linalg.solve(v - u, v + u)
    for j in range(squarings):
        result = np.where((s > j)[:, None, None], result @ result, result)
    # the solve leaves rounding-level values where no path reaches
    result[linalg.off_diagonal(k) > linalg.reach(a)] = 0.0
    return result


def expm(q: np.ndarray | Sequence, t: float | np.ndarray = 1.0) -> np.ndarray:
    """Matrix exponential e^{Qt} by scaling and squaring.

    ``q`` is one (k, k) matrix or a stack (n, k, k); ``t`` is a scalar or
    one time per matrix.  Validates both, forms the stack Qt and passes
    it to the one kernel, ``_expm_stack``: [13/13] Pade scaling and
    squaring, each matrix with its own squaring count, and exact zeros
    where the off-diagonal pattern of Qt has no path.  For a rate matrix
    Q and moderate t >= 0 the result is column-stochastic to high
    accuracy, but each of the about log2 |Qt|_1 squarings doubles the
    rounding error.  For F81's generator sum the largest column-sum error
    is 4e-10 at t = 1e6, 1.6e-6 at 1e10 and 0.41 at 1e15; at 1e20 the
    result is inf, and from about 1e19 on it is non-finite or the
    all-zero matrix, depending on t (all-zero at 1e50, for one).  Nothing
    here warns of it; the sampled closure check gives such a product no
    result.
    """
    q, single = _as_stack(q, "expm")
    t = np.broadcast_to(np.asarray(t, dtype=float), q.shape[:1])
    result = _expm_stack(q * t[:, None, None])
    return result[0] if single else result


def _sqrtm_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal square roots of a stack by the Denman-Beavers iteration.

    Y <- (Y + Z^-1) / 2 and Z <- (Z + Y^-1) / 2 from Y = A, Z = I, with
    each (Y, Z) pair stored side by side so that one batched inverse
    serves both updates.  Each matrix stops once its own step is at most
    1e-15 * max(1, |Y|_1), or once it has stagnated at rounding level: a
    step of at most 1e-8 * |Y|_1 that is more than half the one before.
    The iteration converges quadratically, so a step that does not halve
    is rounding noise, which grows with the condition of an iterate and
    can stay above the first bound.  Returns the roots and which of them
    to trust: a matrix fails, alone, when one of its iterates is exactly
    singular or its root is still moving after 64 steps.  The roots of
    failed matrices are unspecified.
    """
    yz = np.stack([a, np.broadcast_to(_identities(a.shape[-1])[0], a.shape)], axis=1)
    ok = np.ones(len(a), dtype=bool)
    prev = np.full(len(a), np.inf)
    todo = np.arange(len(a))
    for _ in range(64):
        cur = yz[todo]
        try:
            inv = np.linalg.inv(cur)
        except np.linalg.LinAlgError:
            # LAPACK refuses the whole batch; the same LU factorisation finds
            # the singular iterates, and their matrices drop out
            singular = (np.linalg.slogdet(cur)[0] == 0).any(axis=1)
            ok[todo[singular]] = False
            todo, cur = todo[~singular], cur[~singular]
            inv = np.linalg.inv(cur)
        nxt = 0.5 * (cur + inv[:, ::-1])
        yz[todo] = nxt
        y = nxt[:, 0]
        step, size = _norm1(y - cur[:, 0]), _norm1(y)
        # NaN compares false, so a NaN step never counts as converged
        done = (step <= 1e-15 * np.maximum(1.0, size)) | (
            (step <= 1e-8 * size) & (step > 0.5 * prev[todo])
        )
        prev[todo] = step
        todo = todo[~done]
        if not todo.size:
            break
    ok[todo] = False
    return yz[:, 0], ok


def _logm_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal logarithms of an (n, k, k) stack by inverse scaling and squaring.

    Each matrix takes repeated principal square roots from the one
    square-root kernel, the Denman-Beavers iteration (``_sqrtm_stack``),
    until it is within 1-norm LOGM_SERIES_RADIUS = 0.5 of the identity.
    Depth is capped at 40, since products of substitution matrices can
    sit far from the identity.  Then Z = (A + I)^-1 (A - I) comes from one
    batched solve, and log A = 2 (Z + Z^3/3 + Z^5/5 + ...) is summed to a
    fixed LOGM_SERIES_TERMS terms, enough for 1e-18 at that radius; each
    sum is scaled back up by its own depth.  Returns the logarithms and
    which of them to trust: a matrix fails, alone, when it has a
    non-finite entry, one of its square roots fails, it is still outside
    the radius after 40 roots, or its logarithm is not finite (so an input
    that overflows fails rather than yielding a NaN log).  The entries of
    failed matrices are zero; only the others enter the solve and the
    series.
    """
    n_mats, k, _ = a.shape
    t = a.copy()
    ident = _identities(k)[0]
    ok = np.isfinite(a).all(axis=(-2, -1))
    depth = np.zeros(n_mats, dtype=int)
    todo = np.flatnonzero(ok & (_norm1(t - ident) >= LOGM_SERIES_RADIUS))
    for _ in range(LOGM_MAX_SQRT_DEPTH):
        if not todo.size:
            break
        t[todo], rooted = _sqrtm_stack(t[todo])
        ok[todo[~rooted]] = False
        depth[todo] += 1
        todo = todo[ok[todo] & (_norm1(t[todo] - ident) >= LOGM_SERIES_RADIUS)]
    ok[todo] = False
    t, depth = t[ok], depth[ok]
    # A + I and A - I commute, so either order of the solve gives Z
    z = np.linalg.solve(t + ident, t - ident)
    z2 = z @ z
    total = z.copy()
    power = z
    for j in range(1, LOGM_SERIES_TERMS):
        power = power @ z2
        total += power / (2 * j + 1)
    logs = np.zeros((n_mats, k, k))
    # the series' factor 2 and each square root's factor 2, exactly
    logs[ok] = np.ldexp(total, depth[:, None, None] + 1)
    return logs, ok & np.isfinite(logs).all(axis=(-2, -1))


def logm(p: np.ndarray | Sequence) -> np.ndarray:
    """Principal matrix logarithm by inverse scaling and squaring.

    ``p`` is one (k, k) matrix or a stack (n, k, k).  Each matrix takes
    Denman-Beavers square roots to within 1-norm 0.5 of the identity, then
    a fixed-length atanh series (``_logm_stack``), defective matrices
    included.  Every step is per matrix, so a stack gives the same
    results as single calls.  Raises LogmConvergenceError if any
    matrix of the stack has no real principal logarithm that the square
    roots reach, e.g. one with an eigenvalue on the closed negative real
    axis, or if its logarithm is not finite, e.g. for a NaN input.
    """
    a, single = _as_stack(p, "logm")
    logs, ok = _logm_stack(a)
    if not ok.all():
        raise LogmConvergenceError(f"no finite principal logarithm for matrix {np.argmin(ok)}")
    return logs[0] if single else logs


def verify_multiplicative_closure(
    m: ModelSubspace,
    trials: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
    t_max: float = 1.0,
) -> ClosureReport:
    """Sampled numerical check that e^{Q1 t1} e^{Q2 t2} stays in the model.

    Each trial draws Q1, Q2 as random positive combinations of the
    generators (coefficients uniform in (0, 1]) and times in (0, t_max],
    multiplies the two substitution matrices into P, and measures the
    max-abs residual of one matrix v against the orthogonal projection
    onto the span L.  The exact algebra check runs first and picks v.

    * ``check == "product"``: L is algebra-closed, so by the product rule
      A = RI + L is a matrix algebra that holds e^{Qt} and every product
      of them, and a column-stochastic P in A has P - I in L; the
      principal log of P is a polynomial in P, so it lies in L too.  v is
      P - I, with no logarithm.  A product whose column sums miss 1 by
      ``tol`` or more (NaN or inf entries included), such as the zero or
      NaN matrix of an overflowed expm, is no substitution matrix and has
      no result.
    * ``check == "log"``: any other span, Lie-closed or not.  v is the
      principal log of P; a product without a finite principal log has no
      result.  Membership of a subspace is scale invariant, so the
      unnormalized log is tested.

    The trials draw one (trials, 2d + 2) block from
    default_rng([seed, 0]) and trial i takes row i, which is the same
    whatever the block height: a trial's numbers depend only on (seed,
    trial).  All trials go through one call of the exponential kernel
    that :func:`expm` wraps, ``_expm_stack``, on the stack of Q t (each Q
    one matrix product of the coefficients with the flat generator rows;
    a stack whose 1-norms are all at most EXPM_THETA13, as at ``t_max=1``
    for most spans, takes no scaling step) and, on the log check, one
    ``_logm_stack`` call, which reports per product whether it found a
    finite principal log.  The exact checks' stack scales the span's rows
    only when its ``integral`` fact, decided once per span object, is
    False.  A trial without a result is counted in ``discarded_trials``
    and is not redrawn.  A residual of ``tol`` or more is a "fail"
    whatever the other trials did; otherwise, if any trial has no result
    the verdict is "inconclusive" rather than a pass.  Raises ValueError, before any
    check runs, for a dimension-0 model, for ``trials`` not an integer of
    at least 1 or ``seed`` not an integer of at least 0 (an integer is an
    ``int`` or numpy integer, not a ``bool``), and for ``t_max`` or
    ``tol`` not a finite positive real number (a ``bool`` is none).
    """
    if m.dim < 1:
        raise ValueError("degenerate model: dimension 0")
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    for name, value in (("t_max", t_max), ("tol", tol)):
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    ((algebra, lie),) = exact_checks(SpanStack([m]))
    k = m.order
    gens = np.array(m.gen_rows, dtype=float)
    d = len(gens)
    # orthonormal basis of the span, one column per rref row
    span, _ = np.linalg.qr(np.array(m.rref, dtype=float).T)
    # row i of the block is trial i's c1, c2, t1 and t2
    u = 1.0 - np.random.default_rng([seed, 0]).random((trials, 2 * d + 2))
    c = np.concatenate([u[:, :d], u[:, d : 2 * d]])
    t = np.concatenate([u[:, 2 * d], u[:, 2 * d + 1]]) * t_max
    subst = _expm_stack((c @ gens).reshape(-1, k, k) * t[:, None, None])
    prods = subst[:trials] @ subst[trials:]
    if algebra.closed:
        # NaN compares false, so a non-finite product has no result too
        ok = (np.abs(prods.sum(axis=-2) - 1.0) < tol).all(axis=-1)
        v = prods - _identities(k)[0]
    else:
        v, ok = _logm_stack(prods)
    v = v[ok].reshape(-1, k * k)
    max_residual = float(np.abs(v - (v @ span) @ span.T).max(initial=0.0))
    discarded = trials - int(ok.sum())
    if max_residual >= tol:
        status = "fail"
    else:
        status = "inconclusive" if discarded else "pass"
    return ClosureReport(
        lie_closed=lie.closed,
        lie_witness=lie.witness,
        algebra_closed=algebra.closed,
        algebra_witness=algebra.witness,
        numeric_trials=trials,
        discarded_trials=discarded,
        max_residual=max_residual,
        tolerance=tol,
        status=status,
        check="product" if algebra.closed else "log",
    )
