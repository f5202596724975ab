"""Closure properties of model subspaces.

Two exact decisions and one numerical verification:

* Lie closure: every commutator of generators stays in the span.
* Matrix-algebra closure: every plain product of generators stays in the
  span (strictly stronger; algebra closure implies Lie closure).
* Multiplicative closure: sampled products of substitution matrices
  e^{Q1 t1} e^{Q2 t2} are pushed through the matrix logarithm and the
  result is checked against the span numerically.

The first two run on exact rational matrices.  Floating point enters the
package only here, in expm/logm and the sampled verification.

expm is scaling and squaring with the [13/13] Pade approximant (Higham,
"The scaling and squaring method for the matrix exponential revisited",
SIMAX 2005).  logm takes one of two routes for each matrix.  A matrix
whose eigenvalues avoid the closed negative real axis and whose
eigenvector matrix is well conditioned (1-norm condition number at most
LOGM_EIG_MAX_COND) gets V log(w) V^-1 from one batched
eigendecomposition.  Every other matrix, defective or nearly so, goes
through inverse scaling and squaring: Denman-Beavers square roots until
it is within 1-norm LOGM_SERIES_RADIUS of the identity, then a fixed
number of terms of the Gregory series log A = 2 atanh((A + I)^-1 (A - I))
(Higham, Functions of Matrices, section 11.3).

Failure is per-matrix data: each log kernel returns its results with a
boolean mask of the matrices it could serve, and a non-finite logarithm
counts as none.  Only the public logm raises, once, if any matrix of its
stack failed; the sampled verification reads the mask and redraws those
trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import Matrix, Scalar
from .modelgen import ModelSubspace

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
# The eigen route's error grows with this bound.  The 1-norm eigenvector
# condition numbers of sampled closure products are either below about 250
# or above about 1e7, so any bound in between routes them alike.
LOGM_EIG_MAX_COND = 1e3


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


def commutator(
    a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]
) -> Matrix:
    """The Lie bracket AB - BA, exact; preserves zero column sums."""
    a = linalg.mat(a)
    b = linalg.mat(b)
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def pair_products(
    m: ModelSubspace, pairs: Sequence[tuple[int, int]], bracket: bool
) -> np.ndarray:
    """Exact ``object`` stack of g_i g_j, or of g_i g_j - g_j g_i, one per pair (i, j)."""
    k = m.order
    g = np.array(m.basis, dtype=object).reshape(-1, k, k)
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    mats = g[i] @ g[j]
    return mats - g[j] @ g[i] if bracket else mats


def _first_escape(m: ModelSubspace, pairs: list, bracket: bool) -> ClosureCheck:
    """First pair (i, j) whose g_i g_j, or g_i g_j - g_j g_i, leaves the span."""
    mats = pair_products(m, pairs, bracket)
    _, inside = linalg.span_coordinates(m.rref, mats.reshape(-1, m.order**2))
    escaped = np.flatnonzero(~inside)
    if not escaped.size:
        return ClosureCheck(True, None)
    i, j = pairs[escaped[0]]
    return ClosureCheck(False, ClosureWitness(i, j, linalg.mat(mats[escaped[0]].tolist())))


def check_lie_closed(m: ModelSubspace) -> ClosureCheck:
    """Exact test of commutator closure over all generator pairs i < j."""
    n = len(m.basis)
    return _first_escape(m, [(i, j) for i in range(n) for j in range(i + 1, n)], bracket=True)


def check_algebra_closed(m: ModelSubspace) -> ClosureCheck:
    """Exact test of product closure over all ordered generator pairs.

    Semigroup-derived generators satisfy L_i L_j = -L_i - L_j + L_k with
    a_i a_j = a_k, so derived models always pass; fixture models may not.
    Cross products are tested before squares, so the witness of a failure
    is the first escaping product of two distinct generators when one
    exists.
    """
    n = len(m.basis)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    pairs += [(i, i) for i in range(n)]
    return _first_escape(m, pairs, bracket=False)


def _norm1(a: np.ndarray) -> np.ndarray:
    """Maximum absolute column sum of each matrix in a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)


def _as_stack(a: np.ndarray | Sequence, name: str) -> tuple[np.ndarray, bool]:
    """A float (n, k, k) stack, and whether the input was one (k, k) matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} needs a square matrix or a stack of them")
    return (a[None] if a.ndim == 2 else a), a.ndim == 2


def expm(q: np.ndarray | Sequence, t: float | np.ndarray = 1.0) -> np.ndarray:
    """Matrix exponential e^{Qt} by scaling and squaring.

    ``q`` is one (k, k) matrix or a stack (n, k, k); ``t`` is a scalar or
    one time per matrix.  Each matrix is scaled by its own power of two
    to 1-norm <= EXPM_THETA13, its [13/13] Pade approximant is taken from
    one batched solve, and it is squared back as often as it was scaled
    (Higham, SIMAX 2005, without the lower-degree approximants).  For a
    rate matrix Q and t >= 0 the result is column-stochastic to high
    accuracy.
    """
    q, single = _as_stack(q, "expm")
    t = np.broadcast_to(np.asarray(t, dtype=float), q.shape[:1])
    a = q * t[:, None, None]
    # norm / theta = m * 2**e with 0.5 <= m < 1, so the least s >= 0 with
    # norm / 2**s <= theta is e, or e - 1 when norm / theta is a power of 2
    m, e = np.frexp(_norm1(a) / EXPM_THETA13)
    s = np.maximum(e - (m == 0.5), 0)
    x = np.ldexp(a, -s[:, None, None])
    b = EXPM_PADE13
    ident = np.eye(q.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (
        x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
        + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident
    )
    v = (
        x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
        + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    )
    result = np.linalg.solve(v - u, v + u)
    for j in range(s.max(initial=0)):
        result = np.where((s > j)[:, None, None], result @ result, result)
    return result[0] if single else result


def _sqrtm_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal square roots of a stack by the Denman-Beavers iteration.

    Y <- (Y + Z^-1) / 2 and Z <- (Z + Y^-1) / 2 from Y = A, Z = I, with
    each (Y, Z) pair stored side by side so that one batched inverse
    serves both updates.  Each matrix stops once its own step is small.
    Returns the roots and which of them to trust: a matrix fails, alone,
    when one of its iterates is exactly singular or its root is still
    moving after 64 steps.  The roots of failed matrices are unspecified.
    """
    yz = np.stack([a, np.broadcast_to(np.eye(a.shape[-1]), a.shape)], axis=1)
    ok = np.ones(len(a), dtype=bool)
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
        # written as not-converged so that a NaN step never counts as converged
        todo = todo[~(_norm1(y - cur[:, 0]) <= 1e-15 * np.maximum(1.0, _norm1(y)))]
        if not todo.size:
            break
    ok[todo] = False
    return yz[:, 0], ok


def _logm_eig_route(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logarithms of a stack as V log(w) V^-1, and which of them to trust.

    A matrix is served when its eigenvalues and eigenvectors are finite,
    no eigenvalue is real and <= 0, the 1-norm condition number of its
    eigenvector matrix V is at most LOGM_EIG_MAX_COND, and the imaginary
    part of its result is at rounding level, i.e. at most k * cond(V) *
    eps * max|log w| in the 1-norm.  Its error is then of order cond(V) *
    eps * |log w| (Higham, Functions of Matrices, section 4.5).  The
    entries of the other matrices are unspecified.
    """
    try:
        w, v = np.linalg.eig(a)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        # LAPACK refuses the whole batch for one bad matrix; decide one by one
        if len(a) == 1:
            return np.zeros_like(a), np.zeros(1, dtype=bool)
        parts = [_logm_eig_route(x[None]) for x in a]
        return np.concatenate([x for x, _ in parts]), np.concatenate([ok for _, ok in parts])
    with np.errstate(invalid="ignore", over="ignore"):
        cond = _norm1(v) * _norm1(v_inv)
    ok = (
        np.isfinite(w).all(axis=-1)
        & ~((w.imag == 0) & (w.real <= 0)).any(axis=-1)
        & (cond <= LOGM_EIG_MAX_COND)
    )
    logs = np.zeros_like(a)
    idx = np.flatnonzero(ok)
    log_w = np.log(w[idx])
    x = (v[idx] * log_w[:, None, :]) @ v_inv[idx]
    scale = np.abs(log_w).max(axis=-1, initial=0.0)
    real = _norm1(x.imag) <= a.shape[-1] * cond[idx] * np.finfo(float).eps * scale
    logs[idx[real]] = x.real[real]
    ok[idx[~real]] = False
    return logs, ok


def _logm_sqrt_route(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal logarithms of a stack by inverse scaling and squaring.

    Each matrix of the (n, k, k) stack takes repeated principal square
    roots until it is within 1-norm LOGM_SERIES_RADIUS = 0.5 of the
    identity; depth is capped at 40, since products of substitution
    matrices can sit far from the identity.  Then Z = (A + I)^-1 (A - I)
    comes from one batched solve, and log A = 2 (Z + Z^3/3 + Z^5/5 + ...)
    is summed to a fixed LOGM_SERIES_TERMS terms, enough for 1e-18 at
    that radius; each sum is scaled back up by its own depth.  Returns the
    logarithms and which of them to trust: a matrix fails, alone, when
    one of its square roots fails or it is still outside the radius after
    40 roots.  The entries of failed matrices are zero; only the others
    enter the solve and the series.
    """
    a = a.copy()
    n_mats, k, _ = a.shape
    ident = np.eye(k)
    ok = np.ones(n_mats, dtype=bool)
    depth = np.zeros(n_mats, dtype=int)
    todo = np.flatnonzero(_norm1(a - ident) >= LOGM_SERIES_RADIUS)
    for _ in range(LOGM_MAX_SQRT_DEPTH):
        if not todo.size:
            break
        root, rooted = _sqrtm_stack(a[todo])
        a[todo] = root
        depth[todo] += 1
        ok[todo[~rooted]] = False
        todo = todo[rooted & (_norm1(root - ident) >= LOGM_SERIES_RADIUS)]
    ok[todo] = False
    a, depth = a[ok], depth[ok]
    # A + I and A - I commute, so either order of the solve gives Z
    z = np.linalg.solve(a + ident, a - ident)
    z2 = z @ z
    total = z.copy()
    power = z
    for j in range(1, LOGM_SERIES_TERMS):
        power = power @ z2
        total += power / (2 * j + 1)
    logs = np.zeros((n_mats, k, k))
    # the series' factor 2 and each square root's factor 2, exactly
    logs[ok] = np.ldexp(total, depth[:, None, None] + 1)
    return logs, ok


def _logm_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal logarithms of an (n, k, k) stack, and which of them to trust.

    The eigen route serves what it can and the square-root route takes the
    rest.  A logarithm with a non-finite entry counts as none, so a NaN or
    overflowed input fails rather than yielding a NaN log.  The entries of
    failed matrices are unspecified.
    """
    logs, ok = _logm_eig_route(a)
    rest = np.flatnonzero(~ok)
    if rest.size:
        logs[rest], ok[rest] = _logm_sqrt_route(a[rest])
    return logs, ok & np.isfinite(logs).all(axis=(-2, -1))


def logm(p: np.ndarray | Sequence) -> np.ndarray:
    """Principal matrix logarithm, routed per matrix.

    ``p`` is one (k, k) matrix or a stack (n, k, k).  One batched
    eigendecomposition serves every matrix that is diagonalizable by a
    well-conditioned eigenvector matrix V with no eigenvalue on the closed
    negative real axis: its logarithm is V log(w) V^-1, real part kept
    (see ``_logm_eig_route`` for the exact rule).  Every other matrix,
    e.g. a defective one, goes through inverse scaling and squaring
    (``_logm_sqrt_route``: square roots to within 1-norm 0.5 of the
    identity, then a fixed-length atanh series).  The route depends only
    on the matrix itself, so a stack gives the same results as single
    calls.  Raises LogmConvergenceError if any matrix of the stack has no
    real principal logarithm that the square-root route can reach, e.g.
    one with an eigenvalue on the closed negative real axis, or if its
    logarithm is not finite, e.g. for a NaN input.
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
    retry_budget: int = 5,
) -> ClosureReport:
    """Sampled numerical check that log(e^{Q1 t1} e^{Q2 t2}) stays in the span.

    Each trial draws Q1, Q2 as random positive combinations of the
    generators (coefficients uniform in (0, 1]) and times in (0, t_max],
    multiplies the two substitution matrices, takes the principal log,
    and measures the max-abs residual against the orthogonal projection
    onto the span.  Membership of a subspace is scale invariant, so the
    unnormalized log is tested.

    Trials run in rounds of one stacked expm and one stacked logarithm,
    which reports per product whether it found a finite principal log.
    Round ``attempt`` draws a (trials, 2d + 2) block from
    default_rng([seed, attempt]) and trial i takes row i, which is the
    same whatever the block height: a trial's numbers depend only on
    (seed, trial, attempt).  A trial without a log is discarded and
    redrawn next round, up to ``retry_budget`` attempts; its round is
    never re-run one product at a time.  If any trial exhausts the budget
    the verdict is "inconclusive" rather than a pass or fail.  Raises
    ValueError for a dimension-0 model and for ``trials`` or
    ``retry_budget`` below 1, or ``t_max`` or ``tol`` not finite positive.
    """
    if m.dim < 1:
        raise ValueError("degenerate model: dimension 0")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if retry_budget < 1:
        raise ValueError(f"retry_budget must be at least 1, got {retry_budget}")
    for name, value in (("t_max", t_max), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite positive number, got {value}")
    gens = np.array(m.basis, dtype=float)
    d = len(gens)
    # orthonormal basis of the span, one column per rref row
    span, _ = np.linalg.qr(np.array(m.rref, dtype=float).T)
    max_residual = 0.0
    discarded = 0
    pending = np.arange(trials)
    for attempt in range(retry_budget):
        n = len(pending)
        # row i of the round's block is trial i's c1, c2, t1 and t2
        u = 1.0 - np.random.default_rng([seed, attempt]).random((trials, 2 * d + 2))[pending]
        c = np.concatenate([u[:, :d], u[:, d : 2 * d]])
        t = np.concatenate([u[:, 2 * d], u[:, 2 * d + 1]]) * t_max
        subst = expm(np.tensordot(c, gens, axes=1), t)
        prods = subst[:n] @ subst[n:]
        logs, ok = _logm_stack(prods)
        v = logs[ok].reshape(-1, m.order**2)
        residual = np.abs(v - (v @ span) @ span.T).max(initial=0.0)
        max_residual = max(max_residual, float(residual))
        discarded += n - int(ok.sum())
        pending = pending[~ok]
        if not pending.size:
            break
    algebra = check_algebra_closed(m)
    lie = algebra if algebra.closed else check_lie_closed(m)
    if pending.size:
        status = "inconclusive"
    else:
        status = "pass" if max_residual < tol else "fail"
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
    )
