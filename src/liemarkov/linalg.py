"""Exact rational matrix arithmetic for small dense matrices.

Matrices are immutable tuples of row tuples with ``int`` or
``fractions.Fraction`` entries.  Everything here is exact: no floating
point, so subspace membership and equality are decisions rather than
tolerance judgements.  Integrality is decided once, where exact data
enters: ``integral_rows`` scales each row to integers, and
``rref_integral`` runs the one fraction-free elimination kernel on such
rows with no type check.  ``rref`` is the two in turn, so callers that
row-reduce many relabelings of one span (``modelgen.model_orbit``) scale
once and call ``rref_integral``, with the least rref found so far as a
bound that cuts a candidate once its row 0 compares greater.  An rref
entry is ``int`` exactly when its value is integral.
Coordinates over an rref are a vector's entries at its pivot columns
(:func:`pivot_columns`), read in exact Python by ``modelgen.contains``;
generator products and their membership are ``modelgen.SpanStack``'s.
``reach``, the transitive closure of a stack of off-diagonal nonzero
patterns, is boolean and so exact too: it decides
``modelgen.is_reducible`` for a whole stack of spans, and which entries
``closure.expm`` keeps at exactly 0.  ``closure.logm`` reads no zero
pattern: it has one route, Denman-Beavers square roots and a series.
Floating point enters the package only in :mod:`liemarkov.closure`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np

Scalar = int | Fraction
Matrix = tuple[tuple[Scalar, ...], ...]
Vector = tuple[Scalar, ...]


def mat(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    """Freeze a nested sequence into a Matrix tuple."""
    return tuple(tuple(row) for row in rows)


def identity(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m = len(a), len(b[0])
    inner = range(len(b))
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in inner) for j in range(m))
        for i in range(n)
    )


@functools.cache
def relabel_gather(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The gather that relabels a flattened k x k array by ``perm``.

    ``perm`` is an image array.  ``src[i * k + j] = q[i] * k + q[j]`` for
    q = perm^-1, so ``[a[s] for s in src]`` is the row-major flattening
    of r with r[perm[i]][perm[j]] = a[i][j].  Raises ValueError if
    ``perm`` is not a permutation of range(k).
    """
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation of range({k}): {perm}")
    q = [0] * k
    for i, x in enumerate(perm):
        q[x] = i
    return tuple(q[i] * k + q[j] for i in range(k) for j in range(k))


def vectorize(a: Matrix) -> Vector:
    """Row-major flattening; fixed so canonical keys are reproducible."""
    return tuple(x for row in a for x in row)


def unvectorize(v: Sequence[Scalar], k: int) -> Matrix:
    """Inverse of :func:`vectorize` for a k x k matrix."""
    return tuple(tuple(v[r : r + k]) for r in range(0, k * k, k))


def exact(x: object) -> Scalar:
    """The exact value of a real number: ``int`` when integral, else ``Fraction``.

    ``bool``, numpy scalars and floats are converted (a float of any width
    to its exact binary value); a string is refused with TypeError rather
    than parsed, and a non-finite number (``inf``, ``nan``) with ValueError.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, (str, bytes)):
            raise TypeError(f"not a number: {x!r}")
        if isinstance(x, np.bool_):
            return int(x)
        try:
            # Fraction takes no numpy float but float64, a float subclass
            x = Fraction(*x.as_integer_ratio()) if isinstance(x, np.floating) else Fraction(x)
        except (OverflowError, ValueError):
            raise ValueError(f"not a finite number: {x!r}") from None
    # int(): Fraction(np.int64(2)) keeps a numpy numerator
    return int(x.numerator) if x.denominator == 1 else x


def all_int(rows: Sequence[Sequence[object]]) -> bool:
    """True when every entry of ``rows`` is an ``int``: one C-level pass over the entry types.

    ``bool`` and ``Fraction`` are not ``int``.  This is the one
    integrality decision of the row reductions.
    """
    return set(map(type, chain.from_iterable(rows))) <= {int}


def integral_rows(rows: Sequence[Sequence[Scalar]]) -> Sequence[Sequence[int]]:
    """Each row scaled by the lcm of its entries' denominators, in ``int``.

    Rows that hold only ``int`` (:func:`all_int`) come back as given.
    Otherwise the same pass over each row picks the rows to scale, and
    every other row is returned as the same object.  Scaling a row leaves
    its span, and so every rref, unchanged.
    """
    if all_int(rows):
        return rows
    scaled = []
    for row in rows:
        if all_int([row]):
            scaled.append(row)
            continue
        d = math.lcm(*(Fraction(x).denominator for x in row))
        scaled.append([int(Fraction(x) * d) for x in row])
    return scaled


def _eliminate(
    work: list[Sequence[int]], ncols: int, bound: tuple[Sequence[int], int] | None = None
) -> int | None:
    """Fraction-free Gauss-Jordan elimination of ``work`` in place; returns the rank.

    Every entry must be ``int``; nothing here checks it (``integral_rows``
    decides that).  Pivots are sought only in the first ``ncols`` columns
    and cleared above and below; the rank rows come first, the zero rows
    after.  Pivot p clears entry f of a row x by x - (f // p) y when p
    divides f, else by p x - f y divided by the row's content, so the loop
    runs in ``int`` only.  Rows are replaced, never written into, so they
    may be tuples.  Rank rows are divided by their pivots at the end, so
    an entry is ``int`` exactly when its value is integral.

    ``bound`` is ``(b, c0)``: an integral row b whose first nonzero entry,
    at c0, is positive, for rows that are zero before column c0 and not
    all zero at it.  Row 0 is then the pivot row of c0, and once column
    j > c0 is processed its entry there is final up to the scale of the
    row: no later pivot row is nonzero in an earlier column, and the
    later steps only add multiples of such rows to row 0 or scale it.  So
    rref row 0 and b / b[c0] compare at j by the signs of
    ``work[0][j] * b[c0]`` and ``b[j] * work[0][c0]``, flipped when
    ``work[0][c0] < 0``.  At the first column where they differ the run
    returns None if row 0 is the greater (it is cut), and stops comparing
    if it is the smaller.  Once every row has a pivot the run stops, unless
    row 0 still ties b: then the loop goes on comparing column by column,
    with nothing left to eliminate.  A tie is never cut.
    """
    n = len(work)
    pivots: list[int] = []  # the pivot column of each rank row
    for col in range(ncols):
        top = len(pivots)
        for found in range(top, n):
            if work[found][col] != 0:
                break
        else:
            found = n
        if found < n:
            work[top], work[found] = work[found], work[top]
            prow = work[top]
            p = prow[col]
            for r in range(n):
                f = work[r][col]
                if r == top or f == 0:
                    continue
                if f % p == 0:
                    q = f // p
                    work[r] = [x - q * y for x, y in zip(work[r], prow)]
                else:
                    row = [p * x - f * y for x, y in zip(work[r], prow)]
                    c = math.gcd(*row)  # 0 for an all-zero row
                    work[r] = [x // c for x in row] if c > 1 else row
            pivots.append(col)
        if bound is not None and col > bound[1]:
            b, c0 = bound
            s = work[0][c0]
            x, y = work[0][col] * b[c0], b[col] * s
            if x != y:
                if (x > y) == (s > 0):
                    return None
                bound = None
        if len(pivots) == n and bound is None:
            break
    for i, col in enumerate(pivots):
        p = work[i][col]
        if p != 1:
            work[i] = [x // p if x % p == 0 else Fraction(x, p) for x in work[i]]
    return len(pivots)


def rref_integral(
    rows: Sequence[Sequence[int]], bound: tuple[Sequence[int], int] | None = None
) -> tuple[Vector, ...] | None:
    """:func:`rref` of rows whose entries are all ``int``, with no type check.

    The caller has decided integrality, e.g. by one :func:`integral_rows`
    for a whole family of relabeled rows; a non-``int`` entry here gives
    a wrong result or a TypeError.  With ``bound = (b, c0)``, an integral
    row whose first nonzero entry is b[c0] > 0, for rows whose first
    nonzero column is c0, the result is None exactly when the rref's row
    0 is greater than b / b[c0]; the elimination stops at the first
    column that shows it.  An equal or smaller row 0 gives the full rref.
    """
    work = list(rows)
    if not work:
        return ()
    rank = _eliminate(work, len(work[0]), bound)
    if rank is None:
        return None
    return tuple(tuple(row) for row in work[:rank])


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Vector, ...]:
    """Reduced row-echelon form over the rationals.

    Zero rows are dropped and pivots are 1 with their columns cleared, so
    the result is the unique canonical basis of the row space: two spans
    are equal iff their rrefs are.  Entries of any exact or float type are
    accepted; integrality is decided here, by :func:`integral_rows`, and
    the output holds ``int`` where a value is integral, else ``Fraction``.
    """
    return rref_integral(integral_rows(rows))


def pivot_columns(rref_rows: Sequence[Vector]) -> list[int]:
    """The column of the first nonzero entry of each row; an rref row is never zero."""
    return [next(j for j, x in enumerate(row) if x != 0) for row in rref_rows]


def rref_with_transform(
    rows: Sequence[Vector],
) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """rref plus the row-operation record T with rref = T @ rows.

    One elimination of ``rows`` beside the identity gives both, with the
    same type rule; T maps rref coefficients back onto the generators.
    """
    n = len(rows)
    if n == 0:
        return (), ()
    ncols = len(rows[0])
    aug = integral_rows(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    )
    rank = _eliminate(aug, ncols)
    basis = tuple(tuple(row[:ncols]) for row in aug[:rank])
    transform = tuple(tuple(row[ncols:]) for row in aug[:rank])
    return basis, transform


@functools.cache
def off_diagonal(k: int) -> np.ndarray:
    """The read-only (k, k) bool mask of the off-diagonal entries."""
    mask = ~np.eye(k, dtype=bool)
    mask.flags.writeable = False
    return mask


def reach(a: np.ndarray) -> np.ndarray:
    """Transitive closure of the off-diagonal nonzero pattern of an (n, k, k) stack.

    ``reach[m, i, j]`` is True when a path i -> j runs through nonzero
    off-diagonal entries of ``a[m]``; each squaring doubles the path
    length covered, up to 2^s >= k.
    """
    k = a.shape[-1]
    reach = (a != 0) & off_diagonal(k)
    for _ in range((k - 1).bit_length()):
        reach = reach | (reach @ reach)
    return reach
