"""Left regular representation of a semigroup by 0/1 matrices.

Element a_i maps to the k x k matrix A_i acting by left multiplication on
basis vectors: A_i e_j = e_{i*j}, i.e. A_i has a single 1 in column j at
row table[i][j].  Columns index the acted-upon element, so every column
of every A_i sums to 1.  Unlike the group case the map need not be
injective, and some A_i may equal the identity.

A ``RegularRep`` keeps the Cayley table itself: A_i is fixed by row i of
the table, so every fact of the representation is read off the table.
:func:`rate_rows` is the one place that encodes A_i e_j = e_{i*j}: it
writes the rate generators L_i = A_i - I that the model spans, and the
nested matrices A_i = L_i + I are built from them only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .cayley import CayleyTable, is_associative
from .linalg import Matrix


@dataclass(frozen=True)
class RegularRep:
    """The left regular representation of an associative table."""

    table: CayleyTable

    @property
    def order(self) -> int:
        return self.table.order

    @property
    def matrices(self) -> tuple[Matrix, ...]:
        """A_1..A_k as nested 0/1 matrices, (A_i - I) + I, built on each access."""
        k = self.order
        ident = linalg.vectorize(linalg.identity(k))
        return tuple(
            linalg.unvectorize([x + y for x, y in zip(row, ident)], k)
            for row in rate_rows(self.table)
        )


def rate_rows(t: CayleyTable) -> list[tuple[int, ...]]:
    """A_i - I for each row i of the Cayley table, as one flat row of ``int`` each.

    A_i e_j = e_{i*j} puts a 1 at (i*j, j), row-major position
    (i*j) k + j, so row i is -1 on the diagonal plus 1 at each of those;
    it is zero exactly when A_i is the identity.
    """
    k = t.order
    minus_ident = [0] * (k * k)
    for s in range(0, k * k, k + 1):
        minus_ident[s] = -1
    rows = []
    for products in t.table:
        row = minus_ident.copy()
        for j, x in enumerate(products):
            row[x * k + j] += 1
        rows.append(tuple(row))
    return rows


def regular_rep(t: CayleyTable) -> RegularRep:
    """The representation A_1..A_k of left multiplication in the semigroup.

    This is the one associativity check of a given table on its way to a
    model; ``run_pipeline`` wraps enumerated tables, associative by
    construction, in ``RegularRep`` directly.
    """
    if not is_associative(t):
        raise ValueError("table is not associative: not a semigroup")
    return RegularRep(t)


def rep_is_injective(r: RegularRep) -> bool:
    """True iff all k matrices are pairwise distinct, i.e. all table rows are."""
    return len(set(r.table.table)) == r.order
