"""Left regular representation of a semigroup by 0/1 matrices.

Element a_i maps to the k x k matrix A_i acting by left multiplication on
basis vectors: A_i e_j = e_{i*j}, i.e. A_i has a single 1 in column j at
row table[i][j].  Columns index the acted-upon element, so every column
of every A_i sums to 1.  Unlike the group case the map need not be
injective, and some A_i may equal the identity.

A ``RegularRep`` keeps the Cayley table itself: A_i is fixed by row i of
the table, so every fact of the representation is read off the table
(:func:`ones`), and the nested matrices are built only when asked for.
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
        """A_1..A_k as nested 0/1 matrices, built from the table on each access."""
        k = self.order
        mats = []
        for i in range(k):
            flat = [0] * (k * k)
            for s in ones(self.table, i):
                flat[s] = 1
            mats.append(linalg.unvectorize(flat, k))
        return tuple(mats)


def ones(t: CayleyTable, i: int) -> tuple[int, ...]:
    """Row-major positions of the ones of A_i: A_i e_j = e_{i*j}, a 1 at (i*j, j)."""
    k = t.order
    return tuple(x * k + j for j, x in enumerate(t.table[i]))


def regular_rep(t: CayleyTable) -> RegularRep:
    """The representation A_1..A_k of left multiplication in the semigroup.

    This is the one associativity check of a table on its way to a model.
    """
    if not is_associative(t):
        raise ValueError("table is not associative: not a semigroup")
    return RegularRep(t)


def rep_is_injective(r: RegularRep) -> bool:
    """True iff all k matrices are pairwise distinct, i.e. all table rows are."""
    return len(set(r.table.table)) == r.order
