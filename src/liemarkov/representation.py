"""Left regular representation of a semigroup by 0/1 matrices.

Element a_i maps to the k x k matrix A_i acting by left multiplication on
basis vectors: A_i e_j = e_{i*j}, i.e. A_i has a single 1 in column j at
row table[i][j].  Columns index the acted-upon element, so every column
of every A_i sums to 1.  Unlike the group case the map need not be
injective, and some A_i may equal the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cayley import CayleyTable, is_associative
from .linalg import Matrix


@dataclass(frozen=True)
class RegularRep:
    order: int
    matrices: tuple[Matrix, ...]


def regular_rep(t: CayleyTable) -> RegularRep:
    """The matrices A_1..A_k of left multiplication in the semigroup."""
    if not is_associative(t):
        raise ValueError("table is not associative: not a semigroup")
    k = t.order
    mats = []
    for i in range(k):
        a = [[0] * k for _ in range(k)]
        for j in range(k):
            a[t.table[i][j]][j] = 1
        mats.append(tuple(tuple(row) for row in a))
    return RegularRep(k, tuple(mats))


def rep_is_injective(r: RegularRep) -> bool:
    """True iff all k matrices are pairwise distinct."""
    return len(set(r.matrices)) == r.order
