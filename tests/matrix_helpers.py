"""Exact matrix predicates and relabeling that only the tests use.

The package checks column sums on flat rows and relabels spans by
gathering flat rows (``linalg.relabel_gather``); these nested-matrix
forms state the same facts for test assertions.
"""

from typing import Sequence

from liemarkov import linalg
from liemarkov.linalg import Matrix, Vector


def is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def column_sums(a: Matrix) -> Vector:
    return tuple(sum(col) for col in zip(*a))


def has_zero_column_sums(a: Matrix) -> bool:
    return all(s == 0 for s in column_sums(a))


def conjugate(a: Matrix, perm: Sequence[int]) -> Matrix:
    """Simultaneous row/column permutation K A K^T.

    ``perm`` is an image array: the result r satisfies
    r[perm[i]][perm[j]] = a[i][j], one ``linalg.relabel_gather`` of the
    flattened matrix.  Raises ValueError unless ``perm`` is a
    permutation of range(len(a)).
    """
    if len(perm) != len(a):
        raise ValueError(
            f"permutation on {len(perm)} points applied to a {len(a)} x {len(a)} matrix"
        )
    flat = linalg.vectorize(a)
    return linalg.unvectorize([flat[s] for s in linalg.relabel_gather(tuple(perm))], len(a))
