"""Exact matrix predicates and relabeling that only the tests use.

The package checks column sums on flat rows and relabels spans by
gathering flat rows (``linalg.relabel_gather``); these nested-matrix
forms state the same facts for test assertions, and
:func:`conjugate_subspace` relabels a whole span, the oracle for the
orbits that ``modelgen.model_orbit`` computes.
"""

from typing import Sequence

from liemarkov import linalg, modelgen
from liemarkov.linalg import Matrix, Vector


def is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def column_sums(a: Matrix) -> Vector:
    return tuple(sum(col) for col in zip(*a))


def has_zero_column_sums(a: Matrix) -> bool:
    return all(s == 0 for s in column_sums(a))


def has_nonneg_offdiag(a: Matrix) -> bool:
    """True iff the matrix lies in the stochastic cone (given zero column sums)."""
    return all(x >= 0 for i, row in enumerate(a) for j, x in enumerate(row) if i != j)


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


def conjugate_subspace(m: modelgen.ModelSubspace, perm: Sequence[int]) -> modelgen.ModelSubspace:
    """The isomorphic model with states relabeled by ``perm``.

    Each generator row is relabeled by one ``linalg.relabel_gather``.
    Raises ValueError unless ``perm`` is a permutation of range(m.order).
    """
    if len(perm) != m.order:
        raise ValueError(f"permutation on {len(perm)} points applied to an order-{m.order} span")
    src = linalg.relabel_gather(tuple(perm))
    rows = modelgen.generator_index(tuple(row[s] for s in src) for row in m.gen_rows)
    return modelgen._span(m.order, rows)
