"""Model subspaces: the linear span of derived rate matrices.

A rate matrix has zero column sums; inside the stochastic cone its
off-diagonal entries are nonnegative, and the ji entry carries the
transition rate i -> j (columns index source states).  A model is the
real span of a finite set of rate matrices, stored in exact canonical
form: the reduced row-echelon form of the row-major vectorized
generators.  The rref is unique for the span, so subspace equality,
membership, and cross-run canonical keys are all exact decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .cayley import relabel_gathers
from .linalg import Matrix, Scalar
from .representation import RegularRep

RrefKey = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class ModelSubspace:
    """Span of rate-matrix generators, with canonical rational rref."""

    order: int
    basis: tuple[Matrix, ...]
    rref: RrefKey

    @property
    def dim(self) -> int:
        return len(self.rref)


def _check_shape(x: Matrix, order: int, what: str) -> None:
    """Raise ValueError unless ``x`` is an order x order matrix."""
    if len(x) != order or any(len(row) != order for row in x):
        lengths = sorted({len(row) for row in x})
        raise ValueError(
            f"order mismatch: expected a {order} x {order} {what}, "
            f"got {len(x)} rows of lengths {lengths}"
        )


def subspace_from_generators(order: int, generators: Iterable[Matrix]) -> ModelSubspace:
    """Build a ModelSubspace; zero and repeated generators are dropped.

    Every generator must be order x order and have zero column sums
    (membership in the ambient space of rate matrices with sign
    constraint relaxed); ValueError otherwise.  Integral
    entries are stored as ``int``, so the exact checks on the span take
    the integer fast paths whatever type the caller used.
    """
    gens: list[Matrix] = []
    seen = set()
    for g in generators:
        g = linalg.mat(
            [
                x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x
                for x in row
            ]
            for row in g
        )
        _check_shape(g, order, "generator")
        if not linalg.has_zero_column_sums(g):
            raise ValueError(f"generator has nonzero column sums: {g}")
        if linalg.is_zero(g) or g in seen:
            continue
        seen.add(g)
        gens.append(g)
    rows = [linalg.vectorize(g) for g in gens]
    return ModelSubspace(order, tuple(gens), linalg.rref(rows))


def rate_basis(r: RegularRep) -> ModelSubspace:
    """Rate-matrix generators -I + A_i of a regular representation.

    Duplicates and zero generators (A_i equal to the identity) are
    dropped, which is why the dimension can fall below the semigroup
    order.  Every surviving generator lies in the stochastic cone: its
    off-diagonal entries are the 0/1 off-diagonal entries of A_i.
    """
    k = r.order
    ident = linalg.identity(k)
    return subspace_from_generators(
        k, (linalg.mat_sub(a, ident) for a in r.matrices)
    )


def contains(
    m: ModelSubspace, x: Sequence[Sequence[Scalar]]
) -> tuple[Fraction, ...] | None:
    """Exact membership by ``linalg.span_coordinates``: coefficients over the rref, else None.

    Raises ValueError unless ``x`` is ``m.order`` x ``m.order``.
    """
    x = linalg.mat(x)
    _check_shape(x, m.order, "matrix")
    coords, inside = linalg.span_coordinates(m.rref, [linalg.vectorize(x)])
    return tuple(coords[0].tolist()) if inside[0] else None


def generic_support(m: ModelSubspace) -> tuple[tuple[bool, ...], ...]:
    """Support of a generic interior cone point: which rates can be positive.

    Entry (i, j), i != j, is True iff some basis generator has a positive
    (i, j) entry; the diagonal is False.  For generators in the cone this
    equals the support of any strictly positive combination.
    """
    k = m.order
    sup = [[False] * k for _ in range(k)]
    for g in m.basis:
        for i in range(k):
            for j in range(k):
                if i != j and g[i][j] > 0:
                    sup[i][j] = True
    return tuple(tuple(row) for row in sup)


def absorbing_states(m: ModelSubspace) -> set[int]:
    """States with no exit rate in any model matrix (0-based indices).

    Columns index source states, so state j is absorbing iff column j of
    the generic support is all False off the diagonal.
    """
    sup = generic_support(m)
    k = m.order
    return {
        j for j in range(k) if not any(sup[i][j] for i in range(k) if i != j)
    }


def is_reducible(m: ModelSubspace) -> bool:
    """True iff the generic transition digraph is not strongly connected.

    The digraph has an edge j -> i for each True off-diagonal (i, j) of
    the generic support; reachability comes from Warshall's transitive
    closure of the adjacency matrix.
    """
    k = m.order
    sup = generic_support(m)
    reach = [[i == j or sup[i][j] for i in range(k)] for j in range(k)]
    # Warshall transitive closure on the j -> i edges
    for mid in range(k):
        for a in range(k):
            if reach[a][mid]:
                ra = reach[a]
                rm = reach[mid]
                for b in range(k):
                    if rm[b]:
                        ra[b] = True
    return not all(all(row) for row in reach)


def conjugate_subspace(m: ModelSubspace, perm: Sequence[int]) -> ModelSubspace:
    """The isomorphic model with states relabeled by ``perm``."""
    gens = tuple(linalg.conjugate(g, perm) for g in m.basis)
    rows = [linalg.vectorize(g) for g in gens]
    return ModelSubspace(m.order, gens, linalg.rref(rows))


@dataclass(frozen=True)
class ModelOrbit:
    """What one pass over the k! relabelings of a model determines.

    ``key`` is the minimal conjugate rref (the canonical key), ``group``
    the permutations that fix the rref (sorted), ``variants`` the number
    of distinct conjugate rrefs and ``to_key`` the permutations that map
    the model onto its key (sorted).  Orbit-stabilizer makes
    ``len(group) * variants == k!``.
    """

    key: RrefKey
    group: tuple[tuple[int, ...], ...]
    variants: int
    to_key: tuple[tuple[int, ...], ...]


def model_orbit(m: ModelSubspace) -> ModelOrbit:
    """Row-reduce each of the k! relabelings of ``m.rref`` exactly once."""
    conjugates = [
        (p, linalg.rref([tuple(row[s] for s in src) for row in m.rref]))
        for p, src in relabel_gathers(m.order)
    ]
    key = min(r for _, r in conjugates)
    return ModelOrbit(
        key=key,
        group=tuple(p for p, r in conjugates if r == m.rref),
        variants=len({r for _, r in conjugates}),
        to_key=tuple(p for p, r in conjugates if r == key),
    )


def canonical_subspace(m: ModelSubspace) -> RrefKey:
    """Canonical key: minimal rref over all simultaneous state relabelings.

    Two models are isomorphic (equal up to a permutation of states) iff
    their keys are equal.  Comparison is lexicographic on the flattened
    exact rational entries, with the row-major vectorization fixed so the
    key is reproducible bit for bit.
    """
    return model_orbit(m).key


@dataclass(frozen=True)
class ModelClass:
    """An isomorphism class of models with provenance of its members."""

    key: RrefKey
    representative: ModelSubspace
    member_indices: tuple[int, ...]


def dedup_models(models: Sequence[ModelSubspace]) -> list[ModelClass]:
    """Group models by canonical key; output independent of input order.

    The representative is rebuilt in canonical position: its rref equals
    the class key, and its generators are the relabeled generators of the
    member that minimizes them, sorted.  That keeps rendered catalogs
    byte-identical however the inputs were ordered.
    """
    orbits = [model_orbit(m) for m in models]
    groups: dict[RrefKey, list[int]] = {}
    for idx, orbit in enumerate(orbits):
        groups.setdefault(orbit.key, []).append(idx)

    classes = []
    for key in sorted(groups):
        indices = groups[key]
        best_gens = min(
            tuple(sorted(linalg.conjugate(g, p) for g in models[idx].basis))
            for idx in indices
            for p in orbits[idx].to_key
        )
        rep = ModelSubspace(models[indices[0]].order, best_gens, key)
        classes.append(ModelClass(key, rep, tuple(indices)))
    return classes
