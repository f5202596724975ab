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

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .cayley import Perm, compose, invert, relabel_gathers
from .linalg import Matrix, Scalar
from .representation import RegularRep

RrefKey = tuple[tuple[Scalar, ...], ...]


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
    constraint relaxed); ValueError otherwise.  Entries are decided here,
    once: an ``int`` is kept as it is, and any other entry (``bool``,
    ``Fraction``, numpy scalar, float) is stored as its exact value by
    ``linalg.exact``, ``int`` when integral, else ``Fraction``.  So a span
    has one stored basis whatever type the caller used, renderings print
    its entries as numbers, and the exact checks over its generators
    (``linalg.span_coordinates``, ``closure.pair_products``) never run in
    float arithmetic.
    """
    gens: list[Matrix] = []
    seen = set()
    for g in generators:
        g = tuple(
            tuple(x if type(x) is int else linalg.exact(x) for x in row) for row in g
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
    the generic support.  ``linalg.reach`` closes the reversed edges
    i -> j instead, which leaves strong connectivity unchanged: the model
    is reducible iff some off-diagonal entry of that closure is False.
    """
    reach = linalg.reach(np.array([generic_support(m)]))[0]
    return not reach[~np.eye(m.order, dtype=bool)].all()


def conjugate_subspace(m: ModelSubspace, perm: Sequence[int]) -> ModelSubspace:
    """The isomorphic model with states relabeled by ``perm``."""
    gens = tuple(linalg.conjugate(g, perm) for g in m.basis)
    rows = [linalg.vectorize(g) for g in gens]
    return ModelSubspace(m.order, gens, linalg.rref(rows))


@dataclass(frozen=True)
class ModelOrbit:
    """What the S_k orbit of a model's rref determines.

    ``key`` is the minimal conjugate rref (the canonical key), ``to_key``
    the permutations that map the model onto its key (sorted), ``group``
    the permutations that fix the rref (sorted), read off that coset as
    q^-1 o p for p in ``to_key`` and any one q in it, and ``variants``
    the number of distinct conjugate rrefs, k! / |group| by
    orbit-stabilizer.
    """

    key: RrefKey
    group: tuple[tuple[int, ...], ...]
    variants: int
    to_key: tuple[tuple[int, ...], ...]


@functools.cache
def _orbit_getters(k: int) -> tuple[tuple[Perm, operator.itemgetter], ...]:
    """Each permutation of {0..k-1}, identity first, with its relabel gather as an itemgetter.

    For k >= 2 only: with one cell, an itemgetter returns the entry, not a tuple.
    """
    return tuple((p, operator.itemgetter(*src)) for p, src in relabel_gathers(k))


def model_orbit(m: ModelSubspace) -> ModelOrbit:
    """The orbit of ``m.rref``, row-reducing only the relabelings that can reach the key.

    Key: a conjugate's first pivot is the first cell of its relabeled
    support, and rrefs whose first pivot comes later compare smaller, so
    only the relabelings that push that cell furthest are row-reduced;
    every relabeling onto the key is among them.  Integrality is decided
    once per span: ``m.rref`` is scaled to integer rows by one
    ``linalg.integral_rows`` (a no-op for an integral span), and a
    relabeling only permutes the entries within each row, so every
    candidate's rows are integral and go to ``linalg.rref_integral`` with
    no type check.  Bound: every candidate has its first pivot in the
    same column, and the least rref found so far bounds the rest by its
    row 0; the kernel cuts a candidate as soon as its row 0 compares
    greater, which rules it out as the key.  A tie on row 0 is never cut,
    so every relabeling onto the key still reaches ``to_key``, in getter
    order.  Group: relabeling is a left action, so if q maps the span
    onto the key, p does too exactly when q^-1 o p fixes the span, and
    the group is q^-1 o ``to_key``.
    """
    perms = tuple(p for p, _ in relabel_gathers(m.order))
    if len(perms) == 1 or not m.rref:
        # every relabeling fixes the rref
        return ModelOrbit(key=m.rref, group=perms, variants=1, to_key=perms)
    getters = _orbit_getters(m.order)
    support = tuple(any(col) for col in zip(*m.rref))
    firsts = [g(support).index(True) for _, g in getters]
    last = max(firsts)
    rows = linalg.integral_rows(m.rref)
    key, to_key, bound = None, [], None
    for (p, g), first in zip(getters, firsts):
        if first != last:
            continue
        r = linalg.rref_integral([g(row) for row in rows], bound)
        if r is None or (key is not None and r > key):
            continue
        if r != key:
            key, to_key = r, []
            bound = (linalg.integral_rows(key[:1])[0], last)
        to_key.append(p)
    back = invert(to_key[0])
    group = tuple(sorted(compose(back, p) for p in to_key))
    return ModelOrbit(
        key=key, group=group, variants=len(perms) // len(group), to_key=tuple(to_key)
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
