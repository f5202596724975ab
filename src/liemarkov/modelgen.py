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
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .cayley import Perm, relabel_gathers
from .linalg import Matrix, Scalar
from .representation import RegularRep, ones

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


def _span(order: int, flats: Iterable[tuple[Scalar, ...]]) -> ModelSubspace:
    """Span of exact row-major generators; zero ones and repeats are dropped, first kept.

    Column sums are checked on the flat rows (column j is ``flat[j::order]``),
    once per distinct nonzero generator; only the kept rows become matrices.
    """
    rows: dict[tuple[Scalar, ...], None] = {}
    for flat in flats:
        if flat in rows or not any(flat):
            continue
        if any(sum(flat[j::order]) for j in range(order)):
            g = linalg.unvectorize(flat, order)
            raise ValueError(f"generator has nonzero column sums: {g}")
        rows[flat] = None
    basis = tuple(linalg.unvectorize(flat, order) for flat in rows)
    return ModelSubspace(order, basis, linalg.rref(list(rows)))


def subspace_from_generators(order: int, generators: Iterable[Matrix]) -> ModelSubspace:
    """Build a ModelSubspace; zero and repeated generators are dropped.

    Every generator must be order x order and have zero column sums
    (membership in the ambient space of rate matrices with sign
    constraint relaxed); ValueError otherwise.  Each generator is
    flattened once and every entry stored as ``linalg.exact`` gives it:
    an ``int`` as it is, any other (``bool``, ``Fraction``, numpy scalar,
    float) as its exact value, ``int`` when integral, else ``Fraction``; a
    string raises TypeError.  So a span has one stored basis whatever type
    the caller used, a float copy of an earlier generator is a repeat, and
    the exact checks over its generators never run in float arithmetic.
    Entries are converted, then the shape checked, then the column sums.
    """

    def flats():
        for g in generators:
            rows = tuple(map(tuple, g))
            flat = tuple(map(linalg.exact, chain.from_iterable(rows)))
            _check_shape(rows, order, "generator")
            yield flat

    return _span(order, flats())


def rate_basis(r: RegularRep) -> ModelSubspace:
    """Rate-matrix generators -I + A_i of a regular representation.

    Duplicates and zero generators (A_i equal to the identity) are
    dropped, which is why the dimension can fall below the semigroup
    order.  Every surviving generator lies in the stochastic cone: its
    off-diagonal entries are the 0/1 off-diagonal entries of A_i.  Each
    A_i - I is written straight from row i of the Cayley table as one
    flat row of ``int`` (-1 on the diagonal, plus 1 at each position of
    ``representation.ones``), which ``linalg.rref`` hands to the ``int``
    kernel as it is.
    """
    k = r.order
    minus_ident = [0] * (k * k)
    for s in range(0, k * k, k + 1):
        minus_ident[s] = -1

    def flats():
        for i in range(k):
            row = minus_ident.copy()
            for s in ones(r.table, i):
                row[s] += 1
            yield tuple(row)

    return _span(k, flats())


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
    return absorbing_states_of_support(generic_support(m))


def absorbing_states_of_support(sup: Sequence[Sequence[bool]]) -> set[int]:
    """:func:`absorbing_states` read off a generic support already built."""
    k = len(sup)
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
    return is_reducible_support(generic_support(m))


def is_reducible_support(sup: Sequence[Sequence[bool]]) -> bool:
    """:func:`is_reducible` read off a generic support already built."""
    reach = linalg.reach(np.array([sup]))[0]
    return not reach[~np.eye(len(sup), dtype=bool)].all()


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


@functools.cache
def _perm_products(k: int) -> tuple[tuple[int, ...], ...]:
    """The product table of S_k on the indices of ``_orbit_getters(k)``.

    Entry [a][b] is the index of p_a o p_b; index 0 is the identity.  The
    indices are the lexicographic ranks that ``itertools.permutations``
    gives, so each composite is ranked by a binary search on its digits
    read as a base-k number.  Built on the first orbit of order k that
    needs it; at k = 6 the 720 x 720 table holds about 4 MB.
    """
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int8)
    comp = perms[:, perms]  # comp[a, b, x] = p_a[p_b[x]]
    weights = k ** np.arange(k - 1, -1, -1, dtype=np.int32)
    index = np.searchsorted(perms @ weights, comp @ weights)
    ints = list(range(len(perms)))  # one int object per index, shared by every row
    return tuple(tuple(map(ints.__getitem__, row.tolist())) for row in index)


def _right_coset(products: Sequence[Sequence[int]], p: int, group: Iterable[int]) -> list[int]:
    """The indices of p o h for h in ``group``: relabelings whose conjugate equals p's.

    Relabeling is a left action, (p o h).L = p.(h.L), so p o h gives p's
    rref for every symmetry h of the span L.
    """
    row = products[p]
    return [row[h] for h in group]


def _generated(products: Sequence[Sequence[int]], group: tuple[int, ...], s: int) -> tuple[int, ...]:
    """The group generated by a group of indices and one more index s.

    A union of right cosets group o e, one representative e at a time,
    closed under right multiplication by every element of ``group`` and
    by s, the identity's coset first: a finite set closed under its
    generators is the group they generate.
    """
    elems, seen, reps = list(group), set(group), [0]
    for e in reps:
        row = products[e]
        for x in (*group, s):
            y = row[x]
            if y not in seen:
                coset = [products[h][y] for h in group]
                elems += coset
                seen.update(coset)
                reps.append(y)
    return tuple(elems)


_KEY, _DEAD = 1, 2


def model_orbit(m: ModelSubspace) -> ModelOrbit:
    """The orbit of ``m.rref``, row-reducing one relabeling per right coset found.

    Key: a conjugate's first pivot is the first cell of its relabeled
    support, and rrefs whose first pivot comes later compare smaller, so
    only the relabelings that push that cell furthest are candidates;
    every relabeling onto the key is among them.  Integrality is decided
    once per span: ``m.rref`` is scaled to integer rows by one
    ``linalg.integral_rows`` (a no-op for an integral span), and a
    relabeling only permutes the entries within each row, so every
    candidate's rows are integral and go to ``linalg.rref_integral`` with
    no type check.  Bound: every candidate has its first pivot in the
    same column, and the least rref found so far bounds the rest by its
    row 0; the kernel cuts a candidate as soon as its row 0 compares
    greater, which rules it out as the key.  A tie on row 0 is never cut.

    Cosets: relabeling is a left action, (p o h).L = p.(h.L), so p and q
    give the same rref exactly when q^-1 o p fixes the span.  Each tie
    with the least rref so far (a provisional key that is later beaten
    included) is such a symmetry, and the symmetries found are kept as a
    group H, closed under composition.  Every relabeling in the right
    coset p o H gives p's rref, so one elimination decides a whole
    coset: a candidate in the coset of a relabeling onto the key joins
    ``to_key`` without an elimination, and one in the coset of a cut or
    greater candidate, or of a beaten key, is skipped; when H grows,
    every decided coset grows with it.  (The mirror h o p would be wrong:
    (h o p).L = h.(p.L) is p.L exactly when h fixes p.L, which h.L = L
    does not imply.)  Both decisions are exact, so ``to_key`` is still
    every relabeling onto the key, in getter order.  Group: if q maps the
    span onto the key, p does too exactly when q^-1 o p fixes the span,
    and each such p joined ``to_key`` as q itself, in a coset q o H, or
    by a tie that put q^-1 o p in H; so at the end H is the whole
    symmetry group.
    """
    if m.order < 2 or not m.rref:
        # every relabeling fixes the rref
        perms = tuple(p for p, _ in relabel_gathers(m.order))
        return ModelOrbit(key=m.rref, group=perms, variants=1, to_key=perms)
    getters = _orbit_getters(m.order)
    products = _perm_products(m.order)
    support = tuple(any(col) for col in zip(*m.rref))
    firsts = [g(support).index(True) for _, g in getters]
    last = max(firsts)
    rows = linalg.integral_rows(m.rref)
    key, to_key, bound = None, [], None
    sym: tuple[int, ...] = (0,)  # H, the symmetries found so far
    beaten: list[int] = []  # candidates known not to reach the key
    status = bytearray(len(getters))  # _KEY or _DEAD once a candidate's coset is known

    def mark(reps: Iterable[int], value: int) -> None:
        for rep in reps:
            for j in _right_coset(products, rep, sym):
                status[j] = value

    for i, ((p, g), first) in enumerate(zip(getters, firsts)):
        if first != last:
            continue
        known = status[i]
        if known:
            if known == _KEY:
                to_key.append(p)
            continue
        r = linalg.rref_integral([g(row) for row in rows], bound)
        if r is None or (key is not None and r > key):
            beaten.append(i)
            if len(sym) > 1:  # with H trivial the coset is i alone, and i is done
                mark([i], _DEAD)
            continue
        if r == key:
            sym = _generated(products, sym, products[q].index(i))  # q^-1 o p
            mark(beaten, _DEAD)  # each known coset grows with H
        else:
            if key is not None:
                beaten.append(q)
                mark([q], _DEAD)
            key, q, to_key = r, i, []
            bound = (linalg.integral_rows(key[:1])[0], last)
        mark([q], _KEY)
        to_key.append(p)
    group = tuple(sorted(getters[h][0] for h in sym))
    return ModelOrbit(
        key=key, group=group, variants=len(getters) // len(group), to_key=tuple(to_key)
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
