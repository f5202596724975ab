"""Model subspaces: the linear span of derived rate matrices.

A rate matrix has zero column sums; inside the stochastic cone its
off-diagonal entries are nonnegative, and the ji entry carries the
transition rate i -> j (columns index source states).  A model is the
real span of a finite set of rate matrices, stored as the exact
row-major rows of its generators and in canonical form: the reduced
row-echelon form of those rows.  The rref is unique for the span, so
subspace equality, membership, and cross-run canonical keys are all
exact decisions.  The orbit of a span under relabeling, which gives its
canonical key, symmetry group and variant count, indexes S_k by
``cayley.relabel_gathers`` and multiplies it by
``cayley.symmetric_group_table``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import linalg
from .cayley import Perm, relabel_gathers, symmetric_group_table
from .linalg import Matrix, Scalar
from .representation import RegularRep, rate_rows

RrefKey = tuple[tuple[Scalar, ...], ...]


@dataclass(frozen=True)
class ModelSubspace:
    """Span of rate-matrix generators, with canonical rational rref.

    ``gen_rows`` holds the generators once, as the exact row-major rows
    that :func:`generator_index` kept; ``basis`` builds the nested k x k
    matrices from them on each access.

    ``integral`` is derived from the rows, so every span has it right,
    however it was built (directly, or by ``dataclasses.replace``); it is
    no field, so it takes no part in equality, hashing or repr.
    """

    order: int
    gen_rows: tuple[tuple[Scalar, ...], ...]
    rref: RrefKey

    @property
    def dim(self) -> int:
        return len(self.rref)

    @functools.cached_property
    def integral(self) -> bool:
        """True exactly when every entry of ``gen_rows`` and ``rref`` is an ``int``.

        One ``linalg.all_int`` pass on first use, kept for the span's
        life; ``_filled`` and :func:`model_orbit` read it instead of
        scanning the rows again.
        """
        return linalg.all_int(self.gen_rows + self.rref)

    @property
    def basis(self) -> tuple[Matrix, ...]:
        """The generators as nested k x k matrices, built from ``gen_rows`` on each access."""
        return tuple(linalg.unvectorize(row, self.order) for row in self.gen_rows)


def _exact_row(x: Sequence[Sequence[object]], order: int, what: str) -> tuple[Scalar, ...]:
    """The row-major flattening of an order x order matrix, each entry as ``linalg.exact`` gives it.

    An ``int`` stays as it is; any other real (``bool``, ``Fraction``,
    numpy scalar, float) becomes its exact value, ``int`` when integral,
    else ``Fraction``.  A string raises TypeError and a non-finite number
    ValueError, both before the shape is checked; ValueError unless ``x``
    is order x order.
    """
    x = linalg.mat(x)
    flat = tuple(map(linalg.exact, chain.from_iterable(x)))
    if len(x) != order or any(len(row) != order for row in x):
        lengths = sorted({len(row) for row in x})
        raise ValueError(
            f"order mismatch: expected a {order} x {order} {what}, "
            f"got {len(x)} rows of lengths {lengths}"
        )
    return flat


def generator_index(flats: Iterable[tuple[Scalar, ...]]) -> dict[tuple[Scalar, ...], int]:
    """The generator rule of a span: zero rows dropped, repeats sent to their first occurrence.

    Maps each kept row, in order, to its position among the generators, so
    the generator of a row is ``index.get(row)``, None for a zero row.
    """
    index: dict[tuple[Scalar, ...], int] = {}
    for flat in flats:
        if any(flat):
            index.setdefault(flat, len(index))
    return index


def _span(order: int, rows: dict[tuple[Scalar, ...], int]) -> ModelSubspace:
    """Span of the exact row-major generators that :func:`generator_index` kept.

    The rref comes from ``linalg.rref``; the span's ``integral`` fact is
    left to its first use.
    """
    gen_rows = tuple(rows)
    return ModelSubspace(order, gen_rows, linalg.rref(gen_rows))


def subspace_from_generators(order: int, generators: Iterable[Matrix]) -> ModelSubspace:
    """Build a ModelSubspace; zero and repeated generators are dropped.

    Every generator must be order x order and have zero column sums
    (membership in the ambient space of rate matrices with sign
    constraint relaxed); ValueError otherwise.  Each generator is
    flattened once by :func:`_exact_row`, so a span has one stored form
    whatever type the caller used, a float copy of an earlier generator
    is a repeat, and the exact checks over its generators never run in
    float arithmetic.  Every generator's entries are converted and its
    shape checked before any column sums are; the sums are checked once
    per kept generator, on its flat row (column j is ``flat[j::order]``).
    """
    rows = generator_index(_exact_row(g, order, "generator") for g in generators)
    for flat in rows:
        if any(sum(flat[j::order]) for j in range(order)):
            raise ValueError(f"generator has nonzero column sums: {linalg.unvectorize(flat, order)}")
    return _span(order, rows)


def rate_basis(r: RegularRep) -> ModelSubspace:
    """Rate-matrix generators -I + A_i of a regular representation.

    Duplicates and zero generators (A_i equal to the identity) are
    dropped, which is why the dimension can fall below the semigroup
    order.  Every surviving generator lies in the stochastic cone: its
    off-diagonal entries are the 0/1 off-diagonal entries of A_i.  The
    generators are the flat ``int`` rows of
    :func:`~liemarkov.representation.rate_rows`, which ``linalg.rref``
    hands to the ``int`` kernel as they are; their column sums are zero
    by construction (each column holds one -1 and one +1, or neither), so
    they are not checked.
    """
    return _span(r.order, generator_index(rate_rows(r.table)))


def contains(m: ModelSubspace, x: Sequence[Sequence[object]]) -> tuple[Scalar, ...] | None:
    """Exact membership: the coefficients of ``x`` over the rref rows, else None.

    The entries of ``x`` are read as :func:`_exact_row` reads a
    generator's, so a float is decided on its exact binary value and the
    coordinates are ``int`` or ``Fraction``.  Over an rref basis the
    coordinates of v are its entries at the pivot columns, and v lies in
    the span iff that combination of the rows is v itself.  Raises
    ValueError unless ``x`` is ``m.order`` x ``m.order`` with finite
    entries, and TypeError for a string entry.
    """
    v = _exact_row(x, m.order, "matrix")
    coords = tuple(v[p] for p in linalg.pivot_columns(m.rref))
    combination = [sum(c * row[j] for c, row in zip(coords, m.rref)) for j in range(len(v))]
    return coords if list(v) == combination else None


STACK_BLOCK = 128
"""The most spans :func:`span_stacks` puts in one :class:`SpanStack`.

A stack holds n^2 products of k^2 entries per span: at order 6 a block
of 128 spans is about 1.3 MB in ``int64``, where all 18254 order-6 spans
at once would be about 190 MB.
"""


class SpanStack:
    """Exact generator products and supports of same-order spans, in one stack.

    Every generator product whose membership is decided is formed here;
    the witness of a failed check is recomputed exactly from the span's
    ``basis``.  Span s is entry s of one (S, n + d, k^2) array: its
    ``gen_rows``, then its rref rows, each part zero-padded to the
    stack's largest counts n and d, and the entries of all spans' rows
    read into the array by one ``np.fromiter``.  A span whose
    ``integral`` fact is False is first scaled to integers by one
    ``linalg.integral_rows`` of its rows read as one row.  So each span
    is scaled by a positive factor c (1 for a span of ``int`` rows), and
    every scaled pivot is c; scaling keeps signs and spans, so
    memberships, the brackets up to the factor c^2, and supports are read
    off the integer stack.  Zero generators have zero
    products, which lie in every span; a stack of one span pads nothing.

    Over an rref basis the coordinates of v are its entries at the pivot
    columns p_t, so v lies in the span iff c v - sum_t v[p_t] (c r_t) is
    zero: two matmuls for the whole stack, one with a one-hot matrix of
    the pivot columns and one with the scaled rref rows.  The stack is
    filled as ``int64``, and stays so when, with a the largest filled
    entry in absolute value (at least 1), 2 (d + 1) k a^3 < 2^63: a
    product entry is a sum of k terms of size at most a^2, a bracket
    entry the difference of two such, and a residual entry a sum of
    d + 1 terms of size at most k a^3; a bracket is in the span iff the
    residuals of its two products are equal.  Otherwise, or when an
    entry does not fit ``int64``, it is filled again as ``object``, with
    the same numpy expressions on Python ints.  Raises ValueError for no
    spans or spans of mixed orders.

    ``scale`` (S,) holds each span's factor c, the scaled pivot of its
    rref row 0 (1 for a span of dimension 0); ``gens`` (S, n, k, k) and
    ``rref`` (S, d, k^2) are its scaled parts; ``products``
    (S, n, n, k^2) holds g_i g_j row-major, and ``residuals`` (same
    shape) is c g_i g_j less its combination of the scaled rref rows,
    zero iff the product is in the span.
    """

    def __init__(self, spans: Sequence[ModelSubspace]) -> None:
        if not spans:
            raise ValueError("a span stack needs at least one span")
        k = spans[0].order
        n = d = 0
        for m in spans:
            if m.order != k:
                raise ValueError("a span stack holds spans of one order")
            n = max(n, len(m.gen_rows))
            d = max(d, len(m.rref))
        kk = k * k
        s = len(spans)
        self.spans = tuple(spans)
        try:
            rows, scale = _filled(spans, n, d, np.int64)
            a = max(1, int(rows.max(initial=0)), -int(rows.min(initial=0)))
            fits = 2 * (d + 1) * k * a**3 < 2**63
        except OverflowError:  # an entry outside int64 fails the bound too
            fits = False
        if not fits:
            rows, scale = _filled(spans, n, d, object)
        self.gens = g = rows[:, :n].reshape(s, n, k, k)
        self.rref = rows[:, n:]
        self.scale = scale
        self.products = (g[:, :, None] @ g[:, None]).reshape(s, n, n, kk)
        flat = self.products.reshape(s, n * n, kk)
        # onehot[s, j, t]: column j is the pivot of rref row t (a zero row's
        # "pivot" is column 0, which it multiplies by zero)
        onehot = _column_index(kk) == (self.rref != 0).argmax(axis=-1)[:, None, :]
        self.residuals = (self.scale[:, None, None] * flat - flat @ onehot @ self.rref).reshape(
            s, n, n, kk
        )

    def brackets(self) -> np.ndarray:
        """(S, n, n, k^2): the scaled brackets g_i g_j - g_j g_i."""
        p = self.products
        return p - p.swapaxes(1, 2)

    def bracket_escaped(self) -> np.ndarray:
        """(S, n, n) bool: the bracket of g_i and g_j is not in its span."""
        res = self.residuals
        return (res != res.swapaxes(1, 2)).any(axis=-1)

    @functools.cached_property
    def support(self) -> np.ndarray:
        """(S, k, k) bool: the generic support of each span (see :func:`generic_support`)."""
        return (self.gens > 0).any(axis=1) & linalg.off_diagonal(self.gens.shape[-1])

    def absorbing(self) -> np.ndarray:
        """(S, k) bool: state j of span s has no exit rate."""
        return ~self.support.any(axis=1)

    def reducible(self) -> np.ndarray:
        """(S,) bool: one ``linalg.reach`` over the stack of supports."""
        # False < True: some off-diagonal entry is not reached
        off = linalg.off_diagonal(self.gens.shape[-1])
        return (linalg.reach(self.support) < off).any(axis=(1, 2))


def _filled(
    spans: Sequence[ModelSubspace], n: int, d: int, dtype: type
) -> tuple[np.ndarray, np.ndarray]:
    """A stack's rows (S, n + d, k^2) and factors c (S,), as :class:`SpanStack` describes.

    A span that holds only ``int`` (every order-4 span ``rate_basis``
    makes, and all but one at order 5) goes in as it is, with c = 1, the
    pivot of its rref row 0; for any other span c is the first nonzero
    entry of its scaled rref rows.  Which spans those are is the span's
    ``integral`` fact, decided once per span object.
    """
    kk = spans[0].order ** 2
    pad = [(0,) * kk] * max(n, d)
    blocks = []
    scale = [1] * len(spans)
    for i, m in enumerate(spans):
        ng, rows = len(m.gen_rows), m.gen_rows + m.rref
        if not m.integral:
            (flat,) = linalg.integral_rows([list(chain.from_iterable(rows))])
            rows = [flat[j : j + kk] for j in range(0, len(flat), kk)]
            scale[i] = next(filter(None, flat[ng * kk :]), 1)
        # its generator rows, then its rref rows, each padded with zero rows
        blocks += rows[:ng], pad[ng:n], rows[ng:], pad[len(rows) - ng : d]
    entries = chain.from_iterable(chain.from_iterable(blocks))
    out = np.fromiter(entries, dtype, len(spans) * (n + d) * kk)
    return out.reshape(len(spans), n + d, kk), np.array(scale, dtype=dtype)


@functools.cache
def _column_index(kk: int) -> np.ndarray:
    """The read-only column (kk, 1) of the indices 0..kk-1."""
    column = np.arange(kk)[:, None]
    column.flags.writeable = False
    return column


def span_stacks(spans: Sequence[ModelSubspace]) -> Iterator[SpanStack]:
    """The spans in order, as stacks of at most STACK_BLOCK consecutive same-order spans."""
    for _, run in itertools.groupby(spans, key=operator.attrgetter("order")):
        run = list(run)
        for lo in range(0, len(run), STACK_BLOCK):
            yield SpanStack(run[lo : lo + STACK_BLOCK])


def generic_support(m: ModelSubspace) -> tuple[tuple[bool, ...], ...]:
    """Support of a generic interior cone point: which rates can be positive.

    Entry (i, j), i != j, is True iff some basis generator has a positive
    (i, j) entry; the diagonal is False.  For generators in the cone this
    equals the support of any strictly positive combination.  A
    :class:`SpanStack` of one span.
    """
    return tuple(map(tuple, SpanStack([m]).support[0].tolist()))


def absorbing_states(m: ModelSubspace) -> set[int]:
    """States with no exit rate in any model matrix (0-based indices).

    Columns index source states, so state j is absorbing iff column j of
    the generic support is all False off the diagonal.  A
    :class:`SpanStack` of one span.
    """
    return set(np.flatnonzero(SpanStack([m]).absorbing()[0]).tolist())


def is_reducible(m: ModelSubspace) -> bool:
    """True iff the generic transition digraph is not strongly connected.

    The digraph has an edge j -> i for each True off-diagonal (i, j) of
    the generic support.  ``linalg.reach`` closes the reversed edges
    i -> j instead, which leaves strong connectivity unchanged: the model
    is reducible iff some off-diagonal entry of that closure is False.  A
    :class:`SpanStack` of one span.
    """
    return bool(SpanStack([m]).reducible()[0])


@dataclass(frozen=True)
class ModelOrbit:
    """What the S_k orbit of a model's rref determines.

    ``key`` is the minimal conjugate rref (the canonical key), ``group``
    the permutations that fix the rref (sorted), and ``variants`` the
    number of distinct conjugate rrefs, k! / |group| by orbit-stabilizer.
    Relabeling is a left action, so if q maps the span onto its key, p
    does too exactly when q^-1 o p is in ``group``: the relabelings onto
    the key are the coset q o group.
    """

    key: RrefKey
    group: tuple[tuple[int, ...], ...]
    variants: int


@functools.cache
def _orbit_getters(k: int) -> tuple[tuple[Perm, operator.itemgetter], ...]:
    """Each permutation of {0..k-1}, identity first, with its relabel gather as an itemgetter.

    For k >= 2 only: with one cell, an itemgetter returns the entry, not a tuple.
    """
    return tuple((p, operator.itemgetter(*src)) for p, src in relabel_gathers(k))


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


def model_orbit(m: ModelSubspace) -> ModelOrbit:
    """The orbit of ``m.rref``, row-reducing one relabeling per right coset found.

    Key: a conjugate's first pivot is the first cell of its relabeled
    support, and rrefs whose first pivot comes later compare smaller, so
    only the relabelings that push that cell furthest are candidates;
    every relabeling onto the key is among them.  Integrality is read
    from the span's ``integral`` fact: ``m.rref`` is taken as it is when
    it is True, else scaled to integer rows by one
    ``linalg.integral_rows``, and a relabeling only permutes the entries
    within each row, so every candidate's rows are integral and go to
    ``linalg.rref_integral`` with no type check.  The identity relabeling comes first, and when it is a
    candidate its rref is ``m.rref`` itself, taken with no elimination
    (108 of the 131 golden order-4 spans, 1093 of the 1344 at order 5).
    Bound: every candidate has its first pivot in the same column, and
    the least rref found so far bounds the rest by its row 0; the kernel
    cuts a candidate as soon as its row 0 compares greater, which rules
    it out as the key.  A tie on row 0 is never cut.

    Cosets: relabeling is a left action, (p o h).L = p.(h.L), so p and q
    give the same rref exactly when q^-1 o p fixes the span.  Each tie
    with the least rref so far (a provisional key that is later beaten
    included) is such a symmetry, and the symmetries found are kept as a
    group H, closed under composition.  Every relabeling in the right
    coset p o H gives p's rref, so one elimination decides a whole
    coset, onto the key or not, and every other candidate in it is
    skipped; when H grows, every decided coset grows with it.  (The
    mirror h o p would be wrong: (h o p).L = h.(p.L) is p.L exactly when
    h fixes p.L, which h.L = L does not imply.)  Group: let q be the
    first candidate row-reduced to the key.  Every other p onto the key
    is a later candidate, and a beaten coset gives another rref, so p was
    skipped in q's coset q o H (q^-1 o p in H) or row-reduced to a tie
    that put q^-1 o p in H; so at the end H is the whole symmetry group.
    """
    if m.order < 2 or not m.rref:
        # every relabeling fixes the rref
        perms = tuple(p for p, _ in relabel_gathers(m.order))
        return ModelOrbit(key=m.rref, group=perms, variants=1)
    getters = _orbit_getters(m.order)
    products = symmetric_group_table(m.order).table
    support = tuple(any(col) for col in zip(*m.rref))
    firsts = [g(support).index(True) for _, g in getters]
    last = max(firsts)
    rows = m.rref if m.integral else linalg.integral_rows(m.rref)
    key, bound = None, None
    sym: tuple[int, ...] = (0,)  # H, the symmetries found so far
    beaten: list[int] = []  # candidates known not to reach the key
    decided = bytearray(len(getters))  # 1 once a candidate's coset is known

    def decide(reps: Iterable[int]) -> None:
        for rep in reps:
            for j in _right_coset(products, rep, sym):
                decided[j] = 1

    for i, ((_, g), first) in enumerate(zip(getters, firsts)):
        if first != last or decided[i]:
            continue
        # the identity comes first, with no bound yet: its rref is the span's own
        r = m.rref if i == 0 else linalg.rref_integral([g(row) for row in rows], bound)
        if r is None or (key is not None and r > key):
            beaten.append(i)
            if len(sym) > 1:  # with H trivial the coset is i alone, and i is done
                decide([i])
            continue
        if r == key:
            sym = _generated(products, sym, products[q].index(i))  # q^-1 o p
            decide(beaten)  # each known coset grows with H
        else:
            if key is not None:
                beaten.append(q)
            key, q = r, i
            bound = (linalg.integral_rows(key[:1])[0], last)
        decide([q])
    group = tuple(sorted(getters[h][0] for h in sym))
    return ModelOrbit(key=key, group=group, variants=len(getters) // len(group))


def canonical_subspace(m: ModelSubspace) -> RrefKey:
    """Canonical key: minimal rref over all simultaneous state relabelings.

    Two models are isomorphic (equal up to a permutation of states) iff
    their keys are equal.  Comparison is lexicographic on the flattened
    exact rational entries, with the row-major vectorization fixed so the
    key is reproducible bit for bit.
    """
    return model_orbit(m).key
