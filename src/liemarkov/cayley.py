"""Finite semigroups as Cayley tables: validation, relabeling, enumeration.

A Cayley table of order k is a k x k array ``table`` with entries in
{0..k-1}, where ``table[i][j]`` is the index of the product a_i * a_j.
Entries are 0-based everywhere inside the package; the text file format
(and every rendered report) uses 1-based indices.

Isomorphism is relabeling by a permutation, one gather on the flattened
table (:func:`liemarkov.linalg.relabel_gather`); anti-isomorphism is
multiplication reversal, i.e. table transposition.  Enumeration, with
lex-leader pruning whose tied relabelings persist down the search tree,
returns one canonical representative per isomorphism class and
deliberately does NOT merge anti-isomorphic classes, because reversal
can change the derived Markov model drastically (the left regular
representation is not reversal-invariant).  The census of classes up to
anti-isomorphism as well runs the same search once under S_k x Z_2, the
transposed relabelings tied beside the plain ones, and counts the
self-dual leaders as it goes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import linalg

Perm = tuple[int, ...]
"""A permutation of {0..k-1} stored as an image array: p[i] is the image of i."""

MAX_ENUM_ORDER = 6


class MalformedTableError(ValueError):
    """Raised for out-of-range entries or a ragged table."""


class CayleyFormatError(ValueError):
    """Raised by the text-format parser; message names block and line."""


@dataclass(frozen=True)
class CayleyTable:
    """Multiplication table of a (candidate) semigroup of order k."""

    order: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = self.order
        if k < 1:
            raise MalformedTableError(f"order must be >= 1, got {k}")
        if len(self.table) != k or any(len(row) != k for row in self.table):
            raise MalformedTableError(f"table is not {k}x{k}")
        for row in self.table:
            for x in row:
                if not 0 <= x < k:
                    raise MalformedTableError(
                        f"entry {x} out of range 0..{k - 1}"
                    )

    def __lt__(self, other: "CayleyTable") -> bool:
        return self.table < other.table


def make_table(rows: Sequence[Sequence[int]]) -> CayleyTable:
    """Build a CayleyTable from nested 0-based sequences."""
    return CayleyTable(len(rows), tuple(tuple(row) for row in rows))


def is_associative(t: CayleyTable) -> bool:
    """Check (a*b)*c == a*(b*c) for all k^3 triples."""
    m = t.table
    rng = range(t.order)
    for a in rng:
        ma = m[a]
        for b in rng:
            mab = m[ma[b]]
            mb = m[b]
            for c in rng:
                if mab[c] != ma[mb[c]]:
                    return False
    return True


def identity_perm(k: int) -> Perm:
    return tuple(range(k))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def apply_perm(t: CayleyTable, p: Perm) -> CayleyTable:
    """Relabel elements by p: result r has r[p(i)][p(j)] = p(t[i][j])."""
    if len(p) != t.order:
        raise MalformedTableError(
            f"permutation on {len(p)} points applied to order-{t.order} table"
        )
    flat = linalg.vectorize(t.table)
    relabeled = [p[flat[s]] for s in linalg.relabel_gather(tuple(p))]
    return CayleyTable(t.order, linalg.unvectorize(relabeled, t.order))


def reverse(t: CayleyTable) -> CayleyTable:
    """The anti-isomorphic copy: reversed multiplication, i.e. the transpose."""
    return CayleyTable(t.order, tuple(zip(*t.table)))


def canonical_form(t: CayleyTable) -> CayleyTable:
    """Lexicographically minimal relabeling (row-major entry comparison).

    Two tables are isomorphic iff their canonical forms are equal.  Each
    relabeling is compared with the best table so far cell by cell along
    its gather, as the enumerator compares a tied relabeling, and is built
    in full only when it is smaller at the first cell that differs.
    """
    flat = linalg.vectorize(t.table)
    best = flat
    for p, src in relabel_gathers(t.order)[1:]:
        for s, x in zip(src, best):
            y = p[flat[s]]
            if y != x:
                if y < x:
                    best = tuple([p[flat[s]] for s in src])
                break
    return CayleyTable(t.order, linalg.unvectorize(best, t.order))


@functools.cache
def relabel_gathers(k: int) -> tuple[tuple[Perm, tuple[int, ...]], ...]:
    """Each permutation of {0..k-1}, the identity first, with its relabel gather.

    This is the package's one ordering of S_k: ``modelgen`` indexes its
    orbits by it, and :func:`symmetric_group_table` multiplies in it.
    """
    return tuple((p, linalg.relabel_gather(p)) for p in itertools.permutations(range(k)))


@functools.cache
def symmetric_group_table(k: int) -> CayleyTable:
    """The multiplication table of S_k on the indices of :func:`relabel_gathers`.

    Entry [a][b] is the index of p_a o p_b (:func:`compose`); index 0 is
    the identity.  Built once per order: about 1 ms at k = 4 and 0.6 s
    at k = 6, where the 720 x 720 table holds about 4 MB.
    """
    perms = [p for p, _ in relabel_gathers(k)]
    index = {p: i for i, p in enumerate(perms)}
    return make_table([[index[compose(p, q)] for q in perms] for p in perms])


def enumerate_semigroups(k: int) -> list[CayleyTable]:
    """All semigroups of order k up to isomorphism, canonical and sorted.

    Depth-first fill of the table in row-major order with two prunings
    after each placement.  Associativity: before a cell is filled, the
    triples in which it is the outer product and every other product is
    defined force its value: only that value is tried, and none when two
    such triples disagree.  After the placement, the triples in which the
    new cell (i, j) is an inner product, (i, j, c) and (a, i, j), are
    checked once their four products are defined.  These include every
    triple that reads the new cell twice, the only ones the forced value
    could not see, so the triples in which it is the outer product need
    no second scan.  Canonicity,
    lex-leader pruning whose ties persist down the search tree: each
    non-identity relabeling p compares ``p(m[p^-1 i][p^-1 j])`` with the
    partial table in row-major order up to the first cell that differs or
    is undefined on either side.  Smaller under p cuts the subtree (every
    completion has a smaller relabeling); larger drops p for the whole
    subtree; undefined keeps p tied, to resume at that cell once it and
    its source are placed.  On complete tables this is the full test
    against :func:`canonical_form`: one representative, the canonical
    form, per isomorphism class, with anti-isomorphic classes kept apart
    (:func:`anti_iso_census` runs the same search with the transposed
    relabelings tied too).  Order 4 takes about 7 ms, order 5 about 0.15 s and order 6 about
    6 s of CPU time (on a shared 2-vCPU machine, Python 3.11.7; medians
    of interleaved in-process runs; wall time runs up to a third higher
    under the machine's other load).
    """
    return [CayleyTable(k, linalg.unvectorize(t, k)) for t in _lex_leaders(k, False)[0]]


def anti_iso_census(k: int) -> tuple[int, int]:
    """Count the semigroups of order k up to isomorphism and anti-isomorphism.

    Returns (self_dual, pairs): the isomorphism classes equal to the
    class of their own reversal, and the unordered {class, reversed
    class} pairs, so self_dual + 2 * pairs is the number of isomorphism
    classes (OEIS A027851) and self_dual + pairs the number up to
    anti-isomorphism too (OEIS A001423).  One pass of the enumerator's
    lex-leader pruning under S_k x Z_2: beside the relabelings, each
    transposed relabeling p, cell (i, j) read as ``p(m[p^-1 j][p^-1 i])``,
    is a tie, so one leader is kept per class of both kinds.  A leader is
    self-dual exactly when a transposed relabeling ties it in full, which
    can happen only once its last cell is placed.  Order 6 takes about
    8.2 s of CPU time, where enumerating and then canonicalizing every
    reversed table took about 11.4 s (best of 3 interleaved fresh
    processes, same machine as :func:`enumerate_semigroups`).
    """
    leaders, self_dual = _lex_leaders(k, True)
    return self_dual, len(leaders) - self_dual


def _lex_leaders(k: int, mirror: bool) -> tuple[list[tuple[int, ...]], int]:
    """The flat lex-leader tables of order k, sorted, and how many of them are self-dual.

    The search of :func:`enumerate_semigroups`; with ``mirror`` the
    transposed relabelings join the ties (:func:`anti_iso_census`), and
    the count is of the leaders that one of them ties in full.  Without
    ``mirror`` the count is 0.
    """
    if not 1 <= k <= MAX_ENUM_ORDER:
        raise ValueError(
            f"order {k} not supported: enumeration is limited to "
            f"1 <= k <= {MAX_ENUM_ORDER}"
        )
    n = k * k
    found: list[tuple[int, ...]] = []
    # the complete tables that a transposed relabeling ties in full
    mirrored: set[tuple[int, ...]] = set()
    # m[i * k + j] is the product a_i * a_j, or -1 while undefined
    m = [-1] * n
    # occ[v] lists the (a, b) cells currently holding value v, so triples in
    # which a fresh cell participates as an *outer* product are found fast.
    occ: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    rng = range(k)
    rows = [i * k for i in rng]

    # watch[w] holds the ties (p, src, c), equal on the cells before c, that
    # resume when cell w = max(c, src[c]) is placed; a full tie is dropped.
    # p carries one more entry, k, so p[m[s]] is k, equal to no cell, while
    # cell s is undefined (-1)
    watch: list[list] = [[] for _ in range(n)]
    gathers = relabel_gathers(k)
    for p, src in gathers[1:]:
        watch[src[0]].append((p + (k,), src, 0))
    # with mirror, each transposed relabeling too: its gather reads cell
    # (i, j) from the source of cell (j, i) in p's
    transposed: set[tuple[int, ...]] = set()
    if mirror:
        for p, src in gathers:
            src = tuple(src[j * k + i] for i in rng for j in rng)
            transposed.add(src)
            watch[src[0]].append((p + (k,), src, 0))

    def fill(pos: int):
        if pos == n:
            found.append(tuple(m))
            return
        i, j = divmod(pos, k)
        ri, rj = rows[i], rows[j]
        # the value forced by the triples in which cell (i, j) is the outer
        # product and every other product is defined
        forced = -1
        for (a, b) in occ[i]:
            bj = m[rows[b] + j]
            if bj >= 0:
                x = m[rows[a] + bj]
                if x >= 0:
                    if forced >= 0 and x != forced:
                        return
                    forced = x
        for (b, c) in occ[j]:
            ib = m[ri + b]
            if ib >= 0:
                x = m[rows[ib] + c]
                if x >= 0:
                    if forced >= 0 and x != forced:
                        return
                    forced = x
        # the defined cells (j, c) of row j and (a, i) of column i once (i, j)
        # is placed: those up to (i, j) in row-major order, (i, j) included
        cs = rng if j < i else range(j + 1) if j == i else ()
        ras = rows[: i + 1] if i <= j else rows[:i]
        ties = watch[pos]
        for v in rng if forced < 0 else (forced,):
            m[pos] = v
            rv = rows[v]
            # (i, j, c): products t[i][j]=v and t[j][c]; outer t[v][c], t[i][t[j][c]]
            for c in cs:
                left = m[rv + c]
                right = m[ri + m[rj + c]]
                if left != right and left >= 0 and right >= 0:
                    break
            else:
                # (a, i, j): products t[a][i], t[i][j]=v; outer t[t[a][i]][j], t[a][v]
                for ra in ras:
                    left = m[rows[m[ra + i]] + j]
                    right = m[ra + v]
                    if left != right and left >= 0 and right >= 0:
                        break
                else:
                    # resume the ties watching this cell; the defined cells are 0..pos
                    moved = []
                    for p, src, c in ties:
                        for c in range(c, n):
                            y = p[m[src[c]]]
                            x = m[c]
                            if y != x:
                                break
                        else:
                            # a full tie, only possible once the last cell is
                            # placed, is dropped; a transposed one marks the
                            # table self-dual
                            if src in transposed:
                                mirrored.add(tuple(m))
                            continue
                        if x < 0 or y == k:  # a cell is undefined: still tied
                            moved.append((max(src[c], c), (p, src, c)))
                        elif y < x:  # smaller under p: cut the subtree
                            break
                    else:
                        for w, t in moved:
                            watch[w].append(t)
                        occ[v].append((i, j))
                        fill(pos + 1)
                        occ[v].pop()
                        for w, _ in moved:
                            watch[w].pop()
        m[pos] = -1

    fill(0)
    # values are tried in increasing order on a row-major fill, so tables
    # are found in sorted order
    return found, len(mirrored.intersection(found))


# --- text format -----------------------------------------------------------
#
# One or more blocks; each block is k lines of k whitespace-separated
# 1-based integers; blocks are separated by blank lines; '#' starts a
# comment line.


def parse_tables(text: str) -> list[CayleyTable]:
    """Parse the Cayley-table text format (1-based entries)."""
    blocks: list[list[tuple[int, list[int]]]] = []
    current: list[tuple[int, list[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise CayleyFormatError(
                f"block {len(blocks) + 1}, line {lineno}: "
                f"non-integer token in {line!r}"
            ) from None
        current.append((lineno, values))
    if current:
        blocks.append(current)

    tables = []
    for b, block in enumerate(blocks, start=1):
        k = len(block)
        rows = []
        for lineno, values in block:
            if len(values) != k:
                raise CayleyFormatError(
                    f"block {b}, line {lineno}: expected {k} entries "
                    f"(block has {k} rows), got {len(values)}"
                )
            for x in values:
                if not 1 <= x <= k:
                    raise CayleyFormatError(
                        f"block {b}, line {lineno}: entry {x} outside 1..{k}"
                    )
            rows.append(tuple(x - 1 for x in values))
        tables.append(CayleyTable(k, tuple(rows)))
    if not tables:
        raise CayleyFormatError("no table blocks found")
    return tables


def format_tables(tables: Iterable[CayleyTable], header: str | None = None) -> str:
    """Render tables in the text format (1-based), blocks separated by blank lines."""
    chunks = []
    if header:
        chunks.append("\n".join("# " + line for line in header.splitlines()))
    for t in tables:
        chunks.append(
            "\n".join(" ".join(str(x + 1) for x in row) for row in t.table)
        )
    return "\n\n".join(chunks) + "\n"
