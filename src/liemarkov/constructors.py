"""Models built independently of the semigroup enumeration pipeline.

Group-based models are the semigroup construction applied to a finite
group (abelian or not): cyclic groups, the Klein group, S3 (the
multiplication table ``cayley.symmetric_group_table(3)``) or any table
that ``group_spec`` validates.  Equivariant models are the rate
matrices fixed by conjugation under a chosen permutation group; the
named fixtures are small hand-entered models used as counterexamples in
tests.  All of these cross-validate the main pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import linalg
from .cayley import CayleyTable, Perm, is_associative, make_table, symmetric_group_table
from .linalg import Matrix, Scalar
from .modelgen import ModelSubspace, rate_basis, subspace_from_generators
from .representation import regular_rep
from .symmetry import is_closed_group


class NotAGroupError(ValueError):
    """Input table violates a group axiom; the message names which."""


@dataclass(frozen=True)
class GroupSpec:
    """A Cayley table known to be a group."""

    table: CayleyTable

    @property
    def order(self) -> int:
        return self.table.order

    def identity(self) -> int:
        t = self.table.table
        for e in range(self.order):
            if all(t[e][x] == x == t[x][e] for x in range(self.order)):
                return e
        raise NotAGroupError("no identity element")

    def inverse(self, x: int) -> int:
        e = self.identity()
        t = self.table.table
        for y in range(self.order):
            if t[x][y] == e:
                return y
        raise NotAGroupError(f"element {x} has no inverse")

    def is_abelian(self) -> bool:
        t = self.table.table
        return all(
            t[i][j] == t[j][i]
            for i in range(self.order)
            for j in range(self.order)
        )


def group_spec(rows: Sequence[Sequence[int]]) -> GroupSpec:
    """Validate a table as a group: associative Latin square with identity."""
    t = make_table(rows)
    if not is_associative(t):
        raise NotAGroupError("multiplication is not associative")
    k = t.order
    full = set(range(k))
    for i in range(k):
        if set(t.table[i]) != full:
            raise NotAGroupError(f"row {i + 1} is not a permutation of the elements")
        if {t.table[j][i] for j in range(k)} != full:
            raise NotAGroupError(f"column {i + 1} is not a permutation of the elements")
    g = GroupSpec(t)
    g.identity()  # raises if absent
    return g


def cyclic_group(n: int) -> GroupSpec:
    """C_n with elements 0..n-1 under addition mod n."""
    return group_spec([[(i + j) % n for j in range(n)] for i in range(n)])


def klein_group() -> GroupSpec:
    """V4 = {e, (12)(34), (13)(24), (14)(23)} with xy indexing by XOR."""
    return group_spec([[i ^ j for j in range(4)] for i in range(4)])


def symmetric_group_3() -> GroupSpec:
    """S3 on three points; composition (pq)(x) = p(q(x)).

    The elements come in ``cayley.relabel_gathers(3)`` order, the
    identity first; the table is ``cayley.symmetric_group_table(3)``.
    """
    return group_spec(symmetric_group_table(3).table)


def group_based_model(g: GroupSpec) -> ModelSubspace:
    """The semigroup construction applied to a group: ``rate_basis(regular_rep(g.table))``.

    Each element's left-multiplication matrix K(g) is a permutation
    matrix, since groups cancel, and the span is that of the -I + K(g).
    The identity element contributes the zero matrix and is dropped; the
    remaining generators are linearly independent permutation-matrix
    shifts, so the dimension is always |G| - 1.
    """
    return rate_basis(regular_rep(g.table))


def abelian_rate_pattern(
    g: GroupSpec, f: Callable[[int], Scalar] | dict[int, Scalar]
) -> Matrix:
    """Rate matrix of an abelian group-based model from a rate function.

    In additive notation the entry at (row r, column c), r != c, is
    f(r - c), where r - c is computed through the group inverse; the
    diagonal makes every column sum to zero.  Equivalently the matrix is
    sum_g f(g) L_g, so it always lies in group_based_model(g).  f is
    ignored on the identity element.
    """
    if not g.is_abelian():
        raise ValueError("rate pattern by differences needs an abelian group")
    rate = f.__getitem__ if isinstance(f, dict) else f
    k = g.order
    t = g.table.table
    e = g.identity()
    q = [[Fraction(0)] * k for _ in range(k)]
    for r in range(k):
        for c in range(k):
            if r == c:
                continue
            diff = t[r][g.inverse(c)]
            if diff == e:
                raise AssertionError("r - c is the identity only when r == c")
            q[r][c] = Fraction(rate(diff))
    for c in range(k):
        q[c][c] = -sum(q[r][c] for r in range(k) if r != c)
    return linalg.mat(q)


def equivariant_model(group: Sequence[Perm], k: int) -> ModelSubspace:
    """Rate matrices fixed by conjugation under every permutation in G.

    The fixed subspace is spanned by the orbit indicators of off-diagonal
    cells under the simultaneous action sigma . (i, j) = (sigma i,
    sigma j): a fixed matrix is constant on each orbit, and the diagonal
    (also orbit-constant) is forced by the zero-column-sum condition.
    Generators are the 0/1 orbit indicators with that diagonal fill.
    """
    elements = tuple(tuple(p) for p in group)
    if not elements or any(len(p) != k for p in elements):
        raise ValueError(f"permutations must act on {k} points")
    if not is_closed_group(elements):
        raise ValueError("permutation set is not closed under composition")
    cells = [(i, j) for i in range(k) for j in range(k) if i != j]
    assigned = set()
    gens = []
    for i, j in cells:
        if (i, j) in assigned:
            continue
        # in a group, the images of one cell under the elements are its orbit
        orbit = {(p[i], p[j]) for p in elements}
        assigned |= orbit
        a = [[0] * k for _ in range(k)]
        for r, c in orbit:
            a[r][c] = 1
        for c in range(k):
            a[c][c] = -sum(a[r][c] for r in range(k) if r != c)
        gens.append(linalg.mat(a))
    return subspace_from_generators(k, gens)


@dataclass(frozen=True)
class FixtureModel:
    """A named hand-entered model."""

    name: str
    subspace: ModelSubspace


_GM2_GENERATORS = (
    ((-1, 0), (1, 0)),
    ((0, 1), (0, -1)),
)

# 3-state model whose two generators bracket to their difference but whose
# plain product escapes the span: Lie-closed, not algebra-closed.
_JJ3_GENERATORS = (
    ((-2, 0, 0), (2, -1, 0), (0, 1, 0)),
    ((0, 1, 0), (0, -1, 2), (0, 0, -2)),
)


def _sym_generators() -> tuple[Matrix, ...]:
    gens = []
    for i in range(4):
        for j in range(i + 1, 4):
            a = [[0] * 4 for _ in range(4)]
            a[i][j] = a[j][i] = 1
            a[i][i] = a[j][j] = -1
            gens.append(linalg.mat(a))
    return tuple(gens)


def fixture(name: str) -> FixtureModel:
    """Named fixture models: SYM, GM2, JJ3.

    SYM is the 6-parameter symmetric-off-diagonal 4-state model (fails
    Lie closure: nonzero commutators of symmetric matrices are
    antisymmetric).  GM2 is the general 2-state model.  JJ3 is a 3-state
    model Lie-isomorphic to GM2 that is not a matrix algebra.
    """
    key = name.upper()
    if key == "SYM":
        gens: Sequence[Matrix] = _sym_generators()
        k = 4
    elif key == "GM2":
        gens = [linalg.mat(g) for g in _GM2_GENERATORS]
        k = 2
    elif key == "JJ3":
        gens = [linalg.mat(g) for g in _JJ3_GENERATORS]
        k = 3
    else:
        raise ValueError(f"unknown fixture {name!r}; expected SYM, GM2, or JJ3")
    return FixtureModel(key, subspace_from_generators(k, gens))
