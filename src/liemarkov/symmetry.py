"""Permutation symmetries of model subspaces.

A state permutation is a symmetry of a model when conjugating every rate
matrix by the corresponding permutation matrix lands back in the model.
Conjugation preserves nonnegativity of off-diagonal entries, so testing
span preservation is equivalent to testing the stochastic cone.  The
maximal symmetry group is the stabilizer of the model's rref, computed
by :func:`liemarkov.modelgen.model_orbit` from the ties among the
relabelings it row-reduces: two relabelings p and q give the same rref
exactly when q^-1 o p fixes the span.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .cayley import Perm, compose, identity_perm, invert
from .linalg import Matrix
from .modelgen import ModelSubspace, model_orbit


@dataclass(frozen=True)
class SymmetryGroup:
    order_k: int
    elements: tuple[Perm, ...]
    name: str

    def __len__(self) -> int:
        return len(self.elements)


def perm_matrix(p: Perm) -> Matrix:
    """Standard permutation matrix: entry (p(j), j) = 1.

    Satisfies perm_matrix(p o q) == perm_matrix(p) @ perm_matrix(q).
    """
    k = len(p)
    return tuple(
        tuple(1 if p[j] == i else 0 for j in range(k)) for i in range(k)
    )


def perm_order(p: Perm) -> int:
    """Multiplicative order of a permutation."""
    n = 1
    q = p
    e = identity_perm(len(p))
    while q != e:
        q = compose(q, p)
        n += 1
    return n


def cycle_string(p: Perm) -> str:
    """Cycle notation with 1-based points; identity renders as 'e'."""
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        parts.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "e"


@functools.cache
def cycle_strings(k: int) -> Mapping[Perm, str]:
    """:func:`cycle_string` of every permutation of {0..k-1}, read-only.

    Built on the first use at order k, like the orbit's tables of S_k,
    and shared by every later one: a catalog names the same few
    permutations over and over.
    """
    return MappingProxyType({p: cycle_string(p) for p in itertools.permutations(range(k))})


@functools.cache
def _perm_orders(k: int) -> Mapping[Perm, int]:
    """:func:`perm_order` of every permutation of {0..k-1}, built on the first use at order k."""
    return MappingProxyType({p: perm_order(p) for p in itertools.permutations(range(k))})


def parse_perm(text: str, k: int) -> Perm:
    """Parse 1-based cycle notation like '(1 2)(3 4)'; 'e' or '()' is identity."""
    text = text.strip()
    image = list(range(k))
    if text in ("e", "()", ""):
        return tuple(image)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    moved: set[int] = set()
    for part in text[1:-1].split(")("):
        try:
            points = [int(tok) - 1 for tok in part.replace(",", " ").split()]
        except ValueError:
            raise ValueError(f"bad cycle notation: {text!r}") from None
        if any(not 0 <= x < k for x in points) or len(set(points)) != len(points):
            raise ValueError(f"bad cycle {part!r} for k={k}")
        if moved & set(points):
            raise ValueError(f"cycles are not disjoint in {text!r}")
        moved.update(points)
        for a, b in zip(points, points[1:] + points[:1]):
            image[a] = b
    return tuple(image)


def symmetry_group(m: ModelSubspace) -> SymmetryGroup:
    """The maximal group of state permutations preserving the span.

    ``model_orbit`` keeps the q^-1 o p of every tie p, q it meets, closed
    under composition, until every relabeling onto the canonical key is
    accounted for; relabeling is a left action, so for one such q the
    symmetries are exactly those q^-1 o p: maximality is automatic.
    """
    g = model_orbit(m).group
    return SymmetryGroup(m.order, g, name_group_elements(m.order, g))


def is_closed_group(elements: tuple[Perm, ...]) -> bool:
    """Group axioms for a set of permutations (closure gives the rest)."""
    s = set(elements)
    if identity_perm(len(elements[0])) not in s:
        return False
    return all(compose(p, q) in s for p in s for q in s) and all(
        invert(p) in s for p in s
    )


# (group order, largest element order) -> abstract type.  The key tells
# apart every subgroup type of S_k for k <= 5, and every group of order
# at most 4 in any S_k.
_GROUP_NAMES = {
    (1, 1): "trivial", (2, 2): "Z2", (3, 3): "Z3", (4, 2): "V4", (4, 4): "Z4",
    (5, 5): "Z5", (6, 3): "S3", (6, 6): "Z6", (8, 4): "D4", (10, 5): "D5",
    (12, 3): "A4", (12, 6): "D6", (20, 5): "F20", (24, 4): "S4", (60, 5): "A5",
    (120, 6): "S5",
}


def name_group_elements(k: int, elements: tuple[Perm, ...]) -> str:
    """Abstract type of a subgroup of S_k, looked up in _GROUP_NAMES.

    Subgroups of S_k with k <= 5, and groups of order at most 4, are
    named by their type; any other group is "order-N subgroup".  Element
    orders come from a per-order table of S_k.
    """
    n = len(elements)
    name = _GROUP_NAMES.get((n, max(map(_perm_orders(k).__getitem__, elements))))
    return name if name and (k <= 5 or n <= 4) else f"order-{n} subgroup"


def variant_count(g: SymmetryGroup) -> int:
    """Number of distinct isomorphic variants of a model: k! / |G|."""
    return math.factorial(g.order_k) // len(g.elements)
