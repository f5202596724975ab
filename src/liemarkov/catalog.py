"""Full pipeline: enumerate -> represent -> derive -> classify -> dedup -> label.

The catalog is deterministic: entries are ordered by the exact rref of
their subspace, model ids are digests of the canonical (relabeling-
minimal) rref serialized as exact rationals, and two runs over the same
inputs render byte-identical documents.

Reports and file formats use 1-based state indices; everything in memory
is 0-based.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .cayley import CayleyTable, enumerate_semigroups, is_associative, make_table
from .closure import check_algebra_closed, check_lie_closed, pair_products
from .constructors import (
    cyclic_group,
    equivariant_model,
    group_based_model,
    klein_group,
)
from .modelgen import (
    ModelSubspace,
    RrefKey,
    absorbing_states,
    canonical_subspace,
    is_reducible,
    model_orbit,
    rate_basis,
    subspace_from_generators,
)
from .representation import regular_rep
from .symmetry import (
    SymmetryGroup,
    cycle_string,
    name_group_elements,
    parse_perm,
    perm_matrix,
)

logger = logging.getLogger(__name__)

PIPELINE_ORDERS = range(2, 5)
"""The orders that ``run_pipeline(order=...)`` enumerates."""


class PipelineInvariantError(AssertionError):
    """A semigroup-derived model failed an always-true structural check."""


@dataclass(frozen=True)
class ModelReport:
    subspace: ModelSubspace
    dimension: int
    absorbing: frozenset[int]  # 0-based state indices
    reducible: bool
    symmetry: SymmetryGroup
    variant_count: int
    lie_closed: bool
    algebra_closed: bool
    known_label: str | None
    provenance: tuple[CayleyTable, ...]
    source_ids: tuple[int, ...]  # 1-based positions in the input list


@dataclass(frozen=True)
class CatalogEntry:
    model_id: str
    order: int
    report: ModelReport


def serialize_key(order: int, key: RrefKey) -> str:
    """Exact, platform-independent serialization of a canonical rref key."""
    return f"{order}|" + ";".join(
        ",".join(str(x) for x in row) for row in key
    )


def model_id(order: int, key: RrefKey) -> str:
    return hashlib.sha256(serialize_key(order, key).encode()).hexdigest()[:16]


# --- known-model registry ----------------------------------------------------


def _equal_input_table(k: int) -> CayleyTable:
    return make_table([[i] * k for i in range(k)])


MODEL_33B_PERMS = ("(1 2)(3 4)", "(1 4 2 3)", "(1 3 2 4)")


def _model_33b_subspace() -> ModelSubspace:
    # Twisted cousin of K3ST: alpha/beta/gamma sit on the cells of the
    # three listed permutations, which generate a cyclic group of order 4.
    ident = linalg.identity(4)
    gens = [
        linalg.mat_sub(perm_matrix(parse_perm(s, 4)), ident)
        for s in MODEL_33B_PERMS
    ]
    return subspace_from_generators(4, gens)


def new_model_table() -> CayleyTable:
    """Semigroup of the four-state model first seen in this enumeration."""
    return make_table([[0, 0, 2, 2], [1, 1, 3, 3], [2, 2, 0, 0], [3, 3, 1, 1]])


D4_ELEMENTS = (
    "e",
    "(1 2)",
    "(3 4)",
    "(1 2)(3 4)",
    "(1 3)(2 4)",
    "(1 4)(2 3)",
    "(1 3 2 4)",
    "(1 4 2 3)",
)


def known_subspaces() -> dict[str, ModelSubspace]:
    """The named reference models, built from the constructors."""
    d4 = [parse_perm(s, 4) for s in D4_ELEMENTS]
    return {
        "equal-input-2": rate_basis(regular_rep(_equal_input_table(2))),
        "equal-input-3": rate_basis(regular_rep(_equal_input_table(3))),
        "F81": rate_basis(regular_rep(_equal_input_table(4))),
        "binary-symmetric": group_based_model(cyclic_group(2)),
        "C3-group-based": group_based_model(cyclic_group(3)),
        "K3ST": group_based_model(klein_group()),
        "K2ST": equivariant_model(d4, 4),
        "Model-3.3b": _model_33b_subspace(),
        "New-4.1": rate_basis(regular_rep(new_model_table())),
        "equal-input-5": rate_basis(regular_rep(_equal_input_table(5))),
        "C5-group-based": group_based_model(cyclic_group(5)),
    }


Registry = Mapping[tuple[int, RrefKey], str]


@functools.cache
def build_registry() -> Registry:
    """Canonical-key fingerprints of the known models; keys must be distinct.

    Built on the first call and shared by every later one, so it is
    returned read-only.
    """
    registry: dict[tuple[int, RrefKey], str] = {}
    for name, sub in known_subspaces().items():
        key = (sub.order, canonical_subspace(sub))
        if key in registry:
            raise PipelineInvariantError(
                f"registry collision: {name} and {registry[key]}"
            )
        registry[key] = name
    return MappingProxyType(registry)


# --- pipeline ----------------------------------------------------------------


def classify_model(
    sub: ModelSubspace,
    member_indices: Sequence[int],
    tables: Sequence[CayleyTable],
) -> CatalogEntry:
    # algebra closure implies Lie closure, so a passing algebra check serves both
    algebra = check_algebra_closed(sub)
    lie = algebra if algebra.closed else check_lie_closed(sub)
    if not lie.closed:
        raise PipelineInvariantError(
            "semigroup-derived model failed Lie closure; witness pair "
            f"({lie.witness.i}, {lie.witness.j})"
        )
    orbit = model_orbit(sub)
    if len(orbit.group) * orbit.variants != math.factorial(sub.order):
        raise PipelineInvariantError(
            f"orbit-stabilizer fails: |G| = {len(orbit.group)}, "
            f"{orbit.variants} variants, k = {sub.order}"
        )
    key = orbit.key
    report = ModelReport(
        subspace=sub,
        dimension=sub.dim,
        absorbing=frozenset(absorbing_states(sub)),
        reducible=is_reducible(sub),
        symmetry=SymmetryGroup(
            sub.order, orbit.group, name_group_elements(sub.order, orbit.group)
        ),
        variant_count=orbit.variants,
        lie_closed=lie.closed,
        algebra_closed=algebra.closed,
        known_label=build_registry().get((sub.order, key)),
        provenance=tuple(tables[i] for i in member_indices),
        source_ids=tuple(i + 1 for i in member_indices),
    )
    return CatalogEntry(model_id(sub.order, key), sub.order, report)


def run_pipeline(
    order: int | None = None,
    tables: Sequence[CayleyTable] | None = None,
) -> list[CatalogEntry]:
    """Derive, classify, and deduplicate the models of a set of semigroups.

    Exactly one source: ``order`` enumerates all semigroups of that order
    (one of ``PIPELINE_ORDERS``, 2..4), ``tables`` uses the given Cayley
    tables (validated for associativity).

    One entry per distinct nontrivial model: semigroups whose rate bases
    span exactly the same subspace are merged, and the trivial
    zero-dimensional model (every rate matrix zero) is excluded from the
    catalog, which is how the funnel 188 -> 131 -> 4 arises at order 4.
    Isomorphic-but-differently-oriented models stay separate entries and
    share a model_id, since the id fingerprints the isomorphism class;
    use dedup_models for the coarser view.  Entries are ordered by their
    exact subspace key, so output is deterministic.
    """
    if (order is None) == (tables is None):
        raise ValueError("pass exactly one of order= or tables=")
    if tables is None:
        if order not in PIPELINE_ORDERS:
            raise ValueError(
                f"enumeration pipeline supports orders "
                f"{PIPELINE_ORDERS[0]}..{PIPELINE_ORDERS[-1]}, got {order}"
            )
        start = time.perf_counter()
        tables = enumerate_semigroups(order)
        logger.info(
            "order %d: %d semigroup classes (enumerated in %.3f s)",
            order,
            len(tables),
            time.perf_counter() - start,
        )
    else:
        tables = list(tables)
        if not tables:
            raise ValueError("no tables given")
        orders = {t.order for t in tables}
        if len(orders) != 1:
            raise ValueError(f"tables of mixed orders {sorted(orders)}")
        for pos, t in enumerate(tables, start=1):
            if not is_associative(t):
                raise ValueError(f"table block {pos} is not associative")

    subspaces = [rate_basis(regular_rep(t)) for t in tables]
    groups: dict[RrefKey, list[int]] = {}
    for idx, sub in enumerate(subspaces):
        groups.setdefault(sub.rref, []).append(idx)
    trivial_sources = len(groups.get((), []))
    if trivial_sources:
        logger.info(
            "%d semigroup(s) produced the trivial zero model (excluded)",
            trivial_sources,
        )
    logger.info(
        "%d tables -> %d distinct models (%d nontrivial)",
        len(tables),
        len(groups),
        len(groups) - (1 if trivial_sources else 0),
    )

    entries = []
    for rref_key in sorted(groups):
        if rref_key == ():
            continue
        members = groups[rref_key]
        # representative basis from the lexicographically smallest source
        rep = subspaces[min(members, key=lambda i: tables[i].table)]
        entries.append(classify_model(rep, sorted(members), tables))
    interesting = [
        e for e in entries if not e.report.reducible and not e.report.absorbing
    ]
    logger.info(
        "%d catalog entries, %d non-reducible with no absorbing states",
        len(entries),
        len(interesting),
    )
    return entries


def find_entry(entries: Sequence[CatalogEntry], model_id_str: str) -> CatalogEntry:
    for e in entries:
        if e.model_id == model_id_str:
            return e
    raise KeyError(f"no catalog entry with model id {model_id_str!r}")


# --- commutator tables ---------------------------------------------------------


def commutator_table(
    m: ModelSubspace,
) -> list[tuple[int, int, tuple[Fraction, ...]]]:
    """Exact coefficients of every generator-pair bracket over the generators.

    Requires a Lie-closed subspace; a bracket outside the span is a
    structural inconsistency for derived models, and the first such pair
    raises.  All brackets are formed and solved in one stacked pass.
    """
    n = len(m.basis)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis, transform = linalg.rref_with_transform([linalg.vectorize(g) for g in m.basis])
    brackets = pair_products(m, pairs, bracket=True).reshape(-1, m.order**2)
    coords, inside = linalg.span_coordinates(basis, brackets)
    if not inside.all():
        i, j = pairs[np.argmin(inside)]
        raise PipelineInvariantError(
            f"bracket of generators {i + 1}, {j + 1} left the span"
        )
    # coordinates over the rref rows, mapped onto the generators
    over_gens = (coords @ np.array(transform, dtype=object)).tolist()
    return [(i, j, tuple(c)) for (i, j), c in zip(pairs, over_gens)]


def format_combination(coeffs: Sequence[Fraction]) -> str:
    """Render sum(c_i * L_i) like 'L1 - L2' or '3/2 L3'; zero is '0'."""
    parts = []
    for idx, c in enumerate(coeffs):
        if c == 0:
            continue
        body = f"L{idx + 1}" if abs(c) == 1 else f"{abs(c)} L{idx + 1}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# --- rendering -----------------------------------------------------------------


def entry_to_dict(e: CatalogEntry) -> dict:
    r = e.report
    return {
        "model_id": e.model_id,
        "dimension": r.dimension,
        "reducible": r.reducible,
        "absorbing_states": sorted(s + 1 for s in r.absorbing),
        "symmetry": {
            "order": len(r.symmetry),
            "name": r.symmetry.name,
            "elements": [cycle_string(p) for p in r.symmetry.elements],
        },
        "variant_count": r.variant_count,
        "lie_closed": r.lie_closed,
        "algebra_closed": r.algebra_closed,
        "known_label": r.known_label,
        "generators": [
            [[str(Fraction(x)) for x in row] for row in g]
            for g in r.subspace.basis
        ],
        "sources": [
            [[x + 1 for x in row] for row in t.table] for t in r.provenance
        ],
    }


def render(
    entries: Sequence[CatalogEntry], fmt: str = "json", order: int | None = None
) -> str:
    """Render a catalog as json, csv, or markdown (md)."""
    if order is None and entries:
        order = entries[0].order
    if fmt == "json":
        doc = {"order": order, "entries": [entry_to_dict(e) for e in entries]}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "model_id",
                "order",
                "dimension",
                "reducible",
                "absorbing_states",
                "symmetry_order",
                "symmetry_name",
                "variant_count",
                "lie_closed",
                "algebra_closed",
                "known_label",
                "source_count",
            ]
        )
        for e in entries:
            r = e.report
            writer.writerow(
                [
                    e.model_id,
                    e.order,
                    r.dimension,
                    r.reducible,
                    ";".join(str(s + 1) for s in sorted(r.absorbing)),
                    len(r.symmetry),
                    r.symmetry.name,
                    r.variant_count,
                    r.lie_closed,
                    r.algebra_closed,
                    r.known_label or "",
                    len(r.provenance),
                ]
            )
        return buf.getvalue()
    if fmt in ("md", "markdown"):
        return _render_markdown(entries, order)
    raise ValueError(f"unknown format {fmt!r}; expected json, csv, or md")


def _fmt_matrix(rows) -> str:
    return "\n".join(
        "  [" + " ".join(str(x).rjust(3) for x in row) + "]" for row in rows
    )


def _render_markdown(entries: Sequence[CatalogEntry], order: int | None) -> str:
    lines = [f"# Model catalog (k = {order})", ""]
    lines.append(f"{len(entries)} model classes.")
    lines.append("")
    for e in entries:
        r = e.report
        title = e.model_id if r.known_label is None else f"{e.model_id} — {r.known_label}"
        lines.append(f"## {title}")
        lines.append("")
        absorbing = (
            ", ".join(str(s + 1) for s in sorted(r.absorbing)) if r.absorbing else "none"
        )
        lines.append(f"- dimension: {r.dimension}")
        lines.append(f"- reducible: {r.reducible}; absorbing states: {absorbing}")
        lines.append(
            f"- symmetry group: {r.symmetry.name} (order {len(r.symmetry)}): "
            + ", ".join(cycle_string(p) for p in r.symmetry.elements)
        )
        lines.append(f"- isomorphic variants: {r.variant_count}")
        lines.append(
            f"- Lie closed: {r.lie_closed}; matrix-algebra closed: {r.algebra_closed}"
        )
        lines.append("")
        if r.subspace.basis:
            lines.append("Generators:")
            lines.append("")
            lines.append("```")
            for idx, g in enumerate(r.subspace.basis, start=1):
                lines.append(f"L{idx} =")
                lines.append(_fmt_matrix(g))
            lines.append("```")
            lines.append("")
            brackets = commutator_table(r.subspace)
            if brackets:
                lines.append("Commutators:")
                lines.append("")
                for i, j, coeffs in brackets:
                    lines.append(
                        f"- [L{i + 1}, L{j + 1}] = {format_combination(coeffs)}"
                    )
                lines.append("")
        lines.append(
            f"Source semigroups ({len(r.provenance)}; 1-based Cayley tables):"
        )
        lines.append("")
        lines.append("```")
        for t in r.provenance:
            lines.append(
                "\n".join(" ".join(str(x + 1) for x in row) for row in t.table)
            )
            lines.append("")
        lines[-1] = "```"
        lines.append("")
    return "\n".join(lines)
