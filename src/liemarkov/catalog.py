"""Full pipeline: enumerate -> represent -> derive -> merge equal spans -> classify -> label.

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
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .cayley import CayleyTable, enumerate_semigroups, is_associative, make_table
from .closure import exact_checks
from .constructors import (
    cyclic_group,
    equivariant_model,
    group_based_model,
    klein_group,
)
from .modelgen import (
    STACK_BLOCK,
    ModelSubspace,
    RrefKey,
    SpanStack,
    canonical_subspace,
    generator_index,
    model_orbit,
    rate_basis,
    span_stacks,
    subspace_from_generators,
)
from .representation import RegularRep, rate_rows, regular_rep
from .symmetry import (
    SymmetryGroup,
    cycle_strings,
    name_group_elements,
    parse_perm,
    perm_matrix,
)

logger = logging.getLogger(__name__)

PIPELINE_ORDERS = range(2, 6)
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


def _classify_stack(
    spans: Sequence[ModelSubspace],
    members: Sequence[Sequence[int]],
    tables: Sequence[CayleyTable],
) -> tuple[list[CatalogEntry], float, float]:
    """The catalog entry of every span, in one stack, ``members[s]`` the sources of span s.

    A :class:`~liemarkov.modelgen.SpanStack` of the spans gives the exact
    checks and the support facts; ``model_orbit`` gives each key,
    symmetry group and variant count.  The sources are not checked
    against their span.  Returns the entries, the seconds of the
    stacked exact checks (the stack's build with its products and
    residuals, then closure, support, absorbing states and
    reducibility) and the seconds spent in ``model_orbit``.  Raises
    PipelineInvariantError if a span is not Lie closed or its orbit
    fails orbit-stabilizer.
    """
    start = time.perf_counter()
    stack = SpanStack(spans)
    checks = exact_checks(stack)
    reducible = stack.reducible().tolist()
    absorbing = [
        frozenset(j for j, a in enumerate(row) if a) for row in stack.absorbing().tolist()
    ]
    checks_s = time.perf_counter() - start
    orbits_s = 0.0
    entries = []
    for s, sub in enumerate(stack.spans):
        algebra, lie = checks[s]
        if not lie.closed:
            raise PipelineInvariantError(
                "semigroup-derived model failed Lie closure; witness pair "
                f"({lie.witness.i}, {lie.witness.j})"
            )
        start = time.perf_counter()
        orbit = model_orbit(sub)
        orbits_s += time.perf_counter() - start
        if len(orbit.group) * orbit.variants != math.factorial(sub.order):
            raise PipelineInvariantError(
                f"orbit-stabilizer fails: |G| = {len(orbit.group)}, "
                f"{orbit.variants} variants, k = {sub.order}"
            )
        key = orbit.key
        report = ModelReport(
            subspace=sub,
            dimension=sub.dim,
            absorbing=absorbing[s],
            reducible=reducible[s],
            symmetry=SymmetryGroup(
                sub.order, orbit.group, name_group_elements(sub.order, orbit.group)
            ),
            variant_count=orbit.variants,
            lie_closed=lie.closed,
            algebra_closed=algebra.closed,
            known_label=build_registry().get((sub.order, key)),
            provenance=tuple(tables[i] for i in members[s]),
            source_ids=tuple(i + 1 for i in members[s]),
        )
        entries.append(CatalogEntry(model_id(sub.order, key), sub.order, report))
    return entries, checks_s, orbits_s


def _semigroup_rep(t: CayleyTable, pos: int) -> RegularRep:
    """``regular_rep(t)``, whose ValueError for a table that is not associative names its block."""
    try:
        return regular_rep(t)
    except ValueError:
        raise ValueError(f"table block {pos} is not associative") from None


def run_pipeline(
    order: int | None = None,
    tables: Sequence[CayleyTable] | None = None,
) -> list[CatalogEntry]:
    """Derive, classify, and deduplicate the models of a set of semigroups.

    Exactly one source: ``order`` enumerates all semigroups of that order
    (one of ``PIPELINE_ORDERS``, 2..5), ``tables`` uses the given Cayley
    tables, each checked for associativity once (ValueError "table block
    N is not associative").  Enumerated tables are not checked again:
    :func:`~liemarkov.cayley.enumerate_semigroups` checks every triple as
    it fills a table, so its output is associative by construction, as
    the tests assert at orders 1-5; they go to ``rate_basis`` as
    ``RegularRep(t)``.

    One entry per distinct nontrivial model: semigroups whose rate bases
    span exactly the same subspace are merged, and the trivial
    zero-dimensional model (every rate matrix zero) is excluded from the
    catalog, which is how the funnel 188 -> 131 -> 4 arises at order 4.
    Isomorphic-but-differently-oriented models stay separate entries and
    share a model_id, since the id fingerprints the isomorphism class:
    the entries that share a model_id are the coarser view.  Entries are
    ordered by their exact subspace key, so output is deterministic.
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

    start = time.perf_counter()
    if order is None:
        regular = [_semigroup_rep(t, pos) for pos, t in enumerate(tables, start=1)]
    else:
        regular = map(RegularRep, tables)  # the enumerator checked every triple
    subspaces = [rate_basis(r) for r in regular]
    built = time.perf_counter()
    groups: dict[RrefKey, list[int]] = {}
    for idx, sub in enumerate(subspaces):
        groups.setdefault(sub.rref, []).append(idx)
    grouped = time.perf_counter()
    trivial_sources = len(groups.get((), []))
    if trivial_sources:
        logger.info(
            "%d semigroup(s) produced the trivial zero model (excluded)",
            trivial_sources,
        )
    logger.info(
        "%d tables -> %d distinct models (%d nontrivial; "
        "rate bases in %.3f s, grouped in %.3f s)",
        len(tables),
        len(groups),
        len(groups) - (1 if trivial_sources else 0),
        built - start,
        grouped - built,
    )

    start = time.perf_counter()
    # representative basis from the lexicographically smallest source
    members = [sorted(groups[key]) for key in sorted(groups) if key != ()]
    reps = [subspaces[min(idx, key=lambda i: tables[i].table)] for idx in members]
    entries: list[CatalogEntry] = []
    checks_s = orbits_s = 0.0
    for lo in range(0, len(reps), STACK_BLOCK):
        block, block_checks_s, block_orbits_s = _classify_stack(
            reps[lo : lo + STACK_BLOCK], members[lo : lo + STACK_BLOCK], tables
        )
        entries += block
        checks_s += block_checks_s
        orbits_s += block_orbits_s
    interesting = [
        e for e in entries if not e.report.reducible and not e.report.absorbing
    ]
    logger.info(
        "%d catalog entries, %d non-reducible with no absorbing states "
        "(classified in %.3f s); stacked exact checks %.3f s, orbits %.3f s",
        len(entries),
        len(interesting),
        time.perf_counter() - start,
        checks_s,
        orbits_s,
    )
    return entries


def find_entry(entries: Sequence[CatalogEntry], model_id_str: str) -> CatalogEntry:
    for e in entries:
        if e.model_id == model_id_str:
            return e
    raise KeyError(f"no catalog entry with model id {model_id_str!r}")


# --- commutator tables ---------------------------------------------------------


def _commutator_tables(
    stack: SpanStack,
) -> list[list[tuple[int, int, tuple[int | Fraction, ...]]]]:
    """:func:`commutator_table` of every span of a stack.

    The brackets are the stack's, and the first escaping one, in span and
    then row-major order, raises.  Only a span with a nonzero bracket runs
    ``rref_with_transform`` of its ``gen_rows``: over its rref the
    coordinates of a bracket are its entries at the pivot columns, and the
    transform maps them onto the generators.  The stack's brackets carry
    the factor c^2 of its scaled generators (c is the span's
    ``stack.scale``), which is divided out.
    """
    brackets = stack.brackets()
    hot = np.triu((brackets != 0).any(axis=-1), 1)
    if hot.any():
        escaped = np.argwhere(hot & stack.bracket_escaped())
        if escaped.size:
            _, i, j = escaped[0].tolist()
            raise PipelineInvariantError(f"bracket of generators {i + 1}, {j + 1} left the span")
    where = np.argwhere(hot)
    solve: dict[int, list] = {}
    for (s, i, j), row in zip(where.tolist(), brackets[tuple(where.T)].tolist()):
        solve.setdefault(s, []).append((i, j, row))
    tables = []
    for s, m in enumerate(stack.spans):
        coeffs = {}
        n = len(m.gen_rows)
        if s in solve:
            basis, transform = linalg.rref_with_transform(m.gen_rows)
            pivots = linalg.pivot_columns(basis)
            columns = list(zip(*transform))
            c2 = Fraction(int(stack.scale[s])) ** 2
            for i, j, bracket in solve[s]:
                coords = [bracket[p] for p in pivots]
                sums = [sum(map(operator.mul, coords, col)) for col in columns]
                coeffs[i, j] = tuple(linalg.exact(x if c2 == 1 else x / c2) for x in sums)
        zero = (0,) * n
        tables.append(
            [(i, j, coeffs.get((i, j), zero)) for i in range(n) for j in range(i + 1, n)]
        )
    return tables


def commutator_table(
    m: ModelSubspace,
) -> list[tuple[int, int, tuple[int | Fraction, ...]]]:
    """Exact coefficients of every generator-pair bracket over the generators.

    Requires a Lie-closed subspace; a bracket outside the span is a
    structural inconsistency for derived models, and the first such pair
    raises.  The brackets come from a
    :class:`~liemarkov.modelgen.SpanStack` of one span; a zero bracket
    gets all-zero coefficients and is not solved, so a fully commutative
    span runs no elimination.  The nonzero ones are solved together over
    one ``rref_with_transform`` of the generators.  A coefficient is
    ``int`` when integral, else ``Fraction``.
    """
    return _commutator_tables(SpanStack([m]))[0]


def _product_rule_table(
    e: CatalogEntry,
) -> list[tuple[int, int, tuple[int, ...]]] | None:
    """:func:`commutator_table` of an entry read off its source semigroup, or None.

    In a semigroup A_a A_b = A_ab, so with L_a = A_a - I the product rule
    (A_a - I)(A_b - I) = (A_ab - I) - (A_a - I) - (A_b - I) gives
    [L_a, L_b] = L_ab - L_ba: the coefficients of a bracket are
    e(ab) - e(ba), where e(x) is the unit vector of L_x's generator (zero
    when A_x = I).  This holds when the generators are exactly the
    :func:`~liemarkov.representation.rate_rows` of the representative
    source, the least table of the provenance (the one ``run_pipeline``
    builds the basis from), kept by
    :func:`~liemarkov.modelgen.generator_index`, and that table is
    associative.  The coefficients are unique only when the generators
    are independent; otherwise, or when the generators are not the
    table's, this returns None.
    """
    r = e.report
    n = len(r.subspace.gen_rows)
    if n != r.dimension or not r.provenance:
        return None
    t = min(r.provenance, key=operator.attrgetter("table"))
    rows = rate_rows(t)
    index = generator_index(rows)
    if tuple(index) != r.subspace.gen_rows:
        return None
    if not is_associative(t):
        return None
    gen_of = [index.get(row) for row in rows]
    reps = [gen_of.index(i) for i in range(n)]  # the first element of each generator
    m = t.table
    tables = []
    for i, a in enumerate(reps):
        for j in range(i + 1, n):
            b = reps[j]
            coeffs = [0] * n
            ab, ba = gen_of[m[a][b]], gen_of[m[b][a]]
            if ab is not None:
                coeffs[ab] += 1
            if ba is not None:
                coeffs[ba] -= 1
            tables.append((i, j, tuple(coeffs)))
    return tables


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


def generator_strings(sub: ModelSubspace) -> list[list[list[str]]]:
    """A span's generators as the command line's JSON documents hold them.

    Each generator is a k x k list of the ``str`` of its exact entries,
    read from the span's flat rows.
    """
    k = sub.order
    return [[[str(x) for x in g[i : i + k]] for i in range(0, k * k, k)] for g in sub.gen_rows]


def entry_to_dict(e: CatalogEntry) -> dict:
    r = e.report
    names = cycle_strings(r.symmetry.order_k)
    return {
        "model_id": e.model_id,
        "dimension": r.dimension,
        "reducible": r.reducible,
        "absorbing_states": sorted(s + 1 for s in r.absorbing),
        "symmetry": {
            "order": len(r.symmetry),
            "name": r.symmetry.name,
            "elements": [names[p] for p in r.symmetry.elements],
        },
        "variant_count": r.variant_count,
        "lie_closed": r.lie_closed,
        "algebra_closed": r.algebra_closed,
        "known_label": r.known_label,
        "generators": generator_strings(r.subspace),
        "sources": [
            [[x + 1 for x in row] for row in t.table] for t in r.provenance
        ],
    }


@functools.cache
def _json_formats(k: int) -> tuple[str, str, str]:
    """An entry, a k x k generator and a 1-based Cayley table of the JSON catalog, as %-formats.

    Each is the ``json.dumps(skeleton, indent=2)`` of its part, indented
    to the part's depth in the document, with every slot ``"\\0"`` (which
    json writes ``"\\u0000"``) made ``%s``.  A generator's cells are the
    string ``"%s"``, quoted: the ``str`` of an ``int`` or a ``Fraction``
    is plain ASCII, which JSON needs no escape for.
    """

    def part(skeleton: object, depth: int) -> str:
        text = json.dumps(skeleton, indent=2).replace('"\\u0000"', "%s")
        return text.replace("\n", "\n" + "  " * depth)

    slot = "\0"
    keys = ("model_id", "dimension", "reducible", "absorbing_states", "symmetry", "variant_count",
            "lie_closed", "algebra_closed", "known_label", "generators", "sources")  # entry_to_dict's
    entry = dict.fromkeys(keys, slot)
    entry["symmetry"] = dict.fromkeys(("order", "name", "elements"), slot)
    return part(entry, 2), part([["%s"] * k] * k, 4), part([[slot] * k] * k, 4)


def _json_list(items: Sequence[str], pad: str) -> str:
    """The indent-2 JSON of a list of item texts, each item on a new line at ``pad``."""
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]" if items else "[]"


def _render_json(entries: Sequence[CatalogEntry], order: int | None) -> str:
    flag = ("false", "true")
    texts = []
    for e in entries:
        r = e.report
        entry_fmt, gen_fmt, table_fmt = _json_formats(e.order)
        names = cycle_strings(r.symmetry.order_k)
        elements = [encode_basestring_ascii(names[p]) for p in r.symmetry.elements]
        gens = [gen_fmt % row for row in r.subspace.gen_rows]
        sources = [table_fmt % tuple(x + 1 for row in t.table for x in row) for t in r.provenance]
        label = "null" if r.known_label is None else encode_basestring_ascii(r.known_label)
        texts.append(entry_fmt % (
            encode_basestring_ascii(e.model_id), r.dimension, flag[r.reducible],
            _json_list([str(s + 1) for s in sorted(r.absorbing)], "\n        "),
            len(r.symmetry), encode_basestring_ascii(r.symmetry.name),
            _json_list(elements, "\n          "), r.variant_count,
            flag[r.lie_closed], flag[r.algebra_closed], label,
            _json_list(gens, "\n        "), _json_list(sources, "\n        "),
        ))
    head = "null" if order is None else order
    return '{\n  "order": %s,\n  "entries": %s\n}\n' % (head, _json_list(texts, "\n    "))


def render(
    entries: Sequence[CatalogEntry], fmt: str = "json", order: int | None = None
) -> str:
    """Render a catalog as json, csv, or markdown (md).

    The json text is that of ``json.dumps(doc, indent=2)`` plus a newline,
    where doc is ``{"order": order, "entries": [entry_to_dict(e), ...]}``.
    It is written straight from the entries, through the %-formats of an
    entry, a generator and a source table that ``json.dumps`` makes once
    per order from skeletons of those parts.  The markdown lists each entry's
    generators, its commutator table and its source semigroups.  A
    commutator table is :func:`commutator_table`'s.  Where the generators
    are the independent A_a - I of the entry's representative source
    semigroup, it is read off that Cayley table by the product rule
    [L_a, L_b] = L_ab - L_ba (see ``_product_rule_table``).  Dependent
    generators have many combinations for a bracket, and the rule need not
    give the one the elimination gives, so those entries, and entries whose
    generators are not their source's, are solved from stacks of their
    spans, ``STACK_BLOCK`` at a time.  Under ``-v`` the markdown logs how
    many tables each way gave and its seconds.
    """
    if order is None and entries:
        order = entries[0].order
    if fmt == "json":
        return _render_json(entries, order)
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


@functools.cache
def _md_formats(k: int) -> tuple[str, str]:
    """A k x k generator (entries right-aligned to width 3) and a Cayley table in markdown."""
    gen_row, table_row = "  [" + " ".join(["%3s"] * k) + "]", " ".join(["%d"] * k)
    return "\n".join([gen_row] * k), "\n".join([table_row] * k)


def _render_markdown(entries: Sequence[CatalogEntry], order: int | None) -> str:
    start = time.perf_counter()
    lines = ["# Model catalog" + ("" if order is None else f" (k = {order})"), ""]
    lines.append(f"{len(entries)} model classes.")
    lines.append("")
    # every entry's commutator table: by the product rule where it applies,
    # else from stacks of the remaining spans
    tables = [_product_rule_table(e) for e in entries]
    rest = [e.report.subspace for e, t in zip(entries, tables) if t is None]
    solved = (t for stack in span_stacks(rest) for t in _commutator_tables(stack))
    tables = [next(solved) if t is None else t for t in tables]
    for e, brackets in zip(entries, tables):
        r = e.report
        gen_fmt, table_fmt = _md_formats(e.order)
        title = e.model_id if r.known_label is None else f"{e.model_id} — {r.known_label}"
        lines.append(f"## {title}")
        lines.append("")
        absorbing = (
            ", ".join(str(s + 1) for s in sorted(r.absorbing)) if r.absorbing else "none"
        )
        lines.append(f"- dimension: {r.dimension}")
        lines.append(f"- reducible: {r.reducible}; absorbing states: {absorbing}")
        names = cycle_strings(r.symmetry.order_k)
        lines.append(
            f"- symmetry group: {r.symmetry.name} (order {len(r.symmetry)}): "
            + ", ".join(map(names.__getitem__, r.symmetry.elements))
        )
        lines.append(f"- isomorphic variants: {r.variant_count}")
        lines.append(
            f"- Lie closed: {r.lie_closed}; matrix-algebra closed: {r.algebra_closed}"
        )
        lines.append("")
        if r.subspace.gen_rows:
            lines.append("Generators:")
            lines.append("")
            lines.append("```")
            for idx, row in enumerate(r.subspace.gen_rows, start=1):
                lines.append(f"L{idx} =")
                lines.append(gen_fmt % row)
            lines.append("```")
            lines.append("")
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
        cells = (tuple(x + 1 for row in t.table for x in row) for t in r.provenance)
        lines += ["```", "\n\n".join(table_fmt % c for c in cells), "```", ""]
    logger.info(
        "markdown: %d commutator tables by the product rule, %d by elimination "
        "(rendered in %.3f s)",
        len(entries) - len(rest),
        len(rest),
        time.perf_counter() - start,
    )
    return "\n".join(lines)
