import dataclasses
import hashlib
import itertools
import json
import logging
import random
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from liemarkov import catalog, cli, linalg, modelgen, representation
from liemarkov.catalog import (
    PipelineInvariantError,
    build_registry,
    commutator_table,
    entry_to_dict,
    find_entry,
    format_combination,
    json_indent2,
    known_subspaces,
    model_id,
    new_model_table,
    render,
    run_pipeline,
)
from liemarkov.cayley import (
    enumerate_semigroups,
    format_tables,
    is_associative,
    make_table,
    parse_tables,
)
from liemarkov.closure import commutator
from liemarkov.constructors import fixture
from liemarkov.modelgen import canonical_subspace, rate_basis, subspace_from_generators
from liemarkov.representation import regular_rep

ROOT = Path(__file__).resolve().parent.parent

KNOWN_IDS = {
    "F81": "9435a49450621bca",
    "K3ST": "30ee7e5657ac75c1",
    "Model-3.3b": "0939e9c021863976",
    "New-4.1": "b50e19ee1390749d",
    "equal-input-2": "13f11cde8450671b",
    "equal-input-3": "40aac4b5c3ab45b1",
    "binary-symmetric": "b0b6aa4db5cfbffc",
    "C3-group-based": "4bcbdac25ed62326",
    "K2ST": "aeb646a7075725ef",
    "equal-input-5": "550111b0cc107754",
    "C5-group-based": "2b1392516a56fdf2",
}


def test_registry_keys_distinct_and_labels_complete():
    registry = build_registry()
    assert len(registry) == len(known_subspaces()) == 11
    assert sorted(registry.values()) == sorted(KNOWN_IDS)


def test_registry_is_built_once_and_read_only():
    registry = build_registry()
    assert build_registry() is registry
    with pytest.raises(TypeError):
        registry[(4, ())] = "zero"


def test_classify_model_checks_orbit_stabilizer(monkeypatch):
    sub = known_subspaces()["K3ST"]
    orbit = catalog.model_orbit(sub)
    monkeypatch.setattr(
        catalog,
        "model_orbit",
        lambda m: dataclasses.replace(orbit, variants=orbit.variants + 1),
    )
    with pytest.raises(PipelineInvariantError, match="orbit-stabilizer"):
        catalog.classify_model(sub, [], [])


def test_classify_model_raises_on_lie_failure():
    with pytest.raises(PipelineInvariantError, match=r"witness pair \(0, 1\)"):
        catalog.classify_model(fixture("SYM").subspace, [], [])


def test_classify_model_refuses_sources_that_are_not_semigroups_of_the_span():
    table = make_table([[0, 0, 0], [0, 0, 1], [0, 1, 0]])  # 1-based ((1,1,1),(1,1,2),(1,2,1))
    assert not is_associative(table)
    gens = [linalg.unvectorize(row, 3) for row in representation.rate_rows(table)]
    sub = subspace_from_generators(3, gens)
    c3 = make_table([[(i + j) % 3 for j in range(3)] for i in range(3)])
    with pytest.raises(ValueError, match="^source table 2 is not associative$"):
        catalog.classify_model(sub, [1], [c3, table])
    # an associative source whose rate basis spans another model
    with pytest.raises(ValueError, match="^source table 1 does not span the given model$"):
        catalog.classify_model(sub, [0, 1], [c3, table])
    with pytest.raises(ValueError, match="^source table 1 does not span the given model$"):
        catalog.classify_model(rate_basis(regular_rep(c3)), [0], [make_table([[0, 1], [1, 0]])])
    # the span's own semigroup is accepted, among the tables at any position
    entry = catalog.classify_model(rate_basis(regular_rep(c3)), [1], [table, c3])
    assert entry.report.provenance == (c3,) and entry.report.source_ids == (2,)


def test_classify_model_keeps_lie_closure_when_algebra_fails():
    report = catalog.classify_model(fixture("JJ3").subspace, [], []).report
    assert report.lie_closed
    assert not report.algebra_closed


def test_model_ids_stable():
    for name, sub in known_subspaces().items():
        assert model_id(sub.order, canonical_subspace(sub)) == KNOWN_IDS[name]


def test_new_model_table_is_canonical_semigroup(semigroups4):
    t = new_model_table()
    assert is_associative(t)
    assert t in semigroups4


def test_model_33b_table_generates_the_twisted_model():
    # the cyclic group of order 4, its elements ordered so that left
    # multiplication realizes the three permutations of MODEL_33B_PERMS
    t = make_table([[3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2], [0, 1, 2, 3]])
    assert is_associative(t)
    sub = rate_basis(regular_rep(t))
    key = canonical_subspace(sub)
    assert key == canonical_subspace(known_subspaces()["Model-3.3b"])
    # the same model class as the order-4 cyclic group
    from liemarkov.constructors import cyclic_group, group_based_model

    assert key == canonical_subspace(group_based_model(cyclic_group(4)))


def test_pipeline_k2_outcomes(catalog2):
    assert len(catalog2) == 3
    by_label = {e.report.known_label: e for e in catalog2}
    assert set(by_label) == {None, "binary-symmetric", "equal-input-2"}
    absorbing_entry = by_label[None]
    assert absorbing_entry.report.source_ids == (1, 2)  # merged exactly
    assert absorbing_entry.report.dimension == 1
    assert absorbing_entry.report.absorbing == frozenset({0})
    assert absorbing_entry.report.reducible
    assert len(absorbing_entry.report.symmetry) == 1
    assert by_label["equal-input-2"].report.source_ids == (3,)
    assert by_label["binary-symmetric"].report.source_ids == (5,)
    # the remaining semigroup produces the excluded trivial model
    tables = enumerate_semigroups(2)
    assert rate_basis(regular_rep(tables[3])).dim == 0


@pytest.mark.parametrize("order, entries, ids", [(2, 3, 3), (3, 15, 14), (4, 131, 113)])
def test_model_id_counts(order, entries, ids, request):
    # entries that share a model_id are one isomorphism class of nontrivial models
    catalog = request.getfixturevalue(f"catalog{order}")
    assert len(catalog) == entries
    assert len({e.model_id for e in catalog}) == ids


def test_pipeline_output_independent_of_table_order(semigroups3, catalog3):
    expected = [(e.model_id, e.report.subspace.rref) for e in catalog3]
    rng = random.Random(3)
    for _ in range(3):
        tables = list(semigroups3)
        rng.shuffle(tables)
        entries = run_pipeline(tables=tables)
        assert [(e.model_id, e.report.subspace.rref) for e in entries] == expected


def test_pipeline_k3_counts_and_labels(catalog3):
    assert len(catalog3) == 15
    non_reducible = [e for e in catalog3 if not e.report.reducible]
    assert len(non_reducible) == 2
    assert {e.report.known_label for e in non_reducible} == {
        "equal-input-3",
        "C3-group-based",
    }


def test_pipeline_k4_funnel(catalog4):
    assert len(catalog4) == 131
    interesting = [
        e for e in catalog4 if not e.report.reducible and not e.report.absorbing
    ]
    assert len(interesting) == 4
    assert {e.report.known_label for e in interesting} == {
        "F81",
        "K3ST",
        "Model-3.3b",
        "New-4.1",
    }
    assert {e.model_id for e in interesting} == {
        KNOWN_IDS[n] for n in ("F81", "K3ST", "Model-3.3b", "New-4.1")
    }


def columns_are_permutations(t):
    """True iff y -> y*a is a bijection for every a: every column of the table."""
    return all(len(set(col)) == t.order for col in zip(*t.table))


def left_fixed(t):
    """The elements z with x*z = z for every x."""
    return frozenset(z for z in range(t.order) if all(row[z] == z for row in t.table))


def in_the_funnel(r):
    """The funnel's last filter: non-reducible with no absorbing state."""
    return not r.reducible and not r.absorbing


def table_rule_failures(entries, keep=in_the_funnel):
    """Where the entries break the table rules, checked on every source table.

    A model is reducible iff some column of its source table is not a
    permutation, its absorbing states are the z with x*z = z for every x,
    no non-reducible model has one, and so ``keep`` must select exactly the
    entries whose source columns are all permutations.
    """
    failures = []
    for e in entries:
        r = e.report
        for t in r.provenance:
            if r.reducible == columns_are_permutations(t):
                failures.append((e.model_id, "column rule", t.table))
            if r.absorbing != left_fixed(t):
                failures.append((e.model_id, "absorbing rule", t.table))
        if not r.reducible and r.absorbing:
            failures.append((e.model_id, "absorbing state of a non-reducible model", None))
        if keep(r) != all(map(columns_are_permutations, r.provenance)):
            failures.append((e.model_id, "funnel filter", None))
    return failures


def automorphisms(t):
    """Aut(S) by brute force over every permutation of the elements."""
    m = t.table
    cells = list(itertools.product(range(t.order), repeat=2))
    return [
        p
        for p in itertools.permutations(range(t.order))
        if all(p[m[x][y]] == m[p[x]][p[y]] for x, y in cells)
    ]


def automorphism_failures(entries):
    """Source automorphisms that are not symmetries of their entry's model: Aut(S) in Sym(L)."""
    return [
        (e.model_id, p)
        for e in entries
        for t in e.report.provenance
        for p in automorphisms(t)
        if p not in e.report.symmetry.elements
    ]


def test_table_rules_orders_2_to_4(catalog2, catalog3, catalog4):
    for entries in (catalog2, catalog3, catalog4):
        assert table_rule_failures(entries) == []
        assert automorphism_failures(entries) == []
    # Aut(S) is often smaller than Sym(L): the check is an inclusion
    assert sum(
        len(automorphisms(t)) < len(e.report.symmetry)
        for e in catalog4
        for t in e.report.provenance
    ) > 0
    # mutation: a filter that also keeps the reducible spans without an
    # absorbing state disagrees with the column rule
    failures = table_rule_failures(catalog4, keep=lambda r: not r.absorbing)
    assert failures and {rule for _, rule, _ in failures} == {"funnel filter"}


@pytest.mark.slow
def test_table_rules_order5(catalog5):
    assert table_rule_failures(catalog5) == []
    assert automorphism_failures(catalog5) == []


def test_one_span_iff_one_span_with_the_identity(semigroups2, semigroups3, semigroups4, catalog4):
    # L = span{A_a - I} and span{I, A_a} = span{I} + L, so they group the tables alike
    for tables in (semigroups2, semigroups3, semigroups4):
        assert_spans_group_like_identity_spans(tables)
    # the order-4 groups of tables behind one nontrivial span
    assert Counter(len(e.report.source_ids) for e in catalog4) == {1: 90, 2: 28, 3: 11, 4: 2}


@pytest.mark.slow
def test_one_span_iff_one_span_with_the_identity_order5(semigroups5):
    assert_spans_group_like_identity_spans(semigroups5)


def assert_spans_group_like_identity_spans(tables):
    spans, with_identity = [], []
    for t in tables:
        rep = regular_rep(t)
        spans.append(rate_basis(rep).rref)
        ident = linalg.identity(t.order)
        with_identity.append(linalg.rref([linalg.vectorize(a) for a in (ident, *rep.matrices)]))
    pairs = set(zip(spans, with_identity))
    assert len(pairs) == len(set(spans)) == len(set(with_identity))


@pytest.mark.slow
def test_pipeline_k5_summary(catalog5):
    # measured on this implementation, not figures from the paper
    assert len(catalog5) == 1344
    assert len({e.model_id for e in catalog5}) == 1059
    assert Counter(e.report.dimension for e in catalog5) == {
        1: 6, 2: 82, 3: 333, 4: 586, 5: 337
    }
    assert Counter(len(e.report.symmetry) for e in catalog5) == {
        1: 652, 2: 528, 4: 87, 6: 47, 8: 8, 12: 14, 20: 1, 24: 6, 120: 1
    }
    interesting = [
        e for e in catalog5 if not e.report.reducible and not e.report.absorbing
    ]
    assert sorted(
        (e.model_id, e.report.dimension, e.report.symmetry.name, e.report.known_label)
        for e in interesting
    ) == [
        ("2b1392516a56fdf2", 4, "F20", "C5-group-based"),
        ("550111b0cc107754", 5, "S5", "equal-input-5"),
    ]


@pytest.mark.order6
def test_pipeline_k6_summary(semigroups6):
    # measured on this implementation, not figures from the paper; about 2 minutes
    catalog6 = run_pipeline(tables=semigroups6)
    assert len(catalog6) == 18254
    assert len({e.model_id for e in catalog6}) == 13556
    assert Counter(e.report.dimension for e in catalog6) == {
        1: 11, 2: 244, 3: 1710, 4: 4965, 5: 7056, 6: 4268
    }
    assert Counter(len(e.report.symmetry) for e in catalog6) == {
        1: 9530, 2: 6442, 3: 2, 4: 1390, 6: 496, 8: 136, 12: 164, 16: 12,
        18: 2, 20: 1, 24: 47, 36: 10, 48: 16, 120: 5, 720: 1,
    }
    # the left groups G x L_n with |G| n = 6: L6, C6, C2 x L3, C3 x L2 and S3
    interesting = [
        e for e in catalog6 if not e.report.reducible and not e.report.absorbing
    ]
    assert sorted(
        (e.model_id, e.report.dimension, len(e.report.symmetry)) for e in interesting
    ) == [
        ("0a5363fb7da75afd", 6, 720),
        ("27821e9b33e05eb1", 5, 12),
        ("6e1588ed5e012764", 6, 12),
        ("786cfdb541b94f13", 6, 12),
        ("9f05181a26dab002", 5, 36),
    ]
    # the two table rules of the left-group account, on every source table
    assert table_rule_failures(catalog6) == []
    # the json writer on the 96 MB document
    digest = hashlib.sha256(render(catalog6, "json").encode()).hexdigest()
    assert digest == "d5d2e502ccaaa588e48359487e67e2f670d6d1383bb3598632fa02385ec26160"
    # the markdown, most of whose commutator tables come from the product rule;
    # the digest is that of the elimination-only renderer this replaced
    digest = hashlib.sha256(render(catalog6, "md").encode()).hexdigest()
    assert digest == "eebddaee6cdddb3213eb61852b84cbf01b48ed71587aab8746962170aad89c79"


@pytest.mark.slow
def test_pipeline_k5_renderings_pinned(catalog5):
    # matrices five wide, which the golden order-4 catalog does not have
    digests = {
        fmt: hashlib.sha256(render(catalog5, fmt).encode()).hexdigest()
        for fmt in ("json", "md")
    }
    assert digests == {
        "json": "b59c5661b039a69653273818c6f247faedd4391654a72e5e9bebfef2cc866ecc",
        "md": "42b60e444eaf761464211c4b364271dfd276a497744a5e25fd556bf134fb836a",
    }


@pytest.mark.slow
def test_commutator_table_k5_coefficients(catalog5):
    tables = [commutator_table(e.report.subspace) for e in catalog5]
    # linalg.exact's rule: an integral coefficient is int, never Fraction(0, 1)
    coeffs = [x for t in tables for _, _, c in t for x in c]
    assert all(type(x) is int or x.denominator > 1 for x in coeffs)
    # the values of every pair, as solved for every bracket at order 5
    text = "\n".join(
        f"{i},{j}:" + ",".join(map(str, c)) for t in tables for i, j, c in t
    )
    assert text.count("\n") + 1 == 8163
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "9e9988b02576c6665cc48d0dd00208c9cd3c54a713241c2ed475bf525419ba36"


def rule_and_elimination(entries):
    """Each entry's product-rule table (None where it does not apply) and its elimination table."""
    rule = [catalog._product_rule_table(e) for e in entries]
    spans = [e.report.subspace for e in entries]
    solved = [t for stack in modelgen.span_stacks(spans) for t in catalog._commutator_tables(stack)]
    return rule, solved


def with_report(e, **changes):
    return dataclasses.replace(e, report=dataclasses.replace(e.report, **changes))


def md_brackets(text):
    return [line for line in text.splitlines() if line.startswith("- [L")]


def reference_brackets(sub):
    return [
        f"- [L{i + 1}, L{j + 1}] = {format_combination(c)}" for i, j, c in commutator_table(sub)
    ]


@pytest.mark.slow
def test_product_rule_k5_agrees_with_elimination(catalog5):
    rule, solved = rule_and_elimination(catalog5)
    served = [i for i, t in enumerate(rule) if t is not None]
    assert (len(served), len(catalog5) - len(served)) == (1289, 55)
    assert all(rule[i] == solved[i] for i in served)
    # why dependent generators keep the elimination: on 6 of the 55 spans the
    # rule gives another valid combination than the one it pins
    dependent = [e for e in catalog5 if len(e.report.subspace.basis) != e.report.dimension]
    assert len(dependent) == 55
    other = [
        e
        for e in dependent
        if catalog._product_rule_table(with_report(e, dimension=len(e.report.subspace.basis)))
        != commutator_table(e.report.subspace)
    ]
    assert len(other) == 6
    assert md_brackets(render(other, "md")) == [
        line for e in other for line in reference_brackets(e.report.subspace)
    ]


def test_pipeline_lie_closure_asserted_everywhere(catalog2, catalog3, catalog4):
    for entries in (catalog2, catalog3, catalog4):
        assert all(e.report.lie_closed for e in entries)
        assert all(e.report.algebra_closed for e in entries)


def test_pipeline_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_pipeline()
    with pytest.raises(ValueError):
        run_pipeline(order=6)
    with pytest.raises(ValueError):
        run_pipeline(order=1)
    with pytest.raises(ValueError, match="^no tables given$"):
        run_pipeline(tables=[])
    with pytest.raises(ValueError, match="mixed orders"):
        run_pipeline(tables=[make_table([[0]]), make_table([[0, 0], [0, 0]])])
    with pytest.raises(ValueError, match="block 2"):
        run_pipeline(
            tables=[make_table([[0, 0], [0, 0]]), make_table([[1, 0], [0, 0]])]
        )


def test_pipeline_checks_each_table_for_associativity_once(monkeypatch):
    build_registry()  # cached: its own regular representations are not counted
    calls = []

    def counted(t):
        calls.append(t)
        return is_associative(t)

    # every binding the pipeline could look up
    for mod in (catalog, representation):
        monkeypatch.setattr(mod, "is_associative", counted, raising=False)
    tables = [
        make_table([[0, 0], [0, 0]]),
        make_table([[0, 1], [1, 0]]),
        make_table([[0, 1], [0, 1]]),
    ]
    run_pipeline(tables=tables)
    assert calls == tables
    # enumerated tables are associative by construction and are not checked again
    calls.clear()
    assert len(run_pipeline(order=3)) == 15
    assert calls == []
    # a given table still is, and the first one that fails is named by its block
    bad = make_table([[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="^table block 3 is not associative$"):
        run_pipeline(tables=tables[:2] + [bad, tables[2]])
    assert calls == tables[:2] + [bad]


def test_pipeline_rejects_order6_before_enumerating(monkeypatch):
    # enumeration covers order 6, derivation does not: the pipeline's own
    # order check must refuse it before any enumeration starts
    def refuse(k):
        raise AssertionError(f"enumerated order {k}")

    monkeypatch.setattr(catalog, "enumerate_semigroups", refuse)
    with pytest.raises(ValueError, match="orders 2..5"):
        run_pipeline(order=6)


@pytest.mark.slow
def test_pipeline_order5_matches_catalog5(catalog5):
    # order= enumerates itself; the same ids in the same order as the tables
    entries = run_pipeline(order=5)
    assert [e.model_id for e in entries] == [e.model_id for e in catalog5]


def test_pipeline_logs_enumeration_time(caplog):
    with caplog.at_level(logging.INFO, logger=catalog.logger.name):
        run_pipeline(order=2)
    assert re.search(
        r"order 2: 5 semigroup classes \(enumerated in \d+\.\d{3} s\)",
        caplog.text,
    )


def test_pipeline_logs_grouping_time(caplog):
    with caplog.at_level(logging.INFO, logger=catalog.logger.name):
        run_pipeline(order=2)
    assert re.search(
        r"5 tables -> \d+ distinct models \(\d+ nontrivial; "
        r"rate bases in \d+\.\d{3} s, grouped in \d+\.\d{3} s\)",
        caplog.text,
    )


def test_pipeline_logs_classification_time(caplog):
    # tables= skips enumeration, but the later stages still log their times
    with caplog.at_level(logging.INFO, logger=catalog.logger.name):
        run_pipeline(tables=enumerate_semigroups(2))
    assert "enumerated in" not in caplog.text
    assert re.search(
        r"\d+ catalog entries, \d+ non-reducible with no absorbing states "
        r"\(classified in \d+\.\d{3} s\)",
        caplog.text,
    )


def test_generator_entries_render_as_the_same_number_in_md_and_json():
    # a bool and a float entry are stored as int and Fraction, so both
    # renderings print 1 and -1/2, not True or -0.5
    for gen, text in (
        (((False, True), (False, -1)), ("0", "1", "0", "-1")),
        (((-0.5, 1), (0.5, -1)), ("-1/2", "1", "1/2", "-1")),
    ):
        entry = catalog.classify_model(subspace_from_generators(2, [gen]), [], [])
        assert [x for row in entry_to_dict(entry)["generators"][0] for x in row] == list(text)
        md = render([entry], "md")
        block = md.split("L1 =\n", 1)[1].split("```", 1)[0]
        assert tuple(re.findall(r"[^\s\[\]]+", block)) == text


def test_pipeline_from_tables_matches_enumeration(catalog2):
    entries = run_pipeline(tables=enumerate_semigroups(2))
    assert render(entries, "json") == render(catalog2, "json")


def test_pipeline_from_tables_supports_other_orders():
    # order= stops at 5 and enumeration at 6, but explicit tables have no cap
    from liemarkov.constructors import symmetric_group_3

    entries = run_pipeline(tables=[symmetric_group_3().table])
    assert len(entries) == 1
    r = entries[0].report
    assert r.dimension == 5
    assert not r.reducible
    assert r.absorbing == frozenset()
    assert r.lie_closed and r.algebra_closed


def test_commutator_table_equal_input():
    sub = known_subspaces()["F81"]
    table = commutator_table(sub)
    assert len(table) == 6
    for i, j, coeffs in table:
        expected = [Fraction(0)] * 4
        expected[i] = Fraction(1)
        expected[j] = Fraction(-1)
        assert list(coeffs) == expected


def test_commutator_table_new_model():
    sub = rate_basis(regular_rep(new_model_table()))
    rendered = {
        (i + 1, j + 1): format_combination(coeffs)
        for i, j, coeffs in commutator_table(sub)
    }
    assert rendered == {
        (1, 2): "L1 - L2",
        (1, 3): "0",
        (1, 4): "L3 - L4",
        (2, 3): "-L3 + L4",
        (2, 4): "0",
        (3, 4): "L1 - L2",
    }


def golden_spans():
    doc = json.loads((ROOT / "tests" / "golden" / "catalog_k4.json").read_text())
    return [
        subspace_from_generators(
            4, [[[Fraction(x) for x in row] for row in g] for g in e["generators"]]
        )
        for e in doc["entries"]
    ]


def test_commutator_table_matches_per_pair_reference():
    known = known_subspaces()
    models = golden_spans() + list(known.values())
    assert len(models) == 131 + 11
    # K2ST's rref holds genuine fractions
    assert any(type(x) is Fraction for row in known["K2ST"].rref for x in row)
    brackets = 0
    for m in models:
        gens = m.basis
        n = len(gens)
        table = commutator_table(m)
        # the per-pair loop: one bracket and one rank test per pair i < j
        assert [(i, j) for i, j, _ in table] == [
            (i, j) for i in range(n) for j in range(i + 1, n)
        ]
        for i, j, coeffs in table:
            br = commutator(gens[i], gens[j])
            assert linalg.rref(list(m.rref) + [linalg.vectorize(br)]) == m.rref
            rebuilt = [
                [sum(c * g[r][s] for c, g in zip(coeffs, gens)) for s in range(m.order)]
                for r in range(m.order)
            ]
            assert linalg.mat(rebuilt) == br
            brackets += 1
    assert brackets == 474


def test_commutator_table_raises_on_escaping_bracket():
    with pytest.raises(PipelineInvariantError, match="generators 1, 2 left the span"):
        commutator_table(fixture("SYM").subspace)


def test_commutator_table_empty_for_one_dimensional():
    sub = known_subspaces()["binary-symmetric"]
    assert commutator_table(sub) == []


def test_pipeline_logs_stacked_checks_apart_from_orbits(caplog, monkeypatch):
    # the exact checks run in stacks, whose builds they count; model_orbit's
    # seconds are counted apart
    orbit = catalog.model_orbit
    build = modelgen.SpanStack.__init__

    def slow_orbit(m):
        time.sleep(0.002)
        return orbit(m)

    def slow_build(self, spans):
        time.sleep(0.02)
        build(self, spans)

    monkeypatch.setattr(catalog, "model_orbit", slow_orbit)
    monkeypatch.setattr(modelgen.SpanStack, "__init__", slow_build)
    with caplog.at_level(logging.INFO, logger=catalog.logger.name):
        entries = run_pipeline(tables=enumerate_semigroups(3))
    match = re.search(
        r"\(classified in (\d+\.\d{3}) s\); "
        r"stacked exact checks (\d+\.\d{3}) s, orbits (\d+\.\d{3}) s",
        caplog.text,
    )
    assert match
    total, checks, orbits = map(float, match.groups())
    assert orbits >= 0.002 * len(entries) - 0.0005
    stacks = -(-len(entries) // modelgen.STACK_BLOCK)
    assert checks >= 0.02 * stacks - 0.0005
    assert checks + orbits <= total + 0.0005


def test_render_markdown_solves_only_nonzero_brackets(catalog4, monkeypatch):
    calls = []
    solve = linalg.rref_with_transform

    def counted(rows):
        calls.append(len(rows))
        return solve(rows)

    monkeypatch.setattr(catalog.linalg, "rref_with_transform", counted)
    # the elimination over all 131 spans: 126 with pairs, 53 of those fully commutative
    rule_and_elimination(catalog4)
    assert len(calls) == 73
    # the markdown solves only the 2 entries the product rule leaves, both
    # fully commutative
    calls.clear()
    render(catalog4, "md")
    assert calls == []


def test_product_rule_agrees_with_elimination(catalog2, catalog3, catalog4):
    # [L_a, L_b] = L_ab - L_ba wherever the rule serves an entry
    counts = []
    for entries in (catalog2, catalog3, catalog4):
        rule, solved = rule_and_elimination(entries)
        served = [i for i, t in enumerate(rule) if t is not None]
        assert all(rule[i] == solved[i] for i in served)
        assert all(type(x) is int for i in served for _, _, c in rule[i] for x in c)
        counts.append((len(served), len(entries) - len(served)))
    assert counts == [(3, 0), (15, 0), (129, 2)]
    # the two order-4 entries whose generators are dependent
    assert sorted(
        e.model_id for e, t in zip(catalog4, rule) if t is None
    ) == ["5d12a93a81d0ac05", "e592fb285f7e55a7"]


def test_render_markdown_checks_the_product_rule_per_entry(catalog4):
    # each entry given the next entry's sources: their generators are not
    # its own, so its table is solved
    mutated = [
        with_report(e, provenance=nxt.report.provenance)
        for e, nxt in zip(catalog4, catalog4[1:] + catalog4[:1])
    ]
    assert all(catalog._product_rule_table(e) is None for e in mutated)
    assert md_brackets(render(mutated, "md")) == [
        line for e in catalog4 for line in reference_brackets(e.report.subspace)
    ]
    # dependent generators of a semigroup, on which the rule would give
    # another combination than the elimination's
    table = make_table([[0, 2, 2, 3], [2, 1, 2, 2], [2, 2, 2, 2], [2, 3, 2, 2]])
    sub = rate_basis(regular_rep(table))
    entry = catalog.classify_model(sub, [0], [table])
    assert len(sub.basis) == 4 and sub.dim == 3
    assert catalog._product_rule_table(with_report(entry, dimension=4)) != commutator_table(sub)
    # independent generators of a table that is not associative, whose
    # span is still Lie closed
    table = make_table([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert not is_associative(table)
    gens = [linalg.unvectorize(row, 3) for row in representation.rate_rows(table)]
    # classify_model refuses it as a source, so the entry is built by hand
    odd = with_report(
        catalog.classify_model(subspace_from_generators(3, gens), [], []),
        provenance=(table,),
        source_ids=(1,),
    )
    assert odd.report.dimension == 3
    for e in (entry, odd):
        assert catalog._product_rule_table(e) is None
        assert md_brackets(render([e], "md")) == reference_brackets(e.report.subspace)


def test_render_markdown_raises_for_a_hand_built_sym_entry(catalog4):
    sym = fixture("SYM").subspace
    entry = with_report(catalog4[0], subspace=sym, dimension=sym.dim)
    with pytest.raises(PipelineInvariantError, match="left the span"):
        render([entry], "md")


def test_render_markdown_logs_the_commutator_paths(catalog4, caplog):
    with caplog.at_level(logging.INFO, logger=catalog.logger.name):
        render(catalog4, "md")
    assert re.search(
        r"markdown: 129 commutator tables by the product rule, 2 by elimination "
        r"\(rendered in \d+\.\d{3} s\)",
        caplog.text,
    )


def test_format_combination():
    assert format_combination([Fraction(1), Fraction(-1)]) == "L1 - L2"
    assert format_combination([Fraction(0), Fraction(0)]) == "0"
    assert format_combination([Fraction(3, 2), Fraction(1)]) == "3/2 L1 + L2"
    assert format_combination([Fraction(-1), Fraction(0)]) == "-L1"


def test_render_json_shape(catalog2):
    doc = json.loads(render(catalog2, "json"))
    assert doc["order"] == 2
    assert len(doc["entries"]) == 3
    entry = doc["entries"][0]
    assert set(entry) == {
        "model_id",
        "dimension",
        "reducible",
        "absorbing_states",
        "symmetry",
        "variant_count",
        "lie_closed",
        "algebra_closed",
        "known_label",
        "generators",
        "sources",
    }
    assert set(entry["symmetry"]) == {"order", "name", "elements"}
    # 1-based state indices and table entries in serialized form
    absorbing = doc["entries"][0]["absorbing_states"]
    assert absorbing == [1]
    assert doc["entries"][0]["sources"][0][0][0] == 1


def test_render_json_round_trip(catalog3):
    doc = json.loads(render(catalog3, "json"))
    assert json.dumps(doc, indent=2) + "\n" == render(catalog3, "json")


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        {"a": [], "b": {}, "c": [[], {}], "d": [{}]},
        [None, True, False],
        {"none": None, "yes": True, "no": False},
        [-1, 0, -(10**29) - 7, 123456789012345678901234567890],
        [0.1, -0.0, 1e-300, float("nan"), float("inf"), -float("inf"), 2.0],
        ["quote \" and backslash \\", "ctl \x00\x01\t\n\r\x1f\x7f", "—", "\U0001f600"],
        {"\"key\"\n—": "\U0001f600"},
        (1, ("a", (None,)), [(), (2.5,)]),
        [[[1, 2], ["1/2", "-1"]], {"mixed": [1, "a", None, 1.5, True]}],
        "top-level string",
        -12,
        3.5,
        None,
    ],
)
def test_json_indent2_matches_stdlib(value):
    assert json_indent2(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, [np.int64(1)], {"a": {1: "b"}}, {None: 0}, [b"bytes"], object()],
)
def test_json_indent2_refuses_other_values(value):
    with pytest.raises(TypeError):
        json_indent2(value)


def _stdlib_json(entries, order):
    """The oracle of the json rendering: the standard library's text of entry_to_dict."""
    doc = {"order": order, "entries": [entry_to_dict(e) for e in entries]}
    return json.dumps(doc, indent=2) + "\n"


def test_render_json_is_the_stdlib_text_of_entry_to_dict(catalog2, catalog3, catalog4):
    for order, entries in ((2, catalog2), (3, catalog3), (4, catalog4)):
        assert render(entries, "json") == _stdlib_json(entries, order)


def test_render_json_of_no_entries():
    assert render([], "json") == _stdlib_json([], None)
    assert render([], "json", order=4) == _stdlib_json([], 4)


def test_render_json_of_a_hand_built_entry():
    # a Fraction generator entry, no absorbing state, several sources, and a
    # label with a quote and a non-ASCII character next to one with none
    sub = subspace_from_generators(
        2, [((Fraction(-1, 2), 0), (Fraction(1, 2), 0)), ((0, 1), (0, -1))]
    )
    tables = [make_table(t) for t in ([[0, 1], [1, 0]], [[0, 0], [0, 1]], [[0, 0], [1, 1]])]
    # none of the tables spans sub, which classify_model refuses, so the
    # sources are set by hand
    entry = with_report(
        catalog.classify_model(sub, [], []),
        provenance=tuple(tables[i] for i in (0, 2, 1)),
        source_ids=(1, 3, 2),
    )
    assert any(type(x) is Fraction for g in sub.basis for row in g for x in row)
    assert not entry.report.absorbing and len(entry.report.provenance) == 3
    unlabelled, labelled = (
        dataclasses.replace(entry, report=dataclasses.replace(entry.report, known_label=label))
        for label in (None, 'twisted "K" \u2014 2')
    )
    for entries in ([unlabelled], [labelled], [unlabelled, labelled]):
        assert render(entries, "json") == _stdlib_json(entries, 2)
        assert render(entries, "json", order=5) == _stdlib_json(entries, 5)


def test_render_empty_catalog():
    assert json.loads(render([], "json", order=4)) == {"order": 4, "entries": []}
    assert render([], "csv").startswith("model_id,")
    assert "0 model classes" in render([], "md", order=4)


def test_render_csv(catalog2):
    lines = render(catalog2, "csv").splitlines()
    assert len(lines) == 4
    assert lines[0].split(",")[:4] == ["model_id", "order", "dimension", "reducible"]
    assert any("binary-symmetric" in line for line in lines)


def test_render_markdown_includes_commutators(catalog4):
    new_entry = next(e for e in catalog4 if e.report.known_label == "New-4.1")
    text = render([new_entry], "md", order=4)
    assert "New-4.1" in text
    assert "[L1, L2] = L1 - L2" in text
    assert "[L1, L3] = 0" in text
    assert "- symmetry group: V4 (order 4)" in text


def test_render_markdown_bytes_pinned(catalog4):
    digest = hashlib.sha256(render(catalog4, "md").encode()).hexdigest()
    assert digest == "511295f62ab5f8e36cc8e47e0772367725fdd1ad53e6e7a373c69417ab6ceb46"


def test_pipeline_and_renderings_build_no_nested_generator(monkeypatch):
    tables = enumerate_semigroups(4)

    def nested(*args):
        raise AssertionError("nested generator matrix built")

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "unvectorize", nested)
        entries = run_pipeline(tables=tables)
        json_text = render(entries, "json")
        md_text = render(entries, "md")
    assert json_text == (ROOT / "tests" / "golden" / "catalog_k4.json").read_text()
    digest = hashlib.sha256(md_text.encode()).hexdigest()
    assert digest == "511295f62ab5f8e36cc8e47e0772367725fdd1ad53e6e7a373c69417ab6ceb46"
    for e in entries:
        sub = e.report.subspace
        assert sub.basis == tuple(linalg.unvectorize(row, 4) for row in sub.gen_rows)
    # one stored form, whatever number type the generators came in
    for g in (((-2, 1), (2, -1)), ((-1, 0.5), (1, -0.5))):
        spans = [
            subspace_from_generators(2, [[[convert(x) for x in row] for row in g]])
            for convert in (linalg.exact, Fraction, float)
        ]
        assert spans[0] == spans[1] == spans[2]
        assert hash(spans[0]) == hash(spans[1]) == hash(spans[2])


def test_render_markdown_closes_the_fence_of_an_entry_without_sources():
    # a library caller's entry with no source tables gets an empty, closed block
    entry = catalog.classify_model(subspace_from_generators(2, [((-1, 1), (1, -1))]), [], [])
    assert render([entry], "md") == "\n".join([
        "# Model catalog (k = 2)",
        "",
        "1 model classes.",
        "",
        "## b0b6aa4db5cfbffc — binary-symmetric",
        "",
        "- dimension: 1",
        "- reducible: False; absorbing states: none",
        "- symmetry group: Z2 (order 2): e, (1 2)",
        "- isomorphic variants: 1",
        "- Lie closed: True; matrix-algebra closed: True",
        "",
        "Generators:",
        "",
        "```",
        "L1 =",
        "  [ -1   1]",
        "  [  1  -1]",
        "```",
        "",
        "Source semigroups (0; 1-based Cayley tables):",
        "",
        "```",
        "",
        "```",
        "",
    ])


def test_render_unknown_format(catalog2):
    with pytest.raises(ValueError, match="unknown format"):
        render(catalog2, "yaml")


def test_pipeline_deterministic_bytes():
    a = render(run_pipeline(order=3), "json")
    b = render(run_pipeline(order=3), "json")
    assert a == b


def test_find_entry(catalog2):
    e = find_entry(catalog2, KNOWN_IDS["binary-symmetric"])
    assert e.report.known_label == "binary-symmetric"
    with pytest.raises(KeyError):
        find_entry(catalog2, "ffffffffffffffff")


# --- CLI ----------------------------------------------------------------------


def test_cli_enumerate_round_trip(capsys):
    assert cli.main(["enumerate", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert len(parse_tables(out)) == 5


def test_cli_enumerate_to_file(tmp_path):
    target = tmp_path / "tables.txt"
    assert cli.main(["enumerate", "--order", "3", "--out", str(target)]) == 0
    assert len(parse_tables(target.read_text())) == 24


def test_cli_derive_json(capsys):
    assert cli.main(["derive", "--order", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 2
    assert len(doc["entries"]) == 3


def test_cli_derive_from_tables_file(tmp_path, capsys):
    tables = enumerate_semigroups(2)
    path = tmp_path / "k2.txt"
    path.write_text(format_tables(tables))
    assert cli.main(["derive", "--tables", str(path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("model_id,")
    assert len(out.splitlines()) == 4


def test_cli_derive_bad_tables_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 1\n1 x\n")
    assert cli.main(["derive", "--tables", str(path)]) == 1
    assert "block 1, line 2" in capsys.readouterr().err


def test_cli_derive_missing_tables_file(tmp_path, capsys):
    path = tmp_path / "missing.txt"
    assert cli.main(["derive", "--tables", str(path)]) == 1
    assert capsys.readouterr().err == f"error: tables file not found: {path}\n"


def test_cli_construct_group_based_needs_one_table_block(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text("1 2\n2 1\n\n1 2\n2 1\n")
    assert cli.main(["construct", "group-based", "--table", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: group-based construction expects exactly one table block\n"


def test_cli_classify(capsys):
    assert cli.main(["classify", "--model-id", KNOWN_IDS["equal-input-3"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["known_label"] == "equal-input-3"
    assert doc["dimension"] == 3


def test_cli_classify_not_found(capsys):
    assert cli.main(["classify", "--model-id", "0000", "--order", "2"]) == 1
    assert "not found" in capsys.readouterr().err


def test_cli_classify_rejects_order_zero(capsys):
    # order 0 is an order, not "no order": it gets the pipeline's error
    argv = ["classify", "--model-id", KNOWN_IDS["binary-symmetric"], "--order", "0"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "orders 2..5, got 0" in err


@pytest.mark.parametrize(
    "argv", [["--order", "3", "--tables", "k2.txt"], ["--format", "md"]]
)
def test_cli_derive_needs_exactly_one_source(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["derive", *argv])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "--order" in err and "--tables" in err


def test_cli_missing_model_id_message_is_unquoted(capsys):
    assert cli.main(["verify-closure", "--order", "2", "--model-id", "nope"]) == 1
    assert capsys.readouterr().err == "error: no catalog entry with model id 'nope'\n"


def test_cli_verify_closure(capsys):
    rc = cli.main(
        [
            "verify-closure",
            "--order",
            "2",
            "--model-id",
            KNOWN_IDS["binary-symmetric"],
            "--trials",
            "20",
            "--tol",
            "1e-6",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    verdict, _, detail = out.partition("\n")
    assert verdict.startswith("PASS")
    report = json.loads(detail)
    assert report["status"] == "pass"
    assert report["numeric_trials"] == 20


def test_cli_construct_fixture(capsys):
    assert cli.main(["construct", "fixture", "--name", "SYM"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"][0]["dimension"] == 6
    assert doc["entries"][0]["known_label"] == "SYM"


def test_cli_construct_equivariant(capsys):
    rc = cli.main(
        [
            "construct",
            "equivariant",
            "--perms",
            "(1 2),(3 4),(1 2)(3 4),(1 3)(2 4),(1 4)(2 3),(1 3 2 4),(1 4 2 3),e",
            "--order",
            "4",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"][0]["known_label"] == "K2ST"


def test_cli_construct_equivariant_names_bad_cycle(capsys):
    rc = cli.main(["construct", "equivariant", "--perms", "(1 2) (3 4),e", "--order", "4"])
    assert rc == 1
    assert capsys.readouterr().err == "error: bad cycle notation: '(1 2) (3 4)'\n"


def test_cli_construct_equivariant_takes_commas_inside_cycles(capsys):
    perms = "(1,2)(3,4),(1,3)(2,4),(1,4)(2,3),e"
    assert cli.main(["construct", "equivariant", "--perms", perms, "--order", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"][0]["known_label"] == "K3ST"


def test_cli_construct_group_based(tmp_path, capsys):
    path = tmp_path / "v4.txt"
    path.write_text("1 2 3 4\n2 1 4 3\n3 4 1 2\n4 3 2 1\n")
    assert cli.main(["construct", "group-based", "--table", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"][0]["known_label"] == "K3ST"


def test_cli_construct_group_based_rejects_non_group(tmp_path, capsys):
    path = tmp_path / "not_group.txt"
    path.write_text("1 1\n1 1\n")
    assert cli.main(["construct", "group-based", "--table", str(path)]) == 1
    assert "not a permutation" in capsys.readouterr().err


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate"])  # missing --order
    assert exc.value.code == 1


def test_cli_invariant_violation_exit_code(monkeypatch, capsys):
    def boom(**kwargs):
        raise PipelineInvariantError("forced failure")

    monkeypatch.setattr(cli.cat, "run_pipeline", boom)
    assert cli.main(["derive", "--order", "2"]) == 2
    assert "invariant" in capsys.readouterr().err


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 5, "tolerance": 1e-5, "seed": 9}))
    rc = cli.main(
        [
            "--config",
            str(cfg),
            "verify-closure",
            "--order",
            "2",
            "--model-id",
            KNOWN_IDS["equal-input-2"],
        ]
    )
    assert rc == 0
    verdict, _, detail = capsys.readouterr().out.partition("\n")
    report = json.loads(detail)
    assert report["numeric_trials"] == 5
    assert report["tolerance"] == 1e-5


def test_cli_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolernce": 1e-5}))
    assert cli.main(["--config", str(cfg), "enumerate", "--order", "2"]) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"trials": "5"},
        7,
        [],
        {"seed": True},
        {"tolerance": "1e-6"},
        {"trials": 5.0},
        {"output_dir": 3},
    ],
)
def test_cli_config_rejects_wrong_shape(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    rc = cli.main(
        ["--config", str(cfg), "verify-closure", "--order", "2",
         "--model-id", KNOWN_IDS["equal-input-2"]]
    )
    assert rc == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: config") and out == ""


def test_cli_config_accepts_int_tolerance(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": 1, "trials": 3}))
    rc = cli.main(
        ["--config", str(cfg), "verify-closure", "--order", "2",
         "--model-id", KNOWN_IDS["equal-input-2"]]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out.partition("\n")[2])
    assert report["tolerance"] == 1 and report["numeric_trials"] == 3


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_cli_derive_trivial_only_tables_keeps_order(tmp_path, capsys, fmt):
    # a_i * a_j = a_j: both rate generators are zero, so no catalog entry
    path = tmp_path / "trivial.txt"
    path.write_text("1 2\n1 2\n")
    assert cli.main(["derive", "--tables", str(path), "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out) == {"order": 2, "entries": []}
    else:
        assert out.startswith("# Model catalog (k = 2)\n") and "None" not in out


def test_cli_output_dir_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    outdir = tmp_path / "results"
    cfg.write_text(json.dumps({"output_dir": str(outdir)}))
    rc = cli.main(
        ["--config", str(cfg), "enumerate", "--order", "2", "--out", "k2.txt"]
    )
    assert rc == 0
    assert (outdir / "k2.txt").exists()
