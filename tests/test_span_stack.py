"""The stacked exact kernel (modelgen.SpanStack) against a per-span Fraction reference.

One mixed list of spans goes through ``span_stacks`` in blocks, and every
fact the stack gives (closure verdicts and witnesses, bracket
coefficients, support, absorbing states, reducibility) is compared with
a reference built here from ``linalg.mat_mul`` and ``contains``, one pair
and one span at a time, in exact arithmetic.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from liemarkov import linalg
from liemarkov.catalog import _commutator_tables, commutator_table, known_subspaces, new_model_table
from liemarkov.cayley import make_table
from liemarkov.closure import ClosureCheck, ClosureWitness, exact_checks
from liemarkov.constructors import fixture
from liemarkov.modelgen import (
    STACK_BLOCK,
    ModelSubspace,
    SpanStack,
    absorbing_states,
    contains,
    generic_support,
    is_reducible,
    model_orbit,
    rate_basis,
    span_stacks,
    subspace_from_generators,
)
from liemarkov.representation import regular_rep

ROOT = Path(__file__).resolve().parent.parent
BIG = 2**40

# the one order-5 semigroup whose span has a non-integral rref (entries +-1/2)
HALVES_TABLE = [[0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 2, 0, 2], [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]]


def golden_spans():
    doc = json.loads((ROOT / "tests" / "golden" / "catalog_k4.json").read_text())
    return [
        subspace_from_generators(
            4, [[[Fraction(x) for x in row] for row in g] for g in e["generators"]]
        )
        for e in doc["entries"]
    ]


def scaled(m, factors):
    return subspace_from_generators(
        m.order, [[[c * x for x in row] for row in g] for c, g in zip(factors, m.basis)]
    )


def mixed_spans():
    """Spans of orders 2..5, of every generator count and rank, in runs and blocks.

    The first order-4 run (golden spans and fixtures) crosses a block
    boundary; the spans near 2**40 form a run of their own, whose block
    must be ``object``.
    """
    known = known_subspaces()
    sym = fixture("SYM").subspace
    new41 = rate_basis(regular_rep(new_model_table()))
    run4 = golden_spans() + [
        sym,
        known["K2ST"],  # its rref holds fractions
        scaled(sym, [Fraction(1, 2)] * 6),  # Fraction generators
        # Fraction generators and brackets, whose coefficients are Fractions
        scaled(new41, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]),
        subspace_from_generators(4, sym.basis[:2]),
        subspace_from_generators(4, []),  # the zero span
    ]
    big = [
        scaled(new41, [BIG + 1, BIG + 3, BIG + 5, BIG + 7]),
        scaled(sym, [BIG] * 6),
    ]
    halves = rate_basis(regular_rep(make_table(HALVES_TABLE)))
    return (
        run4
        + [fixture("JJ3").subspace, fixture("GM2").subspace]
        + big
        + [halves, known["equal-input-5"], known["C5-group-based"]]
    )


def ref_algebra(m):
    gens = m.basis
    n = len(gens)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    pairs += [(i, i) for i in range(n)]
    for i, j in pairs:
        prod = linalg.mat_mul(gens[i], gens[j])
        if contains(m, prod) is None:
            return ClosureCheck(False, ClosureWitness(i, j, prod))
    return ClosureCheck(True, None)


def ref_bracket(m, i, j):
    g = m.basis
    return linalg.mat_sub(linalg.mat_mul(g[i], g[j]), linalg.mat_mul(g[j], g[i]))


def ref_lie(m):
    n = len(m.basis)
    for i in range(n):
        for j in range(i + 1, n):
            br = ref_bracket(m, i, j)
            if contains(m, br) is None:
                return ClosureCheck(False, ClosureWitness(i, j, br))
    return ClosureCheck(True, None)


def ref_commutator_table(m):
    """Coordinates over the rref from ``contains``, mapped onto the generators."""
    n = len(m.basis)
    _, transform = linalg.rref_with_transform([linalg.vectorize(g) for g in m.basis])
    table = []
    for i in range(n):
        for j in range(i + 1, n):
            coords = contains(m, ref_bracket(m, i, j))
            coeffs = [sum(c * t[g] for c, t in zip(coords, transform)) for g in range(n)]
            table.append((i, j, tuple(map(linalg.exact, coeffs))))
    return table


def ref_support(m):
    k = m.order
    return tuple(
        tuple(i != j and any(g[i][j] > 0 for g in m.basis) for j in range(k)) for i in range(k)
    )


def ref_reducible(sup):
    """Not strongly connected: Warshall's closure of the edges, in Python."""
    k = len(sup)
    r = [list(row) for row in sup]
    for t in range(k):
        for i in range(k):
            if r[i][t]:
                for j in range(k):
                    r[i][j] = r[i][j] or r[t][j]
    return not all(r[i][j] for i in range(k) for j in range(k) if i != j)


@pytest.fixture(scope="module")
def spans():
    return mixed_spans()


def test_mixed_spans_cover_the_cases(spans):
    stacks = list(span_stacks(spans))
    # 131 golden spans and 6 more at order 4, then runs of orders 3, 2, 4 and 5
    assert STACK_BLOCK < 137
    assert [len(s.spans) for s in stacks] == [STACK_BLOCK, 137 - STACK_BLOCK, 1, 1, 2, 3]
    assert [s.spans[0].order for s in stacks] == [4, 4, 3, 2, 4, 5]
    assert [s.gens.dtype for s in stacks] == [np.int64] * 4 + [object, np.int64]
    assert {(len(m.basis), m.dim) for m in spans} >= {(4, 3), (3, 2), (6, 6), (0, 0), (1, 1)}
    halves = stacks[-1].spans[0]
    fractions = {x for row in halves.rref for x in row if type(x) is Fraction}
    assert fractions == {Fraction(1, 2), Fraction(-1, 2)}


def test_stacked_checks_match_reference(spans):
    failures = []
    got = [c for stack in span_stacks(spans) for c in exact_checks(stack)]
    assert len(got) == len(spans)
    for m, (algebra, lie) in zip(spans, got):
        want_algebra, want_lie = ref_algebra(m), ref_lie(m)
        # repr compares entry types too: int stays int, Fraction stays Fraction
        assert repr(algebra) == repr(want_algebra)
        assert repr(lie) == repr(want_lie)
        failures.append((algebra.closed, lie.closed))
    for stack in span_stacks(spans):
        assert exact_checks(stack) == [(ref_algebra(m), ref_lie(m)) for m in stack.spans]
    # SYM, its halving, its 2**40 multiple and its two-generator subspan fail
    # both checks; JJ3 fails only the algebra check
    assert failures.count((False, False)) == 4
    assert failures.count((False, True)) == 1


def test_stacked_brackets_match_reference(spans):
    closed = [m for m in spans if ref_lie(m).closed]
    assert len(closed) == len(spans) - 4
    tables = [t for stack in span_stacks(closed) for t in _commutator_tables(stack)]
    nonzero = 0
    for m, table in zip(closed, tables):
        assert repr(table) == repr(ref_commutator_table(m)) == repr(commutator_table(m))
        for i, j, coeffs in table:
            # linalg.exact's rule, and the combination rebuilds the bracket
            assert all(type(c) is int or c.denominator > 1 for c in coeffs)
            rebuilt = [
                [sum(c * g[r][s] for c, g in zip(coeffs, m.basis)) for s in range(m.order)]
                for r in range(m.order)
            ]
            assert linalg.mat(rebuilt) == ref_bracket(m, i, j)
            nonzero += any(coeffs)
    assert nonzero > 0
    # Fraction coefficients from Fraction generators
    (thirds,) = [
        m for m in closed if any(type(x) is Fraction for g in m.basis for x in linalg.vectorize(g))
    ]
    assert any(type(c) is Fraction for _, _, cs in commutator_table(thirds) for c in cs)
    # coefficients near 2**40, from products near 2**80
    (big,) = [
        m for m in closed if any(abs(x) > 2**39 for g in m.basis for x in linalg.vectorize(g))
    ]
    assert max(abs(c) for _, _, cs in commutator_table(big) for c in cs) > 2**39


def test_stacked_support_matches_reference(spans):
    stacks = list(span_stacks(spans))
    support = [row for s in stacks for row in s.support.tolist()]
    absorbing = [row for s in stacks for row in s.absorbing().tolist()]
    reducible = [x for s in stacks for x in s.reducible().tolist()]
    for m, sup, absorb, red in zip(spans, support, absorbing, reducible, strict=True):
        want = ref_support(m)
        assert tuple(map(tuple, sup)) == want == generic_support(m)
        want_absorbing = {j for j in range(m.order) if not any(row[j] for row in want)}
        assert {j for j, a in enumerate(absorb) if a} == want_absorbing == absorbing_states(m)
        assert red is ref_reducible(want) is is_reducible(m)


def test_span_stack_rejects_empty_and_mixed_orders():
    with pytest.raises(ValueError, match="at least one span"):
        SpanStack([])
    with pytest.raises(ValueError, match="one order"):
        SpanStack([fixture("GM2").subspace, fixture("JJ3").subspace])


def test_span_stack_entries_beyond_int64_take_object():
    # an entry that int64 cannot hold fails the dtype bound as surely as one it can:
    # here an int generator entry, and one that the span's scaling to integers makes
    sym = fixture("SYM").subspace
    new41 = rate_basis(regular_rep(new_model_table()))
    huge = [scaled(sym, [2**64] * 6), scaled(new41, [Fraction(1, 2**64 + 1), 1, 1, 1])]
    for m in huge:
        stack = SpanStack([m])
        assert stack.gens.dtype == object
        assert exact_checks(stack) == [(ref_algebra(m), ref_lie(m))]
    assert repr(commutator_table(huge[1])) == repr(ref_commutator_table(huge[1]))


# --- the integral fact --------------------------------------------------------


def fact_spans():
    """Each kind of span for the ``integral`` fact, by name.

    The golden spans, SYM and the 2**64 span come from ``_span``; the
    halves span has int generators and a Fraction rref; the spans built
    directly hold an int, a ``Fraction(2)`` and a Fraction entry.
    """
    spans = {f"golden {i}": m for i, m in enumerate(golden_spans())}
    spans["SYM"] = fixture("SYM").subspace
    spans["halves"] = rate_basis(regular_rep(make_table(HALVES_TABLE)))
    spans["direct int"] = ModelSubspace(2, ((-1, 1, 1, -1),), ((1, -1, -1, 1),))
    spans["direct Fraction(2)"] = ModelSubspace(
        2, ((Fraction(-2), 2, 2, -2),), ((1, -1, -1, 1),)
    )
    spans["direct Fraction"] = ModelSubspace(
        2, ((Fraction(-1, 2), 1, Fraction(1, 2), -1),), ((1, -2, -1, 2),)
    )
    spans["2**64"] = scaled(fixture("SYM").subspace, [2**64] * 6)
    return spans


def test_spans_decide_their_integral_fact():
    spans = fact_spans()
    for name, m in spans.items():
        copy = dataclasses.replace(m)
        # the fact is derived from the rows, for a built, direct or copied span
        for span in (m, copy):
            assert span.integral is linalg.all_int(span.gen_rows + span.rref), name
        # and takes no part in equality, hashing or repr
        assert copy == m and hash(copy) == hash(m) and repr(copy) == repr(m)
        assert "integral" not in repr(m)
    assert all(spans[f"golden {i}"].integral for i in range(131))
    assert spans["SYM"].integral and spans["2**64"].integral
    assert spans["direct int"].integral
    assert not spans["direct Fraction(2)"].integral and not spans["direct Fraction"].integral
    assert not spans["halves"].integral and linalg.all_int(spans["halves"].gen_rows)
    # it is no constructor argument
    m = spans["direct Fraction"]
    with pytest.raises(TypeError):
        ModelSubspace(m.order, m.gen_rows, m.rref, True)
    with pytest.raises(TypeError):
        ModelSubspace(m.order, m.gen_rows, m.rref, integral=True)
    with pytest.raises(TypeError):
        dataclasses.replace(m, integral=True)


def test_integral_fact_is_decided_once_per_span(monkeypatch):
    m = fact_spans()["halves"]
    rows = m.gen_rows + m.rref
    calls = []
    all_int = linalg.all_int

    def recording(x):
        calls.append(x)
        return all_int(x)

    monkeypatch.setattr(linalg, "all_int", recording)
    SpanStack([m])
    model_orbit(m)
    SpanStack([m])
    assert calls.count(rows) == 1
    # a copy is a new span object, which decides the fact anew
    SpanStack([dataclasses.replace(m)])
    assert calls.count(rows) == 2


def assert_same_stack(a, b, name):
    for part in ("gens", "rref", "scale", "products", "residuals"):
        x, y = getattr(a, part), getattr(b, part)
        assert x.dtype == y.dtype, (name, part)
        assert np.array_equal(x, y), (name, part)
        assert [type(v) for v in x.flat] == [type(v) for v in y.flat], (name, part)


def test_span_stack_and_orbit_same_with_the_integral_fact_withheld():
    # a fresh copy has its fact withheld until its first use, and gives the
    # same stack and orbit as a span whose fact is already decided
    spans = fact_spans()
    for name, m in spans.items():
        assert m.integral is linalg.all_int(m.gen_rows + m.rref)
        fresh = dataclasses.replace(m)
        assert "integral" not in vars(fresh)
        assert_same_stack(SpanStack([m]), SpanStack([fresh]), name)
        assert model_orbit(m) == model_orbit(dataclasses.replace(m)), name
    assert SpanStack([spans["2**64"]]).gens.dtype == object
    # one stack of decided spans and fresh copies, in turn
    order4 = [n for n, m in spans.items() if m.order == 4 and n != "2**64"]
    mixed = [dataclasses.replace(spans[n]) if i % 2 else spans[n] for i, n in enumerate(order4)]
    copies = [dataclasses.replace(spans[n]) for n in order4]
    assert_same_stack(SpanStack(mixed), SpanStack(copies), "mixed")
