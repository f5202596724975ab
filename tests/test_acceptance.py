"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from matrix_helpers import is_zero

from liemarkov import cli
from liemarkov.catalog import (
    PipelineInvariantError,
    known_subspaces,
    model_id,
    render,
    run_pipeline,
)
from liemarkov.cayley import canonical_form, enumerate_semigroups, make_table
from liemarkov.closure import (
    check_algebra_closed,
    check_lie_closed,
    expm,
    logm,
    verify_multiplicative_closure,
)
from liemarkov.constructors import (
    cyclic_group,
    equivariant_model,
    fixture,
    group_based_model,
    klein_group,
    symmetric_group_3,
)
from liemarkov import linalg
from liemarkov.closure import commutator
from liemarkov.modelgen import (
    absorbing_states,
    canonical_subspace,
    is_reducible,
    rate_basis,
)
from liemarkov.representation import regular_rep
from liemarkov.symmetry import parse_perm, symmetry_group, variant_count

GOLDEN = Path(__file__).parent / "golden" / "catalog_k4.json"

D4_STRINGS = [
    "e",
    "(1 2)",
    "(3 4)",
    "(1 2)(3 4)",
    "(1 3)(2 4)",
    "(1 4)(2 3)",
    "(1 3 2 4)",
    "(1 4 2 3)",
]


def transpose(a):
    return tuple(zip(*a))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS — {description}")


def interesting(entries):
    return [e for e in entries if not e.report.reducible and not e.report.absorbing]


def test_criterion_1_semigroup_counts():
    with criterion(1, "semigroup counts 1, 5, 24, 188 for orders 1..4"):
        assert len(enumerate_semigroups(1)) == 1
        assert len(enumerate_semigroups(2)) == 5
        assert len(enumerate_semigroups(3)) == 24
        start = time.monotonic()
        assert len(enumerate_semigroups(4)) == 188
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"order-4 enumeration took {elapsed:.1f}s"


def test_criterion_2_model_funnel(catalog4):
    with criterion(2, "order-4 funnel: 131 models, 4 interesting, labels match"):
        assert len(catalog4) == 131
        four = interesting(catalog4)
        assert len(four) == 4
        known = known_subspaces()
        fingerprints = {
            name: canonical_subspace(known[name])
            for name in ("F81", "K3ST", "Model-3.3b", "New-4.1")
        }
        got = {
            e.report.known_label: canonical_subspace(e.report.subspace)
            for e in four
        }
        assert got == fingerprints


def test_criterion_3_three_state_results(catalog3):
    with criterion(3, "order 3: 2 non-reducible models; absorbing example flagged"):
        non_reducible = [e for e in catalog3 if not e.report.reducible]
        assert {e.report.known_label for e in non_reducible} == {
            "equal-input-3",
            "C3-group-based",
        }
        sink = make_table([[0, 0, 2], [1, 1, 2], [2, 2, 2]])
        sub = rate_basis(regular_rep(sink))
        assert is_reducible(sub)
        assert absorbing_states(sub) == {2}  # state 3, 1-based
        g = symmetry_group(sub)
        assert set(g.elements) == {(0, 1, 2), (1, 0, 2)}  # {e, (12)}


def test_criterion_4_two_state_results(catalog2):
    with criterion(4, "order 2: five semigroups, four model outcomes"):
        tables = enumerate_semigroups(2)
        subs = [rate_basis(regular_rep(t)) for t in tables]
        assert subs[0].rref == subs[1].rref  # first two merge exactly
        assert subs[3].dim == 0  # right-constant table: trivial model
        assert len({s.rref for s in subs}) == 4
        merged = next(e for e in catalog2 if e.report.source_ids == (1, 2))
        assert merged.report.dimension == 1
        assert {e.report.known_label for e in catalog2} == {
            None,
            "equal-input-2",
            "binary-symmetric",
        }


def test_criterion_5_lie_closure_everywhere(catalog2, catalog3, catalog4, monkeypatch, capsys):
    with criterion(5, "Lie closure holds for every derived model; exit 2 on violation"):
        for entries in (catalog2, catalog3, catalog4):
            assert all(e.report.lie_closed for e in entries)
        for k in (2, 3):
            for t in enumerate_semigroups(k):
                assert check_lie_closed(rate_basis(regular_rep(t))).closed

        def violated(**kwargs):
            raise PipelineInvariantError("forced Lie-closure violation")

        monkeypatch.setattr(cli.cat, "run_pipeline", violated)
        assert cli.main(["derive", "--order", "4"]) == 2
        capsys.readouterr()


def test_criterion_6_counterexamples():
    with criterion(6, "SYM fails Lie closure; JJ3 fails only algebra closure"):
        sym_check = check_lie_closed(fixture("SYM").subspace)
        assert not sym_check.closed
        w = sym_check.witness.matrix
        assert transpose(w) == mat_scale(-1, w)
        assert not is_zero(w)

        jj3 = fixture("JJ3").subspace
        assert check_lie_closed(jj3).closed
        algebra = check_algebra_closed(jj3)
        assert not algebra.closed
        assert algebra.witness.matrix == ((0, -2, 0), (0, 3, -2), (0, -1, 2))
        assert (algebra.witness.i, algebra.witness.j) == (0, 1)


def test_criterion_7_symmetry_groups():
    with criterion(7, "symmetry groups: F81/S4, 3.3b/D4, new model/V4"):
        known = known_subspaces()
        expectations = {
            "F81": (24, 1),
            "Model-3.3b": (8, 3),
            "New-4.1": (4, 6),
        }
        for name, (order, variants) in expectations.items():
            g = symmetry_group(known[name])
            assert len(g) == order, name
            assert variant_count(g) == variants, name
        assert symmetry_group(known["Model-3.3b"]).name == "D4"
        assert symmetry_group(known["New-4.1"]).name == "V4"


def test_criterion_8_constructor_cross_checks():
    with criterion(8, "constructors agree with the semigroup pipeline"):
        known = known_subspaces()
        assert group_based_model(cyclic_group(2)).rref == known["binary-symmetric"].rref
        assert group_based_model(klein_group()).rref == known["K3ST"].rref

        s3 = symmetric_group_3()
        sub3 = group_based_model(s3)
        assert sub3.dim == 5
        ident = linalg.identity(6)
        ls = [linalg.mat_sub(km, ident) for km in regular_rep(s3.table).matrices]
        e = s3.identity()
        pairs = [(x, y) for x in range(6) for y in range(6) if x != e and y != e]
        assert len(pairs) == 25
        for x, y in pairs:
            xy, yx = s3.table.table[x][y], s3.table.table[y][x]
            assert commutator(ls[x], ls[y]) == linalg.mat_sub(ls[xy], ls[yx])

        d4 = [parse_perm(s, 4) for s in D4_STRINGS]
        k2st = equivariant_model(d4, 4)
        assert k2st.dim == 2
        assert k2st.rref == known["K2ST"].rref

        # each group's model id against the id that the enumeration pipeline
        # gives the catalog entry whose sources hold the group's table
        for g in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_group()):
            k = g.table.order
            table = canonical_form(g.table)
            (entry,) = [e for e in run_pipeline(order=k) if table in e.report.provenance]
            assert model_id(k, canonical_subspace(group_based_model(g))) == entry.model_id


def test_criterion_9_numeric_closure():
    with criterion(9, "sampled multiplicative closure: passes and the SYM failure"):
        known = known_subspaces()
        closed = ["F81", "K3ST", "Model-3.3b", "New-4.1", "equal-input-2", "equal-input-3"]
        for name in closed:
            report = verify_multiplicative_closure(
                known[name], trials=100, tol=1e-6, seed=2024
            )
            assert report.status == "pass", (name, report.max_residual)
        report = verify_multiplicative_closure(
            fixture("SYM").subspace, trials=100, tol=1e-6, seed=2024
        )
        assert report.status == "fail"
        assert report.max_residual > 1e-3


def test_criterion_10_numeric_round_trips():
    with criterion(10, "1000 expm/logm round trips to 1e-8; stochastic columns to 1e-12"):
        rng = np.random.default_rng(20240815)
        worst_rt = 0.0
        worst_col = 0.0
        for _ in range(1000):
            k = int(rng.integers(2, 5))
            q = rng.random((k, k))
            np.fill_diagonal(q, 0.0)
            q -= np.diag(q.sum(axis=0))
            t = float(rng.random())
            m = expm(q, t)
            worst_col = max(worst_col, float(np.abs(m.sum(axis=0) - 1.0).max()))
            worst_rt = max(worst_rt, float(np.abs(logm(m) - q * t).max()))
        assert worst_rt < 1e-8, worst_rt
        assert worst_col < 1e-12, worst_col


def test_criterion_11_determinism():
    with criterion(11, "two full order-4 runs render byte-identical JSON"):
        first = render(run_pipeline(order=4), "json")
        second = render(run_pipeline(order=4), "json")
        assert first == second
        assert first == GOLDEN.read_text()


def test_golden_catalog_spot_values():
    doc = json.loads(GOLDEN.read_text())
    assert doc["order"] == 4
    assert len(doc["entries"]) == 131
    labels = [e["known_label"] for e in doc["entries"] if e["known_label"]]
    assert sorted(labels) == ["F81", "K3ST", "Model-3.3b", "New-4.1"]
    assert sum(len(e["sources"]) for e in doc["entries"]) == 187  # one trivial source excluded
