import itertools
import random
import re

import pytest

from liemarkov import linalg
from liemarkov.catalog import known_subspaces
from liemarkov.cayley import compose, make_table
from liemarkov.constructors import group_based_model, symmetric_group_3
from liemarkov.modelgen import canonical_subspace, conjugate_subspace, rate_basis
from liemarkov.representation import regular_rep
from liemarkov.symmetry import (
    SymmetryGroup,
    cycle_string,
    is_closed_group,
    name_group_elements,
    parse_perm,
    perm_matrix,
    perm_order,
    symmetry_group,
    variant_count,
)

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

V4_PERMS = {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}


def test_perm_matrix_identity_and_swap():
    assert perm_matrix((0, 1)) == ((1, 0), (0, 1))
    assert perm_matrix((1, 0)) == ((0, 1), (1, 0))


def test_perm_matrix_product_rule():
    rng = random.Random(11)
    for _ in range(20):
        p = list(range(4))
        q = list(range(4))
        rng.shuffle(p)
        rng.shuffle(q)
        composed = tuple(p[q[x]] for x in range(4))
        assert perm_matrix(composed) == linalg.mat_mul(
            perm_matrix(tuple(p)), perm_matrix(tuple(q))
        )


def test_cycle_string_round_trip():
    for p in itertools.permutations(range(4)):
        assert parse_perm(cycle_string(p), 4) == p


def test_parse_perm_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_perm("(1 5)", 4)
    with pytest.raises(ValueError):
        parse_perm("(1 2)(2 3)", 4)
    with pytest.raises(ValueError):
        parse_perm("1 2", 4)
    # no spaced form between cycles; a token that is not an integer names the input
    for text in ("(1 2) (3 4)", "(1 x)", "(1 2.0)"):
        with pytest.raises(ValueError, match=re.escape(f"bad cycle notation: {text!r}")):
            parse_perm(text, 4)


def test_symmetry_group_equal_input_full():
    sub = rate_basis(regular_rep(make_table([[i] * 4 for i in range(4)])))
    g = symmetry_group(sub)
    assert len(g) == 24
    assert g.name == "S4"


def test_symmetry_group_twisted_k3st_is_dihedral():
    g = symmetry_group(known_subspaces()["Model-3.3b"])
    assert len(g) == 8
    assert g.name == "D4"
    assert set(g.elements) == {parse_perm(s, 4) for s in D4_STRINGS}


def test_symmetry_group_new_model_is_klein():
    g = symmetry_group(known_subspaces()["New-4.1"])
    assert len(g) == 4
    assert g.name == "V4"
    assert set(g.elements) == V4_PERMS


def test_is_closed_group_needs_the_identity():
    # a transposition alone is closed under inverses but lacks the identity
    assert not is_closed_group(((1, 0, 2),))


def test_symmetry_group_is_a_group(catalog3):
    for entry in catalog3:
        assert is_closed_group(entry.report.symmetry.elements)


def test_symmetry_fixes_canonical_key(catalog3):
    for entry in catalog3:
        sub = entry.report.subspace
        key = canonical_subspace(sub)
        for p in entry.report.symmetry.elements:
            conj = conjugate_subspace(sub, p)
            assert conj.rref == sub.rref  # symmetry preserves the span itself
            assert canonical_subspace(conj) == key


def test_variant_count():
    d4 = SymmetryGroup(4, tuple(sorted(parse_perm(s, 4) for s in D4_STRINGS)), "D4")
    assert variant_count(d4) == 3
    v4 = SymmetryGroup(4, tuple(sorted(V4_PERMS)), "V4")
    assert variant_count(v4) == 6
    s2 = SymmetryGroup(2, ((0, 1), (1, 0)), "Z2")
    assert variant_count(s2) == 1


def test_variant_count_times_group_order(catalog3, catalog4):
    import math

    for entries in (catalog3, catalog4):
        for e in entries:
            r = e.report
            assert r.variant_count * len(r.symmetry) == math.factorial(e.order)


# One generating set (1-based cycles) per subgroup type of S5, with the
# group order; Z2, V4 and S3 each come in two conjugacy classes.
S5_SUBGROUPS = [
    ("trivial", 1, []),
    ("Z2", 2, ["(1 2)"]),
    ("Z2", 2, ["(1 2)(3 4)"]),
    ("Z3", 3, ["(1 2 3)"]),
    ("V4", 4, ["(1 2)(3 4)", "(1 3)(2 4)"]),
    ("V4", 4, ["(1 2)", "(3 4)"]),
    ("Z4", 4, ["(1 2 3 4)"]),
    ("Z5", 5, ["(1 2 3 4 5)"]),
    ("S3", 6, ["(1 2 3)", "(1 2)"]),
    ("S3", 6, ["(1 2 3)", "(1 2)(4 5)"]),
    ("Z6", 6, ["(1 2 3)(4 5)"]),
    ("D4", 8, ["(1 2 3 4)", "(1 3)"]),
    ("D5", 10, ["(1 2 3 4 5)", "(2 5)(3 4)"]),
    ("A4", 12, ["(1 2 3)", "(1 2)(3 4)"]),
    ("D6", 12, ["(1 2 3)", "(1 2)", "(4 5)"]),
    ("F20", 20, ["(1 2 3 4 5)", "(1 2 4 3)"]),
    ("S4", 24, ["(1 2 3 4)", "(1 2)"]),
    ("A5", 60, ["(1 2 3)", "(1 2 3 4 5)"]),
    ("S5", 120, ["(1 2 3 4 5)", "(1 2)"]),
]


def _generated(k, cycles):
    gens = [parse_perm(c, k) for c in cycles]
    group = {tuple(range(k))}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = compose(g, x)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return tuple(sorted(group))


def test_name_group_cases():
    assert name_group_elements(3, ((0, 1, 2), (1, 0, 2))) == "Z2"
    assert name_group_elements(4, tuple(sorted(parse_perm(s, 4) for s in D4_STRINGS))) == "D4"
    s3 = tuple(sorted(itertools.permutations(range(3))))
    assert name_group_elements(3, s3) == "S3"
    z4 = tuple(sorted({parse_perm("(1 2 3 4)", 4), parse_perm("(1 3)(2 4)", 4),
                       parse_perm("(1 4 3 2)", 4), (0, 1, 2, 3)}))
    assert name_group_elements(4, z4) == "Z4"
    assert name_group_elements(4, tuple(sorted(V4_PERMS))) == "V4"
    assert name_group_elements(2, ((0, 1),)) == "trivial"
    a4 = tuple(sorted(p for p in itertools.permutations(range(4))
                      if _sign(p) == 1))
    assert name_group_elements(4, a4) == "A4"
    s4 = tuple(sorted(itertools.permutations(range(4))))
    assert name_group_elements(4, s4) == "S4"
    assert len({name for name, _, _ in S5_SUBGROUPS}) == 16
    for name, order, cycles in S5_SUBGROUPS:
        group = _generated(5, cycles)
        assert len(group) == order, cycles
        assert name_group_elements(5, group) == name, cycles
    # above k = 5 the key no longer tells the types apart (Z4 x Z2 in S6
    # has D4's key), so only groups of order at most 4 are named
    assert name_group_elements(6, _generated(6, ["(1 2)(3 4)", "(1 3)(2 4)"])) == "V4"
    z4_z2 = _generated(6, ["(1 2 3 4)", "(5 6)"])
    assert name_group_elements(6, z4_z2) == "order-8 subgroup"
    g = symmetry_group(group_based_model(symmetric_group_3()))
    assert g.name == "order-36 subgroup"


def _sign(p):
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return 1 if inversions % 2 == 0 else -1


def test_perm_order():
    assert perm_order((0, 1, 2, 3)) == 1
    assert perm_order(parse_perm("(1 2)", 4)) == 2
    assert perm_order(parse_perm("(1 2 3 4)", 4)) == 4
    assert perm_order(parse_perm("(1 2 3)", 4)) == 3


def test_name_group_on_symmetry_result():
    sub = rate_basis(regular_rep(make_table([[0, 0, 2], [1, 1, 2], [2, 2, 2]])))
    g = symmetry_group(sub)
    assert g.name == "Z2"
    assert set(g.elements) == {(0, 1, 2), (1, 0, 2)}
