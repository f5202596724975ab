import itertools
import random
from fractions import Fraction

import pytest
from matrix_helpers import conjugate, has_nonneg_offdiag, has_zero_column_sums, is_zero

from liemarkov import linalg
from liemarkov.cayley import make_table
from liemarkov.closure import (
    check_algebra_closed,
    check_lie_closed,
    commutator,
)
from liemarkov.constructors import (
    GroupSpec,
    NotAGroupError,
    abelian_rate_pattern,
    cyclic_group,
    equivariant_model,
    fixture,
    group_based_model,
    group_spec,
    klein_group,
    symmetric_group_3,
)
from liemarkov.modelgen import contains, rate_basis, subspace_from_generators
from liemarkov.representation import regular_rep
from liemarkov.symmetry import parse_perm

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


def pattern_subspace(k, patterns):
    """Span of 0/1 indicator rate matrices given by off-diagonal cell sets."""
    gens = []
    for cells in patterns:
        a = [[0] * k for _ in range(k)]
        for (i, j) in cells:
            a[i][j] = 1
        for c in range(k):
            a[c][c] = -sum(a[r][c] for r in range(k) if r != c)
        gens.append(linalg.mat(a))
    return subspace_from_generators(k, gens)


K3ST_PATTERNS = [
    {(0, 1), (1, 0), (2, 3), (3, 2)},
    {(0, 2), (2, 0), (1, 3), (3, 1)},
    {(0, 3), (3, 0), (1, 2), (2, 1)},
]

K2ST_PATTERNS = [
    {(0, 1), (1, 0), (2, 3), (3, 2)},
    {(0, 2), (2, 0), (1, 3), (3, 1), (0, 3), (3, 0), (1, 2), (2, 1)},
]


# --- group validation ---------------------------------------------------------


def test_group_spec_rejects_nonassociative():
    with pytest.raises(NotAGroupError, match="associative"):
        group_spec([[1, 0], [0, 0]])


def test_group_spec_rejects_non_latin_square():
    with pytest.raises(NotAGroupError, match="not a permutation"):
        group_spec([[0, 0], [1, 1]])
    # right zero, x * y = y: associative, every row is a permutation, no column is
    with pytest.raises(NotAGroupError, match="^column 1 is not a permutation of the elements$"):
        group_spec([[0, 1], [0, 1]])


def test_group_spec_methods_refuse_tables_that_are_no_group():
    with pytest.raises(NotAGroupError, match="^no identity element$"):
        GroupSpec(make_table([[0, 1], [0, 1]])).identity()
    # 0 is the identity, and 1 * y is 1 for every y
    with pytest.raises(NotAGroupError, match="^element 1 has no inverse$"):
        GroupSpec(make_table([[0, 1], [1, 1]])).inverse(1)


def test_group_spec_rejects_semigroup_without_identity():
    # Latin-square requirement already fails for any associative non-group
    # of order 2; use a 3-element example with a defective column
    with pytest.raises(NotAGroupError):
        group_spec([[0, 0, 2], [1, 1, 2], [2, 2, 2]])


def test_builtin_groups_are_valid():
    for g in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_group(), symmetric_group_3()):
        assert g.table.table[g.identity()] == tuple(range(g.order))
    assert cyclic_group(3).is_abelian()
    assert klein_group().is_abelian()
    assert not symmetric_group_3().is_abelian()


def test_regular_perm_matrices_satisfy_product_rule():
    g = symmetric_group_3()
    mats = regular_rep(g.table).matrices
    for x in range(6):
        for y in range(6):
            assert linalg.mat_mul(mats[x], mats[y]) == mats[g.table.table[x][y]]


# --- group-based models ---------------------------------------------------------


def test_c2_gives_binary_symmetric():
    sub = group_based_model(cyclic_group(2))
    assert sub.dim == 1
    assert sub.basis == (((-1, 1), (1, -1)),)


def test_v4_gives_k3st():
    sub = group_based_model(klein_group())
    assert sub.dim == 3
    assert sub.rref == pattern_subspace(4, K3ST_PATTERNS).rref


def test_s3_model_dimension_and_brackets():
    g = symmetric_group_3()
    sub = group_based_model(g)
    assert sub.dim == 5
    ident = linalg.identity(6)
    mats = regular_rep(g.table).matrices
    ls = [linalg.mat_sub(km, ident) for km in mats]
    e = g.identity()
    pairs = [(x, y) for x in range(6) for y in range(6) if x != e and y != e]
    assert len(pairs) == 25
    for x, y in pairs:
        xy = g.table.table[x][y]
        yx = g.table.table[y][x]
        assert commutator(ls[x], ls[y]) == linalg.mat_sub(ls[xy], ls[yx])


def test_group_based_dimension_is_order_minus_one():
    for g in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_group(), symmetric_group_3()):
        assert group_based_model(g).dim == g.order - 1


def test_group_based_matches_semigroup_pipeline():
    for g in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_group(), symmetric_group_3()):
        via_pipeline = rate_basis(regular_rep(g.table))
        assert group_based_model(g).rref == via_pipeline.rref


def test_group_based_models_are_matrix_algebras():
    for g in (cyclic_group(3), klein_group(), symmetric_group_3()):
        sub = group_based_model(g)
        assert check_lie_closed(sub).closed
        assert check_algebra_closed(sub).closed


# --- abelian rate patterns ------------------------------------------------------


def test_z3_rate_pattern_matches_displayed_form():
    alpha, beta = Fraction(5), Fraction(2)
    q = abelian_rate_pattern(cyclic_group(3), {1: beta, 2: alpha})
    assert q == (
        (-alpha - beta, alpha, beta),
        (beta, -alpha - beta, alpha),
        (alpha, beta, -alpha - beta),
    )


def test_zero_rates_give_zero_matrix():
    q = abelian_rate_pattern(klein_group(), lambda g: 0)
    assert is_zero(q)


def test_z2_rate_pattern_is_binary_symmetric():
    q = abelian_rate_pattern(cyclic_group(2), {1: Fraction(3)})
    assert q == ((-3, 3), (3, -3))


def test_rate_pattern_rejects_nonabelian():
    with pytest.raises(ValueError, match="abelian"):
        abelian_rate_pattern(symmetric_group_3(), lambda g: 1)


def test_rate_pattern_lies_in_group_model():
    rng = random.Random(31)
    for g in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_group()):
        sub = group_based_model(g)
        for _ in range(5):
            f = {x: Fraction(rng.randint(0, 9)) for x in range(g.order)}
            q = abelian_rate_pattern(g, f)
            assert contains(sub, q) is not None


# --- equivariant models ----------------------------------------------------------


def test_d4_equivariant_is_k2st():
    d4 = [parse_perm(s, 4) for s in D4_STRINGS]
    sub = equivariant_model(d4, 4)
    assert sub.dim == 2
    assert sub.rref == pattern_subspace(4, K2ST_PATTERNS).rref


def test_trivial_group_equivariant_is_general_model():
    sub = equivariant_model([(0, 1, 2, 3)], 4)
    assert sub.dim == 12


def test_full_s4_equivariant_is_one_dimensional():
    # fixed-point oracle: the orbit of any off-diagonal cell under all of
    # S4 is every off-diagonal cell, so a single uniform generator remains
    s4 = list(itertools.permutations(range(4)))
    sub = equivariant_model(s4, 4)
    assert sub.dim == 1
    uniform = pattern_subspace(4, [{(i, j) for i in range(4) for j in range(4) if i != j}])
    assert sub.rref == uniform.rref


def test_equivariant_rejects_non_closed_set():
    with pytest.raises(ValueError, match="not closed"):
        equivariant_model([(0, 1, 2, 3), parse_perm("(1 2 3 4)", 4)], 4)


def test_equivariant_rejects_permutations_of_another_length():
    with pytest.raises(ValueError, match="^permutations must act on 3 points$"):
        equivariant_model([(0, 1)], 3)


def test_equivariant_fixed_pointwise():
    d4 = [parse_perm(s, 4) for s in D4_STRINGS]
    sub = equivariant_model(d4, 4)
    for g in sub.basis:
        for p in d4:
            assert conjugate(g, p) == g


def test_equivariant_models_are_matrix_algebras():
    groups = [
        [parse_perm(s, 4) for s in D4_STRINGS],
        [(0, 1, 2, 3)],
        list(itertools.permutations(range(4))),
    ]
    for g in groups:
        sub = equivariant_model(g, 4)
        assert check_lie_closed(sub).closed
        assert check_algebra_closed(sub).closed


# --- fixtures ---------------------------------------------------------------------


def test_gm2_fixture():
    fix = fixture("GM2")
    assert fix.subspace.dim == 2
    assert fix.subspace.basis == (((-1, 0), (1, 0)), ((0, 1), (0, -1)))
    assert all(has_nonneg_offdiag(g) for g in fix.subspace.basis)


def test_jj3_fixture_bracket_identity():
    fix = fixture("JJ3")
    l1, l2 = fix.subspace.basis
    assert fix.subspace.dim == 2
    assert commutator(l1, l2) == linalg.mat_sub(l1, l2)
    for g in fix.subspace.basis:
        assert has_zero_column_sums(g)


def test_gm2_and_jj3_share_bracket_relation():
    # the same two-dimensional bracket structure on different state counts
    for name in ("GM2", "JJ3"):
        x, y = fixture(name).subspace.basis
        assert commutator(x, y) == linalg.mat_sub(x, y)


def test_sym_fixture():
    fix = fixture("SYM")
    assert fix.subspace.dim == 6
    assert all(has_nonneg_offdiag(g) for g in fix.subspace.basis)
    for g in fix.subspace.basis:
        assert transpose(g) == g


def test_fixture_unknown_name():
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture("HKY")


def test_fixture_case_insensitive():
    assert fixture("sym").name == "SYM"
