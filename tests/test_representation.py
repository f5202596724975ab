import pytest

from liemarkov.cayley import make_table
from liemarkov.constructors import cyclic_group, klein_group, symmetric_group_3
from liemarkov.linalg import identity, mat_mul
from liemarkov.representation import rate_rows, regular_rep, rep_is_injective


def check_homomorphism(r, t):
    """A_i A_j == A_{t[i][j]} entrywise for all pairs."""
    mats = r.matrices
    for i in range(t.order):
        for j in range(t.order):
            if mat_mul(mats[i], mats[j]) != mats[t.table[i][j]]:
                return False
    return True


ABSORB_2 = make_table([[0, 0], [0, 0]])
ABSORB_2_WITH_IDENTITY = make_table([[0, 0], [0, 1]])
LEFT_CONST_2 = make_table([[0, 0], [1, 1]])
RIGHT_CONST_4 = make_table([[j for j in range(4)] for _ in range(4)])


def test_noninjective_rep_of_constant_product():
    r = regular_rep(ABSORB_2)
    expected = ((1, 1), (0, 0))
    assert r.matrices == (expected, expected)
    assert not rep_is_injective(r)


def test_injective_rep_with_identity_element():
    r = regular_rep(ABSORB_2_WITH_IDENTITY)
    assert r.matrices[0] == ((1, 1), (0, 0))
    assert r.matrices[1] == identity(2)
    assert rep_is_injective(r)


def test_rep_keeps_its_table():
    r = regular_rep(ABSORB_2_WITH_IDENTITY)
    assert r.table is ABSORB_2_WITH_IDENTITY and r.order == 2
    # A_a - I row-major: A_0 = ((1, 1), (0, 0)) gives a +1 at (0, 1) and a -1 at
    # (1, 1); A_1, the identity, gives a zero row
    assert rate_rows(r.table) == [(0, 1, 0, -1), (0, 0, 0, 0)]


def test_left_const_k4_rep_has_constant_rows():
    t = make_table([[i] * 4 for i in range(4)])
    r = regular_rep(t)
    assert r.matrices[0] == ((1, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    for i, a in enumerate(r.matrices):
        for row_idx, row in enumerate(a):
            assert all(x == (1 if row_idx == i else 0) for x in row)


def test_right_const_rep_collapses_to_identity():
    r = regular_rep(RIGHT_CONST_4)
    assert all(a == identity(4) for a in r.matrices)
    assert not rep_is_injective(r)


def test_rejects_nonassociative_table():
    with pytest.raises(ValueError, match="not associative"):
        regular_rep(make_table([[1, 0], [0, 0]]))


def test_group_reps_are_injective():
    for g in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_group(), symmetric_group_3()):
        assert rep_is_injective(regular_rep(g.table))


def test_homomorphism_and_column_structure_all_orders(semigroups4):
    from liemarkov.cayley import enumerate_semigroups

    for tables in (enumerate_semigroups(2), enumerate_semigroups(3), semigroups4):
        for t in tables:
            r = regular_rep(t)
            assert check_homomorphism(r, t)
            for a in r.matrices:
                for col in zip(*a):
                    assert sum(col) == 1 and all(x in (0, 1) for x in col)
