import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from matrix_helpers import conjugate, has_nonneg_offdiag, has_zero_column_sums

from liemarkov import linalg


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


def reference_rref(rows, ncols=None):
    """Plain Fraction Gauss-Jordan elimination, pivoting in the first ncols columns.

    The oracle for linalg's integer elimination: the nonzero rows of the
    reduced matrix, in order.
    """
    # linalg.exact reads numpy scalars, which Fraction refuses
    work = [[Fraction(linalg.exact(x)) for x in row] for row in rows]
    ncols = len(work[0]) if ncols is None else ncols
    pivot_row = 0
    for col in range(ncols):
        found = next((r for r in range(pivot_row, len(work)) if work[r][col] != 0), None)
        if found is None:
            continue
        work[pivot_row], work[found] = work[found], work[pivot_row]
        inv = 1 / work[pivot_row][col]
        work[pivot_row] = [x * inv for x in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[pivot_row])]
        pivot_row += 1
    return tuple(tuple(row) for row in work[:pivot_row])


def is_integral(rows):
    return all(type(x) is int for row in rows for x in row)


def as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_canonical_for_row_space():
    rng = random.Random(1)
    for _ in range(30):
        rows = random_matrix(rng, 3, 6)
        base = linalg.rref(rows)
        # mixing rows by invertible operations leaves the rref unchanged
        mixed = [
            [3 * a + b for a, b in zip(rows[0], rows[1])],
            [a - 2 * c for a, c in zip(rows[0], rows[2])],
            rows[2],
        ]
        same_span = linalg.rref(list(rows) + mixed)
        assert linalg.rref(mixed + list(rows)) == same_span
        assert len(base) <= 3


def test_rref_pivots_normalized():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    result = linalg.rref(rows)
    assert result == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_rref_drops_zero_rows():
    rows = [[0, 0, 0], [1, 2, 3], [2, 4, 6]]
    assert linalg.rref(rows) == ((Fraction(1), Fraction(2), Fraction(3)),)


def test_rref_int_and_fraction_paths_agree():
    rng = random.Random(5)
    paths = {True: 0, False: 0}
    for _ in range(300):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        expected = reference_rref(rows)
        fast = linalg.rref(rows)
        assert fast == expected
        assert linalg.rref(as_fractions(rows)) == expected
        paths[is_integral(fast)] += 1
        aug = [row + [int(i == j) for j in range(nrows)] for i, row in enumerate(rows)]
        ref_aug = reference_rref(aug, ncols)
        basis, transform = linalg.rref_with_transform(rows)
        assert basis == tuple(r[:ncols] for r in ref_aug)
        assert transform == tuple(r[ncols:] for r in ref_aug)
        assert linalg.rref_with_transform(as_fractions(rows)) == (basis, transform)
    # results with only integral values and results holding fractions both occurred
    assert paths[True] > 20 and paths[False] > 20


def test_rref_entry_is_int_exactly_when_integral():
    # pivot 2 divides (2, 4) but not (2, 1): only the second result has a non-integral value
    divisible = linalg.rref([[2, 4], [1, 3]])
    assert divisible == ((1, 0), (0, 1)) and is_integral(divisible)
    mixed = linalg.rref([[0, 2, 1, 0], [3, 0, 0, 3]])
    assert mixed == ((1, 0, 0, 1), (0, 1, Fraction(1, 2), 0))
    assert [[type(x) for x in row] for row in mixed] == [
        [int, int, int, int], [int, int, Fraction, int]
    ]


def test_rref_output_type_does_not_follow_input_type():
    # bool is an int subclass and Fraction(2) equals 2, but neither is int
    for rows in ([[True, False], [False, True]], [[1, Fraction(2)], [0, 1]], [[2, 0], [0, 1.0]]):
        result = linalg.rref(rows)
        assert result == ((1, 0), (0, 1))
        assert is_integral(result)
    assert is_integral(linalg.rref([[2, 0], [0, 1]]))


def assert_int_exactly_when_integral(rows):
    for row in rows:
        for x in row:
            assert type(x) is (int if Fraction(x).denominator == 1 else Fraction), x


@pytest.mark.parametrize(
    "convert",
    [
        lambda x: x,
        Fraction,
        lambda x: Fraction(x, 4),
        float,
        lambda x: x / 8,
        lambda x: bool(x % 2),
        lambda x: np.float32(x / 8),
        lambda x: np.bool_(x % 2),
    ],
    ids=["int", "Fraction", "quarters", "float", "eighths", "bool", "float32 eighths", "numpy bool"],
)
def test_rref_type_contract_for_every_input_type(convert):
    # the output type follows the value, whatever type the input came in
    rng = random.Random(11)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[convert(rng.randint(-6, 6)) for _ in range(ncols)] for _ in range(nrows)]
        result = linalg.rref(rows)
        assert result == reference_rref(rows)
        assert_int_exactly_when_integral(result)
        basis, transform = linalg.rref_with_transform(rows)
        aug = [row + [int(i == j) for j in range(nrows)] for i, row in enumerate(rows)]
        ref_aug = reference_rref(aug, ncols)
        assert basis == tuple(r[:ncols] for r in ref_aug)
        assert transform == tuple(r[ncols:] for r in ref_aug)
        assert_int_exactly_when_integral(basis)
        assert_int_exactly_when_integral(transform)


def test_rref_dependent_rows_under_non_dividing_pivot():
    # pivot 2 does not divide 3: the second row is cleared by 2 x - 3 y, to zero
    assert linalg.rref([[2, 6], [3, 9]]) == ((1, 3),)
    basis, transform = linalg.rref_with_transform([[2, 6], [3, 9]])
    assert basis == ((1, 3),) and transform == ((Fraction(1, 2), 0),)
    assert linalg.rref([[4, 6, 2], [6, 9, 3], [0, 0, 5]]) == ((1, Fraction(3, 2), 0), (0, 0, 1))


def test_rref_dense_random_integer_matrices():
    rng = random.Random(17)
    for _ in range(20):
        rows = [[rng.choice([-9, -7, -4, -2, -1, 1, 3, 5, 6, 8]) for _ in range(15)] for _ in range(12)]
        result = linalg.rref(rows)
        assert result == reference_rref(rows) and len(result) == 12
        assert_int_exactly_when_integral(result)
    # a dependent stack: rank 6 under 12 rows, every row a combination of 6
    base = [[rng.randint(-9, 9) for _ in range(15)] for _ in range(6)]
    coeffs = [[rng.randint(-3, 3) for _ in base] for _ in range(6)]
    rows = base + [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(15)] for cs in coeffs]
    assert linalg.rref(rows) == reference_rref(rows) == linalg.rref(base)


def random_stack_at(rng, c0, ncols):
    """1..4 random integer rows, zero before column c0 and not all zero at it.

    Small entries of both signs, so pivots at c0 are often negative and
    often do not divide the entries they clear (the p x - f y step);
    a third of the stacks get a dependent row on top.
    """
    values = [-3, -2, -1, 0, 0, 1, 2, 3]
    rows = [[0] * c0 + [rng.choice(values) for _ in range(ncols - c0)] for _ in range(rng.randint(1, 4))]
    if all(row[c0] == 0 for row in rows):
        rng.choice(rows)[c0] = rng.choice([-2, -1, 1, 2])
    if rng.random() < 1 / 3:
        a, b = rng.choice([-2, -1, 1, 2]), rng.randint(-2, 2)
        rows.append([a * x + b * y for x, y in zip(rng.choice(rows), rng.choice(rows))])
    rng.shuffle(rows)
    return rows


def test_rref_integral_bound_cuts_exactly_the_greater_row0():
    # each stack against every rref of its first-pivot column, its own (the tie) included
    rng = random.Random(20)
    counts = {"cut": 0, "tie with another span": 0, "smaller": 0, "negative pivot": 0}
    for c0 in range(3):
        stacks = [random_stack_at(rng, c0, 6) for _ in range(40)]
        refs = [reference_rref(rows) for rows in stacks]
        for rows, ref in zip(stacks, refs):
            counts["negative pivot"] += next(row[c0] for row in rows if row[c0]) < 0
            for other in refs:
                bound = (linalg.integral_rows(other[:1])[0], c0)
                result = linalg.rref_integral(rows, bound)
                if ref[0] > other[0]:
                    assert result is None
                    counts["cut"] += 1
                else:
                    assert result == ref
                    assert_int_exactly_when_integral(result)
                    counts["tie with another span"] += ref[0] == other[0] and ref != other
                    counts["smaller"] += ref[0] < other[0]
    assert all(n > 20 for n in counts.values()), counts


def test_rref_integral_bound_under_negative_and_non_dividing_pivots():
    # row 0 keeps its pivot -2 through column 2, where its entry 1 stands for -1/2
    rows = [[0, -2, 1, 0], [0, 0, 0, 3]]
    ref = reference_rref(rows)
    assert ref[0] == (0, 1, Fraction(-1, 2), 0)
    assert linalg.rref_integral(rows, ((0, 1, 0, 0), 1)) == ref
    assert linalg.rref_integral(rows, ((0, 2, -1, 0), 1)) == ref
    assert linalg.rref_integral(rows, ((0, 1, -1, 0), 1)) is None
    # -2 does not divide the 3 below it; the rank is full at column 2 and column 3 decides
    rows = [[0, -2, 1, 4], [0, 3, 1, 0]]
    ref = reference_rref(rows)
    assert ref[0] == (0, 1, 0, Fraction(-4, 5))
    assert linalg.rref_integral(rows, ((0, 5, 0, -4), 1)) == ref
    assert linalg.rref_integral(rows, ((0, 5, 0, -5), 1)) is None


def test_integral_rows_scales_only_the_rows_that_need_it():
    ints = [[1, 0, -2], [0, 3, 1]]
    assert linalg.integral_rows(ints) is ints
    mixed = [(0, 2, -1), [Fraction(1, 2), 0, Fraction(-1, 3)], [4, 6, 0], [True, 2, 0]]
    scaled = linalg.integral_rows(mixed)
    # the all-int rows come back as the same objects
    assert scaled[0] is mixed[0] and scaled[2] is mixed[2]
    assert scaled[1] == [3, 0, -2] and scaled[3] == [1, 2, 0]
    assert all(type(x) is int for row in scaled for x in row)
    assert linalg.rref(mixed) == reference_rref(mixed)


def test_rref_with_transform_reconstructs():
    rng = random.Random(3)
    for _ in range(20):
        rows = [tuple(r) for r in random_matrix(rng, 4, 6)]
        basis, transform = linalg.rref_with_transform(rows)
        assert len(basis) == len(transform)
        for b_row, t_row in zip(basis, transform):
            rebuilt = [
                sum(t * rows[i][j] for i, t in enumerate(t_row)) for j in range(6)
            ]
            assert tuple(rebuilt) == b_row
        assert basis == linalg.rref(rows)


def test_conjugate_moves_entries():
    a = linalg.mat([[1, 2], [3, 4]])
    swapped = conjugate(a, (1, 0))
    assert swapped == ((4, 3), (2, 1))
    assert conjugate(swapped, (1, 0)) == a


@pytest.mark.parametrize("perm", [(0, 0), (1, 1), (0, 2), (-1, 0)])
def test_relabel_gather_rejects_non_permutations(perm):
    with pytest.raises(ValueError, match="not a permutation of range"):
        linalg.relabel_gather(perm)
    # before the check, conjugate(a, (0, 0)) returned ((4, 3), (2, 1))
    with pytest.raises(ValueError, match="not a permutation of range"):
        conjugate(((1, 2), (3, 4)), perm)


def test_conjugate_rejects_wrong_length_perm():
    with pytest.raises(ValueError, match="permutation on 3 points"):
        conjugate(((1, 2), (3, 4)), (0, 1, 2))
    with pytest.raises(ValueError, match="permutation on 2 points"):
        conjugate(((1, 2, 3), (4, 5, 6), (7, 8, 9)), (1, 0))


def test_vectorize_round_trip():
    a = linalg.mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert linalg.unvectorize(linalg.vectorize(a), 3) == a


def test_column_sum_predicates():
    q = linalg.mat([[-2, 1], [2, -1]])
    assert has_zero_column_sums(q)
    assert has_nonneg_offdiag(q)
    assert not has_zero_column_sums(linalg.mat([[1, 0], [0, 0]]))
    assert not has_nonneg_offdiag(linalg.mat([[0, -1], [0, 1]]))


def test_mat_mul_against_identity():
    a = linalg.mat([[1, 2], [3, 4]])
    assert linalg.mat_mul(a, linalg.identity(2)) == a
    assert linalg.mat_mul(linalg.identity(2), a) == a


def warshall_reach(pattern):
    """Warshall's transitive closure of the off-diagonal True entries of ``pattern``.

    The oracle for linalg.reach: entry (i, j) is True iff a path of one
    or more edges runs i -> j, so (i, i) is True iff i lies on a cycle.
    """
    k = len(pattern)
    reach = [[i != j and bool(pattern[i][j]) for j in range(k)] for i in range(k)]
    for mid in range(k):
        for a in range(k):
            if reach[a][mid]:
                ra = reach[a]
                rm = reach[mid]
                for b in range(k):
                    if rm[b]:
                        ra[b] = True
    return reach


@pytest.mark.parametrize("k, count", [(1, 1), (2, 4), (3, 64), (4, 4096)])
def test_reach_matches_warshall_on_every_pattern(k, count):
    cells = [(i, j) for i in range(k) for j in range(k) if i != j]
    patterns = list(itertools.product((0, 1), repeat=len(cells)))
    assert len(patterns) == count
    stack = np.zeros((count, k, k), dtype=int)
    for m, bits in enumerate(patterns):
        for (i, j), bit in zip(cells, bits):
            stack[m, i, j] = bit
    # a diagonal entry is no edge
    stack[:, range(k), range(k)] = -1
    got = linalg.reach(stack)
    assert got.dtype == bool and got.shape == stack.shape
    for m in range(count):
        assert got[m].tolist() == warshall_reach(stack[m].tolist())
