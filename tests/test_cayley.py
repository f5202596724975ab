import itertools
import random

import pytest
from matrix_helpers import conjugate

from liemarkov import linalg
from liemarkov.cayley import (
    CayleyFormatError,
    CayleyTable,
    MalformedTableError,
    anti_iso_census,
    apply_perm,
    canonical_form,
    enumerate_semigroups,
    format_tables,
    is_associative,
    make_table,
    parse_tables,
    relabel_gathers,
    reverse,
)

LEFT_ZERO_2 = make_table([[0, 0], [0, 0]])  # a*b = a_1 always
LEFT_CONST_2 = make_table([[0, 0], [1, 1]])  # a*b = a
RIGHT_CONST_2 = make_table([[0, 1], [0, 1]])  # a*b = b
C2 = make_table([[0, 1], [1, 0]])


def brute_force_associative(t: CayleyTable) -> bool:
    # independent oracle: literal definition over all triples
    k = t.order
    ok = True
    for a, b, c in itertools.product(range(k), repeat=3):
        ab = t.table[a][b]
        bc = t.table[b][c]
        ok = ok and (t.table[ab][c] == t.table[a][bc])
    return ok


def test_left_const_k4_is_associative():
    t = make_table([[i] * 4 for i in range(4)])
    assert is_associative(t)


def test_c2_is_associative():
    assert is_associative(C2)


def test_nonassociative_example():
    t = make_table([[1, 0], [0, 0]])
    assert not is_associative(t)
    assert not brute_force_associative(t)


def test_is_associative_matches_oracle_on_all_binary_tables():
    hits = 0
    for cells in itertools.product(range(2), repeat=4):
        t = make_table([[cells[0], cells[1]], [cells[2], cells[3]]])
        assert is_associative(t) == brute_force_associative(t)
        hits += is_associative(t)
    assert hits == 8  # associative binary operations on two elements


def test_out_of_range_entry_rejected():
    with pytest.raises(MalformedTableError):
        make_table([[0, 2], [0, 0]])
    with pytest.raises(MalformedTableError):
        make_table([[0, 0], [0]])


def test_empty_table_rejected():
    with pytest.raises(MalformedTableError, match="^order must be >= 1, got 0$"):
        make_table([])


def test_apply_perm_identity():
    assert apply_perm(C2, (0, 1)) == C2


def test_apply_perm_swap_on_left_zero():
    # relabeling the all-a1 table by (0 1) gives the all-a2 table
    assert apply_perm(LEFT_ZERO_2, (1, 0)) == make_table([[1, 1], [1, 1]])


def test_apply_perm_preserves_associativity():
    swapped = apply_perm(C2, (1, 0))
    assert is_associative(swapped)
    assert canonical_form(swapped) == canonical_form(C2)


def test_apply_perm_order_mismatch():
    with pytest.raises(MalformedTableError):
        apply_perm(C2, (0, 1, 2))


def test_apply_perm_rejects_non_permutation():
    # before the check this returned the all-zero table
    with pytest.raises(ValueError, match="not a permutation of range"):
        apply_perm(C2, (0, 0))


def reference_conjugate(a, perm):
    # reference: r[perm[i]][perm[j]] = a[i][j] cell by cell, without the gather
    k = len(a)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            out[perm[i]][perm[j]] = a[i][j]
    return tuple(tuple(r) for r in out)


def reference_apply_perm(t, p):
    # reference: r[p(i)][p(j)] = p(t[i][j]) cell by cell, without the gather
    k = t.order
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            out[p[i]][p[j]] = p[t.table[i][j]]
    return CayleyTable(k, tuple(tuple(row) for row in out))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_relabel_gathers_match_conjugate_and_apply_perm(k):
    gathers = relabel_gathers(k)
    assert [p for p, _ in gathers] == list(itertools.permutations(range(k)))
    assert gathers[0][1] == tuple(range(k * k))
    positions = linalg.unvectorize(range(k * k), k)
    rng = random.Random(k)
    t = make_table([[rng.randrange(k) for _ in range(k)] for _ in range(k)])
    flat = linalg.vectorize(t.table)
    for p, src in gathers:
        assert src == linalg.vectorize(reference_conjugate(positions, p))
        assert tuple(p[flat[s]] for s in src) == linalg.vectorize(
            reference_apply_perm(t, p).table
        )
        assert conjugate(t.table, p) == reference_conjugate(t.table, p)
        assert apply_perm(t, p) == reference_apply_perm(t, p)


def test_conjugate_accepts_list_perm():
    a = linalg.mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert conjugate(a, [1, 2, 0]) == conjugate(a, (1, 2, 0))
    assert conjugate(a, [1, 2, 0]) == reference_conjugate(a, (1, 2, 0))


def test_reverse_swaps_left_and_right_const():
    assert reverse(LEFT_CONST_2) == RIGHT_CONST_2
    assert reverse(RIGHT_CONST_2) == LEFT_CONST_2


def test_reverse_commutative_fixed_and_involution():
    assert reverse(C2) == C2  # commutative table is its own reverse
    for t in enumerate_semigroups(3):
        assert reverse(reverse(t)) == t
        assert is_associative(reverse(t))


def test_canonical_form_fixes_minimum():
    assert canonical_form(LEFT_ZERO_2) == LEFT_ZERO_2


def test_canonical_form_recovers_relabeled_copy():
    relabeled = apply_perm(LEFT_ZERO_2, (1, 0))
    assert canonical_form(relabeled) == LEFT_ZERO_2


def full_build_canonical_form(t: CayleyTable) -> CayleyTable:
    # reference: build all k! relabeled tables in full, keep the least
    k = t.order
    best = t.table
    for p in itertools.permutations(range(k)):
        inv = [0] * k
        for i, x in enumerate(p):
            inv[x] = i
        cand = tuple(tuple(p[t.table[a][b]] for b in inv) for a in inv)
        if cand < best:
            best = cand
    return CayleyTable(k, best)


def test_canonical_form_matches_full_build(semigroups4):
    rng = random.Random(77)
    tables = [t for k in (1, 2, 3) for t in enumerate_semigroups(k)] + semigroups4
    tables += [reverse(t) for t in tables]
    tables += [apply_perm(t, tuple(rng.sample(range(t.order), t.order))) for t in tables]
    # arbitrary, mostly non-associative tables too
    for k in (3, 4):
        tables += [
            make_table([[rng.randrange(k) for _ in range(k)] for _ in range(k)])
            for _ in range(100)
        ]
    assert len(tables) == 4 * 218 + 200
    for t in tables:
        assert canonical_form(t) == full_build_canonical_form(t)


def test_canonical_form_idempotent():
    for t in enumerate_semigroups(3):
        assert canonical_form(canonical_form(t)) == canonical_form(t)


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(20240901)
    tables = enumerate_semigroups(3)
    for _ in range(50):
        t = rng.choice(tables)
        p = list(range(3))
        rng.shuffle(p)
        q = list(range(3))
        rng.shuffle(q)
        assert canonical_form(apply_perm(t, tuple(p))) == canonical_form(
            apply_perm(t, tuple(q))
        )


def test_enumerate_counts_small():
    assert len(enumerate_semigroups(1)) == 1
    assert len(enumerate_semigroups(2)) == 5
    assert len(enumerate_semigroups(3)) == 24


def test_enumerate_count_order4(semigroups4):
    assert len(semigroups4) == 188


def test_enumerate_k2_tables_exactly():
    expected = [
        make_table([[0, 0], [0, 0]]),
        make_table([[0, 0], [0, 1]]),
        make_table([[0, 0], [1, 1]]),
        make_table([[0, 1], [0, 1]]),
        make_table([[0, 1], [1, 0]]),
    ]
    assert enumerate_semigroups(2) == expected


def test_enumerate_rejects_large_order():
    with pytest.raises(ValueError):
        enumerate_semigroups(7)
    with pytest.raises(ValueError):
        enumerate_semigroups(0)


def test_enumerated_tables_are_associative_canonical_sorted(semigroups4):
    for k, tables in ((3, enumerate_semigroups(3)), (4, semigroups4)):
        assert tables == sorted(tables, key=lambda t: t.table)
        for t in tables:
            assert t.order == k
            assert is_associative(t)
            assert canonical_form(t) == t


def reference_enumerate(k: int) -> list[CayleyTable]:
    # the enumerator before partial-table pruning: associativity pruning
    # only, and the canonicity filter applied to complete tables
    found = []
    cells = [(i, j) for i in range(k) for j in range(k)]
    m = [[-1] * k for _ in range(k)]
    occ = [[] for _ in range(k)]
    rng = range(k)

    def consistent(i, j):
        v = m[i][j]
        for c in rng:
            jc = m[j][c]
            if jc >= 0:
                left, right = m[v][c], m[i][jc]
                if left >= 0 and right >= 0 and left != right:
                    return False
        for a in rng:
            ai = m[a][i]
            if ai >= 0:
                left, right = m[ai][j], m[a][v]
                if left >= 0 and right >= 0 and left != right:
                    return False
        for (a, b) in occ[i]:
            bj = m[b][j]
            if bj >= 0 and m[a][bj] >= 0 and m[a][bj] != v:
                return False
        for (b, c) in occ[j]:
            ib = m[i][b]
            if ib >= 0 and m[ib][c] >= 0 and m[ib][c] != v:
                return False
        return True

    def fill(pos):
        if pos == len(cells):
            table = CayleyTable(k, tuple(tuple(row) for row in m))
            if full_build_canonical_form(table) == table:
                found.append(table)
            return
        i, j = cells[pos]
        for v in rng:
            m[i][j] = v
            occ[v].append((i, j))
            if consistent(i, j):
                fill(pos + 1)
            occ[v].pop()
        m[i][j] = -1

    fill(0)
    return sorted(found)


def test_pruned_enumeration_matches_complete_table_filter(semigroups4):
    for k in (1, 2, 3):
        assert enumerate_semigroups(k) == reference_enumerate(k)
    assert semigroups4 == reference_enumerate(4)


@pytest.mark.slow
def test_enumerate_order5_matches_oeis(semigroups5):
    tables = semigroups5
    assert len(tables) == 1915  # OEIS A027851
    assert tables == sorted(tables, key=lambda t: t.table)
    for t in tables:
        assert is_associative(t)
        assert canonical_form(t) == t
    # 405 self-dual classes + 755 reversal pairs = 1160, OEIS A001423
    assert anti_iso_census(tables) == (405, 755)


@pytest.mark.order6
def test_enumerate_order6_matches_oeis(semigroups6):
    tables = semigroups6
    assert len(tables) == 28634  # OEIS A027851
    assert all(a.table < b.table for a, b in zip(tables, tables[1:]))
    for t in tables:
        assert is_associative(t)
        assert canonical_form(t) == t
    # 3312 self-dual classes + 12661 reversal pairs = 15973, OEIS A001423
    assert anti_iso_census(tables) == (3312, 12661)


def test_anti_iso_census_k2():
    # the left/right constant tables form the unique reversal pair
    assert anti_iso_census(enumerate_semigroups(2)) == (3, 1)


def test_anti_iso_census_k3():
    assert anti_iso_census(enumerate_semigroups(3)) == (12, 6)


def test_anti_iso_census_k4(semigroups4):
    self_dual, pairs = anti_iso_census(semigroups4)
    assert self_dual + 2 * pairs == 188
    # computed split: 64 + 62 = 126 classes when reversal is also merged
    assert (self_dual, pairs) == (64, 62)


def test_anti_iso_census_rejects_partial_input(semigroups4):
    pair_member = next(
        t for t in semigroups4 if canonical_form(reverse(t)) != t
    )
    with pytest.raises(ValueError):
        anti_iso_census([pair_member])


def test_perm_helpers_cover_sn():
    assert len(set(itertools.permutations(range(4)))) == 24


# --- text format -----------------------------------------------------------


def test_format_parse_round_trip():
    tables = enumerate_semigroups(3)
    text = format_tables(tables, header="every order-3 semigroup")
    assert parse_tables(text) == tables


def test_parse_comments_and_blank_lines():
    text = "# comment\n\n1 1\n1 1\n\n\n# more\n1 2\n2 1\n"
    tables = parse_tables(text)
    assert tables == [LEFT_ZERO_2, C2]


def test_parse_errors_name_block_and_line():
    with pytest.raises(CayleyFormatError, match="block 1, line 2"):
        parse_tables("1 1\n1 x\n")
    with pytest.raises(CayleyFormatError, match="block 2, line 4"):
        parse_tables("1 1\n1 1\n\n1 1\n")  # second block: 1 row but 2 entries
    with pytest.raises(CayleyFormatError, match="entry 3 outside"):
        parse_tables("1 3\n1 1\n")
    with pytest.raises(CayleyFormatError, match="no table blocks"):
        parse_tables("# nothing here\n")
