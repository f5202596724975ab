import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from matrix_helpers import conjugate, has_zero_column_sums, is_zero
from test_linalg import assert_int_exactly_when_integral, is_integral, random_matrix, reference_rref

from liemarkov import linalg, modelgen
from liemarkov.catalog import known_subspaces
from liemarkov.cayley import compose, make_table, relabel_gathers
from liemarkov.closure import commutator
from liemarkov.constructors import cyclic_group, fixture, group_based_model, symmetric_group_3
from liemarkov.modelgen import (
    ModelOrbit,
    ModelSubspace,
    absorbing_states,
    canonical_subspace,
    conjugate_subspace,
    contains,
    generic_support,
    is_reducible,
    model_orbit,
    rate_basis,
    subspace_from_generators,
)
from liemarkov.representation import regular_rep, rep_is_injective


def zeros(k):
    return tuple((0,) * k for _ in range(k))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


GOLDEN = Path(__file__).parent / "golden" / "catalog_k4.json"

EQUAL_INPUT_4 = make_table([[i] * 4 for i in range(4)])
RIGHT_CONST_4 = make_table([[j for j in range(4)] for _ in range(4)])
C3 = make_table([[(i + j) % 3 for j in range(3)] for i in range(3)])
# three-state semigroup with a sink element: a*b = a unless b is the sink
ABSORBING_3 = make_table([[0, 0, 2], [1, 1, 2], [2, 2, 2]])


def f81() -> ModelSubspace:
    return rate_basis(regular_rep(EQUAL_INPUT_4))


def test_equal_input_basis():
    sub = f81()
    assert sub.dim == 4
    assert len(sub.basis) == 4
    assert sub.basis[0] == (
        (0, 1, 1, 1),
        (0, -1, 0, 0),
        (0, 0, -1, 0),
        (0, 0, 0, -1),
    )
    for g in sub.basis:
        assert has_zero_column_sums(g)
        assert linalg.has_nonneg_offdiag(g)


def test_right_const_model_is_trivial():
    sub = rate_basis(regular_rep(RIGHT_CONST_4))
    assert sub.dim == 0
    assert sub.basis == ()
    assert sub.rref == ()


def test_c3_drops_identity_generator():
    sub = rate_basis(regular_rep(C3))
    assert sub.dim == 2
    assert len(sub.basis) == 2


def test_dim_bounded_by_order(semigroups4):
    for t in semigroups4:
        sub = rate_basis(regular_rep(t))
        assert sub.dim <= t.order


def test_generators_rejected_without_zero_column_sums():
    with pytest.raises(ValueError, match="column sums"):
        subspace_from_generators(2, [((1, 0), (0, 0))])


def test_rate_basis_checks_no_column_sums(monkeypatch):
    # rate_rows rows sum to zero by construction; only callers' generators are checked
    def no_sums(*args):
        raise AssertionError("column sums summed")

    expected = f81()
    monkeypatch.setattr(modelgen, "sum", no_sums, raising=False)
    assert rate_basis(regular_rep(EQUAL_INPUT_4)) == expected
    with pytest.raises(AssertionError, match="column sums summed"):
        subspace_from_generators(2, [((-1, 1), (1, -1))])


@pytest.mark.parametrize(
    "value",
    [float("inf"), float("-inf"), float("nan"), np.float64("nan"), np.float32("inf")],
    ids=repr,
)
def test_generators_rejected_with_non_finite_entries(value):
    with pytest.raises(ValueError) as err:
        subspace_from_generators(2, [((-1, 1), (1, -1)), ((value, 0), (0, 0))])
    assert str(err.value) == f"not a finite number: {value!r}"


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.longdouble])
def test_numpy_floats_of_every_width_are_stored_exactly(dtype):
    g = ((dtype(-0.5), dtype(1)), (dtype(0.5), dtype(-1)))
    assert subspace_from_generators(2, [g]).basis == (((Fraction(-1, 2), 1), (Fraction(1, 2), -1)),)


@pytest.mark.parametrize(
    "order, generator",
    [
        # a 4-entry rref for an order-3 model
        (3, ((-1, 1), (1, -1))),
        # 2 x 3: zero column sums, and is_reducible would answer silently
        (2, ((-1, 1, 0), (1, -1, 0))),
        # ragged rows
        (2, ((-1, 1), (1, -1, 0))),
    ],
)
def test_generators_rejected_unless_order_by_order(order, generator):
    with pytest.raises(ValueError, match=f"expected a {order} x {order} generator"):
        subspace_from_generators(order, [generator])
    # a zero generator is dropped, but only once its shape is right
    with pytest.raises(ValueError, match="order mismatch"):
        subspace_from_generators(order, [tuple((0,) * len(row) for row in generator)])


def test_contains_f81_commutator():
    sub = f81()
    r1, r2 = sub.basis[0], sub.basis[1]
    bracket = commutator(r1, r2)
    coeffs = contains(sub, bracket)
    assert coeffs is not None
    # reconstruct: bracket equals R1 - R2
    assert bracket == linalg.mat_sub(r1, r2)


def test_contains_zero_matrix():
    sub = f81()
    coeffs = contains(sub, zeros(4))
    assert coeffs == (Fraction(0),) * sub.dim
    trivial = rate_basis(regular_rep(RIGHT_CONST_4))
    assert contains(trivial, zeros(4)) == ()


def test_contains_rejects_outside_matrix():
    jj3 = fixture("JJ3").subspace
    l1, l2 = jj3.basis
    prod = linalg.mat_mul(l1, l2)
    assert prod == ((0, -2, 0), (0, 3, -2), (0, -1, 2))
    assert contains(jj3, prod) is None


def test_contains_exact_on_random_rational_combinations():
    rng = random.Random(7)
    sub = f81()
    for _ in range(25):
        coeffs = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in sub.basis
        ]
        x = zeros(4)
        for c, g in zip(coeffs, sub.basis):
            x = mat_add(x, mat_scale(c, g))
        sol = contains(sub, x)
        assert sol is not None
        rebuilt = zeros(4)
        for c, row in zip(sol, (linalg.unvectorize(r, 4) for r in sub.rref)):
            rebuilt = mat_add(rebuilt, mat_scale(c, row))
        assert rebuilt == x


def test_generator_index_drops_zeros_and_sends_repeats_to_the_first():
    rows = [(0, 0), (1, -1), (0, 0), (-1, 1), (1, -1), (Fraction(2), -2)]
    index = modelgen.generator_index(rows)
    assert list(index.items()) == [((1, -1), 0), ((-1, 1), 1), ((2, -2), 2)]
    assert [index.get(row) for row in rows] == [None, 0, None, 1, 0, 2]
    assert modelgen.generator_index([]) == {}


def test_contains_coordinates_int_path():
    # contains reads rows of any span: these rref rows need not be rate matrices
    rows = linalg.rref([[1, 0, 2, -1], [0, 1, -1, 3]])
    assert is_integral(rows)
    m = ModelSubspace(2, (), rows)
    coords = contains(m, ((2, -3), (7, -11)))
    assert coords == (2, -3) and all(type(c) is int for c in coords)
    assert contains(m, ((2, -3), (7, 0))) is None
    assert contains(m, ((Fraction(1, 2), 0), (1, Fraction(-1, 2)))) == (Fraction(1, 2), 0)


def test_contains_coordinates_of_a_rational_combination():
    rng = random.Random(2)
    rows = linalg.rref(random_matrix(rng, 3, 9))
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in rows]
    v = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(9)]
    assert contains(ModelSubspace(3, (), rows), linalg.unvectorize(v, 3)) == tuple(coeffs)


def test_contains_coordinates_reject_an_outsider():
    rows = linalg.rref([[1, 0, 0, 1], [0, 1, 0, -1]])
    assert contains(ModelSubspace(2, (), rows), ((0, 0), (1, 0))) is None


def test_contains_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch"):
        contains(f81(), zeros(3))


@pytest.mark.parametrize(
    "x",
    [[(0, 0, 0)] * 4, [(0,) * 4] * 3, [(0,) * 4, (0,) * 3, (0,) * 4, (0,) * 4], [(0,) * 5] * 4],
)
def test_contains_names_the_expected_shape(x):
    # not a numpy reshape or matmul error from inside the span kernel
    with pytest.raises(ValueError, match="expected a 4 x 4 matrix"):
        contains(f81(), x)


def test_contains_decides_float_entries_on_their_exact_values():
    m = subspace_from_generators(2, [((-3, 1), (3, -1))])
    x = ((-0.9, 0.3), (0.9, -0.3))
    # -0.9 is not exactly -3 times 0.3 in binary, so x is not a member
    assert contains(m, x) is None
    assert contains(m, [[Fraction(v) for v in row] for row in x]) is None
    decimal = [[Fraction(str(v)) for v in row] for row in x]
    assert contains(m, decimal) == (Fraction(-9, 10),)
    ints = contains(m, ((-6, 2), (6, -2)))
    assert ints == (-6,) and type(ints[0]) is int
    assert contains(m, ((-1.5, 0.5), (1.5, -0.5))) == (Fraction(-3, 2),)

    g = ((-3, 0, 0), (1, 0, 0), (2, 0, 0))
    m = subspace_from_generators(3, [g])
    answers = []
    for i in range(1, 200):
        x = [[0.1 * i * v for v in row] for row in g]
        got = contains(m, x)
        assert got == contains(m, [[Fraction(v) for v in row] for row in x])
        assert got is None or all(type(c) in (int, Fraction) for c in got)
        answers.append(got is not None)
    assert any(answers) and not all(answers)


@pytest.mark.parametrize(
    "entry, error",
    [("1", TypeError), (float("inf"), ValueError), (float("nan"), ValueError)],
    ids=repr,
)
def test_contains_refuses_strings_and_non_finite_entries(entry, error):
    with pytest.raises(error):
        contains(f81(), [[entry, 0, 0, 0]] + [[0] * 4] * 3)


def test_generic_support_full_for_equal_input():
    sup = generic_support(f81())
    for i in range(4):
        for j in range(4):
            assert sup[i][j] == (i != j)


def test_generic_support_absorbing_column():
    sub = rate_basis(regular_rep(ABSORBING_3))
    sup = generic_support(sub)
    assert all(not sup[i][2] for i in range(3))  # no exit from the sink
    assert absorbing_states(sub) == {2}
    assert is_reducible(sub)


def test_generic_support_trivial_model():
    sub = rate_basis(regular_rep(RIGHT_CONST_4))
    assert all(not x for row in generic_support(sub) for x in row)
    assert absorbing_states(sub) == {0, 1, 2, 3}
    assert is_reducible(sub)


def test_absorbing_state_of_constant_product_semigroup():
    sub = rate_basis(regular_rep(make_table([[0, 0], [0, 0]])))
    # rates only leave the second state; the first has no exit
    assert absorbing_states(sub) == {0}
    assert is_reducible(sub)


def test_order_one_span_is_not_reducible():
    sub = rate_basis(regular_rep(make_table([[0]])))
    assert sub.order == 1 and sub.dim == 0
    assert not is_reducible(sub)


def test_equal_input_not_reducible_not_absorbing():
    sub = f81()
    assert not is_reducible(sub)
    assert absorbing_states(sub) == set()


def test_canonical_subspace_invariant_under_conjugation():
    sub = f81()
    key = canonical_subspace(sub)
    for p in itertools.permutations(range(4)):
        assert canonical_subspace(conjugate_subspace(sub, p)) == key


def test_conjugate_subspace_matches_conjugated_matrices():
    half = Fraction(1, 2)
    sub = subspace_from_generators(3, [((-1, half, 0), (1, -half, 0), (0, 0, 0)), zeros(3)])
    for p in itertools.permutations(range(3)):
        expected = subspace_from_generators(3, [conjugate(g, p) for g in sub.basis])
        assert conjugate_subspace(sub, p) == expected
    for p in ((1, 0), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match="permutation on"):
            conjugate_subspace(sub, p)


def test_canonical_subspace_separates_nonisomorphic():
    assert canonical_subspace(f81()) != canonical_subspace(
        rate_basis(regular_rep(RIGHT_CONST_4))
    )


@pytest.fixture(scope="module")
def orbit_models():
    """Every golden order-4 span plus every registry model, with its orbit."""
    doc = json.loads(GOLDEN.read_text())
    models = [
        subspace_from_generators(
            4, [[[int(x) for x in row] for row in g] for g in entry["generators"]]
        )
        for entry in doc["entries"]
    ]
    models += known_subspaces().values()
    assert len(models) == 131 + 11
    return [(m, model_orbit(m)) for m in models]


def brute_force_conjugate_rrefs(m):
    """Rref of every relabeled generator set, in exact Fraction arithmetic."""
    return {
        p: linalg.rref(
            [[Fraction(x) for x in linalg.vectorize(conjugate(g, p))] for g in m.basis]
        )
        for p in itertools.permutations(range(m.order))
    }


def membership_group(m):
    """Permutations that map every rref basis matrix back into the span."""
    return tuple(
        p
        for p in itertools.permutations(range(m.order))
        if all(
            contains(m, conjugate(linalg.unvectorize(row, m.order), p)) is not None
            for row in m.rref
        )
    )


def test_model_orbit_key_is_brute_force_minimum(orbit_models):
    for m, orbit in orbit_models:
        conj = brute_force_conjugate_rrefs(m)
        key = min(conj.values())
        assert orbit.key == key
        assert orbit.variants == len(set(conj.values()))


def test_model_orbit_group_matches_membership_oracle(orbit_models):
    for m, orbit in orbit_models:
        assert orbit.group == membership_group(m)


def test_model_orbit_stabilizer_identity(orbit_models):
    for m, orbit in orbit_models:
        assert len(orbit.group) * orbit.variants == math.factorial(m.order)


def full_model_orbit(m):
    # reference: row-reduce all k! relabelings of the rref, keep what they show
    conjugates = [
        (p, linalg.rref([tuple(row[s] for s in src) for row in m.rref]))
        for p, src in relabel_gathers(m.order)
    ]
    key = min(r for _, r in conjugates)
    return ModelOrbit(
        key=key,
        group=tuple(p for p, r in conjugates if r == m.rref),
        variants=len({r for _, r in conjugates}),
    )


def test_model_orbit_matches_full_pass(orbit_models):
    rng = random.Random(12)
    for m, orbit in orbit_models:
        assert orbit == full_model_orbit(m)
        relabeled = conjugate_subspace(m, tuple(rng.sample(range(m.order), m.order)))
        assert model_orbit(relabeled) == full_model_orbit(relabeled)


def test_model_orbit_of_trivial_span_matches_full_pass():
    for k in (1, 2, 3, 4):
        trivial = subspace_from_generators(k, [])
        assert model_orbit(trivial) == full_model_orbit(trivial)
    # a trivial span from a semigroup has the orbit of one from no generators
    assert model_orbit(rate_basis(regular_rep(RIGHT_CONST_4))) == model_orbit(trivial)


@pytest.mark.slow
def test_model_orbit_matches_full_pass_order5(semigroups5):
    spans = {}
    for t in semigroups5:
        m = rate_basis(regular_rep(t))
        spans.setdefault(m.rref, m)
    del spans[()]
    assert len(spans) == 1344
    for m in spans.values():
        assert model_orbit(m) == full_model_orbit(m)


@pytest.mark.order6
def test_model_orbit_matches_full_pass_order6_sample(semigroups6):
    spans = {}
    for t in semigroups6:
        m = rate_basis(regular_rep(t))
        spans.setdefault(m.rref, m)
    del spans[()]
    assert len(spans) == 18254
    sample = random.Random(6).sample(sorted(spans), 40)
    # and three spans with large symmetry groups: the group-based models of C6 and S3
    # and equal-input-6, in the labelings their constructions give
    named = [group_based_model(cyclic_group(6)), group_based_model(symmetric_group_3())]
    named.append(rate_basis(regular_rep(make_table([[i] * 6 for i in range(6)]))))
    nontrivial = 0
    for m in [spans[r] for r in sample] + named:
        full = full_model_orbit(m)
        assert model_orbit(m) == full
        nontrivial += len(full.group) > 1
    assert nontrivial >= 10


def entry_types(rows):
    return [[type(x) for x in row] for row in rows]


def test_model_orbit_int_kernel_matches_reference_on_candidate_rows(orbit_models, monkeypatch):
    # every conjugated candidate that model_orbit row-reduces, golden and registry spans,
    # with the span's key and what the bounded kernel returned for it
    inputs = []
    kernel = linalg.rref_integral
    key = None

    def recording(rows, bound=None):
        result = kernel(rows, bound)
        inputs.append((rows, key, result))
        return result

    monkeypatch.setattr(linalg, "rref_integral", recording)
    for m, orbit in orbit_models:
        key = orbit.key
        assert model_orbit(m) == orbit
    monkeypatch.undo()
    # K2ST's rref has halves; its candidates reach the kernel scaled to integers
    assert any(type(x) is Fraction for m, _ in orbit_models for row in m.rref for x in row)
    assert len(inputs) > 700
    cut = 0
    for rows, span_key, bounded in inputs:
        assert all(type(x) is int for row in rows for x in row)
        result = linalg.rref_integral(rows)
        assert result == reference_rref(rows)
        assert_int_exactly_when_integral(result)
        if bounded is None:
            # a cut candidate is never the key
            assert reference_rref(rows) > span_key
            cut += 1
        else:
            assert bounded == result
    # a bound that never cuts would leave every candidate to run to the end
    assert cut > 0


def random_rational_span(rng, k, involution=None):
    """A span of 1..3 random k x k generators with rational entries and zero column sums.

    With an involution, each generator's relabeling by it joins the span,
    so the involution lies in the span's symmetry group.
    """
    values = [0, 0, 0, 1, 2, -1, Fraction(1, 2), Fraction(1, 3), Fraction(-3, 2), Fraction(2, 5)]
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = [[rng.choice(values) if i != j else 0 for j in range(k)] for i in range(k)]
        for j in range(k):
            g[j][j] = -sum(g[i][j] for i in range(k))
        gens.append(linalg.mat(g))
        if involution is not None:
            gens.append(conjugate(gens[-1], involution))
    return subspace_from_generators(k, gens)


def test_model_orbit_matches_full_pass_on_rational_spans():
    rng = random.Random(1919)
    spans = []
    while len(spans) < 50:
        involution = rng.choice([None, (1, 0, 2, 3), (0, 3, 2, 1), (1, 0, 3, 2)])
        m = random_rational_span(rng, 4, involution)
        if any(type(x) is Fraction for row in m.rref for x in row):
            spans.append(m)
    for m in spans:
        orbit, full = model_orbit(m), full_model_orbit(m)
        assert orbit == full
        assert entry_types(orbit.key) == entry_types(full.key)
    assert len({len(model_orbit(m).group) for m in spans}) > 1


def test_perm_products_compose_getter_indices(monkeypatch):
    for k in (2, 3, 4):
        perms = [p for p, _ in modelgen._orbit_getters(k)]
        products = modelgen._perm_products(k)
        assert [[perms[x] for x in row] for row in products] == [
            [compose(a, b) for b in perms] for a in perms
        ]
    # the indices are relabel_gathers' whatever its order, not sorted ranks
    gathers = relabel_gathers(4)
    shuffled = gathers[:1] + tuple(random.Random(4).sample(gathers[1:], len(gathers) - 1))
    monkeypatch.setattr(modelgen, "relabel_gathers", lambda k: shuffled)
    perms = [p for p, _ in shuffled]
    products = modelgen._perm_products.__wrapped__(4)
    assert [[perms[x] for x in row] for row in products] == [
        [compose(a, b) for b in perms] for a in perms
    ]


def count_eliminations(monkeypatch, models):
    """Each model's orbit and how many candidates ``model_orbit`` row-reduced for it."""
    kernel = linalg.rref_integral
    calls = []

    def counting(rows, bound=None):
        calls.append(None)
        return kernel(rows, bound)

    monkeypatch.setattr(linalg, "rref_integral", counting)
    out = []
    for m in models:
        calls.clear()
        out.append((model_orbit(m), len(calls)))
    monkeypatch.undo()
    return out


def test_model_orbit_eliminates_one_relabeling_per_coset(monkeypatch):
    # every relabeling of these spans is a symmetry, so each one ties the key and a
    # pass with one elimination per candidate row-reduces all k! of them
    named = known_subspaces()
    models = [named[name] for name in ("equal-input-5", "F81", "K3ST")]
    for m, (orbit, calls) in zip(models, count_eliminations(monkeypatch, models)):
        assert orbit == full_model_orbit(m)
        assert calls < len(orbit.group) == math.factorial(m.order)


def test_model_orbit_eliminations_on_golden_spans(orbit_models, monkeypatch):
    golden = [m for m, _ in orbit_models[:131]]
    counted = count_eliminations(monkeypatch, golden)
    assert [orbit for orbit, _ in counted] == [orbit for _, orbit in orbit_models[:131]]
    # one elimination per candidate row-reduces 1612; the identity, when it is a
    # candidate, takes the span's own rref and is not row-reduced
    assert sum(calls for _, calls in counted) <= 1063


def test_model_orbit_mirror_cosets_give_wrong_orbits(orbit_models, monkeypatch):
    # relabeling acts on the left: p o h gives p's conjugate for a symmetry h, h o p
    # in general does not, and reusing h o p must show in the orbits
    def mirror(products, p, group):
        return [products[h][p] for h in group]

    monkeypatch.setattr(modelgen, "_right_coset", mirror)
    wrong = [m for m, _ in orbit_models[:131] if model_orbit(m) != full_model_orbit(m)]
    assert wrong


def test_generator_entries_are_stored_as_exact_numbers():
    # bool, numpy and Fraction(2) entries equal their int values; a float its exact value
    plain = ((0, 1, 2), (0, -1, 0), (0, 0, -2))
    spans = [
        subspace_from_generators(3, [[[convert(x) for x in row] for row in plain]])
        for convert in (int, np.int64, Fraction, lambda x: True if x == 1 else x)
    ]
    for sub in spans:
        assert sub == spans[0]
        assert all(_all_int(g) for g in sub.basis) and _all_int(sub.rref)
    half = subspace_from_generators(2, [((-0.5, 1), (np.float64(0.5), -1))])
    assert half.basis == (((Fraction(-1, 2), 1), (Fraction(1, 2), -1)),)
    assert entry_types(half.basis[0]) == [[Fraction, int], [Fraction, int]]
    with pytest.raises(TypeError, match="not a number"):
        subspace_from_generators(2, [(("-1", 1), ("1", -1))])


def _all_int(rows):
    return all(type(x) is int for row in rows for x in row)


def test_integral_fraction_generators_are_stored_as_int():
    doc = json.loads(GOLDEN.read_text())
    for entry in doc["entries"]:
        as_int = subspace_from_generators(
            4, [[[int(x) for x in row] for row in g] for g in entry["generators"]]
        )
        as_fraction = subspace_from_generators(
            4, [[[Fraction(x) for x in row] for row in g] for g in entry["generators"]]
        )
        assert all(_all_int(g) for g in as_fraction.basis)
        assert _all_int(as_fraction.rref)
        assert as_fraction == as_int
    # Registry spans rebuilt from Fraction generators equal the originals
    # entry for entry and type for type (K2ST's rref has genuine halves),
    # so their canonical keys, and the ids test_model_ids_stable pins, hold.
    for sub in known_subspaces().values():
        rebuilt = subspace_from_generators(
            sub.order, [[[Fraction(x) for x in row] for row in g] for g in sub.basis]
        )
        assert all(_all_int(g) for g in rebuilt.basis)
        assert rebuilt == sub
        assert [list(map(type, row)) for row in rebuilt.rref] == [
            list(map(type, row)) for row in sub.rref
        ]
        assert canonical_subspace(rebuilt) == canonical_subspace(sub)


def test_non_integral_entries_stay_fraction():
    half = Fraction(1, 2)
    sub = subspace_from_generators(
        2, [((-half, 1), (half, -1)), ((-1, half), (1, -half))]
    )
    assert sub.basis[0] == ((-half, 1), (half, -1))
    assert type(sub.basis[0][0][0]) is Fraction
    assert type(sub.basis[0][0][1]) is int
    assert sub.dim == 2
    assert sub.rref == ((1, 0, -1, 0), (0, 1, 0, -1))
    assert all(type(x) is int for row in sub.rref for x in row)


def reference_matrices(t):
    """A_a for each element a, straight from the table: A_a e_j = e_{a*j}."""
    k = t.order
    return [
        tuple(tuple(int(t.table[a][j] == i) for j in range(k)) for i in range(k))
        for a in range(k)
    ]


def test_matrices_match_the_reference(semigroups3, semigroups4):
    for t in semigroups3 + semigroups4:
        assert list(regular_rep(t).matrices) == reference_matrices(t)


def reference_rate_basis(t):
    """Independent rate basis: A - I per element in order, first occurrences, Fraction rref."""
    k = t.order
    ident = linalg.identity(k)
    gens = []
    for a in reference_matrices(t):
        g = linalg.mat_sub(a, ident)
        if not is_zero(g) and g not in gens:
            gens.append(g)
    rref = reference_rref([linalg.vectorize(g) for g in gens]) if gens else ()
    return tuple(gens), rref


def assert_rate_bases_match_reference(tables):
    for t in tables:
        sub = rate_basis(regular_rep(t))
        basis, rref = reference_rate_basis(t)
        assert sub.order == t.order
        assert sub.basis == basis
        assert sub.rref == rref
        assert all(_all_int(g) for g in sub.basis)
        # all int up to order 4; some order-5 rrefs hold genuine halves
        assert_int_exactly_when_integral(sub.rref)


def test_rate_basis_matches_reference_orders_1_to_4(semigroups2, semigroups3, semigroups4):
    tables = [make_table([[0]])] + semigroups2 + semigroups3 + semigroups4
    assert len(tables) == 1 + 5 + 24 + 188
    assert_rate_bases_match_reference(tables)
    assert all(_all_int(rate_basis(regular_rep(t)).rref) for t in tables)


@pytest.mark.slow
def test_rate_basis_matches_reference_order5(semigroups5):
    assert_rate_bases_match_reference(semigroups5)


@pytest.mark.slow
def test_rate_basis_from_table_matches_matrix_path(semigroups4, semigroups5):
    for t in semigroups4 + semigroups5:
        rep = regular_rep(t)
        mats = reference_matrices(t)
        ident = linalg.identity(t.order)
        by_matrices = subspace_from_generators(t.order, [linalg.mat_sub(a, ident) for a in mats])
        assert rate_basis(rep) == by_matrices
        assert rep_is_injective(rep) == (len(set(mats)) == t.order)


def test_subspace_from_generators_entry_contract():
    half = Fraction(1, 2)
    # zero column sums; int, Fraction, bool, numpy and float entries in one generator
    mixed = (
        (-1, half, True, np.int64(0)),
        (0.5, -half, 0, np.int64(1)),
        (0.5, 0, -1, np.int64(-1)),
        (0, 0, 0, 0),
    )
    exact = ((-1, half, 1, 0), (half, -half, 0, 1), (half, 0, -1, -1), (0, 0, 0, 0))
    got = subspace_from_generators(4, [mixed])
    assert got == subspace_from_generators(4, [exact])
    assert repr(got) == repr(subspace_from_generators(4, [exact]))
    assert entry_types(got.basis[0]) == entry_types(exact)

    # a float generator equal to an earlier int one is a repeat
    g = ((-1, 1), (1, -1))
    as_float = tuple(tuple(float(x) for x in row) for row in g)
    assert subspace_from_generators(2, [g, as_float]) == subspace_from_generators(2, [g])
    assert subspace_from_generators(2, [as_float, g]).basis == (g,)

    with pytest.raises(TypeError, match="not a number"):
        subspace_from_generators(2, [g, ((-1, "1"), (1, -1))])
    # entries are converted before the shape is checked, the shape before the column sums
    with pytest.raises(TypeError, match="not a number"):
        subspace_from_generators(2, [((-1, "1", 0), (1, -1))])
    with pytest.raises(ValueError) as shape:
        subspace_from_generators(2, [((1, 0, 0), (0, 0))])
    assert str(shape.value) == (
        "order mismatch: expected a 2 x 2 generator, got 2 rows of lengths [2, 3]"
    )
    with pytest.raises(ValueError) as sums:
        subspace_from_generators(2, [g, ((1, 0.5), (0, 0))])
    assert str(sums.value) == (
        "generator has nonzero column sums: ((1, Fraction(1, 2)), (0, 0))"
    )
    # across generators: every shape is checked before any column sums
    with pytest.raises(ValueError) as shape:
        subspace_from_generators(2, [((1, 0.5), (0, 0)), ((1, 0, 0), (0, 0))])
    assert str(shape.value) == (
        "order mismatch: expected a 2 x 2 generator, got 2 rows of lengths [2, 3]"
    )
