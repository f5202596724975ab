import dataclasses
import itertools
import json
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from matrix_helpers import has_zero_column_sums, is_zero

import liemarkov.closure as closure_mod
from liemarkov import cli, linalg
from liemarkov.catalog import known_subspaces
from liemarkov.cayley import enumerate_semigroups, make_table
from liemarkov.closure import (
    EXPM_THETA13,
    ClosureCheck,
    ClosureWitness,
    LogmConvergenceError,
    _expm_stack,
    _logm_stack,
    _sqrtm_stack,
    check_algebra_closed,
    check_lie_closed,
    commutator,
    expm,
    logm,
    verify_multiplicative_closure,
)
from liemarkov.constructors import fixture
from liemarkov.modelgen import contains, rate_basis, subspace_from_generators
from liemarkov.representation import regular_rep


def zeros(k):
    return tuple((0,) * k for _ in range(k))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def transpose(a):
    return tuple(zip(*a))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


ROOT = Path(__file__).resolve().parent.parent


def f81():
    return rate_basis(regular_rep(make_table([[i] * 4 for i in range(4)])))


def random_rate_matrix(rng, k):
    q = rng.random((k, k))
    np.fill_diagonal(q, 0.0)
    return q - np.diag(q.sum(axis=0))


# --- exact commutators -------------------------------------------------------


def test_commutator_equal_input_pairs():
    sub = f81()
    for i in range(4):
        for j in range(4):
            expected = linalg.mat_sub(sub.basis[i], sub.basis[j])
            assert commutator(sub.basis[i], sub.basis[j]) == expected


def test_commutator_self_is_zero():
    a = f81().basis[2]
    assert is_zero(commutator(a, a))


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(zeros(2), zeros(3))


def test_commutator_preserves_zero_column_sums():
    rng = random.Random(5)
    gens = f81().basis
    for _ in range(20):
        a = zeros(4)
        b = zeros(4)
        for g in gens:
            a = mat_add(a, mat_scale(rng.randint(-3, 3), g))
            b = mat_add(b, mat_scale(rng.randint(-3, 3), g))
        assert has_zero_column_sums(commutator(a, b))


def test_commutator_blind_to_identity_shift():
    rng = random.Random(9)
    ident = linalg.identity(3)
    for _ in range(10):
        a = tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
        b = tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
        shifted = commutator(
            linalg.mat_sub(a, ident), linalg.mat_sub(b, ident)
        )
        assert shifted == commutator(a, b)


# --- exact closure checks ----------------------------------------------------


def test_all_derived_models_lie_closed():
    for k in (2, 3):
        for t in enumerate_semigroups(k):
            sub = rate_basis(regular_rep(t))
            assert check_lie_closed(sub).closed


def test_all_derived_models_algebra_closed_order4(semigroups4):
    for t in semigroups4:
        sub = rate_basis(regular_rep(t))
        lie = check_lie_closed(sub)
        algebra = check_algebra_closed(sub)
        assert lie.closed
        assert algebra.closed  # products satisfy L_i L_j = -L_i - L_j + L_k


def test_sym_fixture_fails_lie_with_antisymmetric_witness():
    sym = fixture("SYM").subspace
    check = check_lie_closed(sym)
    assert not check.closed
    w = check.witness.matrix
    assert not is_zero(w)
    assert transpose(w) == mat_scale(-1, w)


def test_low_dimensional_models_trivially_lie_closed():
    trivial = rate_basis(regular_rep(make_table([[0, 1], [0, 1]])))
    assert check_lie_closed(trivial).closed
    one_dim = rate_basis(regular_rep(make_table([[0, 0], [0, 0]])))
    assert check_lie_closed(one_dim).closed


def test_jj3_lie_closed_but_not_algebra_closed():
    jj3 = fixture("JJ3").subspace
    assert check_lie_closed(jj3).closed
    check = check_algebra_closed(jj3)
    assert not check.closed
    assert (check.witness.i, check.witness.j) == (0, 1)
    assert check.witness.matrix == ((0, -2, 0), (0, 3, -2), (0, -1, 2))


def test_gm2_is_algebra_closed():
    gm2 = fixture("GM2").subspace
    l1, l2 = gm2.basis
    assert linalg.mat_mul(l1, l1) == mat_scale(-1, l1)
    assert linalg.mat_mul(l1, l2) == mat_scale(-1, l2)
    assert linalg.mat_mul(l2, l1) == mat_scale(-1, l1)
    assert linalg.mat_mul(l2, l2) == mat_scale(-1, l2)
    assert check_algebra_closed(gm2).closed


def test_algebra_closed_implies_lie_closed():
    subs = [fixture(n).subspace for n in ("SYM", "GM2", "JJ3")]
    subs += [rate_basis(regular_rep(t)) for t in enumerate_semigroups(3)]
    for sub in subs:
        if check_algebra_closed(sub).closed:
            assert check_lie_closed(sub).closed


def in_span_by_rank(m, x):
    """Membership oracle independent of the span kernel: adding x keeps the rref."""
    return linalg.rref(list(m.rref) + [linalg.vectorize(x)]) == m.rref


def _reference_lie_closed(m):
    """The per-pair loop: one commutator and one membership test per pair."""
    gens = m.basis
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            br = commutator(gens[i], gens[j])
            if not in_span_by_rank(m, br):
                return ClosureCheck(False, ClosureWitness(i, j, br))
    return ClosureCheck(True, None)


def _reference_algebra_closed(m):
    """The per-pair loop over ordered pairs, cross products before squares."""
    gens = m.basis
    n = len(gens)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    pairs += [(i, i) for i in range(n)]
    for i, j in pairs:
        prod = linalg.mat_mul(gens[i], gens[j])
        if not in_span_by_rank(m, prod):
            return ClosureCheck(False, ClosureWitness(i, j, prod))
    return ClosureCheck(True, None)


def test_exact_checks_match_per_pair_reference():
    known = known_subspaces()
    sym = fixture("SYM").subspace
    halved_sym = subspace_from_generators(4, [mat_scale(Fraction(1, 2), g) for g in sym.basis])
    models = golden_spans(every=1) + [fixture(n).subspace for n in ("SYM", "JJ3", "GM2")]
    models += [known["K2ST"], halved_sym, subspace_from_generators(4, [])]
    assert len(models) == 137
    # K2ST's rref and the halved SYM basis hold genuine fractions
    assert any(type(x) is Fraction for row in known["K2ST"].rref for x in row)
    assert all(type(x) is Fraction for g in halved_sym.basis for row in g for x in row if x)
    failures = 0
    for m in models:
        for check, reference in (
            (check_lie_closed, _reference_lie_closed),
            (check_algebra_closed, _reference_algebra_closed),
        ):
            got, want = check(m), reference(m)
            # repr compares entry types too: int stays int, Fraction stays Fraction
            assert repr(got) == repr(want)
            failures += not got.closed
    # SYM and its halving fail both checks, JJ3 only the algebra check
    assert failures == 5


def _loop_algebra_witness(m):
    """Closed flag, pair and product of the first escape: cross products row-major, then squares."""
    gens = m.basis
    n = len(gens)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    pairs += [(i, i) for i in range(n)]
    for i, j in pairs:
        prod = linalg.mat_mul(gens[i], gens[j])
        if contains(m, prod) is None:
            return False, (i, j), prod
    return True, None, None


def random_int_rate_matrix(rng, k):
    q = [[rng.randint(0, 3) if i != j else 0 for j in range(k)] for i in range(k)]
    for j in range(k):
        q[j][j] = -sum(q[i][j] for i in range(k))
    return linalg.mat(q)


def test_algebra_witness_matches_pair_loop():
    sym = fixture("SYM").subspace
    rng = random.Random(21)
    models = [fixture(n).subspace for n in ("JJ3", "SYM", "GM2")] + golden_spans(every=1)
    # seeded subsets of SYM's generators: only cross products escape
    for size in (2, 3, 4):
        for _ in range(4):
            models.append(subspace_from_generators(4, rng.sample(sym.basis, size)))
    # a 3-cycle alone: its square is the only product, and it escapes
    cycle = ((-1, 0, 1), (1, -1, 0), (0, 1, -1))
    only_square = subspace_from_generators(3, [cycle])
    models.append(only_square)
    # seeded integer rate matrices: (0, 0) escapes before the first cross product
    for k, n in ((3, 2), (4, 2), (4, 3)):
        for _ in range(3):
            models.append(
                subspace_from_generators(k, [random_int_rate_matrix(rng, k) for _ in range(n)])
            )
    square_first = 0
    for m in models:
        got = check_algebra_closed(m)
        closed, pair, prod = _loop_algebra_witness(m)
        assert got.closed == closed
        if closed:
            assert got.witness is None
            continue
        assert (got.witness.i, got.witness.j) == pair
        assert type(got.witness.i) is int and type(got.witness.j) is int
        assert got.witness.matrix == prod
        # raw row-major order would name (0, 0) here instead of a cross product
        g0 = m.basis[0]
        square_first += pair[0] != pair[1] and contains(m, linalg.mat_mul(g0, g0)) is None
    check = check_algebra_closed(only_square)
    assert (check.closed, check.witness.i, check.witness.j) == (False, 0, 0)
    assert square_first >= 3


# --- matrix exponential ------------------------------------------------------


def test_expm_at_time_zero_is_identity():
    rng = np.random.default_rng(0)
    q = random_rate_matrix(rng, 4)
    assert np.allclose(expm(q, 0.0), np.eye(4), atol=1e-15)


def test_expm_binary_symmetric_closed_form():
    # eigendecomposition oracle: eigenvalues 0 and -2 for the unit-rate
    # symmetric two-state generator
    q = [[-1.0, 1.0], [1.0, -1.0]]
    for t in (0.25, 1.0, 2.5, 5.0):
        on = (1.0 + math.exp(-2.0 * t)) / 2.0
        off = (1.0 - math.exp(-2.0 * t)) / 2.0
        expected = np.array([[on, off], [off, on]])
        assert np.abs(expm(q, t) - expected).max() < 1e-14


def test_expm_diagonal_matches_scalar_exp():
    # below 1-norm 5.37 the [13/13] approximant is exact to rounding (about
    # 2e-14 relative at 5.3, doubled by each squaring); its truncation error
    # alone is 4e-11 at 8.  The inputs sit on both sides of scaling steps.
    for x in (0.5, 2.0, 5.3, 5.4, 6.9, 7.9, 10.7, 21.4, 42.0):
        m = expm(np.diag([x, -x]))
        want = np.exp([x, -x])
        assert (np.abs(np.diag(m) - want) <= 2e-13 * want).all()
        assert m[0, 1] == m[1, 0] == 0.0


def test_expm_columns_sum_to_one():
    rng = np.random.default_rng(123)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        q = random_rate_matrix(rng, k)
        m = expm(q, float(rng.random()))
        assert np.abs(m.sum(axis=0) - 1.0).max() < 1e-12
        assert m.min() >= -1e-15


def test_expm_one_parameter_semigroup_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        q = random_rate_matrix(rng, 4)
        t1, t2 = rng.random(2)
        lhs = expm(q, t1) @ expm(q, t2)
        assert np.abs(lhs - expm(q, t1 + t2)).max() < 1e-10


# --- matrix logarithm --------------------------------------------------------


def test_logm_identity_is_zero():
    assert np.abs(logm(np.eye(4))).max() == 0.0


def test_logm_expm_round_trip():
    rng = np.random.default_rng(99)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        q = random_rate_matrix(rng, k)
        t = float(rng.random())
        assert np.abs(logm(expm(q, t)) - q * t).max() < 1e-8


def test_logm_zero_column_sums_for_stochastic_input():
    rng = np.random.default_rng(17)
    q = random_rate_matrix(rng, 4)
    x = logm(expm(q, 0.8))
    assert np.abs(x.sum(axis=0)).max() < 1e-10


def test_logm_of_product_stays_in_equal_input_span():
    sub = f81()
    gens = np.array([[[float(v) for v in row] for row in g] for g in sub.basis])
    rng = np.random.default_rng(3)
    basis = np.array([[float(v) for v in row] for row in sub.rref]).T
    for _ in range(10):
        q1 = np.tensordot(1.0 - rng.random(4), gens, axes=1)
        q2 = np.tensordot(1.0 - rng.random(4), gens, axes=1)
        x = logm(expm(q1, 0.6) @ expm(q2, 0.9)).reshape(-1)
        coeffs, *_ = np.linalg.lstsq(basis, x, rcond=None)
        assert np.abs(x - basis @ coeffs).max() < 1e-9


def test_logm_rejects_nonsquare():
    with pytest.raises(ValueError):
        logm(np.ones((2, 3)))


def test_logm_nonconvergence_raises():
    # a pure swap has eigenvalue -1: no real principal logarithm
    with pytest.raises(LogmConvergenceError):
        logm(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_logm_of_nan_raises():
    # NaN is not >= the series radius, so it would reach the series untouched;
    # a non-finite logarithm counts as none
    for p in (np.full((3, 3), np.nan), np.array([np.eye(2), [[1.0, np.nan], [0.0, 1.0]]])):
        with pytest.raises(LogmConvergenceError):
            logm(p)


def test_logm_of_inf_raises_without_warning():
    # an infinite entry fails before the Denman-Beavers step can form inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (np.full((3, 3), np.inf), np.array([np.eye(2), [[1.0, -np.inf], [0.0, 1.0]]])):
            with pytest.raises(LogmConvergenceError):
                logm(p)


# --- logm by inverse scaling and squaring ---------------------------------------

# 3-state chain 0 -> 1 -> 2 with equal rates: the eigenvalue -1 has a
# Jordan block, so e^{Qt} is defective
JORDAN_RATES = np.array([[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
# 3-state cycle 0 -> 1 -> 2 -> 0: eigenvalues 0 and -3/2 +- i sqrt(3)/2
CYCLIC_RATES = np.array([[-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])


def db_route(p):
    """The log kernel's logarithm of one matrix, through its one square-root
    kernel (Denman-Beavers), which must succeed."""
    logs, ok = _logm_stack(np.asarray(p, dtype=float)[None])
    assert ok.tolist() == [True]
    return logs[0]


def golden_span(model_id):
    """The span of the first golden order-4 entry with ``model_id``."""
    doc = json.loads((ROOT / "tests" / "golden" / "catalog_k4.json").read_text())
    gens = next(e["generators"] for e in doc["entries"] if e["model_id"] == model_id)
    return subspace_from_generators(4, [[[Fraction(x) for x in row] for row in g] for g in gens])


def golden_product(model_id, trial=0, seed=0):
    """A sampled closure product of the first golden order-4 entry with ``model_id``."""
    return _draw_product(golden_span(model_id), seed, trial, trials=trial + 1)


# an absorbing-state chain whose sampled products have an acyclic zero pattern,
# and a model whose products are defective with a cyclic one
CHAIN_MODEL, CYCLIC_DEFECTIVE_MODEL = "e592fb285f7e55a7", "e58b17a84e8d2af5"


def test_logm_defective_input_takes_square_root_route():
    for trial in range(4):
        p = golden_product(CYCLIC_DEFECTIVE_MODEL, trial)
        x = logm(p)
        assert np.array_equal(x, db_route(p))
        assert np.abs(x - reference_logm_sqrt_route(p)).max() < 1e-12


def test_logm_defective_chain_takes_denman_beavers_roots():
    for t in (0.1, 0.7, 2.0, 5.0):
        p = expm(JORDAN_RATES, t)
        # the chain 0 -> 1 -> 2 keeps exact zeros above the diagonal
        assert not np.triu(p, 1).any()
        x = logm(p)
        assert np.array_equal(x, db_route(p))
        assert np.abs(x - JORDAN_RATES * t).max() < 1e-8


def jordan_log(lam, n):
    """log(lam I + N) = log(lam) I + N / lam - N^2 / (2 lam^2) for N^3 = 0."""
    return np.log(lam) * np.eye(3) + n / lam - n @ n / (2 * lam**2)


def test_logm_denman_beavers_roots_jordan_block_closed_form():
    n = np.array([[0.0, 1.0, -2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    for lam in (0.05, 0.7, 1.0, 1.3, 9.0):
        p = lam * np.eye(3) + n
        want = jordan_log(lam, n)
        got = db_route(p)
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()
        assert np.array_equal(logm(p), got)
        # the same block under every relabeling of its states
        for perm in itertools.permutations(range(3)):
            k = np.eye(3)[list(perm)]
            got = db_route(k @ p @ k.T)
            assert np.abs(got - k @ want @ k.T).max() <= 2e-15 * np.abs(want).max()


def test_logm_sqrt_route_accurate_at_series_radius():
    # 1-norm distances just under 0.5 take no square root, so the series
    # itself must reach rounding level where |Z| is near its bound 1/3
    for d in ([0.5001, 1.4999], [0.50000001, 1.0], [1.0, 1.49999999], [0.75, 1.25]):
        want = np.log(d)
        got = np.diag(db_route(np.diag(d)))
        assert (np.abs(got - want) <= 1e-15 * np.abs(want)).all()


def test_logm_complex_eigenvalues_round_trip():
    for t in (0.3, 1.0, 2.5):
        p = expm(CYCLIC_RATES, t)
        assert np.iscomplexobj(np.linalg.eigvals(p))
        x = logm(p)
        assert x.dtype == np.float64
        assert np.abs(x - CYCLIC_RATES * t).max() < 1e-12


def test_logm_mixed_route_stack_matches_single_calls():
    # identity, defective, cyclic and generic products in one stack
    rng = np.random.default_rng(12)
    q1, q2 = (random_rate_matrix(rng, 3) for _ in range(2))
    ps = np.array([
        np.eye(3),
        expm(JORDAN_RATES, 0.4),
        expm(CYCLIC_RATES, 1.2),
        expm(q1, 0.8) @ expm(q2, 1.5),
        expm(JORDAN_RATES, 3.0) @ expm(JORDAN_RATES, 0.5),
        expm(CYCLIC_RATES, 0.05),
    ])
    stacked = logm(ps)
    for p, x in zip(ps, stacked):
        assert np.array_equal(x, logm(p))
        assert np.abs(x - db_route(p)).max() < 1e-12
    assert np.abs(stacked - reference_logm_sqrt_route(ps)).max() < 1e-12


def test_logm_stack_of_both_routes_and_kernels_matches_single_calls():
    # sampled closure products of a chain and a cyclic defective span, with
    # the identity and a generic product, in one stack
    rng = np.random.default_rng(40)
    ps = np.array(
        [golden_product(CHAIN_MODEL, trial) for trial in range(3)]
        + [golden_product(CYCLIC_DEFECTIVE_MODEL, trial) for trial in range(3)]
        + [np.eye(4), expm(random_rate_matrix(rng, 4), 0.9)]
    )
    stacked = logm(ps)
    for p, x in zip(ps, stacked):
        assert np.array_equal(x, logm(p))
    assert np.abs(stacked - reference_logm_sqrt_route(ps)).max() < 1e-12


def test_logm_negative_real_eigenvalue_still_raises():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    # the kernel marks the swap alone as failed instead of raising
    _, ok = _logm_stack(np.array([np.eye(2), swap]))
    assert ok.tolist() == [True, False]
    with pytest.raises(LogmConvergenceError):
        logm(np.array([np.eye(2), swap, expm([[-1.0, 1.0], [1.0, -1.0]], 0.5)]))
    # triangular matrices with an eigenvalue 0 or below on the diagonal
    for p in (
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0, 1.0], [0.0, 1.0]]),
        np.array([[-1.0, 1.0], [0.0, 2.0]]),
        np.array([[1.0, 0.0, 0.0], [2.0, -0.5, 0.0], [0.0, 1.0, 3.0]]),
    ):
        with pytest.raises(LogmConvergenceError):
            logm(p)


def test_logm_stack_reports_failures_per_matrix(monkeypatch):
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    ps = np.array([np.eye(2), swap, expm(q, 0.5), expm(q, 3.0)])
    refused = []
    inv = np.linalg.inv

    def recording_inv(a):
        try:
            return inv(a)
        except np.linalg.LinAlgError:
            refused.append(len(a))
            raise

    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    logs, ok = _logm_stack(ps)
    # the swap's singular square-root iterate makes LAPACK refuse the batch
    # it shares with the last two matrices, and only the swap fails
    assert refused == [3]
    assert ok.tolist() == [True, False, True, True]
    for p, x in zip(ps[ok], logs[ok]):
        assert np.array_equal(x, logm(p))
    assert np.abs(logs[3] - 3.0 * q).max() < 1e-12


def test_sqrtm_stack_reports_failures_per_matrix():
    # the swap's second Denman-Beavers iterate (I + swap) / 2 is singular,
    # which makes LAPACK refuse the whole batch
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    roots, ok = _sqrtm_stack(np.array([swap, 4.0 * np.eye(2)]))
    assert ok.tolist() == [False, True]
    assert np.abs(roots[1] - 2.0 * np.eye(2)).max() <= 1e-15
    # on the eigenvalue -4 the real iteration wanders without converging,
    # and after 64 steps that matrix alone fails
    roots, ok = _sqrtm_stack(np.array([np.diag([4.0, 9.0]), np.diag([-4.0, 1.0])]))
    assert ok.tolist() == [True, False]
    assert np.abs(roots[0] - np.diag([2.0, 3.0])).max() <= 1e-15


def lower_triangular_sqrt(a):
    """The principal square root of a lower-triangular matrix with a positive
    diagonal, entry by entry: y_ij = (a_ij - sum_{j<l<i} y_il y_lj) / (y_ii + y_jj)."""
    k = len(a)
    y = np.diag(np.sqrt(np.diag(a)))
    for gap in range(1, k):
        for j in range(k - gap):
            i = j + gap
            y[i, j] = (a[i, j] - y[i, j + 1 : i] @ y[j + 1 : i, j]) / (y[i, i] + y[j, j])
    return y


def test_sqrtm_stack_accepts_a_root_stagnated_at_rounding_level():
    # a chain 0 -> 1 -> 2 that keeps almost nothing in states 0 and 1, as
    # long-time products do: the root has 1-norm 2e4, and the Denman-Beavers
    # step stalls at 2e-15 to 6e-13 of it, above 1e-15 * |Y|_1, for the
    # remaining steps; a step that no longer halves stops the iteration
    a = np.array([[2e-15, 0.0, 0.0], [1.0 - 2e-15, 1e-8, 0.0], [0.0, 1.0 - 1e-8, 1.0]])
    roots, ok = _sqrtm_stack(a[None])
    assert ok.tolist() == [True]
    want = lower_triangular_sqrt(a)
    assert norm1(want) > 1e4
    assert np.abs(roots[0] - want).max() <= 1e-11 * np.abs(want).max()


def test_sqrtm_stack_does_not_stop_while_the_step_halves():
    # on the eigenvalue 1e-20 the iterate halves for about 30 steps on its
    # way down to 1e-10, each step a little under half the one before; by
    # size alone (1e-8 of |Y|_1 = 1) it would stop near 2e-8
    roots, ok = _sqrtm_stack(np.array([np.diag([1e-20, 1.0]), np.diag([1.0, 1e-20])]))
    assert ok.tolist() == [True, True]
    assert np.abs(roots - [np.diag([1e-10, 1.0]), np.diag([1.0, 1e-10])]).max() <= 1e-20


# --- stacked kernels -----------------------------------------------------------


def test_expm_stack_matches_single_calls():
    rng = np.random.default_rng(8)
    qs = np.array([random_rate_matrix(rng, 4) for _ in range(7)])
    # from no scaling (t = 0, t = 1e-3) to many squarings (t = 25)
    ts = np.array([0.0, 1e-3, 0.2, 1.0, 3.0, 9.0, 25.0])
    stacked = expm(qs, ts)
    assert stacked.shape == (7, 4, 4)
    for q, t, m in zip(qs, ts, stacked):
        assert np.abs(m - expm(q, t)).max() < 1e-14
    shared = expm(qs, 0.7)
    for q, m in zip(qs, shared):
        assert np.abs(m - expm(q, 0.7)).max() < 1e-14


def test_logm_stack_matches_single_calls():
    rng = np.random.default_rng(21)
    q1, q2, q3 = (random_rate_matrix(rng, 4) for _ in range(3))
    ps = np.array([
        np.eye(4),
        expm(q1, 0.02),
        expm(q1, 0.4) @ expm(q2, 0.9),
        expm(q2, 1.5) @ expm(q3, 2.0),
        expm(q3, 4.0),
    ])
    # distances from the identity that need from 0 to several square roots
    dist = np.abs(ps - np.eye(4)).sum(axis=1).max(axis=1)
    assert dist[0] == 0.0 and dist[1] < 0.25 and dist[-1] > 1.0
    stacked = logm(ps)
    assert stacked.shape == ps.shape
    for p, x in zip(ps, stacked):
        assert np.array_equal(x, logm(p))
    assert np.abs(stacked[-1] - 4.0 * q3).max() < 1e-8


def test_logm_stack_raises_if_any_matrix_fails():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(LogmConvergenceError):
        logm(np.array([np.eye(2), swap]))


def test_stacked_kernels_reject_bad_shapes():
    with pytest.raises(ValueError):
        expm(np.ones((2, 2, 3)))
    with pytest.raises(ValueError):
        logm(np.ones((2, 2, 2, 2)))


# --- sampled multiplicative closure -------------------------------------------


def test_verify_closure_passes_on_equal_input():
    report = verify_multiplicative_closure(f81(), trials=50, tol=1e-6, seed=1)
    assert report.status == "pass"
    assert report.max_residual < 1e-9
    assert report.lie_closed and report.algebra_closed
    assert report.discarded_trials == 0


def test_verify_closure_fails_on_symmetric_fixture():
    report = verify_multiplicative_closure(
        fixture("SYM").subspace, trials=50, tol=1e-6, seed=1
    )
    assert report.status == "fail"
    assert report.max_residual > 1e-3
    assert not report.lie_closed


def test_verify_closure_deterministic():
    a = verify_multiplicative_closure(f81(), trials=20, tol=1e-6, seed=42)
    b = verify_multiplicative_closure(f81(), trials=20, tol=1e-6, seed=42)
    assert a == b


def test_verify_closure_rejects_trivial_model():
    trivial = rate_basis(regular_rep(make_table([[0, 1], [0, 1]])))
    with pytest.raises(ValueError, match="dimension 0"):
        verify_multiplicative_closure(trivial, trials=5, tol=1e-6, seed=0)


def test_verify_closure_inconclusive_when_log_never_converges(monkeypatch):
    def always_fails(a):
        return np.zeros_like(a), np.zeros(len(a), dtype=bool)

    monkeypatch.setattr(closure_mod, "_logm_stack", always_fails)
    report = verify_multiplicative_closure(fixture("JJ3").subspace, trials=3, tol=1e-6, seed=0)
    assert (report.check, report.status) == ("log", "inconclusive")
    assert report.discarded_trials == 3
    assert report.max_residual == 0.0


@pytest.mark.parametrize("name", ["SYM", "F81"])
def test_verify_closure_inconclusive_when_products_overflow(name):
    # at these times expm overflows or loses every digit, and the products'
    # logarithms come out NaN or not at all: no trial may count as a pass
    m = fixture("SYM").subspace if name == "SYM" else known_subspaces()["F81"]
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_multiplicative_closure(m, trials=5, t_max=1e300)
    assert report.status == "inconclusive"
    assert report.max_residual == 0.0


def test_verify_closure_fails_on_a_computed_residual_when_a_trial_runs_out():
    # at t_max = 20 some of SYM's products have no principal log (with a tol
    # no residual reaches, the verdict is inconclusive), while the logs that
    # were computed leave the span by far more than tol: a computed fail is a
    # fail
    sym = fixture("SYM").subspace
    seen = []
    for seed in (0, 1, 2):
        report = verify_multiplicative_closure(sym, trials=20, seed=seed, t_max=20.0)
        assert (report.check, report.status) == ("log", "fail")
        assert _outcome(report) == _reference_report(sym, 20, seed, 20.0)
        lenient = verify_multiplicative_closure(sym, trials=20, seed=seed, t_max=20.0, tol=1e3)
        assert lenient.status == "inconclusive"
        assert (lenient.max_residual, lenient.discarded_trials) == (
            report.max_residual,
            report.discarded_trials,
        )
        seen.append((round(report.max_residual, 1), report.discarded_trials))
    assert seen == [(6.2, 12), (11.7, 11), (30.7, 10)]


def test_verify_closure_stays_inconclusive_when_computed_residuals_pass():
    # at t_max = 1e10 some of F81's products lose stochasticity and have no
    # result; the residuals that were computed stay below tol, so nothing
    # proves a fail
    report = verify_multiplicative_closure(known_subspaces()["F81"], trials=20, seed=0, t_max=1e10)
    assert (report.check, report.status) == ("product", "inconclusive")
    assert 0.0 < report.max_residual < report.tolerance
    assert report.discarded_trials >= 5


def _draw_product(m, seed, trial, trials, t_max=1.0):
    """The product e^{Q1 t1} e^{Q2 t2} that a trial's row of the block draws."""
    gens = np.array([[[float(v) for v in row] for row in g] for g in m.basis])
    d = len(gens)
    u = 1.0 - np.random.default_rng([seed, 0]).random((trials, 2 * d + 2))[trial]
    c1, c2 = u[:d], u[d : 2 * d]
    t1, t2 = u[2 * d] * t_max, u[2 * d + 1] * t_max
    q1 = np.tensordot(c1, gens, axes=1)
    q2 = np.tensordot(c2, gens, axes=1)
    return expm(q1, t1) @ expm(q2, t2)


def _status(max_residual, tol, discarded):
    """A computed residual of ``tol`` or more fails; otherwise a trial without
    a result leaves the verdict inconclusive."""
    if max_residual >= tol:
        return "fail"
    return "inconclusive" if discarded else "pass"


def _log_check(m, trials, tol, seed, t_max=1.0):
    """The log check on any span: the ``_draw_product`` products through one
    ``_logm_stack`` call, with the residual against the QR projection onto
    the span."""
    span, _ = np.linalg.qr(np.array([[float(v) for v in row] for row in m.rref]).T)
    prods = np.array([_draw_product(m, seed, i, trials, t_max) for i in range(trials)])
    logs, ok = closure_mod._logm_stack(prods)
    v = logs[ok].reshape(-1, m.order**2)
    max_residual = float(np.abs(v - (v @ span) @ span.T).max(initial=0.0))
    discarded = trials - int(ok.sum())
    return _status(max_residual, tol, discarded), discarded, max_residual


def _reference_verify(m, trials, tol, seed, t_max=1.0):
    """The per-trial loop: one expm pair, one logm and one lstsq per trial."""
    basis = np.array([[float(v) for v in row] for row in m.rref]).T
    max_residual = 0.0
    discarded = 0
    for trial in range(trials):
        try:
            x = logm(_draw_product(m, seed, trial, trials, t_max)).reshape(-1)
        except LogmConvergenceError:
            discarded += 1
            continue
        coeffs, *_ = np.linalg.lstsq(basis, x, rcond=None)
        max_residual = max(max_residual, float(np.abs(x - basis @ coeffs).max()))
    return _status(max_residual, tol, discarded), discarded, max_residual


def _reference_report(m, trials, seed, t_max=1.0, tol=1e-6):
    """verify's outcome rebuilt per call from the public expm and np.tensordot,
    on ``_draw_product``'s draws: the block's rows give the rate matrices of
    both factors with one tensordot against the (d, k, k) generators and
    their exponentials with one expm call, then the product or log check of
    the exact algebra check.  Returns (status, discarded, max_residual,
    check)."""
    gens = np.array([[[float(v) for v in row] for row in g] for g in m.basis])
    d = len(gens)
    span, _ = np.linalg.qr(np.array([[float(v) for v in row] for row in m.rref]).T)
    algebra = check_algebra_closed(m).closed
    u = 1.0 - np.random.default_rng([seed, 0]).random((trials, 2 * d + 2))
    q = np.tensordot(np.concatenate([u[:, :d], u[:, d : 2 * d]]), gens, axes=1)
    subst = expm(q, np.concatenate([u[:, 2 * d], u[:, 2 * d + 1]]) * t_max)
    prods = subst[:trials] @ subst[trials:]
    if algebra:
        ok = (np.abs(prods.sum(axis=-2) - 1.0) < tol).all(axis=-1)
        v = prods[ok] - np.eye(m.order)
    else:
        logs, ok = closure_mod._logm_stack(prods)
        v = logs[ok]
    v = v.reshape(-1, m.order**2)
    max_residual = float(np.abs(v - (v @ span) @ span.T).max(initial=0.0))
    discarded = trials - int(ok.sum())
    status = _status(max_residual, tol, discarded)
    return status, discarded, max_residual, "product" if algebra else "log"


def _outcome(report):
    return report.status, report.discarded_trials, report.max_residual, report.check


def golden_spans(every=13):
    doc = json.loads((ROOT / "tests" / "golden" / "catalog_k4.json").read_text())
    return [
        subspace_from_generators(
            4, [[[Fraction(x) for x in row] for row in g] for g in e["generators"]]
        )
        for e in doc["entries"][::every]
    ]


def test_verify_closure_matches_per_trial_reference():
    # the log kernel's stacked call against one logm and one lstsq per
    # trial, on the same products; verify itself takes logs only of SYM's
    known = known_subspaces()
    models = [known["F81"], known["K3ST"], fixture("SYM").subspace] + golden_spans()
    assert len(models) >= 13
    discards = {}
    for t_max in (2.0, 8.0):
        discards[t_max] = 0
        for seed in (0, 7, 123):
            for idx, m in enumerate(models):
                stacked = _log_check(m, trials=10, tol=1e-6, seed=seed * 100 + idx, t_max=t_max)
                status, discarded, max_residual = _reference_verify(
                    m, trials=10, tol=1e-6, seed=seed * 100 + idx, t_max=t_max
                )
                assert stacked[:2] == (status, discarded)
                discards[t_max] += discarded
                # far from the identity the QR and lstsq projections of a log
                # outside the span differ well above rounding
                if t_max == 2.0 or max_residual < 1e-6:
                    assert abs(stacked[2] - max_residual) < 1e-12
                report = verify_multiplicative_closure(
                    m, trials=10, tol=1e-6, seed=seed * 100 + idx, t_max=t_max
                )
                if report.check == "log":
                    assert (report.status, report.discarded_trials) == stacked[:2]
                    if t_max == 2.0 or max_residual < 1e-6:
                        assert abs(report.max_residual - stacked[2]) < 1e-12
                else:
                    assert (report.status, report.discarded_trials) == ("pass", 0)
    # every product here has a real principal logarithm that Denman-Beavers
    # roots reach once a root whose step stagnates at rounding level counts
    # as converged (test_logm_round_trips_the_entry_52_chain_product)
    assert discards == {2.0: 0, 8.0: 0}


def test_logm_round_trips_the_entry_52_chain_product():
    # a chain product of golden entry 52 at t_max = 8 with diagonal entries
    # down to 2e-15: its first root's Denman-Beavers step stalls at 1.6e-15
    # to 2.9e-15, above 1e-15 * |Y|_1, and stops there as stagnated; no
    # closure check takes this log, since the span is algebra-closed and
    # takes the product check
    m = golden_spans()[4]
    p = _draw_product(m, seed=7, trial=9, trials=10, t_max=8.0)
    assert not np.tril(p, -1).any() and np.diag(p).min() < 1e-14
    assert np.abs(expm(logm(p)) - p).max() <= 1e-12
    report = verify_multiplicative_closure(m, trials=10, seed=7, t_max=8.0)
    assert (report.check, report.status, report.discarded_trials) == ("product", "pass", 0)


def test_logm_raises_where_denman_beavers_roots_stay_outside_the_series_radius():
    # exact principal roots leave the off-diagonal entry at 1e15 / 2^40,
    # about 909, after 40 of them, far outside the series radius; the
    # Denman-Beavers roots get no closer, and the kernel gives up
    p = np.array([[1.0, 1e15], [0.0, 1.0]])
    assert not _logm_stack(p[None])[1][0]
    with pytest.raises(LogmConvergenceError):
        logm(p)


def test_verify_closure_reproduces_the_per_call_reference_exactly():
    # verify forms the rate matrices with one matmul of flat
    # generator rows and calls the exponential kernel directly; neither may
    # move a bit of the report
    jj3 = fixture("JJ3").subspace
    cases = [(m, 20, i, t_max) for i, m in enumerate(golden_spans()) for t_max in (1.0, 8.0)]
    # JJ3 takes the log check; at t_max = 20, seed 1 one of its products is
    # singular to rounding (a computed eigenvalue of -8e-17), its first
    # square root does not converge, and it is discarded
    cases += [(jj3, 100, 1, 1.0), (jj3, 100, 1, 8.0), (jj3, 20, 1, 20.0)]
    discarded = []
    for m, trials, seed, t_max in cases:
        report = verify_multiplicative_closure(m, trials=trials, seed=seed, t_max=t_max)
        assert _outcome(report) == _reference_report(m, trials, seed, t_max)
        discarded.append(report.discarded_trials)
    assert discarded == [0] * (len(cases) - 1) + [1]


def test_verify_closure_discards_a_poisoned_product_check_trial(monkeypatch):
    m, seed, bad = golden_spans()[3], 4, 2
    gens = np.array([[[float(v) for v in row] for row in g] for g in m.basis])
    d = len(gens)
    u = 1.0 - np.random.default_rng([seed, 0]).random((5, 2 * d + 2))
    # trial 2's first factor, as verify's stack holds it
    target = np.tensordot(u[:, :d], gens, axes=1)[bad] * u[bad, 2 * d]
    kernel = closure_mod._expm_stack

    def poisons_target(a):
        result = kernel(a)
        result[(a == target).all(axis=(-2, -1))] = np.nan
        return result

    # the public expm reaches the same kernel, so the reference sees the poison too
    monkeypatch.setattr(closure_mod, "_expm_stack", poisons_target)
    report = verify_multiplicative_closure(m, trials=5, seed=seed)
    assert (report.check, report.status, report.discarded_trials) == ("product", "inconclusive", 1)
    assert 0.0 < report.max_residual < 1e-12
    assert _outcome(report) == _reference_report(m, 5, seed)


def test_verify_closure_reports_both_exact_checks():
    # a passing algebra check also stands for the Lie check; a failing one
    # must not
    models = [fixture(n).subspace for n in ("SYM", "JJ3", "GM2")] + golden_spans(every=1)
    assert len(models) == 134
    for m in models:
        report = verify_multiplicative_closure(m, trials=1)
        lie, algebra = check_lie_closed(m), check_algebra_closed(m)
        assert (report.lie_closed, report.lie_witness) == (lie.closed, lie.witness)
        assert (report.algebra_closed, report.algebra_witness) == (
            algebra.closed,
            algebra.witness,
        )


def test_verify_closure_golden_spans_pass_at_long_times():
    # through logarithms these products gave 111 pass, 14 fail and 6
    # inconclusive; every golden span is algebra-closed, and P1 P2 - I stays
    # in it to rounding at any time
    reports = [
        verify_multiplicative_closure(m, trials=20, seed=1, t_max=8.0)
        for m in golden_spans(every=1)
    ]
    assert len(reports) == 131
    assert {(r.check, r.status) for r in reports} == {("product", "pass")}
    assert max(r.max_residual for r in reports) < 1e-12


def test_verify_closure_product_check_takes_no_logarithm(monkeypatch):
    def no_logs(a):
        raise AssertionError("the product check took a logarithm")

    monkeypatch.setattr(closure_mod, "_logm_stack", no_logs)
    report = verify_multiplicative_closure(f81(), trials=20, seed=1, t_max=8.0)
    assert (report.check, report.status, report.discarded_trials) == ("product", "pass", 0)


def test_verify_closure_jj3_takes_the_log_check():
    # Lie-closed but not an algebra: the product check does not apply
    report = verify_multiplicative_closure(fixture("JJ3").subspace, trials=50, seed=1)
    assert report.lie_closed and not report.algebra_closed
    assert (report.check, report.status) == ("log", "pass")
    assert report.max_residual < 1e-9


def test_verify_closure_route_follows_the_algebra_check_on_mutated_spans():
    # mutation check: a golden span with its first generator dropped is
    # still algebra-closed (50 of the 126 of dimension 2 or more), only
    # Lie-closed (36) or neither (40); the last take the log check and fail
    # with the log kernels' own residual
    seen = {}
    for g in golden_spans(every=1):
        if g.dim < 2:
            continue
        m = subspace_from_generators(4, g.basis[1:])
        report = verify_multiplicative_closure(m, trials=20, seed=1)
        outcome = (report.algebra_closed, report.lie_closed, report.check, report.status)
        seen[outcome] = seen.get(outcome, 0) + 1
        if not report.lie_closed:
            status, discarded, max_residual = _log_check(m, trials=20, tol=1e-6, seed=1)
            assert (report.status, report.discarded_trials) == (status, discarded)
            assert abs(report.max_residual - max_residual) <= 1e-9 * max_residual
    assert seen == {
        (True, True, "product", "pass"): 50,
        (False, True, "log", "pass"): 36,
        (False, False, "log", "fail"): 40,
    }


def test_verify_closure_discards_no_trial_of_sym_or_jj3():
    # at t_max = 8 their products reach eigenvalues down to about 1e-15, whose
    # Denman-Beavers steps stagnate above 1e-15 * |Y|_1 and stop as
    # stagnated; JJ3's fails at t_max = 8 come from the logarithm's
    # conditioning, not from a span that is left, so only t_max = 1 pins
    # its verdict
    verdicts = {}
    for name in ("SYM", "JJ3"):
        for t_max in (1.0, 8.0):
            for seed in (0, 1):
                report = verify_multiplicative_closure(
                    fixture(name).subspace, trials=100, seed=seed, t_max=t_max
                )
                assert (report.check, report.discarded_trials) == ("log", 0)
                verdicts[name, t_max, seed] = report.status
    assert {verdicts["SYM", t, s] for t in (1.0, 8.0) for s in (0, 1)} == {"fail"}
    assert verdicts["JJ3", 1.0, 0] == verdicts["JJ3", 1.0, 1] == "pass"


def test_verify_closure_discards_only_the_failing_trial(monkeypatch):
    m, seed, bad = fixture("JJ3").subspace, 3, 2
    target = _draw_product(m, seed, bad, trials=5)
    calls = []

    def fails_on_target(a):
        calls.append(a)
        logs, ok = _logm_stack(a)
        return logs, ok & ~(a == target).all(axis=(-2, -1))

    monkeypatch.setattr(closure_mod, "_logm_stack", fails_on_target)
    report = verify_multiplicative_closure(m, trials=5, tol=1e-6, seed=seed)
    assert (report.check, report.status) == ("log", "inconclusive")
    assert report.discarded_trials == 1
    # the other four trials have their logs, and those stay in the span
    assert 0.0 < report.max_residual < 1e-9
    # one log-kernel call on every trial's product, and no redraw
    assert [c.shape for c in calls] == [(5, 3, 3)]
    assert _outcome(report) == _reference_report(m, 5, seed)


def test_verify_closure_draws_do_not_depend_on_trial_count(monkeypatch):
    m, seed, bad = fixture("JJ3").subspace, 17, 3
    target = _draw_product(m, seed, bad, trials=5)

    def logm_inputs(trials):
        calls = []

        def fails_on_target(a):
            calls.append(a)
            logs, ok = _logm_stack(a)
            return logs, ok & ~(a == target).all(axis=(-2, -1))

        monkeypatch.setattr(closure_mod, "_logm_stack", fails_on_target)
        report = verify_multiplicative_closure(m, trials=trials, seed=seed)
        assert (report.status, report.discarded_trials) == ("inconclusive", 1)
        return calls

    few, many = logm_inputs(5), logm_inputs(100)
    assert [c.shape for c in few] == [(5, 3, 3)] and [c.shape for c in many] == [(100, 3, 3)]
    # trials 0..4 draw the same products at either trial count
    assert np.array_equal(few[0], many[0][:5])
    for trial in range(5):
        assert np.array_equal(few[0][trial], _draw_product(m, seed, trial, trials=100))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 0},
        {"trials": -5},
        {"tol": "1e-6"},
        {"t_max": -1.0},
        {"t_max": 0.0},
        {"t_max": math.inf},
        {"tol": 0.0},
        {"tol": -1e-6},
        {"tol": math.nan},
        {"tol": math.inf},
        {"seed": -1},
        {"seed": 1.5},
        {"trials": 2.5},
        {"trials": 20.0},
        {"trials": True},
        {"t_max": None},
        {"t_max": 1j},
        {"seed": True},
        {"seed": np.bool_(False)},
        {"tol": True},
        {"t_max": True},
        {"tol": np.bool_(True)},
    ],
)
def test_verify_closure_rejects_vacuous_settings(kwargs, monkeypatch):
    # SYM fails Lie closure, so no setting may turn it into a pass
    (name,) = kwargs

    def no_exact_checks(stack):
        raise AssertionError("the exact checks ran before the settings were checked")

    monkeypatch.setattr(closure_mod, "exact_checks", no_exact_checks)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        verify_multiplicative_closure(fixture("SYM").subspace, **kwargs)


def test_verify_closure_takes_numpy_integer_seed():
    m = fixture("SYM").subspace
    numpy_numbers = {"trials": np.int64(5), "seed": np.int64(3), "t_max": np.float64(1.0)}
    assert verify_multiplicative_closure(m, **numpy_numbers) == (
        verify_multiplicative_closure(m, trials=5, seed=3)
    )


@pytest.mark.parametrize(
    "flags",
    [["--trials", "-5"], ["--trials", "0"], ["--tol", "nan"], ["--seed", "-1"]],
)
def test_cli_verify_closure_rejects_vacuous_settings(flags, capsys):
    args = ["verify-closure", "--order", "2", "--model-id", "13f11cde8450671b"]
    assert cli.main(args + flags) == 1
    out = capsys.readouterr()
    assert "PASS" not in out.out
    assert out.err.startswith(f"error: {flags[0][2:]} must be")


def test_cli_verify_closure_passes(capsys):
    args = ["verify-closure", "--order", "2", "--model-id", "13f11cde8450671b"]
    assert cli.main(args + ["--trials", "5"]) == 0
    assert capsys.readouterr().out.startswith("PASS model 13f11cde8450671b")


def test_cli_verify_closure_names_the_check(capsys):
    # every catalog span is algebra-closed, so the product check decides
    args = ["verify-closure", "--order", "4", "--model-id", "e592fb285f7e55a7", "--trials", "5"]
    assert cli.main(args) == 0
    verdict, _, detail = capsys.readouterr().out.partition("\n")
    assert verdict.startswith("PASS model e592fb285f7e55a7 (order 4): max residual ")
    assert verdict.endswith(" over 5 trials, product check")
    assert json.loads(detail)["check"] == "product"


# --- reference kernels ----------------------------------------------------------


def norm1(a):
    return np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)


def reference_expm(q, t=1.0):
    """Scaling and squaring with a Taylor series: scale each matrix to 1-norm
    <= 0.5, sum until the term norm drops below 1e-18, square back."""
    q = np.asarray(q, dtype=float)
    single = q.ndim == 2
    q = q[None] if single else q
    t = np.broadcast_to(np.asarray(t, dtype=float), q.shape[:1])
    a = q * t[:, None, None]
    m, e = np.frexp(norm1(a) / 0.5)
    s = np.maximum(e - (m == 0.5), 0)
    x = np.ldexp(a, -s[:, None, None])
    result = np.broadcast_to(np.eye(q.shape[-1]), q.shape).copy()
    term = result
    live = np.ones(len(q), dtype=bool)
    for n in range(1, 62):
        term = term @ x / n
        result += term * live[:, None, None]
        live &= norm1(term) >= 1e-18
        if not live.any():
            break
    for j in range(s.max(initial=0)):
        todo = s > j
        result[todo] = result[todo] @ result[todo]
    return result[0] if single else result


def reference_logm_sqrt_route(p):
    """Inverse scaling and squaring with the alternating power series: square
    roots down to 1-norm 0.25 from the identity, then log(I + X) summed until
    the term norm drops below 1e-18."""
    a = np.array(p, dtype=float)
    single = a.ndim == 2
    a = a[None] if single else a
    n_mats, k, _ = a.shape
    ident = np.eye(k)
    depth = np.zeros(n_mats, dtype=int)
    todo = np.flatnonzero(norm1(a - ident) >= 0.25)
    for _ in range(40):
        if not todo.size:
            break
        root, rooted = _sqrtm_stack(a[todo])
        if not rooted.all():
            raise LogmConvergenceError("square-root iteration failed")
        a[todo] = root
        depth[todo] += 1
        todo = todo[norm1(root - ident) >= 0.25]
    if todo.size:
        raise LogmConvergenceError("still outside series radius after 40 square roots")
    x = a - ident
    total = np.zeros_like(a)
    power = np.broadcast_to(ident, a.shape)
    live = np.ones(n_mats, dtype=bool)
    for n in range(1, 200):
        power = power @ x
        term = power / n
        total += (term if n % 2 else -term) * live[:, None, None]
        live &= norm1(term) >= 1e-18
        if not live.any():
            break
    total = np.ldexp(total, depth[:, None, None])
    return total[0] if single else total


def reference_logm_stack(a):
    """``reference_logm_sqrt_route`` in the log kernel's (logs, ok) form; it
    raises instead of reporting a failure, so a failing input errors the test."""
    return reference_logm_sqrt_route(a), np.ones(len(a), dtype=bool)


def closure_inputs(seed, trials=20):
    """Per model of the 131 golden spans plus SYM: its rate matrices and
    times, seeded per model as the closure benchmark does."""
    models = golden_spans(every=1) + [fixture("SYM").subspace]
    assert len(models) == 132
    out = []
    for i, m in enumerate(models):
        gens = np.array(m.basis, dtype=float)
        d = len(gens)
        u = 1.0 - np.random.default_rng([seed * 1000 + i, 0]).random((trials, 2 * d + 2))
        c = np.concatenate([u[:, :d], u[:, d : 2 * d]])
        t = np.concatenate([u[:, 2 * d], u[:, 2 * d + 1]])
        out.append((m, np.tensordot(c, gens, axes=1), t))
    return out


@pytest.mark.parametrize("seed", [3, 5])
def test_kernels_match_references_on_closure_inputs(seed):
    for _, q, t in closure_inputs(seed):
        subst = expm(q, t)
        assert np.abs(subst - reference_expm(q, t)).max() < 1e-14
        prods = subst[:20] @ subst[20:]
        logs, ok = _logm_stack(prods)
        assert ok.all()
        assert np.abs(logs - reference_logm_sqrt_route(prods)).max() < 1e-12
        assert np.array_equal(logm(prods), logs)


def logged_spans():
    """Every span whose products verify takes logarithms of here: SYM, JJ3
    and the log-check spans of the mutation test, the golden spans with
    their first generator dropped that are not algebra-closed."""
    dropped = [subspace_from_generators(4, g.basis[1:]) for g in golden_spans(every=1) if g.dim >= 2]
    return [fixture("SYM").subspace, fixture("JJ3").subspace] + [
        m for m in dropped if not check_algebra_closed(m).closed
    ]


@pytest.mark.parametrize("seed", [3, 5])
def test_verify_closure_same_verdicts_with_reference_kernels(seed, monkeypatch):
    models = logged_spans()
    assert len(models) == 78
    fast = [
        verify_multiplicative_closure(m, trials=20, seed=seed * 1000 + i)
        for i, m in enumerate(models)
    ]
    assert {r.check for r in fast} == {"log"}
    # verify reaches the exponential through the kernel, which takes a stack of Q t
    monkeypatch.setattr(closure_mod, "_expm_stack", reference_expm)
    monkeypatch.setattr(closure_mod, "_logm_stack", reference_logm_stack)
    for i, (m, report) in enumerate(zip(models, fast)):
        ref = verify_multiplicative_closure(m, trials=20, seed=seed * 1000 + i)
        assert (report.status, report.discarded_trials) == (ref.status, ref.discarded_trials)
        assert abs(report.max_residual - ref.max_residual) < 1e-12
    # SYM and the 40 mutated spans that are not Lie-closed fail
    assert [r.status for r in fast].count("fail") == 41


def test_expm_nilpotent_closed_form():
    # N^3 = 0, so e^{Nt} = I + Nt + (Nt)^2 / 2 exactly; the larger times need
    # several squarings
    n = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 3.0, 0.0]])
    assert np.any(n @ n) and not np.any(n @ n @ n)
    for t in (0.1, 1.0, 7.5, 20.0):
        x = n * t
        closed = np.eye(3) + x + x @ x / 2
        assert np.abs(expm(n, t) - closed).max() <= 1e-14 * np.abs(closed).max()
        # and back: log(I + X + X^2/2) = X, through Denman-Beavers roots
        assert np.abs(db_route(closed) - x).max() <= 1e-14 * np.abs(x).max()


def test_expm_stack_with_different_squaring_counts_matches_single_calls():
    rng = np.random.default_rng(30)
    qs = np.array([random_rate_matrix(rng, 4) for _ in range(6)])
    ts = np.array([0.0, 0.5, 4.0, 20.0, 60.0, 150.0])
    norms = norm1(qs * ts[:, None, None])
    squarings = [max(0, math.ceil(math.log2(x / 5.371920351148152))) if x else 0 for x in norms]
    assert len(set(squarings)) >= 4
    stacked = expm(qs, ts)
    # the public expm is a validating wrapper of the one kernel
    assert np.array_equal(stacked, _expm_stack(qs * ts[:, None, None]))
    for q, t, m in zip(qs, ts, stacked):
        assert np.array_equal(m, expm(q, t))
        # the reference scales to 0.5, not 5.37, so it squares about three
        # more times and its own error grows with the squarings
        assert np.abs(m - reference_expm(q, t)).max() < 1e-13


# --- stacks that need no scaling ---------------------------------------------------


def counting_wrappers(monkeypatch, calls, targets):
    """Replace each (module, name) by a wrapper that counts its calls in ``calls``."""
    for module, name in targets:
        f = getattr(module, name)

        def counting(*args, _f=f, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)


def theta_matrix():
    """A 4 x 4 rate matrix of 1-norm exactly EXPM_THETA13: each column holds
    -h on the diagonal and h/2, h/4, h/4 off it, h = theta / 2, so every
    partial column sum is exact."""
    h = EXPM_THETA13 / 2
    q = np.zeros((4, 4))
    for j in range(4):
        others = [i for i in range(4) if i != j]
        q[j, j] = -h
        q[others, j] = [h / 2, h / 4, h / 4]
    assert norm1(q) == EXPM_THETA13
    return q


def test_expm_unscaled_stack_matches_single_calls_and_reference(monkeypatch):
    rng = np.random.default_rng(40)
    qs = [random_rate_matrix(rng, 4) for _ in range(5)]
    # from t = 0 up to the norm theta itself, with a matrix exactly at theta
    fractions = [0.0, 1e-3, 0.3, 0.9, 1.0]
    stack = np.array([q * (f * EXPM_THETA13 / norm1(q)) for q, f in zip(qs, fractions)])
    stack = np.concatenate([stack, theta_matrix()[None]])
    assert norm1(stack).max() == EXPM_THETA13
    calls = {}
    counting_wrappers(monkeypatch, calls, [(np, "ldexp"), (np, "frexp")])
    out = expm(stack)
    singles = [expm(a) for a in stack]
    assert calls == {}  # no scaling step, stacked or single
    for a, m, single in zip(stack, out, singles):
        assert np.array_equal(m, single)
        assert np.abs(m - reference_expm(a)).max() < 1e-13


def test_expm_theta_edge_in_a_scaled_stack(monkeypatch):
    # norm / theta = 1 has m == 0.5 in frexp, so a matrix at theta gets no
    # scaling in a stack that takes the scaling step too; 2 theta gets one
    q = theta_matrix()
    alone = expm(q)
    calls = {}
    counting_wrappers(monkeypatch, calls, [(np, "ldexp")])
    stacked = expm(np.array([q, 2 * q]))
    assert calls == {"ldexp": 1}
    assert np.array_equal(stacked[0], alone)
    assert np.array_equal(stacked[1], expm(2 * q))
    assert np.abs(stacked[1] - reference_expm(2 * q)).max() < 1e-13


def test_expm_nan_input_takes_the_scaling_step(monkeypatch):
    # NaN compares false with theta, so a stack with a NaN norm keeps the
    # general path; the NaN matrix gives NaN and the others their own results
    nan = np.array([[-1.0, np.nan], [1.0, -np.nan]])
    q = np.array([[-0.3, 0.2], [0.3, -0.2]])
    alone = expm(q)
    calls = {}
    counting_wrappers(monkeypatch, calls, [(np, "ldexp")])
    out = expm(np.array([nan, q]))
    assert calls == {"ldexp": 1}
    assert np.isnan(out[0]).all()
    assert np.array_equal(out[1], alone)
    assert np.isnan(expm(nan)).all()


def test_verify_closure_unscaled_stack_takes_no_type_pass_and_no_scaling(monkeypatch):
    m = golden_spans(every=1)[60]
    assert m.integral
    norms = []
    kernel = closure_mod._expm_stack

    def recording(a):
        norms.append(norm1(a).max())
        return kernel(a)

    monkeypatch.setattr(closure_mod, "_expm_stack", recording)
    calls = {}
    counting_wrappers(monkeypatch, calls, [(linalg, "integral_rows"), (np, "ldexp")])
    report = verify_multiplicative_closure(m, trials=20, seed=1060, t_max=1.0)
    assert (report.status, report.check) == ("pass", "product")
    assert len(norms) == 1 and norms[0] <= EXPM_THETA13
    assert calls == {}
    # the wrappers count: longer times need squaring, and a span whose
    # integral fact is withheld (a copy has it unknown) is scanned
    verify_multiplicative_closure(m, trials=20, seed=1060, t_max=8.0)
    assert norms[1] > EXPM_THETA13
    assert calls == {"ldexp": 1}
    verify_multiplicative_closure(dataclasses.replace(m), trials=20, seed=1060)
    assert calls == {"ldexp": 1, "integral_rows": 1}
