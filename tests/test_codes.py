import functools
import itertools
import json
import random
import warnings

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdconv.galois import make_field
from mdconv.multipoly import NEG_INF, Polynomial, PolyMatrix, monomials_upto
from mdconv import codes, superreg
from mdconv.distance import free_distance_estimate
from mdconv.superreg import (
    ConstMatrix,
    SearchExhaustedError,
    cauchy_matrix,
    is_superregular,
    random_matrices,
    random_superregular,
)
from mdconv.codes import (
    CERTIFIED_DISTANCE,
    CERTIFIED_MDS,
    MD_STAIRCASE_BOUND,
    NOT_CERTIFIED,
    RATE_1N,
    STAIRCASE_KN,
    CodeDescriptor,
    ConstructionError,
    FieldTooSmallError,
    Hypothesis,
    certify,
    construct_mds_rate_1n,
    construct_mds_staircase,
    phi_flatten,
    phi_lift,
    singleton_bound,
    singleton_witness,
    staircase_distance_bound,
    support_count,
    support_count_identity_check,
)
from oracles import internal_degree

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F11 = make_field(11)
F17 = make_field(17)


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------

def test_support_count_examples():
    for m in range(1, 5):
        assert support_count(0, m) == 1
    assert support_count(3, 1) == 4
    assert support_count(2, 2) == 6


def test_support_count_matches_enumeration():
    # Independent oracle: count the exponent vectors directly.
    for m in range(1, 4):
        for nu in range(0, 6):
            assert support_count(nu, m) == len(monomials_upto(nu, m))


def test_support_count_identity():
    assert support_count_identity_check(2, 2)  # 6 = 3 + 2 + 1
    assert support_count_identity_check(0, 3)
    assert support_count_identity_check(3, 2)  # 10 = 4 + 3 + 2 + 1
    for nu in range(0, 9):
        for m in range(2, 6):
            assert support_count_identity_check(nu, m)


# ---------------------------------------------------------------------------
# flatten / lift
# ---------------------------------------------------------------------------

def test_flatten_1d_example():
    G = PolyMatrix(F7, 1, [[
        Polynomial(F7, 1, {(0,): 1, (1,): 2}),
        Polynomial(F7, 1, {(0,): 3}),
    ]])
    flat = phi_flatten(G)
    assert flat.matrix.entries == ((1, 3), (2, 0))
    assert flat.row_index == ((1, (0,)), (1, (1,)))


def test_flatten_2d_single_entry_order():
    G = PolyMatrix(F7, 2, [[Polynomial(F7, 2, {(0, 0): 1, (1, 0): 2, (0, 1): 3})]])
    flat = phi_flatten(G)
    assert flat.matrix.entries == ((1,), (2,), (3,))
    assert [a for _, a in flat.row_index] == [(0, 0), (1, 0), (0, 1)]


def gf7_generator():
    return PolyMatrix(F7, 2, [[
        Polynomial(F7, 2, {(0, 0): 2, (1, 0): 3, (0, 1): 6}),
        Polynomial(F7, 2, {(0, 0): 5, (1, 0): 2, (0, 1): 3}),
        Polynomial(F7, 2, {(0, 0): 4, (1, 0): 5, (0, 1): 2}),
    ]])


def test_flatten_2d_gf7_example():
    flat = phi_flatten(gf7_generator())
    assert flat.matrix.entries == ((2, 5, 4), (3, 2, 5), (6, 3, 2))


def test_flatten_inserts_zero_slices_for_missing_terms():
    # A degree-2 row lacking the z1 term still emits a row for z1.
    G = PolyMatrix(F5, 1, [[Polynomial(F5, 1, {(0,): 1, (2,): 3})]])
    flat = phi_flatten(G)
    assert flat.matrix.entries == ((1,), (0,), (3,))


def test_flatten_rejects_zero_matrix():
    with pytest.raises(ValueError):
        phi_flatten(PolyMatrix(F5, 1, [[Polynomial.zero(F5, 1)]]))


def test_lift_inverts_flatten_examples():
    S = ConstMatrix(F7, ((1, 3), (2, 0)))
    G = phi_lift(S, 1, [(1, 1)])
    assert G.entries[0][0] == Polynomial(F7, 1, {(0,): 1, (1,): 2})
    assert G.entries[0][1] == Polynomial(F7, 1, {(0,): 3})

    S2 = ConstMatrix(F7, ((2, 5, 4), (3, 2, 5), (6, 3, 2)))
    assert phi_lift(S2, 2, [(1, 1)]) == gf7_generator()


def _examples(cases):
    """Apply one hypothesis @example per case."""
    return lambda test: functools.reduce(lambda t, case: example(case)(t), cases, test)


def _seed_37_lift_cases():
    """The 30 (S, m, plan) cases of the former seeded example loop."""
    rng = random.Random(37)
    cases = []
    for _ in range(30):
        F = rng.choice([F2, F5, F7])
        m = rng.choice([1, 2])
        plan = [(1, rng.randrange(0, 3)) for _ in range(rng.randrange(1, 3))]
        rows = sum(b * support_count(d, m) for b, d in plan)
        cols = rng.randrange(1, 4)
        S = ConstMatrix(F, tuple(
            tuple(rng.randrange(F.q) for _ in range(cols)) for _ in range(rows)
        ))
        cases.append((S, m, plan))
    return cases


@st.composite
def descending_lift_cases(draw):
    F = draw(st.sampled_from([F2, F5, F7]))
    m = draw(st.integers(1, 2))
    profile = sorted(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)), reverse=True)
    rows = sum(support_count(d, m) for d in profile)
    cols = draw(st.integers(1, 3))
    entry = st.integers(0, F.q - 1)
    S = ConstMatrix(F, tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows)))
    return S, m, [(1, d) for d in profile]


@settings(max_examples=100, deadline=None)
@given(descending_lift_cases())
@_examples(_seed_37_lift_cases())
def test_lift_then_flatten_is_identity(case):
    S, m, plan = case
    G = phi_lift(S, m, plan)
    # The round trip only holds when each row attains its planned degree.
    assume(list(G.row_degrees()) == [d for b, d in plan for _ in range(b)])
    assert phi_flatten(G).matrix == S


def test_flatten_then_lift_is_identity_on_full_support_closure():
    G = gf7_generator()
    flat = phi_flatten(G)
    assert phi_lift(flat.matrix, 2, [(1, 1)]) == G


def test_lift_row_count_mismatch():
    with pytest.raises(ValueError):
        phi_lift(ConstMatrix(F5, ((1,), (2,))), 2, [(1, 1)])


def test_flatten_row_count_matches_support_count():
    rng = random.Random(41)
    for m in (1, 2, 3):
        for d in (0, 1, 2):
            exps = monomials_upto(d, m)
            row = [
                Polynomial(F7, m, {a: rng.randrange(1, 7) for a in exps})
                for _ in range(2)
            ]
            flat = phi_flatten(PolyMatrix(F7, m, [row]))
            assert flat.matrix.rows == support_count(d, m)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_singleton_bound_examples():
    assert singleton_bound(1, 1, 2, 1) == 4
    assert singleton_bound(2, 1, 3, 1) == 9
    assert singleton_bound(2, 2, 5, 3) == 15
    assert singleton_bound(3, 1, 3, 2) == 30


def test_singleton_bound_reduces_to_classical_for_m1():
    for k in range(1, 7):
        for n in range(k, 7):
            for delta in range(0, 7):
                classical = (n - k) * (delta // k + 1) + delta + 1
                assert singleton_bound(1, k, n, delta) == classical


def test_singleton_bound_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        singleton_bound(1, 3, 2, 0)
    with pytest.raises(ValueError):
        singleton_bound(1, 1, 1, -1)


def test_staircase_distance_bound():
    for n in range(1, 5):
        for nu in range(0, 4):
            assert staircase_distance_bound(1, n, nu) == n * (nu + 1)
    assert staircase_distance_bound(2, 3, 1) == 9
    assert staircase_distance_bound(2, 5, 1) == 15


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_construct_rate_1n_gf7_cauchy():
    code, cert = construct_mds_rate_1n(F7, 2, 3, 1, source="cauchy")
    assert code.generator == gf7_generator()
    assert cert.theorem == RATE_1N
    assert cert.verdict == CERTIFIED_MDS
    assert cert.certified_distance == 9


def test_construct_rate_1n_explicit_phi():
    phi = ConstMatrix(F5, ((1, 1), (1, 2)))
    code, cert = construct_mds_rate_1n(F5, 1, 2, 1, source=phi)
    assert code.generator.entries[0][0] == Polynomial(F5, 1, {(0,): 1, (1,): 1})
    assert code.generator.entries[0][1] == Polynomial(F5, 1, {(0,): 1, (1,): 2})
    assert cert.verdict == CERTIFIED_MDS
    assert cert.certified_distance == 4


def test_construct_rate_1n_field_too_small():
    with pytest.raises(FieldTooSmallError):
        construct_mds_rate_1n(F2, 2, 3, 1, source="cauchy")  # needs q >= 6


def test_construct_rate_1n_precondition():
    with pytest.raises(ValueError):
        construct_mds_rate_1n(F7, 1, 1, 1)


def test_construct_rate_1n_random_source():
    code, cert = construct_mds_rate_1n(F7, 1, 3, 1, source="random", seed=2)
    assert cert.verdict == CERTIFIED_MDS
    code2, _ = construct_mds_rate_1n(F7, 1, 3, 1, source="random", seed=2)
    assert code.generator == code2.generator


def test_construct_staircase_gf17():
    code, cert = construct_mds_staircase(F17, 2, 2, 5, 1)
    assert cert.theorem == STAIRCASE_KN
    assert cert.verdict == CERTIFIED_MDS
    assert cert.certified_distance == 15
    flat = phi_flatten(code.generator)
    assert (flat.matrix.rows, flat.matrix.cols) == (9, 5)
    assert [int(d) for d in code.generator.row_degrees()] == [2, 1]


def test_staircase_shape_and_bound_arithmetic_m1():
    # m=1, k=2, nu=1: degree 3, bound (3-2)*2 + 4 = 6, flatten shape 5 x n.
    assert singleton_bound(1, 2, 3, 3) == 6
    assert support_count(2, 1) + support_count(1, 1) == 5
    code, cert = construct_mds_staircase(make_field(11), 1, 2, 5, 1)
    assert cert.certified_distance == singleton_bound(1, 2, 5, 3) == 10
    assert phi_flatten(code.generator).matrix.rows == 5


def test_construct_staircase_length_precondition():
    with pytest.raises(ValueError):
        construct_mds_staircase(F17, 2, 2, 4, 1)  # needs n >= 5


@pytest.mark.parametrize("entries", [((1, 2), (0, 0)), ((1, 2), (2, 4))])
def test_construct_rejects_explicit_source_that_is_not_superregular(entries):
    # ((1, 2), (0, 0)) lifts to a degree-0 row whose own flattening is
    # superregular; ((1, 2), (2, 4)) has a zero 2x2 minor.
    with pytest.raises(ConstructionError, match="not superregular"):
        construct_mds_rate_1n(F5, 1, 2, 1, source=ConstMatrix(F5, entries))


@pytest.mark.parametrize("construct", [
    lambda **kw: construct_mds_rate_1n(F7, 1, 2, 1, **kw),
    lambda **kw: construct_mds_staircase(F7, 1, 2, 3, 0, **kw),
], ids=["rate_1n", "staircase"])
@pytest.mark.parametrize("max_tries", [0, -3])
def test_construct_rejects_max_tries_below_one(construct, max_tries):
    with pytest.raises(ValueError, match="max_tries"):
        construct(source="random", max_tries=max_tries)


def _scanned_matrices(monkeypatch):
    """Record every matrix handed to `is_superregular`, by either module."""
    scanned = []

    def counting(A):
        scanned.append(A.entries)
        return is_superregular(A)

    monkeypatch.setattr(codes, "is_superregular", counting)
    monkeypatch.setattr(superreg, "is_superregular", counting)
    return scanned


@pytest.mark.parametrize("source", [
    "cauchy", ConstMatrix(F5, ((1, 1), (1, 2))), cauchy_matrix(F7, [0, 1], [2, 3]),
])
def test_explicit_and_cauchy_sources_are_scanned_once(monkeypatch, source):
    F = source.field if isinstance(source, ConstMatrix) else F7
    scanned = _scanned_matrices(monkeypatch)
    code, cert = construct_mds_rate_1n(F, 1, 2, 1, source=source)
    assert cert.verdict == CERTIFIED_MDS
    assert scanned == [phi_flatten(code.generator).matrix.entries]


@pytest.mark.parametrize("F, seed", [(F7, 2), (F7, 5), (F11, 0), (make_field(3, 2), 1)])
def test_random_source_scans_each_try_once(monkeypatch, F, seed):
    stream = random_matrices(F, 3, 3, seed)
    tries = 1 + next(i for i, A in enumerate(stream) if is_superregular(A).verdict)
    scanned = _scanned_matrices(monkeypatch)
    code, _ = construct_mds_staircase(F, 1, 2, 3, 0, source="random", seed=seed)
    losers = itertools.islice(random_matrices(F, 3, 3, seed), tries - 1)
    assert scanned == [A.entries for A in losers] + [phi_flatten(code.generator).matrix.entries]


ORACLE_FIELDS = [make_field(*pe) for pe in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]]


@st.composite
def random_construction_cases(draw):
    F = draw(st.sampled_from(ORACLE_FIELDS))
    m = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        delta = draw(st.integers(0, 1))
        n = draw(st.integers(delta + 1, delta + 2))
        build, dims, profile = construct_mds_rate_1n, (n, delta), [delta]
    else:
        nu = draw(st.integers(0, 1 if m == 1 else 0))
        n = draw(st.integers(2 * nu + 3, 2 * nu + 4))
        build, dims, profile = construct_mds_staircase, (2, n, nu), [nu + 1, nu]
    return F, m, n, build, dims, profile, draw(st.integers(0, 2**31)), draw(st.integers(1, 40))


def _oracle_construct(F, m, profile, n, seed, max_tries):
    """The pre-scan path: pick a superregular source, then lift and certify."""
    rows = sum(support_count(d, m) for d in profile)
    S = random_superregular(F, rows, n, seed=seed, max_tries=max_tries)
    code = CodeDescriptor.from_generator(phi_lift(S, m, [(1, d) for d in profile]))
    return code, certify(code)


def _outcome(call):
    try:
        code, cert = call()
    except (SearchExhaustedError, ConstructionError) as exc:
        return type(exc), str(exc)
    return code.to_json(), cert.to_json()


@settings(max_examples=150, deadline=None)
@given(random_construction_cases())
def test_random_construction_matches_prescan_oracle(case):
    F, m, n, build, dims, profile, seed, max_tries = case
    got = _outcome(lambda: build(F, m, *dims, source="random", seed=seed, max_tries=max_tries))
    want = _outcome(lambda: _oracle_construct(F, m, profile, n, seed, max_tries))
    if got[0] is FieldTooSmallError:
        # Refused before the first draw by the q + 1 bound: the pre-scan
        # search, which draws anyway, must find no superregular source.
        assert want[0] is SearchExhaustedError
    else:
        assert got == want


def test_random_source_beyond_ball_bound_is_refused_before_any_scan(monkeypatch):
    # 3x4 over GF(5) and 9x5 over GF(7) once took 10,000 scans to exit 3.
    scanned = _scanned_matrices(monkeypatch)
    for build in [lambda: construct_mds_rate_1n(F5, 2, 4, 1, source="random"),
                  lambda: construct_mds_staircase(F7, 2, 2, 5, 1, source="random")]:
        with pytest.raises(FieldTooSmallError, match=r"r \+ s <= q \+ 1"):
            build()
    assert scanned == []
    with pytest.raises(ValueError, match="max_tries"):
        construct_mds_rate_1n(F5, 2, 4, 1, source="random", max_tries=0)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_ball_bound_refuses_exactly_the_shapes_beyond_q_plus_1(monkeypatch, q):
    # Every construction shape up to 16 rows and q + 3 columns, with an empty
    # random stream: a shape is refused iff r, s >= 2 and r + s > q + 1, and
    # otherwise reaches the (empty) search.
    F = make_field(q)
    monkeypatch.setattr(codes, "random_matrices", lambda *args: iter(()))
    for m, k, nu in itertools.product([1, 2, 3], [1, 2, 3], [0, 1, 2]):
        profile = [nu + 1] * (k - 1) + [nu]
        rows = sum(codes.support_count(d, m) for d in profile)
        if rows > 16:
            continue
        for n in range(codes._min_length(profile), q + 4):
            with pytest.raises(ConstructionError) as exc:
                construct_mds_staircase(F, m, k, n, nu, source="random")
            refused = min(rows, n) >= 2 and rows + n > q + 1
            assert (exc.type is FieldTooSmallError) == refused, (m, k, nu, n)


@pytest.mark.parametrize("F, r, s", [(F2, 2, 2), (F3, 2, 3), (F3, 3, 2)])
def test_no_superregular_matrix_just_beyond_ball_bound(F, r, s):
    # The refusals are right on the smallest prime fields: no r x s matrix
    # with r + s = q + 2 passes the scan.
    for E in itertools.product(range(1, F.q), repeat=r * s):
        A = ConstMatrix(F, tuple(tuple(E[i * s:(i + 1) * s]) for i in range(r)))
        assert not is_superregular(A).verdict


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_constructed_code_passes_three_hypotheses():
    code, _ = construct_mds_rate_1n(F7, 2, 3, 1)
    cert = certify(code)
    assert cert.verdict == CERTIFIED_MDS
    assert len(cert.hypotheses) == 3
    assert all(h.passed for h in cert.hypotheses)


def test_certify_worked_example_not_certified():
    one = Polynomial.constant(F2, 2, 1)
    z1 = Polynomial.monomial(F2, (1, 0))
    z2 = Polynomial.monomial(F2, (0, 1))
    zero = Polynomial.zero(F2, 2)
    G = PolyMatrix(F2, 2, [[one, z1, zero], [one, z2, one]])
    cert = certify(CodeDescriptor.from_generator(G))
    assert cert.verdict == NOT_CERTIFIED
    sr = next(h for h in cert.hypotheses if h.name == "flatten_superregular")
    assert not sr.passed  # the flatten contains zero entries


def test_certify_single_row_length_failure():
    G = PolyMatrix(F5, 1, [[Polynomial(F5, 1, {(0,): 1, (1,): 1})]])
    cert = certify(CodeDescriptor.from_generator(G))  # n = 1 = delta
    assert cert.verdict == NOT_CERTIFIED
    failed = next(h for h in cert.hypotheses if not h.passed)
    assert failed.name == "length_at_least_degree_plus_one"


# k = 2 > n = 1 with the staircase profile [1, 0]: the length condition
# fails, and the certificate needs no Singleton bound (undefined for k > n).
K_ABOVE_N_CODE = {"field": {"p": 5, "e": 1}, "m": 1, "k": 2, "n": 1,
                  "generator": [[[[[0], 1], [[1], 1]]], [[[[0], 2]]]]}


def test_certify_staircase_profile_with_k_above_n():
    cert = certify(CodeDescriptor.from_json(K_ABOVE_N_CODE))
    assert cert.theorem == STAIRCASE_KN
    assert cert.verdict == NOT_CERTIFIED
    length = cert.hypotheses[1]
    assert (length.name, length.passed) == ("length_condition", False)
    assert length.detail == "n = 1, k(nu+2) - 1 = 3"
    assert len(cert.hypotheses) == 2


def test_certify_md_staircase_profile():
    # Three degree blocks 2 > 1 > 0 at the least admissible length
    # n = 3 + 2 + 1, over the least prime field large enough for Cauchy.
    rows = support_count(2, 2) + support_count(1, 2) + support_count(0, 2)
    n = 6
    S = cauchy_matrix(F17, list(range(rows)), list(range(rows, rows + n)))
    G = phi_lift(S, 2, [(1, 2), (1, 1), (1, 0)])
    cert = certify(CodeDescriptor.from_generator(G))
    assert cert.theorem == MD_STAIRCASE_BOUND
    assert cert.verdict == CERTIFIED_DISTANCE
    assert cert.certified_distance == staircase_distance_bound(2, n, 0) == n
    assert cert.hypotheses[-1] == Hypothesis(
        "meets_singleton_bound", False, "certified distance 6, Singleton bound 16"
    )


def _lifted(F, m, degrees, entries):
    S = ConstMatrix(F, tuple(tuple(r) for r in entries))
    return CodeDescriptor.from_generator(phi_lift(S, m, [(1, d) for d in degrees]))


def _cauchy(F, r, s):
    return cauchy_matrix(F, list(range(r)), list(range(r, r + s))).entries


def _zero_row_code():
    one, two = Polynomial.constant(F5, 1, 1), Polynomial.constant(F5, 1, 2)
    G = PolyMatrix(F5, 1, [[one, two], [Polynomial.zero(F5, 1)] * 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = CodeDescriptor.from_generator(G)
    assert code.generator.row_degrees() == [0, NEG_INF]
    return code


# One small code per certificate outcome, with the exact certificate JSON
# recorded before `certify` was folded into one rule; md_staircase_pass
# gained the Singleton-bound hypothesis and verdict since.
GOLDEN_CERTIFICATES = [
    ("rate_1n_pass", lambda: _lifted(F5, 1, [1], [[1, 1], [1, 2]]),
     '{"certified_distance": 4, "hypotheses": [{"detail": "k = 1, row degree 1", "name": "single_row_generator", "passed": true}, {"detail": "n = 2, delta + 1 = 2", "name": "length_at_least_degree_plus_one", "passed": true}, {"detail": "all 5 minors nonzero", "name": "flatten_superregular", "passed": true}], "theorem": "RATE_1N", "verdict": "CERTIFIED_MDS"}'),
    ("rate_1n_length_fail", lambda: _lifted(F5, 1, [1], [[1], [1]]),
     '{"certified_distance": null, "hypotheses": [{"detail": "k = 1, row degree 1", "name": "single_row_generator", "passed": true}, {"detail": "n = 1, delta + 1 = 2", "name": "length_at_least_degree_plus_one", "passed": false}], "theorem": "RATE_1N", "verdict": "NOT_CERTIFIED"}'),
    ("rate_1n_sr_fail", lambda: _lifted(F5, 1, [1], [[1, 0], [1, 2]]),
     '{"certified_distance": null, "hypotheses": [{"detail": "k = 1, row degree 1", "name": "single_row_generator", "passed": true}, {"detail": "n = 2, delta + 1 = 2", "name": "length_at_least_degree_plus_one", "passed": true}, {"detail": "zero minor at rows [0], cols [1]", "name": "flatten_superregular", "passed": false}], "theorem": "RATE_1N", "verdict": "NOT_CERTIFIED"}'),
    ("staircase_pass", lambda: _lifted(F7, 1, [1, 0], _cauchy(F7, 3, 3)),
     '{"certified_distance": 3, "hypotheses": [{"detail": "1 rows of degree 1, one of degree 0", "name": "staircase_row_degrees", "passed": true}, {"detail": "n = 3, k(nu+2) - 1 = 3", "name": "length_condition", "passed": true}, {"detail": "all 19 minors nonzero", "name": "flatten_superregular", "passed": true}], "theorem": "STAIRCASE_KN", "verdict": "CERTIFIED_MDS"}'),
    ("staircase_length_fail", lambda: _lifted(F7, 1, [1, 0], _cauchy(F7, 3, 2)),
     '{"certified_distance": null, "hypotheses": [{"detail": "1 rows of degree 1, one of degree 0", "name": "staircase_row_degrees", "passed": true}, {"detail": "n = 2, k(nu+2) - 1 = 3", "name": "length_condition", "passed": false}], "theorem": "STAIRCASE_KN", "verdict": "NOT_CERTIFIED"}'),
    ("staircase_sr_fail", lambda: _lifted(F7, 1, [1, 0], [[1, 2, 3], [1, 1, 1], [1, 0, 4]]),
     '{"certified_distance": null, "hypotheses": [{"detail": "1 rows of degree 1, one of degree 0", "name": "staircase_row_degrees", "passed": true}, {"detail": "n = 3, k(nu+2) - 1 = 3", "name": "length_condition", "passed": true}, {"detail": "zero minor at rows [2], cols [1]", "name": "flatten_superregular", "passed": false}], "theorem": "STAIRCASE_KN", "verdict": "NOT_CERTIFIED"}'),
    ("md_staircase_pass", lambda: _lifted(F11, 1, [2, 0], _cauchy(F11, 4, 4)),
     '{"certified_distance": 4, "hypotheses": [{"detail": "profile [2, 0], last degree strictly smallest", "name": "descending_row_degrees", "passed": true}, {"detail": "n = 4, required 4", "name": "length_condition", "passed": true}, {"detail": "all 69 minors nonzero", "name": "flatten_superregular", "passed": true}, {"detail": "certified distance 4, Singleton bound 7", "name": "meets_singleton_bound", "passed": false}], "theorem": "MD_STAIRCASE_BOUND", "verdict": "CERTIFIED_DISTANCE"}'),
    ("md_staircase_length_fail", lambda: _lifted(F11, 1, [2, 0], _cauchy(F11, 4, 3)),
     '{"certified_distance": null, "hypotheses": [{"detail": "profile [2, 0], last degree strictly smallest", "name": "descending_row_degrees", "passed": true}, {"detail": "n = 3, required 4", "name": "length_condition", "passed": false}], "theorem": "MD_STAIRCASE_BOUND", "verdict": "NOT_CERTIFIED"}'),
    ("md_staircase_sr_fail",
     lambda: _lifted(F11, 1, [2, 0], [[1, 2, 3, 4], [0, 1, 1, 1], [1, 5, 6, 7], [1, 1, 1, 1]]),
     '{"certified_distance": null, "hypotheses": [{"detail": "profile [2, 0], last degree strictly smallest", "name": "descending_row_degrees", "passed": true}, {"detail": "n = 4, required 4", "name": "length_condition", "passed": true}, {"detail": "zero minor at rows [1], cols [0]", "name": "flatten_superregular", "passed": false}], "theorem": "MD_STAIRCASE_BOUND", "verdict": "NOT_CERTIFIED"}'),
    ("unrecognized_profile", lambda: _lifted(F5, 1, [0, 1], [[1, 2, 3], [1, 1, 1], [1, 4, 2]]),
     '{"certified_distance": null, "hypotheses": [{"detail": "profile [0, 1] matches no construction theorem", "name": "recognized_row_degree_profile", "passed": false}, {"detail": "zero minor at rows [0, 1, 2], cols [0, 1, 2]", "name": "flatten_superregular", "passed": false}], "theorem": "MD_STAIRCASE_BOUND", "verdict": "NOT_CERTIFIED"}'),
    ("zero_row", _zero_row_code,
     '{"certified_distance": null, "hypotheses": [{"detail": "generator contains a zero row", "name": "nonzero_rows", "passed": false}], "theorem": "MD_STAIRCASE_BOUND", "verdict": "NOT_CERTIFIED"}'),
]


@pytest.mark.parametrize(
    "build, expected",
    [case[1:] for case in GOLDEN_CERTIFICATES],
    ids=[case[0] for case in GOLDEN_CERTIFICATES],
)
def test_certificate_json_golden(build, expected):
    assert json.dumps(certify(build()).to_json(), sort_keys=True) == expected


@st.composite
def codes_and_column_permutations(draw):
    F = draw(st.sampled_from(
        [F2, F5, F7, F11, make_field(13), make_field(2, 2), make_field(3, 2)]
    ))
    m = draw(st.integers(1, 2))
    shape = draw(st.sampled_from(["staircase", "descending", "any"]))
    k = draw(st.integers(1, 3))
    profile = draw(st.lists(st.integers(0, 3 - m), min_size=k, max_size=k))
    if shape == "staircase":
        nu = min(profile[0], 2 - m)
        profile = [nu + 1] * (k - 1) + [nu]
    elif shape == "descending":
        profile.sort(reverse=True)
    rows = sum(support_count(d, m) for d in profile)
    # n near the length threshold n >= sum_{i<k}(d_i + 1) + d_k + 1.
    need = sum(profile) + len(profile)
    n = max(1, min(need + draw(st.integers(-2, 2)), 12 - rows))
    if F.q >= rows + n and draw(st.integers(0, 3)):  # mostly Cauchy, which passes
        entries = _cauchy(F, rows, n)
    else:
        entry = st.integers(0, F.q - 1)
        entries = [[draw(entry) for _ in range(n)] for _ in range(rows)]
    return _lifted(F, m, profile, entries), draw(st.permutations(range(n)))


@settings(max_examples=100, deadline=None)
@given(codes_and_column_permutations())
@example((CodeDescriptor.from_generator(gf7_generator()), random.Random(43).sample(range(3), 3)))
@example((_lifted(F7, 1, [1, 0], _cauchy(F7, 3, 3)), [2, 0, 1]))
@example((_lifted(F11, 1, [2, 0], _cauchy(F11, 4, 4)), [3, 1, 0, 2]))
def test_certify_invariant_under_column_permutation(case):
    # Column permutations keep the row degrees and permute the minors of the
    # flattening, so only the location of a zero minor may move.
    code, perm = case
    G = code.generator
    Gp = PolyMatrix(G.field, G.m, [[row[j] for j in perm] for row in G.entries])
    permuted = certify(CodeDescriptor.from_generator(Gp))
    cert = certify(code)
    if cert.verdict != NOT_CERTIFIED:
        assert permuted.to_json() == cert.to_json()
    else:
        assert (permuted.theorem, permuted.verdict) == (cert.theorem, cert.verdict)


# (m, profile) pairs: rate 1/n, staircase, and descending non-staircase.
SINGLETON_PROFILES = [
    (1, [0]), (1, [1]), (1, [2]), (2, [0]), (2, [1]),
    (1, [1, 0]), (1, [2, 1]), (1, [1, 1, 0]), (2, [1, 0]),
    (1, [2, 0]), (1, [3, 0]), (1, [2, 1, 0]), (2, [2, 0]),
]
SINGLETON_FIELDS = [make_field(*pe) for pe in [(5, 1), (7, 1), (11, 1), (13, 1), (2, 3), (3, 2), (2, 4)]]


@st.composite
def cauchy_lifted_codes(draw):
    """A lift of a Cauchy source with n at or just above the length threshold."""
    m, profile = draw(st.sampled_from(SINGLETON_PROFILES))
    rows = sum(support_count(d, m) for d in profile)
    need = sum(profile) + len(profile)
    F = draw(st.sampled_from([F for F in SINGLETON_FIELDS if F.q >= rows + need]))
    n = draw(st.integers(need, min(need + 1, F.q - rows, 48 // rows)))
    points = draw(st.permutations(range(F.q)))
    S = cauchy_matrix(F, points[:rows], points[rows:rows + n])
    return CodeDescriptor.from_generator(phi_lift(S, m, [(1, d) for d in profile]))


@settings(max_examples=80, deadline=None)
@given(cauchy_lifted_codes())
@example(_lifted(F11, 1, [2, 0], _cauchy(F11, 4, 4)))
def test_certified_verdict_matches_singleton_bound_and_search(code):
    # MDS means the free distance meets the generalized Singleton bound for
    # the code's degree; only rate 1/n and staircase profiles can.  The
    # cap-0 search finds the certified distance: superregularity bounds
    # every weight from below and the last generator row attains it.
    G = code.generator
    cert = certify(code)
    assert cert.verdict != NOT_CERTIFIED
    assert (cert.verdict == CERTIFIED_MDS) == (cert.theorem != MD_STAIRCASE_BOUND)
    if cert.verdict == CERTIFIED_MDS:
        assert cert.certified_distance == singleton_bound(code.m, code.k, code.n, internal_degree(G))
    assert free_distance_estimate(G, 0).min_weight_found == cert.certified_distance


def test_certified_minimal_row_weight_equals_distance():
    for code, cert in [
        construct_mds_rate_1n(F7, 2, 3, 1),
        construct_mds_staircase(F17, 2, 2, 5, 1),
    ]:
        min_row = min(range(code.k), key=lambda i: code.generator.row_degrees()[i])
        w = sum(p.weight() for p in code.generator.entries[min_row])
        assert w == cert.certified_distance


# ---------------------------------------------------------------------------
# Singleton witness
# ---------------------------------------------------------------------------

def test_witness_single_row():
    code, _ = construct_mds_rate_1n(F7, 2, 3, 1)
    message, codeword, w = singleton_witness(code)
    assert message.entries[0][0] == Polynomial.constant(F7, 2, 1)
    assert codeword == code.generator
    assert w == 9


def test_witness_hand_example_gf2():
    one = Polynomial.constant(F2, 1, 1)
    z = Polynomial.monomial(F2, (1,))
    G = PolyMatrix(F2, 1, [[one, z], [one, one]])
    code = CodeDescriptor.from_generator(G)
    message, codeword, w = singleton_witness(code)
    assert [p.coeff((0,)) for p in message.entries[0]] == [0, 1]
    assert codeword.entries[0] == (one, one)
    assert w == 2 == singleton_bound(1, 2, 2, 1)


def test_witness_rejects_rank_deficient():
    one = Polynomial.constant(F2, 1, 1)
    G = PolyMatrix(F2, 1, [[one, one], [one, one]])
    with pytest.raises(ValueError):
        singleton_witness(CodeDescriptor.from_generator(G))


def _random_poly(rng, field, m, degree):
    exps = monomials_upto(degree, m)
    return Polynomial(field, m, {a: rng.randrange(field.q) for a in exps})


def test_witness_weight_never_exceeds_bound():
    rng = random.Random(47)
    fields = [make_field(2), make_field(3), make_field(2, 2), make_field(5), make_field(7)]
    done = 0
    while done < 120:
        field = rng.choice(fields)
        m = rng.choice([1, 2])
        k = rng.randrange(1, 4)
        n = rng.randrange(k, 6)
        if n < k:
            continue
        G = PolyMatrix(field, m, [
            [_random_poly(rng, field, m, rng.randrange(0, 3)) for _ in range(n)]
            for _ in range(k)
        ])
        if any(all(p.is_zero() for p in row) for row in G.entries):
            continue
        if not G.has_full_row_rank():
            continue
        code = CodeDescriptor.from_generator(G)
        _, _, w = singleton_witness(code)
        assert w <= singleton_bound(m, k, n, code.generator.external_degree())
        done += 1


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key, bad", [("m", "2"), ("k", 1.0), ("n", True)])
def test_code_descriptor_from_json_rejects_non_integers(key, bad):
    code, _ = construct_mds_rate_1n(F7, 2, 3, 1)
    with pytest.raises(ValueError, match="expected an integer"):
        CodeDescriptor.from_json({**code.to_json(), key: bad})


def test_code_descriptor_validates_and_round_trips():
    code, _ = construct_mds_rate_1n(F7, 2, 3, 1)
    assert code.generator.row_degrees() == [1]
    assert CodeDescriptor.from_json(code.to_json()) == code
    with pytest.raises(ValueError):
        CodeDescriptor(F7, 2, 2, 3, code.generator)
