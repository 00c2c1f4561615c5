import random
import subprocess
import sys
import threading
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from mdconv.galois import make_field
from mdconv.multipoly import Polynomial, PolyMatrix, monomials_upto
from mdconv.codes import construct_mds_rate_1n
from mdconv.superreg import ConstMatrix
import mdconv.distance as distance
from mdconv.distance import (
    DistanceReport,
    _Enumerator,
    codeword_weight_profile,
    default_cap,
    encode,
    free_distance_estimate,
)

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


def test_encode_zero_message():
    G = PolyMatrix(F2, 2, [[Polynomial.constant(F2, 2, 1), Polynomial.monomial(F2, (1, 0))]])
    u = PolyMatrix(F2, 2, [[Polynomial.zero(F2, 2)]])
    assert encode(u, G).weight() == 0


def test_encode_monomial_shift():
    G = PolyMatrix(F2, 2, [[Polynomial.constant(F2, 2, 1), Polynomial.monomial(F2, (1, 0))]])
    u = PolyMatrix(F2, 2, [[Polynomial.monomial(F2, (0, 1))]])
    w = encode(u, G)
    assert w.entries[0][0] == Polynomial.monomial(F2, (0, 1))
    assert w.entries[0][1] == Polynomial(F2, 2, {(1, 1): 1})
    assert w.weight() == 2


def test_encode_hand_example_gf5():
    G = PolyMatrix(F5, 1, [[
        Polynomial(F5, 1, {(0,): 1, (1,): 1}),
        Polynomial(F5, 1, {(0,): 1, (1,): 2}),
    ]])
    u = PolyMatrix(F5, 1, [[Polynomial(F5, 1, {(0,): 1, (1,): 1})]])
    w = encode(u, G)
    assert w.entries[0][0] == Polynomial(F5, 1, {(0,): 1, (1,): 2, (2,): 1})
    assert w.entries[0][1] == Polynomial(F5, 1, {(0,): 1, (1,): 3, (2,): 2})
    assert w.weight() == 6


def test_encode_dimension_mismatch():
    G = PolyMatrix(F2, 1, [[Polynomial.constant(F2, 1, 1)] * 2])
    u = PolyMatrix(F2, 1, [[Polynomial.constant(F2, 1, 1)] * 2])
    with pytest.raises(ValueError):
        encode(u, G)


def test_encode_is_linear():
    rng = random.Random(53)
    exps = monomials_upto(2, 2)
    for _ in range(40):
        F = rng.choice([F3, F5])
        G = PolyMatrix(F, 2, [
            [Polynomial(F, 2, {a: rng.randrange(F.q) for a in exps}) for _ in range(3)]
            for _ in range(2)
        ])
        u1, u2 = (
            PolyMatrix(F, 2, [[
                Polynomial(F, 2, {a: rng.randrange(F.q) for a in exps})
                for _ in range(2)
            ]])
            for _ in range(2)
        )
        both = PolyMatrix(F, 2, [[a + b for a, b in zip(u1.entries[0], u2.entries[0])]])
        lhs = encode(both, G)
        rhs = PolyMatrix(F, 2, [[a + b for a, b in zip(encode(u1, G).entries[0],
                                                       encode(u2, G).entries[0])]])
        assert lhs == rhs
        c = Polynomial.constant(F, 2, rng.randrange(1, F.q))
        scaled = PolyMatrix(F, 2, [[p * c for p in u1.entries[0]]])
        assert encode(scaled, G) == PolyMatrix(F, 2, [[p * c for p in encode(u1, G).entries[0]]])


def gf5_code():
    code, _ = construct_mds_rate_1n(F5, 1, 2, 1, source=ConstMatrix(F5, ((1, 1), (1, 2))))
    return code


def test_estimate_gf5_example():
    rep = free_distance_estimate(gf5_code().generator, 3)
    assert rep.min_weight_found == 4
    # Achieved by a constant message.
    assert rep.witness_message.entries[0][0] == Polynomial.constant(F5, 1, 1)
    assert not rep.below_bound


def test_estimate_gf7_2d_example():
    code, _ = construct_mds_rate_1n(F7, 2, 3, 1)
    rep = free_distance_estimate(code.generator, 2, stop_below=9)
    assert rep.min_weight_found == 9
    assert not rep.below_bound


def test_stop_below_one_never_triggers_on_full_rank():
    code, _ = construct_mds_rate_1n(F7, 1, 3, 2)
    rep = free_distance_estimate(code.generator, 2, stop_below=1)
    assert not rep.below_bound
    assert rep.min_weight_found >= 1


def test_cap_zero_single_row_degenerates_to_row_weight():
    code = gf5_code()
    rep = free_distance_estimate(code.generator, 0)
    assert rep.min_weight_found == code.generator.weight()
    assert rep.messages_tried == 1  # scalar normalization leaves only u = [1]


def test_monotone_in_cap():
    code, _ = construct_mds_rate_1n(F7, 1, 4, 2)
    prev = None
    for cap in range(0, 4):
        rep = free_distance_estimate(code.generator, cap)
        if prev is not None:
            assert rep.min_weight_found <= prev
        prev = rep.min_weight_found


def _brute_force_min_weight(G, cap):
    """Oracle: scan every nonzero message without any symmetry reduction;
    also count the normalized ones, whose first nonzero coefficient is 1 and
    which for every variable are nonzero at some monomial free of it."""
    F, m, k = G.field, G.m, G.rows
    exps = monomials_upto(cap, m)
    best = None
    count = 0
    for coeffs in product(range(F.q), repeat=k * len(exps)):
        if not any(coeffs):
            continue
        support = [exps[i % len(exps)] for i, c in enumerate(coeffs) if c]
        count += next(c for c in coeffs if c) == 1 and all(
            any(alpha[v] == 0 for alpha in support) for v in range(m))
        polys = [
            Polynomial(F, m, dict(zip(exps, coeffs[j * len(exps):(j + 1) * len(exps)])))
            for j in range(k)
        ]
        w = (PolyMatrix(F, m, [polys]) @ G).weight()
        if best is None or w < best:
            best = w
    return best, count


def test_normalized_enumeration_matches_full_enumeration():
    rng = random.Random(59)
    cases = 0
    while cases < 8:
        F = rng.choice([F2, F3, F5])
        m = rng.choice([1, 2])
        cap = rng.choice([1, 2])
        if F.q ** len(monomials_upto(cap, m)) > 20_000:
            continue
        n = rng.randrange(1, 4)
        exps = monomials_upto(2, m)
        G = PolyMatrix(F, m, [[
            Polynomial(F, m, {a: rng.randrange(F.q) for a in exps}) for _ in range(n)
        ]])
        if all(p.is_zero() for p in G.entries[0]):
            continue
        oracle_min, oracle_count = _brute_force_min_weight(G, cap)
        rep = free_distance_estimate(G, cap)
        assert rep.min_weight_found == oracle_min
        assert rep.messages_tried == oracle_count
        cases += 1


def test_extension_field_gf4_matches_brute_force():
    F4 = make_field(2, 2)
    G = PolyMatrix(F4, 1, [[
        Polynomial(F4, 1, {(0,): 1, (1,): 2}),
        Polynomial(F4, 1, {(0,): 3}),
    ]])
    rep = free_distance_estimate(G, 1)
    oracle_min, _ = _brute_force_min_weight(G, 1)
    assert rep.min_weight_found == oracle_min


def _random_generator(rng, F, m, k, n):
    exps = monomials_upto(1, m)
    while True:
        rows = [[Polynomial(F, m, {a: rng.randrange(F.q) for a in exps}) for _ in range(n)]
                for _ in range(k)]
        if all(any(not p.is_zero() for p in row) for row in rows):
            return PolyMatrix(F, m, rows)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("m", [1, 2])
def test_extension_field_kernel_matches_brute_force(p, e, m):
    F = make_field(p, e)
    rng = random.Random(100 * F.q + m)
    for k, cap in [(2, 0), (1, 1), (1, 2)]:
        if F.q ** (k * len(monomials_upto(cap, m))) > 1000:
            continue
        G = _random_generator(rng, F, m, k, rng.randrange(1, 4))
        oracle_min, oracle_count = _brute_force_min_weight(G, cap)
        rep = free_distance_estimate(G, cap)
        assert rep.min_weight_found == oracle_min
        assert (rep.witness_message @ G).weight() == oracle_min
        assert rep.messages_tried == oracle_count


def _batch_elements(G, cap, rows):
    """A `_BATCH_ELEMENTS` value giving `rows` rows per batch for (G, cap)."""
    enum = _Enumerator(G, cap, None)
    return rows * enum.n * enum.T * enum.F.e


def test_stop_below_reports_first_message_below_for_any_batch_size(monkeypatch):
    code, _ = construct_mds_rate_1n(F7, 1, 3, 2)
    for elements in (_batch_elements(code.generator, 3, 1), _batch_elements(code.generator, 3, 7),
                     distance._BATCH_ELEMENTS):
        monkeypatch.setattr(distance, "_BATCH_ELEMENTS", elements)
        rep = free_distance_estimate(code.generator, 3, stop_below=100)
        assert rep.below_bound
        assert rep.messages_tried == 1
        assert rep.witness_message.entries[0][0] == Polynomial.constant(F7, 1, 1)
        assert rep.min_weight_found == code.generator.weight()


def test_stop_below_ends_the_search(monkeypatch):
    # The first message is the constant 1, of weight 9 < 10, so the first
    # batch stops the search.
    code, _ = construct_mds_rate_1n(F7, 2, 3, 1)
    calls = []
    scan = _Enumerator.scan

    def counting(self, batch):
        calls.append(batch)
        return scan(self, batch)

    monkeypatch.setattr(_Enumerator, "scan", counting)
    reports = []
    for workers in (1, 2):
        calls.clear()
        reports.append(free_distance_estimate(
            code.generator, 2, stop_below=10, workers=workers))
        assert len(calls) == 1
    assert reports[0] == reports[1]
    assert reports[0].messages_tried == 1 and reports[0].below_bound


def test_int64_exactness_guard():
    F = make_field(2**32 - 5)
    G = PolyMatrix(F, 1, [[Polynomial(F, 1, {(0,): 1, (1,): F.q - 1})]])
    with pytest.raises(ValueError, match="int64"):
        free_distance_estimate(G, 0)
    # GF(2^31 - 1): one or two message coefficients stay below 2^63, three do not.
    F = make_field(2**31 - 1)
    G = PolyMatrix(F, 1, [[Polynomial(F, 1, {(0,): F.q - 1, (1,): F.q - 1})]])
    assert free_distance_estimate(G, 0).min_weight_found == 2
    with pytest.raises(ValueError, match="int64"):
        free_distance_estimate(G, 2)


FIELDS = [make_field(p, e) for p, e in
          [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (3, 3)]]


@st.composite
def small_codes(draw):
    F = draw(st.sampled_from(FIELDS))
    m, k, cap = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    while F.q ** (k * len(monomials_upto(cap, m))) > 1000:
        cap, k = (cap - 1, k) if cap else (cap, k - 1)
    n = draw(st.integers(1, 3))
    coeff = st.integers(0, F.q - 1)
    exps = monomials_upto(1, m)
    rows = [[Polynomial(F, m, {a: draw(coeff) for a in exps}) for _ in range(n)]
            for _ in range(k)]
    return PolyMatrix(F, m, rows), cap


@settings(max_examples=30, deadline=None)
@given(small_codes(), st.one_of(st.none(), st.integers(1, 10)))
def test_report_independent_of_workers_and_batch_size(code, stop_below):
    G, cap = code
    reports = []
    for elements in (_batch_elements(G, cap, 1), _batch_elements(G, cap, 7),
                     distance._BATCH_ELEMENTS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distance, "_BATCH_ELEMENTS", elements)
            reports += [
                free_distance_estimate(G, cap, stop_below=stop_below, workers=workers)
                for workers in (1, 2, 3)
            ]
    assert all(r == reports[0] for r in reports)
    rep = reports[0]
    assert (rep.witness_message @ G).weight() == rep.min_weight_found
    if stop_below is not None:
        assert rep.below_bound == (rep.min_weight_found < stop_below)


@settings(max_examples=40, deadline=None)
@given(small_codes())
def test_batches_skip_only_empty_strata(code):
    G, cap = code
    F, m = G.field, G.m
    exps = monomials_upto(cap, m)
    s = len(exps)
    dim = G.rows * s
    # Oracle: the positions of the leading 1 over every normalized message.
    leads = set()
    for p0 in range(dim):
        for tail in product(range(F.q), repeat=dim - 1 - p0):
            support = [exps[p0 % s]] + [exps[(p0 + 1 + i) % s] for i, c in enumerate(tail) if c]
            if all(any(alpha[v] == 0 for alpha in support) for v in range(m)):
                leads.add(p0)
                break
    enum = _Enumerator(G, cap, None)
    batches = list(enum.batches())
    assert {p0 for p0, _, _ in batches} == leads
    tried = sum(enum.scan(batch)[2] for batch in batches)
    assert tried == free_distance_estimate(G, cap).messages_tried
    assert tried == _brute_force_min_weight(G, cap)[1]


def _normalized_in_order(G, cap):
    """Oracle: the normalized messages in enumeration order (by the position
    of the leading 1, then with the tail counting up in base q), each with
    its codeword weight."""
    F, m, k = G.field, G.m, G.rows
    exps = monomials_upto(cap, m)
    s = len(exps)
    for p0 in range(k * s):
        for tail in product(range(F.q), repeat=k * s - 1 - p0):
            coeffs = (0,) * p0 + (1,) + tail
            support = [exps[i % s] for i, c in enumerate(coeffs) if c]
            if all(any(alpha[v] == 0 for alpha in support) for v in range(m)):
                u = PolyMatrix(F, m, [[Polynomial(F, m, dict(zip(exps, coeffs[j * s:(j + 1) * s])))
                                       for j in range(k)]])
                yield u, (u @ G).weight()


def _expected_report(G, cap, stop_below=None):
    """The report the search must give, from `_normalized_in_order`."""
    best, tried = None, 0
    for u, w in _normalized_in_order(G, cap):
        tried += 1
        if stop_below is not None and w < stop_below:
            return DistanceReport(w, cap, tried, u, True)
        if best is None or w < best[1]:
            best = (u, w)
    return DistanceReport(best[1], cap, tried, best[0], False)


@settings(max_examples=60, deadline=None)
@given(small_codes(), st.sampled_from(["no table", "partial table", "default"]),
       st.one_of(st.none(), st.integers(1, 12)))
# Batches of q + 1 rows start inside a high part, so a wrong high-part
# offset changes which messages are counted.
@example((PolyMatrix(F2, 2, [[Polynomial.constant(F2, 2, 1)]]), 2), "partial table", None)
def test_split_kernel_matches_brute_force(code, table, stop_below):
    G, cap = code
    q = G.field.q
    elements = {"no table": _batch_elements(G, cap, max(1, q - 1)),
                "partial table": _batch_elements(G, cap, q + 1),
                "default": distance._BATCH_ELEMENTS}[table]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "_BATCH_ELEMENTS", elements)
        enum = _Enumerator(G, cap, stop_below)
        rep = free_distance_estimate(G, cap, stop_below=stop_below)
    if table == "no table":
        assert enum.Q == 1
    elif table == "partial table" and enum.dim > 1 and enum.M.shape[1]:
        # Low parts of one position; batches of q + 1 rows straddle them.
        assert enum.Q == q
    assert rep == _expected_report(G, cap, stop_below)
    assert (rep.witness_message @ G).weight() == rep.min_weight_found
    if not rep.below_bound:
        assert (rep.min_weight_found, rep.messages_tried) == _brute_force_min_weight(G, cap)


def _column_sum_generator(F, total):
    """A 2 x 3 constant generator over GF(p) whose rows c and d have
    c_j + d_j = total <= 2p - 4, so for the message (1, 1) the high and low
    digits of every codeword coefficient sum to `total`, nonzero mod p."""
    c = [total - (F.q - 1) + j for j in range(3)]
    return PolyMatrix(F, 1, [[Polynomial.constant(F, 1, x) for x in c],
                             [Polynomial.constant(F, 1, total - x) for x in c]])


@pytest.mark.parametrize("p,dtype,total", [(127, "uint8", 250), (131, "uint16", 256),
                                           (257, "uint16", 508)])
def test_digit_dtype_boundary_matches_brute_force(p, dtype, total):
    F = make_field(p)
    G = _column_sum_generator(F, total)
    enum = _Enumerator(G, 0, None)
    # The second coefficient is the low part, so every codeword is a sum of rows.
    assert enum.Q == p and str(enum.low.dtype) == dtype
    for stop_below in (None, 1, 2, 3):
        assert free_distance_estimate(G, 0, stop_below) == _expected_report(G, 0, stop_below)


def test_digit_dtype_above_two_to_the_fifteen(monkeypatch):
    F = make_field(32771)
    # Message (1, 1) sums digits to 2^16, which a uint16 sum would read as 0.
    G = _column_sum_generator(F, 1 << 16)
    for elements in (distance._BATCH_ELEMENTS, _batch_elements(G, 0, F.q)):
        monkeypatch.setattr(distance, "_BATCH_ELEMENTS", elements)
        enum = _Enumerator(G, 0, None)
        assert str(enum.low.dtype) == "uint32"
        rep = free_distance_estimate(G, 0)
        # Every nonzero message up to scaling: (q^2 - 1) / (q - 1).
        assert rep.messages_tried == F.q + 1
        assert (rep.witness_message @ G).weight() == rep.min_weight_found
    assert enum.Q == F.q


def test_low_table_stays_within_batch_elements(monkeypatch):
    rng = random.Random(71)
    for F in FIELDS + [make_field(17), make_field(2, 5)]:
        for m, cap in [(1, 3), (2, 1), (2, 2)]:
            G = _random_generator(rng, F, m, rng.randrange(1, 3), rng.randrange(1, 4))
            for elements in (1 << 8, 1 << 11, distance._BATCH_ELEMENTS):
                monkeypatch.setattr(distance, "_BATCH_ELEMENTS", elements)
                enum = _Enumerator(G, cap, None)
                assert enum.low.size <= elements
                # The largest table that fits: one more position would not.
                assert enum.Q * F.q * enum.M.shape[1] > elements or enum.Q == F.q ** (enum.dim - 1)
    monkeypatch.undo()
    F = make_field(2**31 - 1)
    G = PolyMatrix(F, 1, [[Polynomial(F, 1, {(0,): F.q - 1, (1,): F.q - 1})]])
    enum = _Enumerator(G, 1, None)
    assert enum.Q == 1 and enum.low.shape[0] == 1 and str(enum.low.dtype) == "uint32"


def test_import_does_not_load_numpy():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, mdconv; print([m in sys.modules for m in ('numpy', 'concurrent.futures')])"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[False, False]"


def test_workers_below_one_raise():
    code, _ = construct_mds_rate_1n(F7, 2, 3, 1)
    for workers in (0, -2):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}$"):
            free_distance_estimate(code.generator, 1, workers=workers)


def test_every_scan_runs_on_the_calling_thread(monkeypatch):
    code, _ = construct_mds_rate_1n(F7, 2, 3, 1)
    threads = []
    scan = _Enumerator.scan

    def recording(self, batch):
        threads.append(threading.current_thread())
        return scan(self, batch)

    monkeypatch.setattr(_Enumerator, "scan", recording)
    free_distance_estimate(code.generator, 2, workers=4)
    assert len(threads) > 1
    assert all(t is threading.current_thread() for t in threads)


def test_weight_profile_examples():
    code, _ = construct_mds_rate_1n(F7, 2, 3, 1)
    assert codeword_weight_profile(code.generator) == [(1, 9)]

    one = Polynomial.constant(F2, 2, 1)
    z1 = Polynomial.monomial(F2, (1, 0))
    z2 = Polynomial.monomial(F2, (0, 1))
    zero = Polynomial.zero(F2, 2)
    G = PolyMatrix(F2, 2, [[one, z1, zero], [one, z2, one]])
    assert codeword_weight_profile(G) == [(1, 2), (2, 3)]


def test_default_cap():
    assert default_cap(1, 2) == 3
    assert default_cap(2, 3) == 1
