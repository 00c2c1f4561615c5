import random
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mdconv.galois import make_field
from mdconv.multipoly import Polynomial, PolyMatrix, monomials_upto
from mdconv.codes import construct_mds_rate_1n
from mdconv.superreg import ConstMatrix
from mdconv.distance import (
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
        c = rng.randrange(1, F.q)
        scaled = PolyMatrix(F, 2, [[p.scale(c) for p in u1.entries[0]]])
        assert encode(scaled, G) == PolyMatrix(F, 2, [[p.scale(c) for p in encode(u1, G).entries[0]]])


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
    """Oracle: scan every nonzero message without any symmetry reduction."""
    F, m, k = G.field, G.m, G.rows
    exps = monomials_upto(cap, m)
    best = None
    count = 0
    for coeffs in product(range(F.q), repeat=k * len(exps)):
        if not any(coeffs):
            continue
        count += 1
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
        assert rep.messages_tried <= oracle_count
        full = free_distance_estimate(G, cap, normalize=False)
        assert full.min_weight_found == oracle_min
        assert full.messages_tried == oracle_count
        cases += 1


def test_extension_field_scalar_path():
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
        for normalize in (True, False):
            rep = free_distance_estimate(G, cap, normalize=normalize)
            assert rep.min_weight_found == oracle_min
            assert (rep.witness_message @ G).weight() == oracle_min
            if normalize:
                assert rep.messages_tried <= oracle_count
            else:
                assert rep.messages_tried == oracle_count


def test_stop_below_reports_first_message_below_for_any_batch_size():
    code, _ = construct_mds_rate_1n(F7, 1, 3, 2)
    for batch_size in (1, 7, 1 << 16):
        rep = free_distance_estimate(code.generator, 3, stop_below=100, batch_size=batch_size)
        assert rep.below_bound
        assert rep.messages_tried == 1
        assert rep.witness_message.entries[0][0] == Polynomial.constant(F7, 1, 1)
        assert rep.min_weight_found == code.generator.weight()


def test_stop_below_ends_the_search(monkeypatch):
    # Without normalization the first message of every stratum is a single
    # monomial, of weight 9 < 10, so every stratum that runs stops at once.
    code, _ = construct_mds_rate_1n(F7, 2, 3, 1)
    calls = []
    scan = _Enumerator.scan_stratum

    def counting(self, p0, *args):
        calls.append(p0)
        return scan(self, p0, *args)

    monkeypatch.setattr(_Enumerator, "scan_stratum", counting)
    reports = []
    for workers in (1, 2):
        calls.clear()
        reports.append(free_distance_estimate(
            code.generator, 2, stop_below=10, workers=workers, normalize=False))
        if workers == 1:
            assert calls == [0]
        else:
            # A stratum is taken only after stratum 0 or 1 has stopped.
            assert 0 in calls and set(calls) <= {0, 1}
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


FIELDS = [make_field(p, e) for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]]


@st.composite
def small_codes(draw):
    F = draw(st.sampled_from(FIELDS))
    m, k, cap = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    while F.q ** (k * len(monomials_upto(cap, m))) > 1000:
        cap, k = (cap - 1, k) if cap else (cap, k - 1)
    n = draw(st.integers(1, 3))
    coeff = st.integers(0, F.q - 1)
    exps = monomials_upto(1, m)
    rows = [[Polynomial(F, m, {a: draw(coeff) for a in exps}) for _ in range(n)]
            for _ in range(k)]
    return PolyMatrix(F, m, rows), cap


@settings(max_examples=30, deadline=None)
@given(small_codes(), st.one_of(st.none(), st.integers(1, 10)), st.booleans())
def test_report_independent_of_workers_and_batch_size(code, stop_below, normalize):
    G, cap = code
    reports = [
        free_distance_estimate(G, cap, stop_below=stop_below, workers=workers,
                               normalize=normalize, batch_size=batch_size)
        for workers in (1, 2) for batch_size in (1, 7, 1 << 16)
    ]
    assert all(r == reports[0] for r in reports)
    rep = reports[0]
    assert (rep.witness_message @ G).weight() == rep.min_weight_found
    if stop_below is not None:
        assert rep.below_bound == (rep.min_weight_found < stop_below)


def test_import_does_not_load_numpy():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, mdconv; print([m in sys.modules for m in ('numpy', 'concurrent.futures')])"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[False, False]"


def test_worker_count_does_not_change_report():
    code, _ = construct_mds_rate_1n(F7, 2, 3, 1)
    a = free_distance_estimate(code.generator, 2, workers=1)
    b = free_distance_estimate(code.generator, 2, workers=4)
    assert a == b


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
