import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mdconv import galois
from mdconv.galois import (
    _TABLE_MAX_Q, FiniteField, GaloisError, _is_irreducible, _monic_polys, _poly_divmod, is_prime,
    make_field,
)


def test_prime_field_has_no_irreducible():
    F = make_field(2, 1)
    assert (F.p, F.e, F.q) == (2, 1, 2)
    assert F.irreducible is None


def test_gf8_canonical_irreducible_is_x3_x_1():
    # Independent check: x^3 + x + 1 is the first monic cubic over GF(2)
    # with nonzero constant term and no root (x^3 + 1 has root 1).
    F = make_field(2, 3)
    assert F.irreducible == (1, 1, 0, 1)


def test_gf9_canonical_irreducible_is_x2_1():
    # 1^2 = 1 and 2^2 = 1 in GF(3), so x^2 + 1 has no root.
    F = make_field(3, 2)
    assert F.irreducible == (1, 0, 1)


def test_make_field_rejects_bad_input():
    with pytest.raises(GaloisError):
        make_field(6)
    with pytest.raises(GaloisError):
        make_field(2, 0)
    with pytest.raises(GaloisError, match="too large"):
        make_field(2, 10**9)  # rejected before 2**(10**9) is computed
    # The size limit is q <= 2^62.
    assert make_field(2, 62).q == 2**62
    with pytest.raises(GaloisError, match="too large"):
        make_field(2, 63)


@pytest.mark.parametrize("p, e, modulus", [
    (4, 1, None),             # a "GF(4)" in which 2 * 2 = 0
    (1, 1, None), (2, 0, None), (5, -1, None),
    (3, 2, (1, 1)),           # a degree-1 modulus for q = 9
    (3, 1, (1, 1)),           # a modulus on a prime field
    (2, 2, None),             # no modulus on an extension
    (2, 2, (1, 0, 2)),        # not monic
    (2, 2, (1, 2, 1)),        # a coefficient outside range(p)
    (3, 2, (-2, 0, 1)),
    # Reducible moduli, which would make rings with zero divisors.
    (2, 2, (1, 0, 1)),        # x^2 + 1 = (x + 1)^2, where 3 * 3 = 0
    (3, 2, (2, 0, 1)),        # x^2 + 2 = (x + 1)(x + 2)
    (2, 4, (1, 0, 1, 0, 1)),  # (x^2 + x + 1)^2, which has no root
    # x^2 + x + 1 with a float or a bool coefficient, and as a list, which
    # could not be hashed.
    (2, 2, (1.0, 1, 1)),
    (2, 2, (True, 1, 1)),
    (2, 2, [1, 1, 1]),
])
def test_finite_field_rejects_non_fields(p, e, modulus):
    with pytest.raises(GaloisError, match="do not define"):
        FiniteField(p, e, modulus)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [
        n for n in range(-3, 10**5) if _trial_division_is_prime(n)]


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not _trial_division_is_prime(n) and not is_prime(n)
    # Strong pseudoprimes to every prime base up to 7, 11 and 31; the last
    # one, below 2^62, is caught only by base 37.
    assert 3215031751 == 151 * 751 * 28351
    assert 2152302898747 == 6763 * 10627 * 29947
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    for n in (3215031751, 2152302898747, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)


def test_make_field_61_bit_prime():
    assert make_field(2**61 - 1).q == 2**61 - 1


def _trial_division_is_irreducible(coeffs, p):
    """Reference: monic f with f(0) != 0 is reducible iff a monic polynomial
    of degree <= deg f / 2 with nonzero constant term divides it."""
    return not any(
        not _poly_divmod(coeffs, cand, p)[1]
        for d in range(1, (len(coeffs) - 1) // 2 + 1) for cand in _monic_polys(p, d))


@pytest.mark.parametrize("p,degrees", [(2, range(2, 9)), (3, range(2, 6)),
                                       (5, range(2, 5)), (7, range(2, 5))])
def test_irreducibility_test_matches_trial_division(p, degrees):
    for deg in degrees:
        for f in _monic_polys(p, deg):
            assert _is_irreducible(f, p) == _trial_division_is_irreducible(f, p), f


def test_canonical_irreducibles_of_larger_fields():
    # Values computed by the trial-division selection that Ben-Or replaced.
    def poly(*exponents):
        return tuple(int(i in exponents) for i in range(max(exponents) + 1))
    assert make_field(2, 14).irreducible == poly(0, 5, 14)
    assert make_field(2, 20).irreducible == poly(0, 3, 20)
    assert make_field(2, 28).irreducible == poly(0, 1, 28)
    assert make_field(31, 3).irreducible == (3, 0, 0, 1)


def test_make_field_tests_each_candidate_modulus_once(monkeypatch):
    # The search builds each candidate through FiniteField, whose refusal is
    # the one irreducibility test, so no candidate is tested twice.
    calls = []
    test = galois._is_irreducible
    monkeypatch.setattr(galois, "_is_irreducible", lambda f, p: calls.append(f) or test(f, p))
    F = galois._field.__wrapped__(2, 13)  # past the cache
    candidates = list(_monic_polys(2, 13))
    assert calls == candidates[:candidates.index(F.irreducible) + 1]
    assert len(calls) > 1


def test_make_field_large_extension_degree_is_fast():
    # x^61 + x^5 + x^2 + x + 1 is a known primitive pentanomial; x^2 + 1 is
    # irreducible over GF(p) for p = 3 (mod 4).
    assert make_field(2, 61).irreducible == tuple(
        int(i in (0, 1, 2, 5, 61)) for i in range(62))
    assert make_field(3, 39).q == 3**39
    assert make_field(2**31 - 1, 2).irreducible == (1, 0, 1)


def test_make_field_deterministic():
    assert make_field(2, 4) == make_field(2, 4)
    assert make_field(5, 2).irreducible == make_field(5, 2).irreducible


def test_make_field_is_memoized():
    assert make_field(2, 4) is make_field(2, 4)
    assert FiniteField.from_json(make_field(3, 3).to_json()) is make_field(3, 3)
    # The memo keys on (p, e), not on how the call spells them.
    for p, e in [(7, 1), (2, 3), (1021, 1), (2**61 - 1, 1)]:
        spellings = [make_field(p, e), make_field(p, e=e), make_field(p=p, e=e),
                     make_field(e=e, p=p)]
        if e == 1:
            spellings += [make_field(p), make_field(p=p)]
        assert all(F is spellings[0] for F in spellings)


def test_pickle_round_trip():
    # A tabled field's own ops are closures, so it unpickles as its
    # make_field call, which returns the same object; any other field as its
    # constructor call.
    for F in [make_field(2), make_field(7), make_field(1021), make_field(2, 3),
              make_field(3, 2), make_field(2, 11), make_field(1031),
              FiniteField(2, 3, make_field(2, 3).irreducible), FiniteField(7, 1)]:
        G = pickle.loads(pickle.dumps(F))
        assert G == F and (G is F) == (F._log_exp is not None)
        xs = range(min(F.q, 7))
        assert [G.mul(a, F.q - 1) for a in xs] == [F.mul(a, F.q - 1) for a in xs]


def _polynomial_oracle(p, e):
    """The same field without log/exp tables: every op runs its `FiniteField`
    method, modulo p for e = 1, and for e > 1 the polynomial
    multiply-and-reduce and extended Euclid path."""
    return FiniteField(p, e, make_field(p, e).irreducible)


def _digitwise(p, e, a, b, sign):
    """The code of a + sign * b, computed digit by digit mod p: the
    definition of addition in the power basis, independent of
    `FiniteField`, whose `add` is XOR for p = 2 and Zech logarithms for
    tabled odd p."""
    return sum((a // p**i % p + sign * (b // p**i % p)) % p * p**i for i in range(e))


def _oracle_add(F, a, b):
    return _digitwise(F.p, F.e, a, b, 1)


def _oracle_sub(F, a, b):
    return _digitwise(F.p, F.e, a, b, -1)


def _oracle_neg(F, a):
    return _digitwise(F.p, F.e, 0, a, -1)


def test_tables_for_every_small_field():
    # Every field from make_field with q <= 2^10 is tabled, prime fields
    # included; larger ones and directly built ones are not.
    assert make_field(2, 10).q == _TABLE_MAX_Q
    for p, e in [(2, 1), (3, 1), (7, 1), (1021, 1), (2, 10), (3, 6)]:
        assert make_field(p, e)._log_exp is not None
    for p, e in [(1031, 1), (2**61 - 1, 1), (2, 11), (3, 7)]:
        assert make_field(p, e)._log_exp is None and make_field(p, e)._zech is None
    assert _polynomial_oracle(2, 4)._log_exp is None and FiniteField(7, 1)._log_exp is None
    # p = 2 adds by XOR, so only odd p gets a Zech table.
    for p, e in [(2, 1), (2, 4), (2, 10)]:
        assert make_field(p, e)._zech is None
    for p, e in [(3, 1), (7, 1), (1021, 1), (3, 6)]:
        assert make_field(p, e)._zech is not None
    assert _polynomial_oracle(3, 3)._zech is None and FiniteField(7, 1)._zech is None
    # GF(2)'s one primitive element is 1: exp holds g^0 and g^1, then zeros.
    assert make_field(2)._log_exp == ((1, 1, 0, 0, 0), (2, 0))
    # The tables are invisible to equality, hashing, repr and JSON.
    for F, O in [(make_field(2, 4), _polynomial_oracle(2, 4)),
                 (make_field(3, 3), _polynomial_oracle(3, 3)),
                 (make_field(7), FiniteField(7, 1)), (make_field(2), FiniteField(2, 1))]:
        assert F == O and hash(F) == hash(O)
        assert (repr(F), F.to_json()) == (repr(O), O.to_json())
    # The lookups take no branch on 0, so each zero case is a table read: a
    # zero operand gives 0 in a product and the other operand in a sum, 0 is
    # its own negative, and a + (-a) = 0 (the Zech logarithm of -1, the
    # element g^((q-1)/2) of order 2, is log 0) for every a.
    for p, e in [(2, 1), (3, 1), (7, 1), (1021, 1), (2, 3), (2, 10), (3, 2), (3, 3), (5, 2),
                 (7, 2), (3, 6), (31, 2)]:
        F = make_field(p, e)
        elements = range(F.q)
        assert [F.mul(a, 0) for a in elements] == [F.mul(0, a) for a in elements] == [0] * F.q
        assert [F.add(a, 0) for a in elements] == [F.add(0, a) for a in elements] == list(elements)
        assert F.neg(0) == 0 and [F.add(a, F.neg(a)) for a in elements] == [0] * F.q
        assert [F.add(a, a) for a in elements] == [F.mul(a, 2 % p) for a in elements]
    # A table-less odd-p field adds digitwise, or modulo p, and agrees with
    # the tables.
    for p, e in [(3, 3), (5, 2), (3, 1), (13, 1)]:
        F, O = make_field(p, e), _polynomial_oracle(p, e)
        for a in range(F.q):
            assert [F.add(a, b) for b in range(F.q)] == [O.add(a, b) for b in range(F.q)]
            assert [F.sub(a, b) for b in range(F.q)] == [O.sub(a, b) for b in range(F.q)]
            assert F.neg(a) == O.neg(a)


EXTENSIONS_TO_64 = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]


@pytest.mark.parametrize("p,e", EXTENSIONS_TO_64)
def test_tables_match_polynomial_oracle_exhaustive(p, e):
    F, O = make_field(p, e), _polynomial_oracle(p, e)
    assert F._log_exp is not None
    q = F.q
    for a in range(q):
        assert [F.mul(a, b) for b in range(q)] == [O.mul(a, b) for b in range(q)]
        assert [F.pow(a, n) for n in range(q)] == [O.pow(a, n) for n in range(q)]
        if a:
            assert F.inv(a) == O.inv(a)
            assert F.pow(a, -a) == O.pow(a, -a)  # one negative exponent per a
        assert [F.add(a, b) for b in range(q)] == [_oracle_add(F, a, b) for b in range(q)]
        assert [F.sub(a, b) for b in range(q)] == [_oracle_sub(F, a, b) for b in range(q)]
        assert F.neg(a) == _oracle_neg(F, a)


TABLED_EXTENSIONS = [(p, e) for p in range(2, 32) if _trial_division_is_prime(p)
                     for e in range(2, 11) if p**e <= _TABLE_MAX_Q]


@pytest.mark.parametrize("p,e", TABLED_EXTENSIONS)
def test_every_zech_entry_matches_digitwise_oracle(p, e):
    # add(1, g^n) reads zech[n], so x over every nonzero element reads
    # every entry of the table.
    F = make_field(p, e)
    assert F._log_exp is not None
    assert [F.add(1, x) for x in range(F.q)] == [_oracle_add(F, 1, x) for x in range(F.q)]
    assert [F.neg(x) for x in range(F.q)] == [_oracle_neg(F, x) for x in range(F.q)]


NEAR_TABLE_MAX_Q = [(2, 10), (2, 9), (3, 6), (5, 4), (31, 2), (29, 2), (7, 3)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NEAR_TABLE_MAX_Q), st.data())
def test_tables_match_polynomial_oracle_near_table_max_q(pe, data):
    F, O = make_field(*pe), _polynomial_oracle(*pe)
    a, b = data.draw(st.integers(0, F.q - 1)), data.draw(st.integers(0, F.q - 1))
    n = data.draw(st.integers(-3 * F.q, 3 * F.q))
    assert F.mul(a, b) == O.mul(a, b)
    assert (F.add(a, b), F.sub(a, b), F.neg(a)) == (
        _oracle_add(F, a, b), _oracle_sub(F, a, b), _oracle_neg(F, a))
    if b:
        assert F.inv(b) == O.inv(b)
        assert F.pow(b, n) == O.pow(b, n)


PRIMES_TO_TABLE_MAX_Q = [p for p in range(2, _TABLE_MAX_Q) if _trial_division_is_prime(p)]


@pytest.mark.parametrize("p", [2, 3, 1021, None])  # None: drawn from every tabled prime
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tabled_prime_field_matches_untabled_twin(p, data):
    # GF(p)'s lookups against the modular arithmetic of its untabled twin.
    p = p or data.draw(st.sampled_from(PRIMES_TO_TABLE_MAX_Q))
    F, O = make_field(p), FiniteField(p, 1)
    assert F._log_exp is not None and O._log_exp is None
    element = st.just(0) | st.integers(0, p - 1)
    a, b = data.draw(element), data.draw(element)
    n = data.draw(st.integers(-3 * p, 3 * p))
    for op in ("add", "sub", "mul"):
        assert getattr(F, op)(a, b) == getattr(O, op)(a, b)
    assert F.neg(a) == O.neg(a)
    if a:
        assert F.inv(a) == O.inv(a)
    if a or n >= 0:
        assert F.pow(a, n) == O.pow(a, n)
    for G in (F, O):
        with pytest.raises(GaloisError):
            G.inv(0)


@pytest.mark.parametrize("p,e", [(2, 11), (2, 61), (3, 7)])
def test_untabled_add_matches_digitwise_oracle(p, e):
    F = make_field(p, e)
    assert F._log_exp is None
    rng = random.Random(p * e)
    for _ in range(300):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert (F.add(a, b), F.sub(a, b), F.neg(a)) == (
            _oracle_add(F, a, b), _oracle_sub(F, a, b), _oracle_neg(F, a))


def test_gf2_add():
    F = make_field(2)
    assert F.add(1, 1) == 0


def test_gf7_inv():
    F = make_field(7)
    assert F.inv(3) == 5  # 3 * 5 = 15 = 1 mod 7


def test_gf4_mul_reduces_modulo_irreducible():
    F = make_field(2, 2)
    assert F.irreducible == (1, 1, 1)
    assert F.mul(2, 2) == 3  # x * x = x + 1 mod x^2 + x + 1


def test_inv_of_zero_raises():
    for F in (make_field(5), make_field(2**61 - 1), make_field(3, 2), make_field(2, 61)):
        with pytest.raises(GaloisError):
            F.inv(0)


INV_FIELDS = ([(p, 1) for p in range(2, 256) if _trial_division_is_prime(p)]
              + [(2, e) for e in range(2, 9)] + [(3, e) for e in range(2, 6)]
              + [(5, 2), (5, 3), (7, 2), (11, 2), (13, 2)])


@pytest.mark.parametrize("p,e", INV_FIELDS)
def test_inv_matches_fermat_exhaustive(p, e):
    # a^(q-2) is the inverse by Fermat's little theorem; `inv` does not use it.
    F = make_field(p, e)
    for a in range(1, F.q):
        assert F.inv(a) == F.pow(a, F.q - 2)
        assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("p,e", [(2, 61), (3, 39), (2**61 - 1, 1), (2**32 - 5, 1)])
def test_inv_of_random_elements_in_large_fields(p, e):
    F = make_field(p, e)
    rng = random.Random(p + e)
    for a in [1, F.q - 1] + [rng.randrange(1, F.q) for _ in range(30)]:
        assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, -1) == F.inv(a)


@pytest.mark.parametrize("p,e", [(7, 1), (2, 3)])
def test_pow_mul_count_and_values(p, e, monkeypatch):
    # Square-and-multiply: floor(log2 n) squarings plus popcount(n) - 1
    # multiplies; the value is checked against repeated multiplication.  The
    # count is taken through FiniteField.mul, which a tabled field's own
    # lookups bypass, so each field is counted on its untabled twin, and the
    # tabled field must give the same powers.
    T = make_field(p, e)
    F = _polynomial_oracle(p, e)
    assert T._log_exp is not None and F._log_exp is None
    calls = []
    mul = FiniteField.mul

    def counting_mul(self, a, b):
        calls.append(None)
        return mul(self, a, b)

    monkeypatch.setattr(FiniteField, "mul", counting_mul)
    for a in range(F.q):
        expected = 1
        for n in range(20):
            calls.clear()
            assert F.pow(a, n) == expected
            assert len(calls) == (n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0)
            assert T.pow(a, n) == expected
            expected = mul(F, expected, a)


FIELDS_TO_64 = [
    (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
    (23, 1), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1), (47, 1), (53, 1),
    (59, 1), (61, 1),
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2),
]


@pytest.mark.parametrize("p,e", FIELDS_TO_64)
def test_field_axioms_exhaustive(p, e):
    F = make_field(p, e)
    q = F.q
    # Table the operations once so the triple loops are lookups.
    add = [[F.add(a, b) for b in range(q)] for a in range(q)]
    mul = [[F.mul(a, b) for b in range(q)] for a in range(q)]

    for a in range(q):
        assert add[a][0] == a
        assert mul[a][1] == a
        assert add[a][F.neg(a)] == 0
        if a != 0:
            assert mul[a][F.inv(a)] == 1
            assert F.pow(a, q - 1) == 1
        for b in range(q):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]

    for a, b, c in product(range(q), repeat=3):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_extension_element_digit_encoding():
    # GF(4) codes 0..3 stand for 0, 1, x, x+1; adding x and 1 gives x+1.
    F = make_field(2, 2)
    assert F.add(2, 1) == 3
    assert F.add(3, 2) == 1


def test_json_round_trip():
    for p, e in [(7, 1), (2, 3), (3, 2)]:
        F = make_field(p, e)
        assert FiniteField.from_json(F.to_json()) == F


@pytest.mark.parametrize("obj", [
    {"p": 5.0}, {"p": "5"}, {"p": 5, "e": 1.0}, {"p": 5, "e": True},
    {"p": 2, "e": 2, "irreducible": [1, True, 1]},
])
def test_from_json_rejects_non_integers(obj):
    with pytest.raises(ValueError, match="expected an integer"):
        FiniteField.from_json(obj)
