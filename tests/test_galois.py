import random
from itertools import product

import pytest

from mdconv.galois import (
    FiniteField, GaloisError, _is_irreducible, _monic_polys, _poly_divmod, is_prime, make_field,
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
    # multiplies; the value is checked against repeated multiplication.
    F = make_field(p, e)
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
            expected = mul(F, expected, a)


def test_enumerate_elements():
    assert list(make_field(2).elements()) == [0, 1]
    assert list(make_field(5).elements()) == [0, 1, 2, 3, 4]
    assert list(make_field(2, 2).elements()) == [0, 1, 2, 3]


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
