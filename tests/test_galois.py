from itertools import product

import pytest

from mdconv.galois import FiniteField, GaloisError, is_prime, make_field


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
    with pytest.raises(GaloisError):
        make_field(5).inv(0)


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
