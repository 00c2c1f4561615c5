import itertools
import random
from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from mdconv.galois import FiniteField, GaloisError, make_field
from mdconv.multipoly import Polynomial, PolyMatrix, _det_cofactor
from mdconv.superreg import (
    ConstMatrix,
    SearchExhaustedError,
    cauchy_matrix,
    det,
    is_superregular,
    nullspace,
    random_matrices,
    random_superregular,
    rank,
)
from oracles import leibniz_det, submatrix

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F4 = make_field(2, 2)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
SMALL_FIELDS = [F2, F3, F4, F5, F7, F8, F9]


def mat_vec(A, v):
    """A v over A's field, term by term."""
    F = A.field
    return tuple(reduce(F.add, (F.mul(a, x) for a, x in zip(row, v)), 0) for row in A.entries)


def vec_mat(u, A):
    """u A over A's field, term by term."""
    return mat_vec(A.transpose(), u)


def test_one_by_one_minors():
    assert is_superregular(ConstMatrix(F5, ((3,),))).verdict
    rep = is_superregular(ConstMatrix(F5, ((0,),)))
    assert not rep.verdict
    assert rep.failing_minor == ((0,), (0,), 0)


def test_two_by_two_over_gf3():
    rep = is_superregular(ConstMatrix(F3, ((1, 1), (1, 2))))
    assert rep.verdict
    assert rep.minors_checked == 5  # four entries plus the full determinant


def test_repeated_rows_fail():
    rep = is_superregular(ConstMatrix(F5, ((1, 1), (1, 1))))
    assert not rep.verdict
    assert rep.failing_minor == ((0, 1), (0, 1), 0)


def test_minor_count_formula():
    A = random_superregular(F7, 2, 3, seed=5)
    rep = is_superregular(A)
    expected = sum(
        len(list(combinations(range(2), j))) * len(list(combinations(range(3), j)))
        for j in range(1, 3)
    )
    assert rep.verdict and rep.minors_checked == expected


def test_cauchy_gf7_example():
    A = cauchy_matrix(F7, [0, 1, 2], [3, 4, 5])
    assert A.entries == ((2, 5, 4), (3, 2, 5), (6, 3, 2))


def test_cauchy_single_entry_gf3():
    # (0 - 1)^{-1} = 2^{-1} = 2 in GF(3).
    assert cauchy_matrix(F3, [0], [1]).entries == ((2,),)


def test_cauchy_column_gf5():
    # Entry (i, 0) is (i - 4)^{-1} mod 5.
    A = cauchy_matrix(F5, [0, 1, 2, 3], [4])
    assert A.entries == ((1,), (3,), (2,), (4,))


def test_cauchy_rejects_collisions():
    with pytest.raises(GaloisError):
        cauchy_matrix(F5, [0, 0], [1])
    with pytest.raises(GaloisError):
        cauchy_matrix(F5, [0, 1], [1, 2])


def test_cauchy_always_superregular():
    for F, r, s in [(F5, 2, 3), (F7, 3, 4), (make_field(17), 4, 4), (make_field(3, 2), 3, 4)]:
        A = cauchy_matrix(F, list(range(r)), list(range(r, r + s)))
        assert is_superregular(A).verdict


def test_random_superregular_gf2_2x2_exhausts():
    # The only all-nonzero 2x2 matrix over GF(2) has zero determinant.
    with pytest.raises(SearchExhaustedError):
        random_superregular(F2, 2, 2, seed=0, max_tries=200)


def test_random_superregular_row_always_works():
    A = random_superregular(F3, 1, 3, seed=42)
    assert all(x != 0 for x in A.entries[0])
    assert is_superregular(A).verdict


def test_random_superregular_deterministic():
    a = random_superregular(F7, 3, 3, seed=1)
    b = random_superregular(F7, 3, 3, seed=1)
    assert a == b
    assert is_superregular(a).verdict


def test_random_matrices_stream_is_seeded_and_bounded():
    stream = random_matrices(F7, 2, 3, seed=4, max_tries=3)
    drawn = [next(stream) for _ in range(3)]
    assert drawn == list(itertools.islice(random_matrices(F7, 2, 3, seed=4), 3))
    assert all(x != 0 for A in drawn for row in A.entries for x in row)
    with pytest.raises(SearchExhaustedError, match=r"no superregular 2x3 matrix over GF\(7\) in 3 tries"):
        next(stream)


def test_random_superregular_is_first_superregular_matrix_of_the_stream():
    for F, seed in [(F5, 0), (F7, 1), (F9, 3)]:
        A = random_superregular(F, 2, 3, seed=seed)
        assert A == next(B for B in random_matrices(F, 2, 3, seed) if is_superregular(B).verdict)


@pytest.mark.parametrize("max_tries", [0, -3])
def test_random_search_rejects_max_tries_below_one(max_tries):
    with pytest.raises(ValueError, match="max_tries"):
        random_superregular(F7, 2, 2, max_tries=max_tries)


def test_nullspace_examples():
    I2 = ConstMatrix(F5, ((1, 0), (0, 1)))
    assert rank(I2) == 2
    assert nullspace(I2) == []

    A = ConstMatrix(F2, ((1, 1),))
    assert rank(A) == 1
    assert nullspace(A) == [(1, 1)]

    B = ConstMatrix(F5, ((1, 2), (2, 4)))
    assert rank(B) == 1
    assert nullspace(B) == [(3, 1)]


def test_rank_nullity_and_kernel_property():
    rng = random.Random(23)
    for _ in range(80):
        F = rng.choice(SMALL_FIELDS)
        r, s = rng.randrange(1, 5), rng.randrange(1, 5)
        A = ConstMatrix(F, tuple(
            tuple(rng.randrange(F.q) for _ in range(s)) for _ in range(r)
        ))
        basis = nullspace(A)
        assert rank(A) + len(basis) == s
        for v in basis:
            assert mat_vec(A, v) == (0,) * r
        # Canonical basis: column c is free iff it lies in the span of the
        # columns before it, and the vector of a free column has 1 there and
        # 0 at every other free column.
        prefix_rank = [0] + [rank(submatrix(A, range(r), range(c))) for c in range(1, s + 1)]
        free = [c for c in range(s) if prefix_rank[c + 1] == prefix_rank[c]]
        assert len(basis) == len(free)
        for v, fc in zip(basis, free):
            assert [v[c] for c in free] == [int(c == fc) for c in free]


def test_left_nullspace_via_transpose():
    A = ConstMatrix(F5, ((1, 2), (2, 4)))
    for u in nullspace(A.transpose()):
        assert vec_mat(u, A) == (0, 0)


def test_submatrix_and_row_permutation_closure():
    rng = random.Random(29)
    A = random_superregular(F7, 3, 4, seed=3)
    for _ in range(10):
        rsub = sorted(rng.sample(range(3), rng.randrange(1, 4)))
        csub = sorted(rng.sample(range(4), rng.randrange(1, 5)))
        assert is_superregular(submatrix(A, rsub, csub)).verdict
        perm = rng.sample(range(3), 3)
        assert is_superregular(submatrix(A, perm, range(4))).verdict


def test_weight_lemma_small():
    # wt(uA) >= s - wt(u) + 1 for superregular A, checked over all nonzero u.
    for F, r, s in [(F5, 2, 3), (F7, 3, 4)]:
        A = cauchy_matrix(F, list(range(r)), list(range(r, r + s)))
        for u in product(range(F.q), repeat=r):
            if not any(u):
                continue
            wt_u = sum(1 for x in u if x)
            wt_uA = sum(1 for x in vec_mat(u, A) if x)
            assert wt_uA >= s - wt_u + 1


def test_det_matches_cofactor_on_poly_free_matrices():
    # Elimination against cofactor expansion and the Leibniz formula (on
    # constant polynomials), sizes 1-5 over prime and extension fields.  A
    # zero in the top-left corner, and zeros elsewhere, force row swaps.
    rng = random.Random(31)
    for _ in range(200):
        F = rng.choice(SMALL_FIELDS)
        n = rng.randrange(1, 6)
        zeros = rng.choice([0.0, 0.3, 0.6])
        E = [[0 if rng.random() < zeros else rng.randrange(F.q) for _ in range(n)]
             for _ in range(n)]
        if rng.random() < 0.5:
            E[0][0] = 0
        P = PolyMatrix(F, 1, [[Polynomial.constant(F, 1, x) for x in row] for row in E])
        cofactor = _det_cofactor(P, tuple(range(n)), {})
        assert cofactor == leibniz_det(P)
        assert det(ConstMatrix(F, tuple(map(tuple, E)))) == cofactor.coeff((0,))


@st.composite
def small_matrices(draw):
    F = draw(st.sampled_from(SMALL_FIELDS))
    r, s = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entry = st.integers(0, F.q - 1)
    return ConstMatrix(F, tuple(tuple(draw(entry) for _ in range(s)) for _ in range(r)))


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_superregular_iff_systematic_code_is_mds(A):
    # Roth-Seroussi: A is superregular iff [I | A] generates an MDS code, that
    # is, wt(u) + wt(uA) >= s + 1 for every nonzero u.  This oracle shares no
    # code with the minor scan.
    min_weight = min(
        sum(1 for x in u if x) + sum(1 for x in vec_mat(u, A) if x)
        for u in product(range(A.field.q), repeat=A.rows) if any(u)
    )
    assert is_superregular(A).verdict == (min_weight >= A.cols + 1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5), (7, 2), (2, 10)]),
       st.data())
def test_scan_and_det_match_over_polynomial_oracle_field(pe, data):
    # The same matrix over the tabled field and over the untabled one built
    # from the same irreducible gives the same report and determinant.
    F = make_field(*pe)
    O = FiniteField(F.p, F.e, F.irreducible)
    r, s = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entry = st.integers(0 if data.draw(st.booleans()) else 1, F.q - 1)
    E = tuple(tuple(data.draw(entry) for _ in range(s)) for _ in range(r))
    assert is_superregular(ConstMatrix(F, E)) == is_superregular(ConstMatrix(O, E))
    t = min(r, s)
    square = tuple(row[:t] for row in E[:t])
    assert det(ConstMatrix(F, square)) == det(ConstMatrix(O, square))


def test_json_round_trip():
    A = cauchy_matrix(F7, [0, 1], [2, 3, 4])
    assert ConstMatrix.from_json(A.to_json()) == A


@pytest.mark.parametrize("bad", [1.9, 1.0, "2", True])
def test_from_json_rejects_non_integer_entries(bad):
    with pytest.raises(ValueError, match="expected an integer"):
        ConstMatrix.from_json({"field": {"p": 5, "e": 1}, "entries": [[bad, 2], [3, 4]]})
    with pytest.raises(ValueError, match="is not an element code"):
        ConstMatrix(F5, ((bad, 2), (3, 4)))
