import itertools
import random
from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from mdconv.galois import FiniteField, GaloisError, is_prime, make_field
from mdconv.multipoly import Polynomial, PolyMatrix, _det_cofactor
from mdconv.superreg import (
    ConstMatrix,
    SearchExhaustedError,
    SuperregularityReport,
    _eliminator,
    cauchy_matrix,
    det,
    is_superregular,
    nullspace,
    random_matrices,
    random_superregular,
)
from oracles import (
    const_det,
    element_or_not,
    leibniz_det,
    outcome,
    rank,
    ref_const_matrix,
    ref_const_matrix_json,
    ref_echelon,
    scan_report,
    submatrix,
    transpose,
    vec_mat,
)

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


def combination(F, rows, coeffs):
    """The row sum of c * row over rows and coeffs."""
    return [reduce(F.add, (F.mul(c, row[j]) for row, c in zip(rows, coeffs)), 0)
            for j in range(len(rows[0]))]


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


def test_scan_report_zero_2x2_minor_only_under_field_multiplication():
    # 1·3 = 2·2 = 3 in GF(4), so the full minor is zero though 1·3 != 2·2 as
    # integers; over GF(5) the same entries give 3 != 4 and pass.
    E = ((1, 2), (2, 3))
    assert is_superregular(ConstMatrix(F4, E)) == SuperregularityReport(False, 5, ((0, 1), (0, 1), 0))
    assert is_superregular(ConstMatrix(F5, E)) == SuperregularityReport(True, 5)


def test_scan_report_zero_last_entry_of_3x5():
    E = [[1] * 5 for _ in range(3)]
    E[2][4] = 0
    rep = is_superregular(ConstMatrix(F7, tuple(map(tuple, E))))
    assert rep == SuperregularityReport(False, 15, ((2,), (4,), 0))


def untabled(F):
    """F built from its own modulus, without tables: its ops are the
    `FiniteField` methods, which a tabled field's own lookups bypass."""
    return FiniteField(F.p, F.e, F.irreducible)


def count_inverses(monkeypatch, F, build):
    """The reports of the matrices `build(G)` over F's untabled twin G, and
    the inverses their scans take through FiniteField.inv, as the benchmark's
    tracer counts.  F itself must give the same matrices and reports."""
    own, twin = build(F), build(untabled(F))
    assert own == twin
    calls = []
    inv = FiniteField.inv
    monkeypatch.setattr(FiniteField, "inv", lambda self, a: calls.append(a) or inv(self, a))
    reports = [is_superregular(A) for A in twin]
    counted = len(calls)
    assert [is_superregular(A) for A in own] == reports
    return reports, counted


@pytest.mark.parametrize("F", [F7, F8])
def test_scan_inverse_counts(F, monkeypatch):
    # Minors up to 3x3 need no inverse.
    reports, counted = count_inverses(monkeypatch, F, lambda G: [
        cauchy_matrix(G, [0, 1], [2, 3, 4, 5]), cauchy_matrix(G, [0, 1, 2], [3, 4, 5])])
    assert all(rep.verdict for rep in reports) and counted == 0


@pytest.mark.parametrize("F", [F8, make_field(11)])
def test_scan_inverse_counts_from_size_4(F, monkeypatch):
    # A 4x4 Cauchy matrix needs 8 points, more than GF(7) has.  Its one 4x4
    # minor is eliminated without a row swap, with one inverse per pivot but
    # the last, which has no row below it.
    reports, counted = count_inverses(monkeypatch, F, lambda G: [
        cauchy_matrix(G, [0, 1, 2, 3], [4, 5, 6, 7])])
    assert reports[0].verdict and counted == 3


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


def test_cauchy_rejects_parameters_outside_the_field():
    # 8 is no element code of GF(7); read as an int it is distinct from 1,
    # but 8 - 2 and 1 - 2 agree mod 7, which gave two equal rows.
    with pytest.raises(GaloisError, match="8 is not an element code of GF\\(7\\)"):
        cauchy_matrix(F7, [1, 8], [2, 3])
    with pytest.raises(GaloisError, match="5 is not an element code of GF\\(4\\)"):
        cauchy_matrix(F4, [5], [0])
    with pytest.raises(GaloisError):
        cauchy_matrix(F5, [0], [-1])


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
    # Sizes 1-6; a row that combines earlier rows lowers the rank, so some
    # column has no pivot and the rows below it must be swapped up.
    rng = random.Random(23)
    for _ in range(80):
        F = rng.choice(SMALL_FIELDS)
        r, s = rng.randrange(1, 7), rng.randrange(1, 7)
        E = [[rng.randrange(F.q) for _ in range(s)] for _ in range(r)]
        for i in rng.sample(range(1, r), rng.randrange(r)):
            E[i] = combination(F, E[:i], [rng.randrange(F.q) for _ in range(i)])
        A = ConstMatrix(F, tuple(map(tuple, E)))
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
    for u in nullspace(transpose(A)):
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
    # constant polynomials), sizes 1-6 over prime and extension fields.  A
    # zero in the top-left corner, and zeros elsewhere, force row swaps.  A
    # row i that combines the rows above it is zero once they are eliminated,
    # so the pivot at position i comes from a swap, or its column has none.
    rng = random.Random(31)
    for _ in range(200):
        F = rng.choice(SMALL_FIELDS)
        n = rng.randrange(1, 7)
        zeros = rng.choice([0.0, 0.3, 0.6])
        E = [[0 if rng.random() < zeros else rng.randrange(F.q) for _ in range(n)]
             for _ in range(n)]
        if rng.random() < 0.5:
            E[0][0] = 0
        if n > 1 and rng.random() < 0.5:
            i = rng.randrange(1, n)
            E[i] = combination(F, E[:i], [rng.randrange(F.q) for _ in range(i)])
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


# Tabled prime and extension fields, and untabled ones: GF(1031) and
# GF(2^11) are above `make_field`'s table limit, and the GF(9) built from its
# irreducible is outside it.
SCAN_FIELDS = SMALL_FIELDS + [make_field(13), make_field(1021), make_field(1031),
                              make_field(2, 10), make_field(2, 11),
                              FiniteField(3, 2, F9.irreducible)]


@st.composite
def scan_cases(draw):
    """Matrices up to 5x5 whose row t - 1, for a drawn t, combines the rows
    above it, so every t x t minor on rows 0..t-1 is zero.  Over a large
    field the first zero minor is then t x t; over a small one, or with zero
    entries, a smaller one comes first."""
    F = draw(st.sampled_from(SCAN_FIELDS))
    t = draw(st.integers(1, 5))
    r, s = draw(st.integers(t, 5)), draw(st.integers(t, 5))
    entry = st.integers(draw(st.integers(0, 1)), F.q - 1)
    E = [[draw(entry) for _ in range(s)] for _ in range(r)]
    if t > 1:
        E[t - 1] = combination(F, E[:t - 1], [draw(st.integers(0, F.q - 1)) for _ in range(t - 1)])
    return ConstMatrix(F, tuple(map(tuple, E)))


@settings(max_examples=200, deadline=None)
@given(scan_cases())
def test_scan_report_matches_leibniz_oracle(A):
    # The whole report, not only the verdict: the count up to the first zero
    # minor and that minor, against a scan of Leibniz determinants.
    assert is_superregular(A) == scan_report(A)


# The oracle property above stops at 5x5; the two scans below have the
# shapes of the certify benchmark's largest passing and failing scans.
def test_scan_report_gf23_8x8_cauchy_checks_every_minor():
    A = cauchy_matrix(make_field(23), range(8), range(8, 16))
    assert is_superregular(A) == SuperregularityReport(True, 12_869)  # C(16, 8) - 1


def test_scan_report_gf23_7x7_injected_zero_minor_matches_oracle():
    # Entry (6, 6) set so that the 3x3 minor on rows (0, 2, 6), cols (1, 2, 6)
    # is zero: the minor is linear in that entry, with the 2x2 minor on rows
    # (0, 2), cols (1, 2) as coefficient.  No smaller minor becomes zero.
    F = make_field(23)
    A = cauchy_matrix(F, range(7), range(7, 14))
    rs, cs = (0, 2, 6), (1, 2, 6)
    E = [list(row) for row in A.entries]
    E[6][6] = 0
    rest = const_det(submatrix(ConstMatrix(F, tuple(map(tuple, E))), rs, cs))
    E[6][6] = F.neg(F.mul(rest, F.inv(const_det(submatrix(A, rs[:2], cs[:2])))))
    B = ConstMatrix(F, tuple(map(tuple, E)))
    assert is_superregular(B) == scan_report(B) == SuperregularityReport(False, 789, (rs, cs, 0))


# Every tabled extension field up to GF(49), and samples from GF(2^10) and GF(3^6).
TWIN_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 10), (3, 6)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TWIN_FIELDS), st.data())
def test_scan_and_det_match_over_polynomial_oracle_field(pe, data):
    # The hot path over a tabled field, whose ops are its own lookups, and
    # over its untabled twin, whose ops are the table-free class methods.
    assert_twins_agree(make_field(*pe), data)


PRIMES_TO_1021 = [p for p in range(2, 1022) if is_prime(p)]


@pytest.mark.parametrize("p", [2, 3, 1021, None])  # None: drawn from every prime up to 1021
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scan_and_det_match_over_untabled_prime_twin(p, data):
    # The same over tabled GF(p) and its twin, which computes modulo p.
    assert_twins_agree(make_field(p or data.draw(st.sampled_from(PRIMES_TO_1021))), data)


def assert_twins_agree(F, data):
    """The same scan report, determinant and nullspace over F and its
    untabled twin.  Entries may be zero, and one row may combine t - 1 others
    on t columns, so that minor is zero."""
    O = untabled(F)
    assert F._log_exp is not None and O._log_exp is None
    r, s = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    entry = st.integers(0 if data.draw(st.booleans()) else 1, F.q - 1)
    E = [[data.draw(entry) for _ in range(s)] for _ in range(r)]
    t = data.draw(st.integers(1, min(r, s)))
    rs, cs = data.draw(st.permutations(range(r)))[:t], data.draw(st.permutations(range(s)))[:t]
    coeffs = [data.draw(st.integers(0, F.q - 1)) for _ in range(t - 1)]
    if t > 1:
        combined = combination(O, [[E[i][j] for j in cs] for i in rs[1:]], coeffs)
        for j, x in zip(cs, combined):
            E[rs[0]][j] = x
    A, B = ConstMatrix(F, tuple(map(tuple, E))), ConstMatrix(O, tuple(map(tuple, E)))
    assert is_superregular(A) == is_superregular(B)
    assert nullspace(A) == nullspace(B)
    n = min(r, s)
    for rows, cols in [(range(n), range(n)), (sorted(rs), sorted(cs))]:
        assert det(submatrix(A, rows, cols)) == det(submatrix(B, rows, cols))
    assert t == 1 or det(submatrix(A, sorted(rs), sorted(cs))) == 0


# Tabled prime and extension fields, and the untabled twins whose ops are
# the `FiniteField` methods that the counting tests trace.
ECHELON_FIELDS = [F2, F3, F7, make_field(13), F4, F8, F9, make_field(3, 3),
                  untabled(F7), untabled(F8), untabled(F9)]


@st.composite
def echelon_cases(draw):
    """Square, wide and tall matrices up to 6x6 with zero entries, zero
    columns and rows that combine earlier rows, so that pivots are taken
    directly, found by a search below a zero entry, or missing."""
    F = draw(st.sampled_from(ECHELON_FIELDS))
    r, s = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    nonzero = st.integers(1, F.q - 1)
    mostly_zero = st.just(0) | st.just(0) | nonzero
    entry = draw(st.sampled_from([nonzero, st.integers(0, F.q - 1), mostly_zero]))
    E = [[draw(entry) for _ in range(s)] for _ in range(r)]
    for j in draw(st.lists(st.integers(0, s - 1), max_size=2)):
        for row in E:
            row[j] = 0
    if r > 1 and draw(st.booleans()):
        i = draw(st.integers(1, r - 1))
        E[i] = combination(F, E[:i], [draw(st.integers(0, F.q - 1)) for _ in range(i)])
    return F, E


@settings(max_examples=300, deadline=None)
@given(echelon_cases())
# A zero entry, so a search and a swap; a zero column; every row with its
# pivot before the last column; a pivot found two rows down.
@example((F7, [[0, 1], [2, 3]]))
@example((F7, [[0, 0, 1], [0, 2, 3]]))
@example((F5, [[1, 2, 3, 4], [2, 1, 3, 4]]))
@example((F8, [[0, 5], [0, 3], [1, 2]]))
def test_eliminator_matches_reference_elimination(case):
    # The pivots and the whole echelon form, entries below each pivot
    # included, against elimination written plainly.
    F, E = case
    M = [row[:] for row in E]
    pivots = _eliminator(F)(M)
    assert (M, pivots) == ref_echelon(F, E)


def test_json_round_trip():
    A = cauchy_matrix(F7, [0, 1], [2, 3, 4])
    assert ConstMatrix.from_json(A.to_json()) == A


@pytest.mark.parametrize("bad", [1.9, 1.0, "2", True, False, 5, -1])
def test_from_json_rejects_non_integer_entries(bad):
    # An integer that is no element code of GF(5) passes the JSON reader and
    # fails the matrix's own check.
    match = "is not an element code" if type(bad) is int else "expected an integer"
    with pytest.raises(ValueError, match=match):
        ConstMatrix.from_json({"field": {"p": 5, "e": 1}, "entries": [[bad, 2], [3, 4]]})
    with pytest.raises(ValueError, match="is not an element code"):
        ConstMatrix(F5, ((bad, 2), (3, 4)))
    with pytest.raises(ValueError, match="is not an element code"):
        ConstMatrix(F8, ((1, 2), (3, 8 if type(bad) is int else bad)))


@pytest.mark.parametrize("F", [make_field(61), make_field(2, 4)])
def test_random_matrices_draw_row_major_randrange(F):
    # The stream behind `--source random`: each matrix is r*s row-major draws
    # of randrange(1, q) from one random.Random(seed), matrix after matrix.
    rng = random.Random(2024)
    expected = [tuple(tuple(rng.randrange(1, F.q) for _ in range(3)) for _ in range(4))
                for _ in range(6)]
    drawn = list(itertools.islice(random_matrices(F, 4, 3, seed=2024), 6))
    assert [A.entries for A in drawn] == expected
    assert drawn == [ConstMatrix(F, entries) for entries in expected]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([F5, F7, F8]), st.data())
def test_const_matrix_refuses_like_the_per_item_reference(F, data):
    # Ragged and empty rows, and entries that are no element code, in any
    # mix: the constructor and from_json raise what the reference raises.
    entries = data.draw(st.lists(st.lists(element_or_not(F.q), max_size=3), max_size=3))
    doc = {"field": F.to_json(), "entries": entries}
    assert outcome(lambda: ConstMatrix(F, entries).entries) == \
        outcome(lambda: ref_const_matrix(F, entries))
    assert outcome(lambda: ConstMatrix.from_json(doc).entries) == \
        outcome(lambda: ref_const_matrix_json(doc))


@pytest.mark.parametrize("entries, error", [
    ([[1, 2], [9]], (GaloisError, "9 is not an element code of GF(7)")),
    ([[9], []], (GaloisError, "9 is not an element code of GF(7)")),
    ([[1, 2], [3, -1]], (GaloisError, "-1 is not an element code of GF(7)")),
    ([[1, 2], [3]], (ValueError, "ragged matrix")),
])
def test_entries_are_checked_before_the_shape(entries, error):
    # A check that looks at the shape first lets the short row of
    # [[1, 2], [9]] win over its bad code 9.
    assert outcome(lambda: ConstMatrix(F7, entries)) == error
    assert outcome(lambda: ConstMatrix.from_json({"field": {"p": 7}, "entries": entries})) == error
