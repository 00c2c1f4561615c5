import random
import warnings
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from mdconv.galois import GaloisError, make_field
from mdconv.multipoly import (
    NEG_INF,
    Polynomial,
    PolyMatrix,
    _det_cofactor,
    monomials_upto,
    term_key,
)
from mdconv.codes import support_count
from mdconv.superreg import ConstMatrix, det
from oracles import full_size_minors, identity, internal_degree, is_unimodular, random_poly

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


def P(field, m, terms):
    return Polynomial(field, m, terms)


def test_add_cancellation_char2():
    f = P(F2, 2, {(1, 0): 1, (0, 1): 1})  # z1 + z2
    g = P(F2, 2, {(1, 0): 1})
    assert f + g == P(F2, 2, {(0, 1): 1})


def test_mul_monomials():
    z1 = Polynomial.monomial(F2, (1, 0))
    z2 = Polynomial.monomial(F2, (0, 1))
    assert z1 * z2 == P(F2, 2, {(1, 1): 1})


def test_mul_with_vanishing_middle_coefficient():
    # (1 + z)(1 + 2z) = 1 + 2z^2 over GF(3): the z coefficient is 1 + 2 = 0.
    f = P(F3, 1, {(0,): 1, (1,): 1})
    g = P(F3, 1, {(0,): 1, (1,): 2})
    assert f * g == P(F3, 1, {(0,): 1, (2,): 2})


def test_mismatched_rings_raise():
    with pytest.raises(GaloisError):
        P(F2, 1, {(0,): 1}) + P(F3, 1, {(0,): 1})
    with pytest.raises(GaloisError):
        P(F2, 1, {(0,): 1}) * P(F2, 2, {(0, 0): 1})


def test_total_degree():
    assert P(F2, 2, {(2, 1): 1, (1, 0): 1}).total_degree() == 3
    assert P(F7, 1, {(0,): 5}).total_degree() == 0
    assert Polynomial.zero(F7, 1).total_degree() == NEG_INF


def test_weight_examples():
    v = PolyMatrix(F2, 2, [[
        P(F2, 2, {(0, 0): 1, (1, 0): 1}),
        P(F2, 2, {(0, 1): 1}),
        Polynomial.zero(F2, 2),
    ]])
    assert v.weight() == 3
    assert PolyMatrix(F2, 2, [[Polynomial.zero(F2, 2)] * 3]).weight() == 0
    v7 = PolyMatrix(F7, 2, [[
        P(F7, 2, {(0, 0): 2, (1, 0): 3, (0, 1): 6}),
        P(F7, 2, {(0, 0): 5, (1, 0): 2, (0, 1): 3}),
        P(F7, 2, {(0, 0): 4, (1, 0): 5, (0, 1): 2}),
    ]])
    assert v7.weight() == 9


def worked_example_matrix():
    one = Polynomial.constant(F2, 2, 1)
    z1 = Polynomial.monomial(F2, (1, 0))
    z2 = Polynomial.monomial(F2, (0, 1))
    zero = Polynomial.zero(F2, 2)
    return PolyMatrix(F2, 2, [[one, z1, zero], [one, z2, one]])


def test_row_and_external_degrees_worked_example():
    G = worked_example_matrix()
    assert G.row_degrees() == [1, 1]
    assert G.external_degree() == 2


def test_degrees_more_examples():
    one = Polynomial.constant(F2, 2, 1)
    sq = Polynomial.monomial(F2, (2, 0))
    z2 = Polynomial.monomial(F2, (0, 1))
    G = PolyMatrix(F2, 2, [[sq, z2], [one, one]])
    assert G.row_degrees() == [2, 0]
    assert G.external_degree() == 2
    const = PolyMatrix(F5, 1, [[Polynomial.constant(F5, 1, 3), Polynomial.constant(F5, 1, 1)]])
    assert const.row_degrees() == [0]
    assert const.external_degree() == 0


def test_zero_row_degree_is_neg_inf_without_warning():
    zero = Polynomial.zero(F2, 1)
    one = Polynomial.constant(F2, 1, 1)
    G = PolyMatrix(F2, 1, [[one, one], [zero, zero]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert G.row_degrees() == [0, NEG_INF]
        assert G.external_degree() == 0


def test_full_size_minors_worked_example():
    G = worked_example_matrix()
    minors = dict(full_size_minors(G))
    z1 = Polynomial.monomial(F2, (1, 0))
    z2 = Polynomial.monomial(F2, (0, 1))
    assert minors[(0, 1)] == z1 + z2
    assert minors[(0, 2)] == Polynomial.constant(F2, 2, 1)
    assert minors[(1, 2)] == z1
    assert internal_degree(G) == 1


def test_minors_identity_and_diagonal():
    I = identity(F5, 1, 2)
    assert [m for _, m in full_size_minors(I)] == [Polynomial.constant(F5, 1, 1)]
    assert internal_degree(I) == 0
    z1 = Polynomial.monomial(F2, (1, 0))
    z2 = Polynomial.monomial(F2, (0, 1))
    zero = Polynomial.zero(F2, 2)
    D = PolyMatrix(F2, 2, [[z1, zero], [zero, z2]])
    assert dict(full_size_minors(D))[(0, 1)] == z1 * z2
    assert internal_degree(D) == 2


def test_is_unimodular():
    assert is_unimodular(identity(F2, 2, 3))
    one = Polynomial.constant(F2, 1, 1)
    z = Polynomial.monomial(F2, (1,))
    zero = Polynomial.zero(F2, 1)
    assert is_unimodular(PolyMatrix(F2, 1, [[one, z], [zero, one]]))
    assert not is_unimodular(PolyMatrix(F2, 1, [[z, zero], [zero, one]]))
    with pytest.raises(ValueError):
        is_unimodular(PolyMatrix(F2, 1, [[one, z]]))


def _all_polys(field, m, degree):
    exps = monomials_upto(degree, m)
    polys = []
    for coeffs in product(range(field.q), repeat=len(exps)):
        polys.append(Polynomial(field, m, dict(zip(exps, coeffs))))
    return polys


def test_ring_axioms_exhaustive_gf2_degree_one():
    for m in (1, 2):
        polys = _all_polys(F2, m, 1)
        for f, g, h in product(polys, repeat=3):
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f


def test_ring_axioms_sampled_degree_two():
    rng = random.Random(7)
    for _ in range(400):
        field = rng.choice([F2, F3, F5])
        m = rng.choice([1, 2])
        f, g, h = (random_poly(rng, field, m, 2) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_weight_invariance_under_scaling_and_shift():
    rng = random.Random(11)
    for _ in range(100):
        field = rng.choice([F3, F5, F7])
        m = rng.choice([1, 2])
        v = PolyMatrix(field, m, [[random_poly(rng, field, m, 2) for _ in range(3)]])
        c = Polynomial.constant(field, m, rng.randrange(1, field.q))
        scaled = PolyMatrix(field, m, [[p * c for p in v.entries[0]]])
        assert scaled.weight() == v.weight()
        alpha = tuple(rng.randrange(3) for _ in range(m))
        z = Polynomial.monomial(field, alpha)
        shifted = PolyMatrix(field, m, [[p * z for p in v.entries[0]]])
        assert shifted.weight() == v.weight()


def test_weight_subadditive():
    rng = random.Random(13)
    for _ in range(100):
        field = rng.choice([F2, F5])
        m = 2
        u = PolyMatrix(field, m, [[random_poly(rng, field, m, 2) for _ in range(3)]])
        v = PolyMatrix(field, m, [[random_poly(rng, field, m, 2) for _ in range(3)]])
        s = PolyMatrix(field, m, [[a + b for a, b in zip(u.entries[0], v.entries[0])]])
        assert s.weight() <= u.weight() + v.weight()


def _random_full_rank_matrix(rng, field, m, k, n, degree):
    while True:
        G = PolyMatrix(field, m, [
            [random_poly(rng, field, m, degree) for _ in range(n)] for _ in range(k)
        ])
        if G.has_full_row_rank() and all(
            any(not p.is_zero() for p in row) for row in G.entries
        ):
            return G


def test_internal_degree_at_most_external():
    rng = random.Random(17)
    for _ in range(60):
        field = rng.choice([F2, F3, F5])
        m = rng.choice([1, 2])
        k = rng.choice([1, 2])
        n = rng.randrange(k, 4)
        G = _random_full_rank_matrix(rng, field, m, k, n + 1, 2)
        assert internal_degree(G) <= G.external_degree()


def _random_unimodular(rng, field, m, k):
    # Product of elementary row operations keeps the determinant constant.
    U = identity(field, m, k)
    rows = [list(r) for r in U.entries]
    for _ in range(4):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        f = random_poly(rng, field, m, 1)
        rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
    return PolyMatrix(field, m, rows)


def test_internal_degree_invariant_under_unimodular():
    rng = random.Random(19)
    for _ in range(30):
        field = rng.choice([F2, F5])
        m = rng.choice([1, 2])
        k = 2
        G = _random_full_rank_matrix(rng, field, m, k, 3, 1)
        U = _random_unimodular(rng, field, m, k)
        assert is_unimodular(U)
        assert internal_degree(U @ G) == internal_degree(G)


def test_canonical_term_order_matches_last_variable_recursion():
    assert monomials_upto(1, 2) == [(0, 0), (1, 0), (0, 1)]
    assert monomials_upto(2, 2) == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]
    assert sorted([(1, 1), (0, 2), (2, 0)], key=term_key) == [(2, 0), (1, 1), (0, 2)]


def test_monomials_upto_matches_product_filter_sort():
    for m in range(1, 5):
        for d in range(7):
            oracle = sorted((a for a in product(range(d + 1), repeat=m) if sum(a) <= d),
                            key=term_key)
            got = monomials_upto(d, m)
            assert got == oracle
            assert len(got) == support_count(d, m)


def test_monomials_upto_many_variables():
    # Not recursive, so the variable count is not bounded by the
    # interpreter's recursion limit, and each vector is built once.
    assert monomials_upto(0, 2000) == [(0,) * 2000]
    units = [(0,) * v + (1,) + (0,) * (1999 - v) for v in range(2000)]
    assert monomials_upto(1, 2000) == [(0,) * 2000] + units


def test_json_round_trip():
    f = P(F7, 2, {(0, 0): 2, (1, 0): 3, (0, 1): 6})
    assert Polynomial.from_json(f.to_json(), F7, 2) == f
    G = worked_example_matrix()
    assert PolyMatrix.from_json(G.to_json(), F2, 2) == G


@pytest.mark.parametrize("terms", [
    [[[0, 1], 2.7]], [[[0, 1], "2"]], [[[0, 1], True]],
    [[[1.0, 0], 2]], [[["1", 0], 2]], [[[False, 1], 2]], [[[1.7, 0], 2]],
])
def test_polynomial_from_json_rejects_non_integers(terms):
    with pytest.raises(ValueError, match="expected an integer"):
        Polynomial.from_json(terms, F7, 2)
    with pytest.raises(ValueError):
        Polynomial(F7, 2, {tuple(a): c for a, c in terms})
    with pytest.raises(ValueError, match="expected an integer"):
        PolyMatrix.from_json([[terms]], F7, 2)


def test_polynomial_from_json_rejects_repeated_exponent_vector():
    # Letting the last term win would read [[0], 1], [[0], 2] as the constant 2.
    with pytest.raises(ValueError, match=r"repeated exponent vector \[0\]"):
        Polynomial.from_json([[[0], 1], [[0], 2]], F7, 1)
    with pytest.raises(ValueError, match="repeated exponent vector"):
        PolyMatrix.from_json([[[[[1, 0], 3], [[0, 1], 1], [[1, 0], 0]]]], F7, 2)


# -- differential check against pointwise evaluation -----------------------
#
# Evaluating at every point of F^m uses only the field's add/mul/pow, so it
# shares no code with the dict arithmetic of Polynomial and PolyMatrix.

DIFF_FIELDS = [make_field(2), make_field(3), make_field(5), make_field(2, 2), make_field(3, 2)]


def _evaluate(p, x):
    F = p.field
    acc = 0
    for alpha, c in p.terms.items():
        mono = c
        for xi, a in zip(x, alpha):
            mono = F.mul(mono, F.pow(xi, a))
        acc = F.add(acc, mono)
    return acc


def _evaluate_matrix(A, x):
    return [[_evaluate(p, x) for p in row] for row in A.entries]


def _field_sum(F, values):
    acc = 0
    for v in values:
        acc = F.add(acc, v)
    return acc


def _points(F, m):
    return list(product(range(F.q), repeat=m))


RINGS = st.tuples(st.sampled_from(DIFF_FIELDS), st.sampled_from([1, 2]))


def polys(F, m):
    return st.dictionaries(
        st.sampled_from(monomials_upto(2, m)), st.integers(0, F.q - 1), max_size=4,
    ).map(lambda terms: Polynomial(F, m, terms))


def poly_matrices(F, m, rows, cols):
    return st.lists(
        st.lists(polys(F, m), min_size=cols, max_size=cols), min_size=rows, max_size=rows,
    ).map(lambda entries: PolyMatrix(F, m, entries))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_polynomial_arithmetic_matches_evaluation(data):
    F, m = data.draw(RINGS)
    a, b = data.draw(polys(F, m)), data.draw(polys(F, m))
    for x in _points(F, m):
        ax, bx = _evaluate(a, x), _evaluate(b, x)
        assert _evaluate(a + b, x) == F.add(ax, bx)
        assert _evaluate(a - b, x) == F.sub(ax, bx)
        assert _evaluate(a * b, x) == F.mul(ax, bx)
    assert all(c != 0 for c in (a + b).terms.values())
    assert all(c != 0 for c in (a * b).terms.values())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matmul_matches_evaluation(data):
    F, m = data.draw(RINGS)
    k, t, n = (data.draw(st.integers(1, 3)) for _ in range(3))
    A = data.draw(poly_matrices(F, m, k, t))
    B = data.draw(poly_matrices(F, m, t, n))
    AB = A @ B
    for x in _points(F, m):
        Ax, Bx = _evaluate_matrix(A, x), _evaluate_matrix(B, x)
        expected = [
            [_field_sum(F, (F.mul(Ax[i][s], Bx[s][j]) for s in range(t))) for j in range(n)]
            for i in range(k)
        ]
        assert _evaluate_matrix(AB, x) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_minors_match_evaluated_determinants(data):
    F, m = data.draw(RINGS)
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(k, 4))
    G = data.draw(poly_matrices(F, m, k, n))
    minors = full_size_minors(G)
    assert [cols for cols, _ in minors] == list(combinations(range(n), k))
    # The memoized cofactor expansion behind has_full_row_rank, against Leibniz.
    memo: dict = {}
    assert [_det_cofactor(G, cols, memo) for cols, _ in minors] == [d for _, d in minors]
    for x in _points(F, m):
        Gx = _evaluate_matrix(G, x)
        for cols, minor in minors:
            sub = ConstMatrix(F, tuple(tuple(row[c] for c in cols) for row in Gx))
            assert _evaluate(minor, x) == det(sub)
    assert G.has_full_row_rank() == any(not d.is_zero() for _, d in minors)


def test_minors_match_on_a_matrix_with_no_zero_minor():
    # Draws above are often k = 1, of characteristic 2 or with zero minors,
    # where a wrong cofactor sign changes nothing; here every sign shows.
    F = make_field(5)
    G = PolyMatrix(F, 1, [[Polynomial.constant(F, 1, c) for c in row]
                          for row in ((1, 2, 3), (1, 3, 4))])
    minors = full_size_minors(G)
    assert all(not d.is_zero() for _, d in minors)
    assert [_det_cofactor(G, cols, {}) for cols, _ in minors] == [d for _, d in minors]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_values_are_immutable_and_hash_by_value(data):
    F, m = data.draw(RINGS)
    p = data.draw(polys(F, m))
    zero = Polynomial.zero(F, m)
    assert p + (-p) == zero and hash(p + (-p)) == hash(zero)
    A = data.draw(poly_matrices(F, m, 2, 2))
    B = PolyMatrix.from_json(A.to_json(), F, m)
    assert A == B and hash(A) == hash(B)
    assert A.rows == A.cols == 2
    for obj, name in [(p, "terms"), (p, "m"), (A, "entries"), (A, "field"), (A, "rows")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
