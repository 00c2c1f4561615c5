"""Slow exact oracles over the public matrix data, for the tests only.

The determinant is the Leibniz sum over permutations, so it shares no code
with `multipoly._det_cofactor` (cofactor expansion) or `superreg._eliminator`
(elimination); the minors, internal degree, unimodularity and the rank of
a constant matrix rest on it, and so does `scan_report`, the minor scan's
report recomputed minor by minor.  `ref_echelon` is the elimination written
plainly, whole rows at a time, with no fast path and no early stop.
`vec_mat`, `random_poly` and `element_or_not` are the tests' shared ways to
multiply out a row vector, to draw a polynomial and to draw what may or may
not be an element code.

The `ref_*` validators restate, item by item, what `ConstMatrix`,
`Polynomial`, `PolyMatrix` and their `from_json` accept and in which order
they refuse the rest: each returns what the constructor keeps, or raises the
error it must raise.  `outcome` puts either result in one comparable value.
"""

from functools import reduce
from itertools import combinations, permutations
from typing import Iterator, Sequence

from hypothesis import strategies as st

from mdconv.galois import FiniteField, GaloisError
from mdconv.multipoly import Polynomial, PolyMatrix, monomials_upto
from mdconv.superreg import ConstMatrix, SuperregularityReport


def identity(field, m: int, k: int) -> PolyMatrix:
    one, zero = Polynomial.constant(field, m, 1), Polynomial.zero(field, m)
    return PolyMatrix(field, m, [[one if i == j else zero for j in range(k)] for i in range(k)])


def _signed_permutations(n: int) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Every permutation of range(n), with True when it is odd."""
    for perm in permutations(range(n)):
        yield perm, sum(a > b for a, b in combinations(perm, 2)) % 2 == 1


def leibniz_det(M: PolyMatrix, cols: Sequence[int] | None = None) -> Polynomial:
    """det of M restricted to `cols` (all columns by default): the sum over
    permutations of sign * product of one entry per row."""
    cols = range(M.cols) if cols is None else cols
    if len(cols) != M.rows:
        raise ValueError("determinant requires a square matrix")
    acc = Polynomial.zero(M.field, M.m)
    for perm, odd in _signed_permutations(M.rows):
        term = Polynomial.constant(M.field, M.m, 1)
        for i, j in enumerate(perm):
            term = term * M.entries[i][cols[j]]
        acc = acc + (-term if odd else term)
    return acc


def full_size_minors(G: PolyMatrix) -> list[tuple[tuple[int, ...], Polynomial]]:
    """All C(n, k) maximal minors in lex order of column subset."""
    if G.rows > G.cols:
        raise ValueError("full-size minors need rows <= cols")
    return [(cols, leibniz_det(G, cols)) for cols in combinations(range(G.cols), G.rows)]


def internal_degree(G: PolyMatrix):
    """Max total degree among the full-size minors."""
    return max(minor.total_degree() for _, minor in full_size_minors(G))


def is_unimodular(U: PolyMatrix) -> bool:
    """True iff square with determinant a nonzero field constant."""
    return leibniz_det(U).total_degree() == 0


def random_poly(rng, field, m: int, degree: int) -> Polynomial:
    """A uniformly random coefficient, zero included, at each monomial of
    total degree <= `degree`."""
    return Polynomial(field, m, {a: rng.randrange(field.q) for a in monomials_upto(degree, m)})


def vec_mat(u: Sequence[int], A: ConstMatrix) -> tuple[int, ...]:
    """u A over A's field, term by term."""
    F = A.field
    return tuple(reduce(F.add, (F.mul(x, a) for x, a in zip(u, col)), 0)
                 for col in zip(*A.entries))


def submatrix(A: ConstMatrix, rows: Sequence[int], cols: Sequence[int]) -> ConstMatrix:
    """Rows and columns of A in the given order; a row permutation when
    `cols` is every column."""
    return ConstMatrix(A.field, tuple(tuple(A.entries[i][j] for j in cols) for i in rows))


def transpose(A: ConstMatrix) -> ConstMatrix:
    return ConstMatrix(A.field, tuple(zip(*A.entries)))


def const_det(A: ConstMatrix) -> int:
    """Leibniz determinant of a square constant matrix."""
    F = A.field
    acc = 0
    for perm, odd in _signed_permutations(A.rows):
        term = reduce(F.mul, (A.entries[i][j] for i, j in enumerate(perm)), 1)
        acc = (F.sub if odd else F.add)(acc, term)
    return acc


def rank(A: ConstMatrix) -> int:
    """The largest t with a nonzero t x t minor; 0 for the zero matrix."""
    for t in range(min(A.rows, A.cols), 0, -1):
        if any(const_det(submatrix(A, rs, cs))
               for rs in combinations(range(A.rows), t)
               for cs in combinations(range(A.cols), t)):
            return t
    return 0


def ref_echelon(F, M) -> tuple[list[list[int]], list[int]]:
    """The row echelon form of a list-of-lists matrix over F, and its pivot
    columns, by plain Gaussian elimination: in each column the first row at
    or below the next pivot row with a nonzero entry is the pivot; when it is
    not that row, the two swap and the row moved down is negated whole; then
    every row below loses its multiple of the pivot row, whole."""
    M = [list(row) for row in M]
    pivots: list[int] = []
    for col in range(len(M[0])):
        row = len(pivots)
        found = [r for r in range(row, len(M)) if M[r][col]]
        if not found:
            continue
        if found[0] != row:
            M[row], M[found[0]] = M[found[0]], [F.neg(x) for x in M[row]]
        P = M[row]
        for r in range(row + 1, len(M)):
            f = F.mul(M[r][col], F.inv(P[col]))
            M[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[r], P)]
        pivots.append(col)
    return M, pivots


def scan_report(A: ConstMatrix) -> SuperregularityReport:
    """`is_superregular`'s report from Leibniz minors, in its canonical order:
    size ascending, then row subsets, then column subsets, each in lex order,
    stopping at the first zero minor."""
    checked = 0
    for t in range(1, min(A.rows, A.cols) + 1):
        for rs in combinations(range(A.rows), t):
            for cs in combinations(range(A.cols), t):
                checked += 1
                if not const_det(submatrix(A, rs, cs)):
                    return SuperregularityReport(False, checked, (rs, cs, 0))
    return SuperregularityReport(True, checked)


def element_or_not(q: int):
    """Element codes of GF(q), and what is none: bools, floats, negative
    codes and codes >= q."""
    return (st.integers(0, q - 1) | st.integers(-2, q + 1) | st.booleans()
            | st.floats(-1, q, allow_nan=False))


def outcome(build):
    """("ok", build()), or the type and message of what `build()` raises."""
    try:
        return "ok", build()
    except Exception as exc:
        return type(exc), str(exc)


def _code(F, a):
    if type(a) is not int or not 0 <= a < F.q:
        raise GaloisError(f"{a!r} is not an element code of GF({F.q})")
    return a


def _json_int(x):
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _json_list(x):
    if type(x) is not list:
        raise ValueError(f"expected a list, got {x!r}")
    return x


def ref_const_matrix(F, entries) -> tuple:
    """Each entry in row-major order, then emptiness, then raggedness."""
    rows = tuple(tuple(_code(F, x) for x in row) for row in entries)
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    return rows


def ref_const_matrix_json(obj) -> tuple:
    """The field, then each row is a list of integers, then the matrix."""
    F = FiniteField.from_json(obj["field"])
    return ref_const_matrix(F, [[_json_int(x) for x in _json_list(row)]
                                for row in _json_list(obj["entries"])])


def ref_polynomial(F, m, terms) -> list:
    """m, then term by term its exponent vector and its coefficient; the
    nonzero terms in canonical order."""
    if m < 1:
        raise ValueError(f"number of variables must be >= 1, got {m}")
    clean = {}
    for alpha, c in (terms or {}).items():
        alpha = tuple(map(_json_int, alpha))
        if len(alpha) != m or min(alpha) < 0:
            raise ValueError(f"bad exponent vector {alpha} for m={m}")
        if _code(F, c):
            clean[alpha] = c
    return sorted(clean.items(), key=lambda term: term[0][::-1])


def ref_polynomial_json(obj, F, m) -> list:
    """Each term's shape, exponents and coefficient, then the polynomial."""
    terms = {}
    for term in _json_list(obj):
        if type(term) is not list or len(term) != 2:
            raise ValueError(f"polynomial term must be [exponents, coefficient], got {term!r}")
        alpha = tuple(map(_json_int, _json_list(term[0])))
        if alpha in terms:
            raise ValueError(f"repeated exponent vector {list(alpha)} in polynomial")
        terms[alpha] = _json_int(term[1])
    return ref_polynomial(F, m, terms)


def ref_poly_matrix(F, m, entries) -> tuple:
    """Emptiness, then row by row its length and each entry's ring."""
    rows = tuple(tuple(row) for row in entries)
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError("ragged matrix")
        for p in row:
            if p.field != F or p.m != m:
                raise GaloisError("matrix entry from a different ring")
    return rows


def ref_poly_matrix_json(obj, F, m) -> tuple:
    """Every polynomial in row-major order, then the matrix."""
    return ref_poly_matrix(F, m, [[Polynomial(F, m, dict(ref_polynomial_json(p, F, m)))
                                   for p in _json_list(row)] for row in _json_list(obj)])
