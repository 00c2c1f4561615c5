"""Slow exact oracles over the public matrix data, for the tests only.

The determinant is the Leibniz sum over permutations, so it shares no code
with `multipoly._det_cofactor` (cofactor expansion) or `superreg._eliminator`
(elimination); the minors, internal degree, unimodularity and the rank of
a constant matrix rest on it, and so does `scan_report`, the minor scan's
report recomputed minor by minor.
"""

from functools import reduce
from itertools import combinations, permutations
from typing import Iterator, Sequence

from mdconv.multipoly import Polynomial, PolyMatrix
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
