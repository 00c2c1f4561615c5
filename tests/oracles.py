"""Slow exact oracles over the public matrix data, for the tests only.

The determinant is the Leibniz sum over permutations, so it shares no code
with `multipoly._det_cofactor` (cofactor expansion) or `superreg._echelon`
(elimination); the minors, internal degree and unimodularity rest on it.
"""

from itertools import combinations, permutations
from typing import Sequence

from mdconv.multipoly import Polynomial, PolyMatrix
from mdconv.superreg import ConstMatrix


def identity(field, m: int, k: int) -> PolyMatrix:
    one, zero = Polynomial.constant(field, m, 1), Polynomial.zero(field, m)
    return PolyMatrix(field, m, [[one if i == j else zero for j in range(k)] for i in range(k)])


def leibniz_det(M: PolyMatrix, cols: Sequence[int] | None = None) -> Polynomial:
    """det of M restricted to `cols` (all columns by default): the sum over
    permutations of sign * product of one entry per row."""
    cols = range(M.cols) if cols is None else cols
    if len(cols) != M.rows:
        raise ValueError("determinant requires a square matrix")
    acc = Polynomial.zero(M.field, M.m)
    for perm in permutations(range(M.rows)):
        term = Polynomial.constant(M.field, M.m, 1)
        for i, j in enumerate(perm):
            term = term * M.entries[i][cols[j]]
        inversions = sum(a > b for a, b in combinations(perm, 2))
        acc = acc + (-term if inversions % 2 else term)
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
