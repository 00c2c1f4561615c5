"""Sparse multivariate polynomials over GF(q), and matrices of them.

A polynomial in m variables maps exponent tuples (a_1, ..., a_m) to
nonzero field element codes.  `Polynomial` and `PolyMatrix` are frozen
dataclasses, and the `Polynomial` constructor is the one place that drops
zero coefficients.  The canonical term order (`sorted_terms`, serialization,
flattening) is ascending lexicographic on the reversed exponent tuple
(a_m, ..., a_1), i.e. recursion on the last variable first; a polynomial
keeps its terms in that order, sorted once when it is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .galois import FiniteField, GaloisError, json_int, json_list

#: Degree of the zero polynomial.  A distinguished non-integer marker that
#: still compares below every real degree.
NEG_INF = float("-inf")

ExponentVector = tuple[int, ...]


def term_key(alpha: ExponentVector) -> ExponentVector:
    """Canonical sort key: lexicographic on the reversed exponent tuple."""
    return tuple(reversed(alpha))


def monomials_upto(degree: int, m: int) -> list[ExponentVector]:
    """All exponent vectors of total degree <= `degree`, in canonical order."""
    if degree < 0 or m < 1:
        raise ValueError(f"need degree >= 0 and m >= 1, got ({degree}, {m})")
    # Stars and bars: m bars among degree + m slots.  The gaps before the
    # bars, read last variable first, run through the canonical order as
    # the bar positions run through lex order.
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars))[::-1]
            for bars in combinations(range(degree + m), m)]


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial over a finite field.  Arithmetic may hand
    the constructor zero sums: it drops them."""

    field: FiniteField
    m: int
    terms: dict[ExponentVector, int] | None = None

    def __post_init__(self):
        m, field = self.m, self.field
        if m < 1:
            raise ValueError(f"number of variables must be >= 1, got {m}")
        clean = {}
        for alpha, c in (self.terms or {}).items():
            alpha = tuple(map(json_int, alpha))
            if len(alpha) != m or min(alpha) < 0:
                raise ValueError(f"bad exponent vector {alpha} for m={m}")
            if field.check(c) != 0:
                clean[alpha] = c
        object.__setattr__(self, "terms", {a: clean[a] for a in sorted(clean, key=term_key)})

    @classmethod
    def _unchecked(cls, field: FiniteField, m: int, terms: dict) -> "Polynomial":
        """The polynomial of `terms`, whose exponent vectors have m >= 1
        nonnegative integer entries, in canonical order, and whose
        coefficients are element codes of `field`, built without re-checking
        or sorting them: only for terms the library copied, in order, from
        objects it validated.  Zero terms are dropped, as the constructor
        drops them."""
        P = object.__new__(cls)
        object.__setattr__(P, "field", field)
        object.__setattr__(P, "m", m)
        object.__setattr__(P, "terms", {alpha: c for alpha, c in terms.items() if c})
        return P

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field: FiniteField, m: int) -> "Polynomial":
        return Polynomial(field, m, {})

    @staticmethod
    def constant(field: FiniteField, m: int, c: int) -> "Polynomial":
        return Polynomial(field, m, {(0,) * m: c})

    @staticmethod
    def monomial(field: FiniteField, alpha: ExponentVector, c: int = 1) -> "Polynomial":
        return Polynomial(field, len(alpha), {tuple(alpha): c})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, alpha: ExponentVector) -> int:
        return self.terms.get(tuple(alpha), 0)

    def total_degree(self):
        """Max total degree of the support; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(map(sum, self.terms))

    def weight(self) -> int:
        """Number of nonzero terms."""
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[ExponentVector, int]]:
        return list(self.terms.items())

    # -- arithmetic ------------------------------------------------------

    def _compat(self, other: "Polynomial") -> None:
        if self.field != other.field or self.m != other.m:
            raise GaloisError("polynomials belong to different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        F = self.field
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            terms[alpha] = F.add(terms.get(alpha, 0), c)
        return Polynomial(F, self.m, terms)

    def __neg__(self) -> "Polynomial":
        F = self.field
        return Polynomial(F, self.m, {a: F.neg(c) for a, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        F = self.field
        terms: dict[ExponentVector, int] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                g = tuple(x + y for x, y in zip(a, b))
                terms[g] = F.add(terms.get(g, 0), F.mul(ca, cb))
        return Polynomial(F, self.m, terms)

    # -- protocol --------------------------------------------------------

    def __hash__(self) -> int:
        return hash((self.field, self.m, tuple(self.terms.items())))

    def to_json(self) -> list:
        return [[list(a), c] for a, c in self.sorted_terms()]

    @staticmethod
    def from_json(obj: list, field: FiniteField, m: int) -> "Polynomial":
        terms = {}
        for term in json_list(obj):
            if type(term) is not list or len(term) != 2:
                raise ValueError(f"polynomial term must be [exponents, coefficient], got {term!r}")
            alpha = tuple(map(json_int, json_list(term[0])))
            if alpha in terms:
                raise ValueError(f"repeated exponent vector {list(alpha)} in polynomial")
            terms[alpha] = json_int(term[1])
        return Polynomial(field, m, terms)


@dataclass(frozen=True)
class PolyMatrix:
    """Immutable k x n matrix of polynomials sharing one field and m."""

    field: FiniteField
    m: int
    entries: Sequence[Sequence[Polynomial]]

    def __post_init__(self):
        field, m = self.field, self.m
        entries = tuple(tuple(row) for row in self.entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        for row in entries:
            if len(row) != len(entries[0]):
                raise ValueError("ragged matrix")
            for p in row:
                if p.field != field or p.m != m:
                    raise GaloisError("matrix entry from a different ring")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _unchecked(cls, field: FiniteField, m: int,
                   entries: tuple[tuple[Polynomial, ...], ...]) -> "PolyMatrix":
        """The matrix of `entries`, a nonempty rectangular tuple of tuples of
        polynomials over `field` in m variables, built without re-checking
        them: only for entries the library made from an object it validated."""
        M = object.__new__(cls)
        object.__setattr__(M, "field", field)
        object.__setattr__(M, "m", m)
        object.__setattr__(M, "entries", entries)
        return M

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    # -- degree and weight machinery -------------------------------------

    def weight(self) -> int:
        """Total number of nonzero terms across all entries."""
        return sum(p.weight() for row in self.entries for p in row)

    def row_degrees(self) -> list:
        """Per-row max entry degree; NEG_INF for zero rows."""
        return list(self._row_degrees)

    @functools.cached_property
    def _row_degrees(self) -> tuple:
        # The matrix is immutable, so a certificate and its flattening share
        # one pass over the terms.
        return tuple(max((p.total_degree() for p in row), default=NEG_INF)
                     for row in self.entries)

    def external_degree(self) -> int:
        """Sum of the row degrees, skipping zero rows."""
        return sum(d for d in self.row_degrees() if d != NEG_INF)

    def has_full_row_rank(self) -> bool:
        """True iff some maximal minor is nonzero; stops at the first one."""
        memo: dict = {}
        return self.rows <= self.cols and any(
            not _det_cofactor(self, cols, memo).is_zero()
            for cols in combinations(range(self.cols), self.rows)
        )

    # -- algebra ---------------------------------------------------------

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        if self.field != other.field or self.m != other.m:
            raise GaloisError("matrices over different rings")
        zero = Polynomial.zero(self.field, self.m)
        out = []
        for row in self.entries:
            out.append([
                sum((a * other.entries[t][j] for t, a in enumerate(row)), zero)
                for j in range(other.cols)
            ])
        return PolyMatrix(self.field, self.m, out)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self.matmul(other)

    def to_json(self) -> list:
        return [[p.to_json() for p in row] for row in self.entries]

    @staticmethod
    def from_json(obj: list, field: FiniteField, m: int) -> "PolyMatrix":
        return PolyMatrix(
            field, m,
            [[Polynomial.from_json(p, field, m) for p in json_list(row)] for row in json_list(obj)],
        )


def _det_cofactor(M: PolyMatrix, cols: tuple[int, ...], memo: dict) -> Polynomial:
    """Determinant of the last len(cols) rows of M restricted to `cols`, by
    cofactor expansion along the first of those rows, memoized on `cols`
    (the rows are implied by its size)."""
    if cols in memo:
        return memo[cols]
    r = len(M.entries) - len(cols)
    if len(cols) == 1:
        return M.entries[r][cols[0]]
    acc = Polynomial.zero(M.field, M.m)
    for j, c in enumerate(cols):
        entry = M.entries[r][c]
        if entry.is_zero():
            continue
        term = entry * _det_cofactor(M, cols[:j] + cols[j + 1:], memo)
        acc = acc + (term if j % 2 == 0 else -term)
    memo[cols] = acc
    return acc
