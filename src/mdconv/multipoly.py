"""Sparse multivariate polynomials over GF(q), and matrices of them.

A polynomial in m variables is a map from exponent tuples (a_1, ..., a_m)
to nonzero field element codes.  The canonical term order used everywhere
(iteration, serialization, flattening) is ascending lexicographic on the
reversed exponent tuple (a_m, ..., a_1), i.e. recursion on the last
variable first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from typing import Iterable, Sequence

from .galois import FiniteField, GaloisError

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
    exps = [a for a in product(range(degree + 1), repeat=m) if sum(a) <= degree]
    exps.sort(key=term_key)
    return exps


class Polynomial:
    """Immutable sparse polynomial over a finite field."""

    __slots__ = ("field", "m", "terms")

    def __init__(self, field: FiniteField, m: int, terms: dict[ExponentVector, int] | None = None):
        if m < 1:
            raise ValueError(f"number of variables must be >= 1, got {m}")
        clean = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != m or any(a < 0 for a in alpha):
                raise ValueError(f"bad exponent vector {alpha} for m={m}")
            field.check(c)
            if c != 0:
                clean[alpha] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

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
        return max(sum(a) for a in self.terms)

    def weight(self) -> int:
        """Number of nonzero terms."""
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[ExponentVector, int]]:
        return sorted(self.terms.items(), key=lambda t: term_key(t[0]))

    # -- arithmetic ------------------------------------------------------

    def _compat(self, other: "Polynomial") -> None:
        if self.field != other.field or self.m != other.m:
            raise GaloisError("polynomials belong to different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        F = self.field
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            s = F.add(terms.get(alpha, 0), c)
            if s == 0:
                terms.pop(alpha, None)
            else:
                terms[alpha] = s
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
                s = F.add(terms.get(g, 0), F.mul(ca, cb))
                if s == 0:
                    terms.pop(g, None)
                else:
                    terms[g] = s
        return Polynomial(F, self.m, terms)

    def scale(self, c: int) -> "Polynomial":
        F = self.field
        F.check(c)
        return Polynomial(F, self.m, {a: F.mul(x, c) for a, x in self.terms.items()})

    def shift(self, alpha: ExponentVector) -> "Polynomial":
        """Multiply by the monomial z^alpha."""
        return Polynomial(
            self.field, self.m,
            {tuple(x + y for x, y in zip(a, alpha)): c for a, c in self.terms.items()},
        )

    # -- protocol --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.m == other.m
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.m, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for alpha, c in self.sorted_terms():
            mono = "*".join(
                f"z{i+1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(alpha) if a
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits)

    def to_json(self) -> list:
        return [[list(a), c] for a, c in self.sorted_terms()]

    @staticmethod
    def from_json(obj: Iterable, field: FiniteField, m: int) -> "Polynomial":
        return Polynomial(field, m, {tuple(a): int(c) for a, c in obj})


class PolyMatrix:
    """Immutable k x n matrix of polynomials sharing one field and m."""

    __slots__ = ("field", "m", "rows", "cols", "entries")

    def __init__(self, field: FiniteField, m: int, entries: Sequence[Sequence[Polynomial]]):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        ncols = len(entries[0])
        for row in entries:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
            for p in row:
                if p.field != field or p.m != m:
                    raise GaloisError("matrix entry from a different ring")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *args):
        raise AttributeError("PolyMatrix is immutable")

    @staticmethod
    def identity(field: FiniteField, m: int, k: int) -> "PolyMatrix":
        one = Polynomial.constant(field, m, 1)
        zero = Polynomial.zero(field, m)
        return PolyMatrix(field, m, [[one if i == j else zero for j in range(k)] for i in range(k)])

    def __getitem__(self, idx: tuple[int, int]) -> Polynomial:
        return self.entries[idx[0]][idx[1]]

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(map(repr, row)) + "]" for row in self.entries)
        return f"PolyMatrix({body})"

    # -- degree and weight machinery -------------------------------------

    def weight(self) -> int:
        """Total number of nonzero terms across all entries."""
        return sum(p.weight() for row in self.entries for p in row)

    def row_degrees(self) -> list:
        """Per-row max entry degree; NEG_INF for zero rows."""
        return [max((p.total_degree() for p in row), default=NEG_INF) for row in self.entries]

    def external_degree(self) -> int:
        """Sum of the row degrees, skipping zero rows."""
        return sum(d for d in self.row_degrees() if d != NEG_INF)

    def determinant(self) -> Polynomial:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        return _det_cofactor(self, tuple(range(self.rows)), tuple(range(self.cols)), {})

    def full_size_minors(self) -> list[tuple[tuple[int, ...], Polynomial]]:
        """All C(n, k) maximal minors, paired with their column subsets."""
        if self.rows > self.cols:
            raise ValueError("full-size minors need rows <= cols")
        memo: dict = {}
        all_rows = tuple(range(self.rows))
        return [
            (cols, _det_cofactor(self, all_rows, cols, memo))
            for cols in combinations(range(self.cols), self.rows)
        ]

    def internal_degree(self):
        """Max total degree among the full-size minors."""
        return max(minor.total_degree() for _, minor in self.full_size_minors())

    def is_unimodular(self) -> bool:
        """True iff square with determinant a nonzero field constant."""
        if self.rows != self.cols:
            raise ValueError("unimodularity is defined for square matrices")
        d = self.determinant()
        return d.total_degree() == 0

    def has_full_row_rank(self) -> bool:
        if self.rows > self.cols:
            return False
        return any(not minor.is_zero() for _, minor in self.full_size_minors())

    # -- algebra ---------------------------------------------------------

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        if self.field != other.field or self.m != other.m:
            raise GaloisError("matrices over different rings")
        zero = Polynomial.zero(self.field, self.m)
        out = []
        for i in range(self.rows):
            out.append([
                reduce(
                    lambda a, b: a + b,
                    (self.entries[i][t] * other.entries[t][j] for t in range(self.cols)),
                    zero,
                )
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
            field, m, [[Polynomial.from_json(p, field, m) for p in row] for row in obj]
        )


def _det_cofactor(
    M: PolyMatrix,
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    memo: dict,
) -> Polynomial:
    """Cofactor expansion along the first listed row, memoized on the
    surviving column subset (row depth is implied by subset size)."""
    key = (rows, cols)
    if key in memo:
        return memo[key]
    if len(rows) == 1:
        return M.entries[rows[0]][cols[0]]
    F, m = M.field, M.m
    acc = Polynomial.zero(F, m)
    r = rows[0]
    rest = rows[1:]
    for j, c in enumerate(cols):
        entry = M.entries[r][c]
        if entry.is_zero():
            continue
        sub = _det_cofactor(M, rest, cols[:j] + cols[j + 1:], memo)
        term = entry * sub
        acc = acc + (term if j % 2 == 0 else -term)
    memo[key] = acc
    return acc


def weight(v: PolyMatrix) -> int:
    """Weight of a polynomial row vector (or any matrix): total term count."""
    return v.weight()
