"""Constant-matrix linear algebra over GF(q): one elimination routine
(`_eliminator`) behind the determinant, the nullspace and the minor scan's
minors of size 4 and up; superregularity testing, whose minors up to 3x3
need no inverse; Cauchy matrices; and a seeded stream of random candidate
matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .galois import FiniteField, GaloisError, json_get, json_int, json_list

#: Draws a seeded random search makes before it gives up, by default.
MAX_TRIES = 10_000


class SearchExhaustedError(RuntimeError):
    """The seeded random search gave up after max_tries draws.

    Unlike the Ball-bound refusal (`codes.FieldTooSmallError`), this does not
    prove that no superregular matrix of the shape exists over the field.
    """


@dataclass(frozen=True)
class ConstMatrix:
    """Immutable r x s matrix of field element codes."""

    field: FiniteField
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(self.field.check(x) for x in row) for row in self.entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _unchecked(cls, field: FiniteField, entries: tuple[tuple[int, ...], ...]) -> "ConstMatrix":
        """The matrix of `entries`, a nonempty rectangular tuple of tuples of
        element codes of `field`, built without re-checking them: only for
        entries the library drew or copied from an object it validated."""
        A = object.__new__(cls)
        object.__setattr__(A, "field", field)
        object.__setattr__(A, "entries", entries)
        return A

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def to_json(self) -> dict:
        return {"field": self.field.to_json(), "entries": [list(r) for r in self.entries]}

    @staticmethod
    def from_json(obj: dict) -> "ConstMatrix":
        F = FiniteField.from_json(json_get(obj, "field"))
        return ConstMatrix(F, tuple(tuple(json_int(x) for x in json_list(row))
                                    for row in json_list(json_get(obj, "entries"))))


@dataclass(frozen=True)
class SuperregularityReport:
    verdict: bool
    minors_checked: int
    failing_minor: tuple[tuple[int, ...], tuple[int, ...], int] | None = None

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict, "minors_checked": self.minors_checked}
        if self.failing_minor is not None:
            r, c, d = self.failing_minor
            out["failing_minor"] = {"rows": list(r), "cols": list(c), "det": d}
        return out


def _eliminator(F: FiniteField) -> Callable[[list[list[int]]], list[int]]:
    """The one Gaussian elimination over F, with F's operations bound once
    per caller: `det`, `nullspace`, and the minor scan from size 4 on.

    The returned `echelon(M)` brings a list-of-lists matrix M to row echelon
    form in place and returns the pivot column of each pivot row, so the rank
    is the pivot count and a square matrix's determinant is the product of
    the diagonal.  Only row operations that keep the determinant are used:
    adding a multiple of the pivot row to a row below it, and swapping two
    rows while negating one.  The pivot of column c is the first row at or
    below the next pivot row with a nonzero entry there; a column without one
    is skipped.  A pivot's inverse is negated once, and computed only when a
    row lies below the pivot row (the last pivot of a square matrix
    eliminates nothing).  The loops run by index, so a call allocates nothing
    but the pivot list.  F's operations are read when this is called, never
    cached across calls.  A tabled field carries its own lookups, so a method
    replaced on `FiniteField` after set-up is used only by untabled fields.
    """
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv

    def echelon(M: list[list[int]]) -> list[int]:
        nrows, ncols = len(M), len(M[0])
        pivots: list[int] = []
        row = 0
        for col in range(ncols):
            for pr in range(row, nrows):
                if M[pr][col]:
                    break
            else:
                continue
            P = M[pr]
            if pr != row:
                Q = M[row]
                M[row], M[pr] = P, Q
                for c in range(col, ncols):
                    Q[c] = neg(Q[c])
            if row + 1 < nrows:
                npinv = neg(inv(P[col]))
                for r in range(row + 1, nrows):
                    R = M[r]
                    if R[col]:
                        f = mul(R[col], npinv)
                        R[col] = 0
                        for c in range(col + 1, ncols):
                            R[c] = add(R[c], mul(f, P[c]))
            pivots.append(col)
            row += 1
        return pivots

    return echelon


def det(A: ConstMatrix) -> int:
    """Determinant over GF(q): the product of the echelon form's diagonal,
    or 0 when a column has no pivot."""
    if A.rows != A.cols:
        raise ValueError("determinant requires a square matrix")
    M = [list(row) for row in A.entries]
    if len(_eliminator(A.field)(M)) < A.rows:
        return 0
    return reduce(A.field.mul, (M[i][i] for i in range(A.rows)), 1)


def is_superregular(A: ConstMatrix) -> SuperregularityReport:
    """Check that every minor of every size is nonzero.

    Enumeration is by ascending minor size, lexicographic subsets, with
    early exit on the first zero minor.  Levels 1 to 3 need no inverse: each
    entry in row-major order is nonzero; each 2x2 minor has a·d != b·c, and
    a·d − b·c is stored in a table of row pairs, each holding its column
    pairs in lex order; each 3x3 minor is expanded along its last row over
    the stored minors of its first two rows.  From size 4 on, each size's
    column subsets are listed once, each with one getter that copies a row's
    entries in those columns, and each minor is eliminated.  The field's
    operations are bound at the call.
    """
    E = A.entries
    add, mul, neg = A.field.add, A.field.mul, A.field.neg
    echelon = _eliminator(A.field)
    for i, row in enumerate(E):
        if 0 in row:
            j = row.index(0)
            return SuperregularityReport(False, i * A.cols + j + 1, ((i,), (j,), 0))
    checked = A.rows * A.cols
    cpairs = list(combinations(range(A.cols), 2))
    D: dict[tuple[int, int], list[int]] = {}
    for r0, r1 in combinations(range(A.rows), 2):
        R0, R1 = E[r0], E[r1]
        Dr = D[r0, r1] = []
        for c0, c1 in cpairs:
            checked += 1
            ad, bc = mul(R0[c0], R1[c1]), mul(R0[c1], R1[c0])
            if ad == bc:
                return SuperregularityReport(False, checked, ((r0, r1), (c0, c1), 0))
            Dr.append(add(ad, neg(bc)))
    # det = e0·D[c1c2] − e1·D[c0c2] + e2·D[c0c1] over the last row e and the
    # first two rows' minors D; it is zero iff e0·D[c1c2] + e2·D[c0c1] = e1·D[c0c2].
    rank = {pair: i for i, pair in enumerate(cpairs)}
    ctriples = [(c0, c1, c2, rank[c1, c2], rank[c0, c2], rank[c0, c1])
                for c0, c1, c2 in combinations(range(A.cols), 3)]
    for r0, r1, r2 in combinations(range(A.rows), 3):
        Dr, R = D[r0, r1], E[r2]
        for c0, c1, c2, i12, i02, i01 in ctriples:
            checked += 1
            if add(mul(R[c0], Dr[i12]), mul(R[c2], Dr[i01])) == mul(R[c1], Dr[i02]):
                return SuperregularityReport(False, checked, ((r0, r1, r2), (c0, c1, c2), 0))
    for size in range(4, min(A.rows, A.cols) + 1):
        subsets = [(c, itemgetter(*c)) for c in combinations(range(A.cols), size)]
        for rsub in combinations(range(A.rows), size):
            rows = [E[i] for i in rsub]
            for csub, get in subsets:
                checked += 1
                if len(echelon(list(map(list, map(get, rows))))) < size:
                    return SuperregularityReport(False, checked, (rsub, csub, 0))
    return SuperregularityReport(True, checked)


def cauchy_matrix(F: FiniteField, xs: Sequence[int], ys: Sequence[int]) -> ConstMatrix:
    """The matrix with entries (x_i - y_j)^(-1).

    Requires all xs distinct, all ys distinct, and xs disjoint from ys.
    Every minor is a Cauchy determinant and hence nonzero, but callers
    certifying codes re-verify with `is_superregular` rather than assume it.
    """
    xs, ys = [F.check(x) for x in xs], [F.check(y) for y in ys]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise GaloisError("Cauchy parameters must be distinct")
    if set(xs) & set(ys):
        raise GaloisError("Cauchy xs and ys must be disjoint")
    return ConstMatrix(
        F, tuple(tuple(F.inv(F.sub(x, y)) for y in ys) for x in xs)
    )


def random_matrices(
    F: FiniteField, r: int, s: int, seed: int = 0, max_tries: int = MAX_TRIES
) -> Iterator[ConstMatrix]:
    """Seeded stream of r x s matrices with uniformly random nonzero entries.

    Identical seed gives an identical stream.  The shape and max_tries are
    checked at the call, before the first draw (ValueError).  The stream
    raises SearchExhaustedError when asked for one more than max_tries
    matrices.
    """
    if r < 1 or s < 1:
        raise ValueError("matrix shape must be at least 1x1")
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")

    def draws() -> Iterator[ConstMatrix]:
        # Row-major draws from randrange(1, q) are element codes by construction.
        draw, q = random.Random(seed).randrange, F.q
        for _ in range(max_tries):
            yield ConstMatrix._unchecked(
                F, tuple(tuple(draw(1, q) for _ in range(s)) for _ in range(r))
            )
        raise SearchExhaustedError(
            f"seeded random search gave up: no superregular {r}x{s} matrix over "
            f"GF({F.q}) in {max_tries} tries; this does not show that none exists"
        )

    return draws()


def random_superregular(
    F: FiniteField, r: int, s: int, seed: int = 0, max_tries: int = MAX_TRIES
) -> ConstMatrix:
    """The first matrix of `random_matrices` that passes `is_superregular`."""
    return next(A for A in random_matrices(F, r, s, seed, max_tries) if is_superregular(A).verdict)


def nullspace(A: ConstMatrix) -> list[tuple[int, ...]]:
    """Basis of the right nullspace {v : A v = 0}: for each free column, the
    solution with 1 there and 0 at the other free columns."""
    F = A.field
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    M = [list(row) for row in A.entries]
    pivots = _eliminator(F)(M)
    basis = []
    for fc in (c for c in range(A.cols) if c not in pivots):
        v = [0] * A.cols
        v[fc] = 1
        for row, pc in reversed(list(zip(M, pivots))):
            acc = 0
            for c in range(pc + 1, A.cols):
                acc = add(acc, mul(row[c], v[c]))
            v[pc] = neg(mul(acc, inv(row[pc])))
        basis.append(tuple(v))
    return basis

