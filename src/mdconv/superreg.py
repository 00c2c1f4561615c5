"""Constant-matrix linear algebra over GF(q).

Superregularity testing by exhaustive minor enumeration, Cauchy-matrix
generation, and a seeded stream of random candidate matrices.  One Gaussian
elimination routine, `_echelon`, serves the determinant, rank, nullspace and
the minor scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Iterator, Sequence

from .galois import FiniteField, GaloisError, json_get, json_int, json_list


class SearchExhaustedError(RuntimeError):
    """Random superregular search ran out of tries (field likely too small)."""


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

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def transpose(self) -> "ConstMatrix":
        return ConstMatrix(self.field, tuple(zip(*self.entries)))

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


def _echelon(F: FiniteField, M: list[list[int]]) -> list[int]:
    """Bring M to row echelon form in place; return the pivot column of each row.

    Only row operations that keep the determinant are used: adding a multiple
    of the pivot row to a row below it, and swapping two rows while negating one.
    """
    add, mul, neg = F.add, F.mul, F.neg
    pivots: list[int] = []
    for col in range(len(M[0])):
        row = len(pivots)
        pr = next((r for r in range(row, len(M)) if M[r][col]), None)
        if pr is None:
            continue
        if pr != row:
            M[row], M[pr] = M[pr], M[row]
            M[pr][col:] = [neg(x) for x in M[pr][col:]]
        P, pinv = M[row], F.inv(M[row][col])
        for R in M[row + 1:]:
            if R[col]:
                f = neg(mul(R[col], pinv))
                R[col] = 0
                for c in range(col + 1, len(P)):
                    R[c] = add(R[c], mul(f, P[c]))
        pivots.append(col)
    return pivots


def det(A: ConstMatrix) -> int:
    """Determinant over GF(q): the product of the echelon form's diagonal,
    or 0 when a column has no pivot."""
    if A.rows != A.cols:
        raise ValueError("determinant requires a square matrix")
    M = [list(row) for row in A.entries]
    if len(_echelon(A.field, M)) < A.rows:
        return 0
    return reduce(A.field.mul, (M[i][i] for i in range(A.rows)), 1)


def is_superregular(A: ConstMatrix) -> SuperregularityReport:
    """Check that every minor of every size is nonzero.

    Enumeration is by ascending minor size, lexicographic subsets, with
    early exit on the first zero minor; 1x1 minors go first, so a zero
    entry fails immediately.
    """
    F, E = A.field, A.entries
    checked = 0
    for size in range(1, min(A.rows, A.cols) + 1):
        for rsub in combinations(range(A.rows), size):
            rows = [E[i] for i in rsub]
            for csub in combinations(range(A.cols), size):
                checked += 1
                if len(_echelon(F, [[row[j] for j in csub] for row in rows])) < size:
                    return SuperregularityReport(False, checked, (rsub, csub, 0))
    return SuperregularityReport(True, checked)


def cauchy_matrix(F: FiniteField, xs: Sequence[int], ys: Sequence[int]) -> ConstMatrix:
    """The matrix with entries (x_i - y_j)^(-1).

    Requires all xs distinct, all ys distinct, and xs disjoint from ys.
    Every minor is a Cauchy determinant and hence nonzero, but callers
    certifying codes re-verify with `is_superregular` rather than assume it.
    """
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise GaloisError("Cauchy parameters must be distinct")
    if set(xs) & set(ys):
        raise GaloisError("Cauchy xs and ys must be disjoint")
    return ConstMatrix(
        F, tuple(tuple(F.inv(F.sub(x, y)) for y in ys) for x in xs)
    )


def random_matrices(
    F: FiniteField, r: int, s: int, seed: int = 0, max_tries: int = 10_000
) -> Iterator[ConstMatrix]:
    """Seeded stream of r x s matrices with uniformly random nonzero entries.

    Identical seed gives an identical stream.  Raises SearchExhaustedError
    when asked for one more than max_tries matrices.
    """
    if r < 1 or s < 1:
        raise ValueError("matrix shape must be at least 1x1")
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")
    rng = random.Random(seed)
    for _ in range(max_tries):
        yield ConstMatrix(
            F, tuple(tuple(rng.randrange(1, F.q) for _ in range(s)) for _ in range(r))
        )
    raise SearchExhaustedError(
        f"no superregular {r}x{s} matrix over GF({F.q}) in {max_tries} tries"
    )


def random_superregular(
    F: FiniteField, r: int, s: int, seed: int = 0, max_tries: int = 10_000
) -> ConstMatrix:
    """The first matrix of `random_matrices` that passes `is_superregular`."""
    return next(A for A in random_matrices(F, r, s, seed, max_tries) if is_superregular(A).verdict)


def rank(A: ConstMatrix) -> int:
    return len(_echelon(A.field, [list(row) for row in A.entries]))


def nullspace(A: ConstMatrix) -> list[tuple[int, ...]]:
    """Basis of the right nullspace {v : A v = 0}: for each free column, the
    solution with 1 there and 0 at the other free columns."""
    F = A.field
    M = [list(row) for row in A.entries]
    pivots = _echelon(F, M)
    basis = []
    for fc in (c for c in range(A.cols) if c not in pivots):
        v = [0] * A.cols
        v[fc] = 1
        for row, pc in reversed(list(zip(M, pivots))):
            acc = 0
            for c in range(pc + 1, A.cols):
                acc = F.add(acc, F.mul(row[c], v[c]))
            v[pc] = F.neg(F.mul(acc, F.inv(row[pc])))
        basis.append(tuple(v))
    return basis

