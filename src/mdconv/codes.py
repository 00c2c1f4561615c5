"""Flattening, the generalized Singleton bound, certificates and MDS
constructions for multidimensional convolutional codes.  `certify` scans a
code's flattening for the one certification rule; a construction scans each
candidate source, lifts the first that passes and reuses its scan.
`phi_flatten` and `phi_lift` build through the public, checking constructors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .galois import FiniteField, json_get, json_int
from .multipoly import (
    NEG_INF,
    ExponentVector,
    Polynomial,
    PolyMatrix,
    monomials_upto,
)
from . import superreg
from .superreg import MAX_TRIES, ConstMatrix, cauchy_matrix, is_superregular, random_matrices

RATE_1N = "RATE_1N"
STAIRCASE_KN = "STAIRCASE_KN"
MD_STAIRCASE_BOUND = "MD_STAIRCASE_BOUND"

CERTIFIED_MDS = "CERTIFIED_MDS"
CERTIFIED_DISTANCE = "CERTIFIED_DISTANCE"
NOT_CERTIFIED = "NOT_CERTIFIED"


class ConstructionError(RuntimeError):
    """A construction cannot proceed as parametrized."""


class FieldTooSmallError(ConstructionError):
    """The field cannot supply the required superregular matrix source."""


def support_count(nu: int, m: int) -> int:
    """Number of exponent vectors (i_1, ..., i_m) with i_1 + ... + i_m <= nu."""
    if nu < 0 or m < 1:
        raise ValueError(f"need nu >= 0 and m >= 1, got ({nu}, {m})")
    return math.comb(nu + m, m)


def support_count_identity_check(nu: int, m: int) -> bool:
    """Self-test: the support count equals the sum of its last-variable slices."""
    if nu < 0 or m < 2:
        raise ValueError(f"need nu >= 0 and m >= 2, got ({nu}, {m})")
    return support_count(nu, m) == sum(support_count(nu - i, m - 1) for i in range(nu + 1))


def singleton_bound(m: int, k: int, n: int, delta: int) -> int:
    """Upper bound on the free distance of a rate-k/n degree-delta code in
    m variables:  n*C(floor(delta/k)+m, m) - k*(floor(delta/k)+1) + delta + 1."""
    if m < 1 or k < 1 or n < 1 or delta < 0 or k > n:
        raise ValueError(f"invalid dimensions (m={m}, k={k}, n={n}, delta={delta})")
    t = delta // k
    return n * support_count(t, m) - k * (t + 1) + delta + 1


def staircase_distance_bound(m: int, n: int, nu_last: int) -> int:
    """Distance bound n*C(nu_last+m, m) for descending row-degree profiles
    whose last row has degree nu_last."""
    if m < 1 or n < 1 or nu_last < 0:
        raise ValueError(f"invalid parameters (m={m}, n={n}, nu_last={nu_last})")
    return n * support_count(nu_last, m)


@dataclass(frozen=True)
class CodeDescriptor:
    """A code: field, variable count, dimensions, and generator matrix."""

    field: FiniteField
    m: int
    k: int
    n: int
    generator: PolyMatrix

    def __post_init__(self):
        G = self.generator
        if (G.rows, G.cols) != (self.k, self.n) or G.field != self.field or G.m != self.m:
            raise ValueError("generator matrix does not match the declared dimensions")

    @staticmethod
    def from_generator(G: PolyMatrix) -> "CodeDescriptor":
        return CodeDescriptor(G.field, G.m, G.rows, G.cols, G)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "m": self.m,
            "k": self.k,
            "n": self.n,
            "generator": self.generator.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "CodeDescriptor":
        F = FiniteField.from_json(json_get(obj, "field"))
        m, k, n = (json_int(json_get(obj, key)) for key in ("m", "k", "n"))
        return CodeDescriptor(F, m, k, n, PolyMatrix.from_json(json_get(obj, "generator"), F, m))


@dataclass(frozen=True)
class FlattenedMatrix:
    """A flattened generator: constant matrix plus (source row, exponent)
    origin per flattened row.  Source rows are numbered from 1."""

    matrix: ConstMatrix
    row_index: tuple[tuple[int, ExponentVector], ...]

    def to_json(self) -> dict:
        return {
            "matrix": self.matrix.to_json(),
            "row_index": [[r, list(a)] for r, a in self.row_index],
        }


@dataclass(frozen=True)
class Hypothesis:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class MdsCertificate:
    theorem: str
    hypotheses: tuple[Hypothesis, ...]
    verdict: str
    certified_distance: Optional[int] = None

    def __post_init__(self):
        if self.verdict != NOT_CERTIFIED and self.certified_distance is None:
            raise ValueError(f"a {self.verdict} certificate needs a certified distance")
        if self.verdict == CERTIFIED_MDS and not all(h.passed for h in self.hypotheses):
            raise ValueError("a CERTIFIED_MDS certificate needs every hypothesis passed")

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "verdict": self.verdict,
            "certified_distance": self.certified_distance,
        }


@functools.lru_cache(maxsize=64)
def _exponents(d: int, m: int) -> tuple[ExponentVector, ...]:
    """`monomials_upto(d, m)`, kept: lifts and flattenings ask for the same few."""
    return tuple(monomials_upto(d, m))


def phi_flatten(G: PolyMatrix) -> FlattenedMatrix:
    """Stack, per source row, the coefficient row-vectors of all monomials of
    total degree up to the row degree (zero coefficients included), rows in
    source order, monomials in canonical order."""
    degrees = G.row_degrees()
    if all(d == NEG_INF for d in degrees):
        raise ValueError("cannot flatten the zero matrix")
    rows: list[tuple[int, ...]] = []
    index: list[tuple[int, ExponentVector]] = []
    for r, (row, d) in enumerate(zip(G.entries, degrees)):
        terms = [p.terms for p in row]
        # A zero row carries no support; emit its single degree-0 slice
        # (all zeros), which correctly fails any superregularity check.
        for alpha in _exponents(max(d, 0), G.m):
            rows.append(tuple([t.get(alpha, 0) for t in terms]))
            index.append((r + 1, alpha))
    return FlattenedMatrix(ConstMatrix(G.field, rows), tuple(index))


def phi_lift(
    S: ConstMatrix, m: int, row_plan: Sequence[tuple[int, int]]
) -> PolyMatrix:
    """Inverse of `phi_flatten` for uniform-degree blocks.

    `row_plan` lists (rows_per_block, degree) pairs; each source row of
    degree d consumes C(d+m, m) consecutive rows of S as the coefficients
    of the canonical monomial sequence.
    """
    if any(b < 0 for b, _ in row_plan):
        raise ValueError(f"row plan {list(row_plan)} has a negative block size")
    expected = sum(b * support_count(d, m) for b, d in row_plan)
    if expected != S.rows:
        raise ValueError(f"row plan needs {expected} rows, matrix has {S.rows}")
    out_rows: list[tuple[Polynomial, ...]] = []
    pos = 0
    for block_rows, d in row_plan:
        exps = _exponents(d, m)
        for _ in range(block_rows):
            block = S.entries[pos:pos + len(exps)]
            out_rows.append(tuple(
                Polynomial(S.field, m, dict(zip(exps, col))) for col in zip(*block)
            ))
            pos += len(exps)
    return PolyMatrix(S.field, m, out_rows)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def _superregularity_hypothesis(report: superreg.SuperregularityReport) -> Hypothesis:
    if report.verdict:
        detail = f"all {report.minors_checked} minors nonzero"
    else:
        rsub, csub, _ = report.failing_minor
        detail = f"zero minor at rows {list(rsub)}, cols {list(csub)}"
    return Hypothesis("flatten_superregular", report.verdict, detail)


def _min_length(profile: Sequence[int]) -> int:
    """Least n the one rule admits: sum_{i<k}(d_i + 1) + d_k + 1."""
    return sum(d + 1 for d in profile)


def certify(code: CodeDescriptor) -> MdsCertificate:
    """Certify the generator by the one rule of this module (`_certificate`):
    for a row-degree profile d_1 >= ... >= d_{k-1} > d_k,
    n >= sum_{i<k}(d_i + 1) + d_k + 1 and a superregular flattening give free
    distance n*C(d_k+m, m).  The profile picks only the labels: RATE_1N for
    k = 1, else STAIRCASE_KN for k - 1 rows of degree nu + 1 over one of
    degree nu, else MD_STAIRCASE_BOUND.  `phi_flatten(code.generator)` is
    scanned when the length condition holds, and for a profile the rule does
    not recognize, so that its certificate still reports the scan.  A distance
    below the Singleton bound for degree sum(d_i) is CERTIFIED_DISTANCE, not
    CERTIFIED_MDS, and fails the hypothesis `meets_singleton_bound`.
    NOT_CERTIFIED makes no claim of non-MDS-ness."""
    return _certificate(code, lambda: is_superregular(phi_flatten(code.generator).matrix))


def _certificate(code: CodeDescriptor,
                 scan: Callable[[], superreg.SuperregularityReport]) -> MdsCertificate:
    """`certify`'s rule; `scan()` reports the flattening's scan, run if needed."""
    m, k, n = code.m, code.k, code.n
    degrees = code.generator.row_degrees()
    if NEG_INF in degrees:
        zero_row = Hypothesis("nonzero_rows", False, "generator contains a zero row")
        return MdsCertificate(MD_STAIRCASE_BOUND, (zero_row,), NOT_CERTIFIED)
    nu = degrees[-1]
    need = _min_length(degrees)
    if k == 1:
        theorem, hyps = RATE_1N, [
            Hypothesis("single_row_generator", True, f"k = 1, row degree {nu}"),
            Hypothesis("length_at_least_degree_plus_one", n >= need,
                       f"n = {n}, delta + 1 = {need}"),
        ]
    elif degrees == [nu + 1] * (k - 1) + [nu]:
        theorem, hyps = STAIRCASE_KN, [
            Hypothesis("staircase_row_degrees", True,
                       f"{k - 1} rows of degree {nu + 1}, one of degree {nu}"),
            Hypothesis("length_condition", n >= need, f"n = {n}, k(nu+2) - 1 = {need}"),
        ]
    elif all(a >= b for a, b in zip(degrees, degrees[1:])) and degrees[-2] > nu:
        theorem, hyps = MD_STAIRCASE_BOUND, [
            Hypothesis("descending_row_degrees", True,
                       f"profile {degrees}, last degree strictly smallest"),
            Hypothesis("length_condition", n >= need, f"n = {n}, required {need}"),
        ]
    else:
        theorem, hyps = MD_STAIRCASE_BOUND, [Hypothesis(
            "recognized_row_degree_profile", False,
            f"profile {degrees} matches no construction theorem",
        )]
    # Scan an unrecognized profile, or a recognized one whose length holds.
    if not hyps[0].passed or hyps[1].passed:
        hyps.append(_superregularity_hypothesis(scan()))
    if not all(h.passed for h in hyps):
        return MdsCertificate(theorem, tuple(hyps), NOT_CERTIFIED)
    distance = staircase_distance_bound(m, n, nu)
    bound = singleton_bound(m, k, n, sum(degrees))
    if distance != bound:
        detail = f"certified distance {distance}, Singleton bound {bound}"
        hyps.append(Hypothesis("meets_singleton_bound", False, detail))
    verdict = CERTIFIED_MDS if distance == bound else CERTIFIED_DISTANCE
    return MdsCertificate(theorem, tuple(hyps), verdict, distance)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

Source = Union[str, ConstMatrix]


def construct_mds_rate_1n(
    F: FiniteField,
    m: int,
    n: int,
    delta: int,
    source: Source = "cauchy",
    seed: int = 0,
    max_tries: int = MAX_TRIES,
) -> tuple[CodeDescriptor, MdsCertificate]:
    """Build a certified MDS rate-1/n code of degree `delta` in m variables
    from a superregular C(delta+m, m) x n matrix: the staircase with k = 1."""
    return construct_mds_staircase(F, m, 1, n, delta, source, seed, max_tries)


def construct_mds_staircase(
    F: FiniteField,
    m: int,
    k: int,
    n: int,
    nu: int,
    source: Source = "cauchy",
    seed: int = 0,
    max_tries: int = MAX_TRIES,
) -> tuple[CodeDescriptor, MdsCertificate]:
    """Build a certified MDS rate-k/n code of degree k*nu + k - 1: k - 1 rows
    of degree nu + 1 and one row of degree nu, flattening superregular.
    Each candidate source is scanned once; the first that passes, having no
    zero entry, lifts to exactly one row per degree of that profile and
    flattens back to itself, so the certificate reuses its scan and equals
    `certify` of the code, CERTIFIED_MDS."""
    if k < 1:
        raise ValueError("k must be >= 1")
    profile = [nu + 1] * (k - 1) + [nu]
    if n < (need := _min_length(profile)):
        raise ValueError(f"need n >= {need}, got n = {n}")
    rows = sum(support_count(d, m) for d in profile)
    if isinstance(source, ConstMatrix):
        if (source.rows, source.cols) != (rows, n):
            raise ValueError(f"explicit matrix is {source.rows}x{source.cols}, need {rows}x{n}")
        if source.field != F:
            raise ValueError(f"explicit matrix is over GF({source.field.q}), need GF({F.q})")
        candidates = [source]
    elif source == "cauchy":
        if F.q < rows + n:
            raise FieldTooSmallError(f"Cauchy source needs q >= {rows + n}, field has q = {F.q}")
        candidates = [cauchy_matrix(F, list(range(rows)), list(range(rows, rows + n)))]
    elif source == "random":
        candidates = random_matrices(F, rows, n, seed, max_tries)
        # Ball (JEMS 2012): over GF(p^e) an MDS code of dimension 2 <= k <= p has
        # length <= q + 1.  A superregular r x s A makes [I | A] and [I | A^T] MDS, of
        # dimensions r and s; over GF(p), r, s >= 2 forces r, s <= p - 1 anyway.
        if min(rows, n) >= 2 and (F.e == 1 or min(rows, n) <= F.p) and rows + n > F.q + 1:
            shape = "over a prime field, r, s >= 2" if F.e == 1 else f"2 <= min(r, s) <= p = {F.p}"
            raise FieldTooSmallError(f"no superregular {rows}x{n} matrix exists over GF({F.q}): "
                                     f"{shape} needs r + s <= q + 1 = {F.q + 1} (Ball 2012)")
    else:
        raise ValueError(f"unknown source {source!r}")
    for S in candidates:
        report = is_superregular(S)
        if report.verdict:
            code = CodeDescriptor.from_generator(phi_lift(S, m, [(1, d) for d in profile]))
            return code, _certificate(code, lambda: report)
    raise ConstructionError("source matrix is not superregular")


# ---------------------------------------------------------------------------
# Singleton-bound proof witness
# ---------------------------------------------------------------------------

def singleton_witness(code: CodeDescriptor) -> tuple[PolyMatrix, PolyMatrix, int]:
    """Produce a low-weight codeword along the lines of the bound's proof.

    The block is the rows of least row degree, in index order; a nonzero
    constant combination of them is chosen whose constant slice vanishes on
    the first (block size - 1) coordinates.  The returned codeword has
    weight at most the generalized Singleton bound for the generator's
    external degree.
    """
    G = code.generator
    if not G.has_full_row_rank():
        raise ValueError("generator matrix is not full row rank")
    k, m, F = code.k, code.m, code.field
    degrees = G.row_degrees()
    block = [r for r in range(k) if degrees[r] == min(degrees)]

    zero_alpha = (0,) * m
    if len(block) == 1:
        u_tilde = (1,)
    else:
        # The constant slice of the block on its first len(block) - 1
        # columns, transposed: len(block) - 1 equations in len(block)
        # unknowns, so a nonzero left kernel vector always exists.
        slice_t = ConstMatrix(F, tuple(
            tuple(G.entries[r][c].coeff(zero_alpha) for r in block)
            for c in range(len(block) - 1)
        ))
        u_tilde = superreg.nullspace(slice_t)[0]

    coeffs = [0] * k
    for r, c in zip(block, u_tilde):
        coeffs[r] = c
    message = PolyMatrix(F, m, [[Polynomial.constant(F, m, c) for c in coeffs]])
    codeword = message @ G
    return message, codeword, codeword.weight()
