"""Flattening, the generalized Singleton bound, MDS constructions, and
certificates for multidimensional convolutional codes.

The flattening of a polynomial row of degree d in m variables stacks the
coefficient row-vectors of every monomial of total degree <= d (zero
coefficients included), in canonical order: ascending lexicographic on the
reversed exponent tuple, which is exactly the recursion on the last
variable.  Multi-row matrices flatten row by row, block after block.

Certification is one rule.  A generator with row degrees d_1 >= ... >=
d_{k-1} > d_k (any single row included) has free distance n*C(d_k+m, m)
when n >= sum_{i<k}(d_i + 1) + d_k + 1 and its flattening is superregular;
it is MDS when that distance meets the generalized Singleton bound.  The
three construction theorems RATE_1N (k = 1), STAIRCASE_KN (k - 1 rows of
degree nu + 1 over one of degree nu) and MD_STAIRCASE_BOUND (any other such
profile) label this rule and differ only in how a certificate names its
hypotheses.

A construction lifts a candidate source matrix into one row per degree of
its profile.  When the lift has that profile its flattening is the source
itself, so the construction's certificate is its only superregularity check:
a source is never scanned before it is lifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .galois import FiniteField, json_get, json_int
from .multipoly import (
    NEG_INF,
    ExponentVector,
    Polynomial,
    PolyMatrix,
    monomials_upto,
)
from . import superreg
from .superreg import ConstMatrix, cauchy_matrix, is_superregular, random_matrices

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
        assert self.verdict == NOT_CERTIFIED or self.certified_distance is not None
        assert self.verdict != CERTIFIED_MDS or all(h.passed for h in self.hypotheses)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "verdict": self.verdict,
            "certified_distance": self.certified_distance,
        }


def phi_flatten(G: PolyMatrix) -> FlattenedMatrix:
    """Stack, per source row, the coefficient row-vectors of all monomials of
    total degree up to the row degree (zero coefficients included), rows in
    source order, monomials in canonical order."""
    if all(p.is_zero() for row in G.entries for p in row):
        raise ValueError("cannot flatten the zero matrix")
    rows: list[tuple[int, ...]] = []
    index: list[tuple[int, ExponentVector]] = []
    for r, (row, d) in enumerate(zip(G.entries, G.row_degrees())):
        # A zero row carries no support; emit its single degree-0 slice
        # (all zeros), which correctly fails any superregularity check.
        for alpha in monomials_upto(0 if d == NEG_INF else int(d), G.m):
            rows.append(tuple(p.coeff(alpha) for p in row))
            index.append((r + 1, alpha))
    return FlattenedMatrix(ConstMatrix(G.field, tuple(rows)), tuple(index))


def phi_lift(
    S: ConstMatrix, m: int, row_plan: Sequence[tuple[int, int]]
) -> PolyMatrix:
    """Inverse of `phi_flatten` for uniform-degree blocks.

    `row_plan` lists (rows_per_block, degree) pairs; each source row of
    degree d consumes C(d+m, m) consecutive rows of S as the coefficients
    of the canonical monomial sequence.
    """
    expected = sum(b * support_count(d, m) for b, d in row_plan)
    if expected != S.rows:
        raise ValueError(f"row plan needs {expected} rows, matrix has {S.rows}")
    F = S.field
    out_rows: list[list[Polynomial]] = []
    pos = 0
    for block_rows, d in row_plan:
        exps = monomials_upto(d, m)
        for _ in range(block_rows):
            out_rows.append([
                Polynomial(F, m, {alpha: S.entries[pos + t][c] for t, alpha in enumerate(exps)})
                for c in range(S.cols)
            ])
            pos += len(exps)
    return PolyMatrix(F, m, out_rows)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def _superregularity_hypothesis(G: PolyMatrix) -> Hypothesis:
    report = is_superregular(phi_flatten(G).matrix)
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
    """Certify the generator by the one rule of this module: for a row-degree
    profile d_1 >= ... >= d_{k-1} > d_k, n >= sum_{i<k}(d_i + 1) + d_k + 1
    and a superregular flattening give free distance n*C(d_k+m, m).  The
    profile picks only the labels: RATE_1N for k = 1, else STAIRCASE_KN for
    k - 1 rows of degree nu + 1 over one of degree nu, else
    MD_STAIRCASE_BOUND.  The flattening is scanned only when the length
    condition holds.  A distance below the Singleton bound for degree
    sum(d_i) is CERTIFIED_DISTANCE, not CERTIFIED_MDS, and fails the
    hypothesis `meets_singleton_bound`.  NOT_CERTIFIED makes no claim of
    non-MDS-ness."""
    m, k, n = code.m, code.k, code.n
    degrees = code.generator.row_degrees()
    if any(d == NEG_INF for d in degrees):
        return MdsCertificate(
            MD_STAIRCASE_BOUND,
            (Hypothesis("nonzero_rows", False, "generator contains a zero row"),),
            NOT_CERTIFIED,
        )
    degrees = [int(d) for d in degrees]
    nu = degrees[-1]
    need = _min_length(degrees)

    if k == 1:
        theorem = RATE_1N
        profile = Hypothesis("single_row_generator", True, f"k = 1, row degree {nu}")
        length, length_detail = "length_at_least_degree_plus_one", f"n = {n}, delta + 1 = {need}"
    elif degrees == [nu + 1] * (k - 1) + [nu]:
        theorem = STAIRCASE_KN
        profile = Hypothesis(
            "staircase_row_degrees", True, f"{k - 1} rows of degree {nu + 1}, one of degree {nu}"
        )
        length, length_detail = "length_condition", f"n = {n}, k(nu+2) - 1 = {need}"
    elif all(a >= b for a, b in zip(degrees, degrees[1:])) and degrees[-2] > nu:
        theorem = MD_STAIRCASE_BOUND
        profile = Hypothesis(
            "descending_row_degrees", True, f"profile {degrees}, last degree strictly smallest"
        )
        length, length_detail = "length_condition", f"n = {n}, required {need}"
    else:
        sr = _superregularity_hypothesis(code.generator)
        return MdsCertificate(
            MD_STAIRCASE_BOUND,
            (
                Hypothesis(
                    "recognized_row_degree_profile",
                    False,
                    f"profile {degrees} matches no construction theorem",
                ),
                sr,
            ),
            NOT_CERTIFIED,
        )

    hyps = [profile, Hypothesis(length, n >= need, length_detail)]
    if n >= need:
        hyps.append(_superregularity_hypothesis(code.generator))
    if not all(h.passed for h in hyps):
        return MdsCertificate(theorem, tuple(hyps), NOT_CERTIFIED)
    distance = staircase_distance_bound(m, n, nu)
    bound = singleton_bound(m, k, n, sum(degrees))
    if distance == bound:
        return MdsCertificate(theorem, tuple(hyps), CERTIFIED_MDS, distance)
    detail = f"certified distance {distance}, Singleton bound {bound}"
    hyps.append(Hypothesis("meets_singleton_bound", False, detail))
    return MdsCertificate(theorem, tuple(hyps), CERTIFIED_DISTANCE, distance)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

Source = Union[str, ConstMatrix]


def _construct(
    F: FiniteField,
    m: int,
    profile: list[int],
    n: int,
    source: Source,
    seed: int,
    max_tries: int,
) -> tuple[CodeDescriptor, MdsCertificate]:
    """Lift each candidate source into one row per degree of `profile` and
    return the first lift of that profile that `certify` passes."""
    if n < (need := _min_length(profile)):
        raise ValueError(f"need n >= {need}, got n = {n}")
    rows = sum(support_count(d, m) for d in profile)
    if isinstance(source, ConstMatrix):
        if (source.rows, source.cols) != (rows, n):
            raise ValueError(f"explicit matrix is {source.rows}x{source.cols}, need {rows}x{n}")
        candidates = [source]
    elif source == "cauchy":
        if F.q < rows + n:
            raise FieldTooSmallError(f"Cauchy source needs q >= {rows + n}, field has q = {F.q}")
        candidates = [cauchy_matrix(F, list(range(rows)), list(range(rows, rows + n)))]
    elif source == "random":
        candidates = random_matrices(F, rows, n, seed, max_tries)
        # Ball (JEMS 2012): over a prime field an MDS code [I | A] with
        # 2 <= k <= q has length at most q + 1, and a superregular r x s
        # matrix with r, s >= 2 has r, s <= q - 1, so no draw can pass.
        if F.e == 1 and min(rows, n) >= 2 and rows + n > F.q + 1:
            raise FieldTooSmallError(
                f"no superregular {rows}x{n} matrix exists over GF({F.q}): over a prime "
                f"field, r, s >= 2 needs r + s <= q + 1 = {F.q + 1} (Ball 2012)"
            )
    else:
        raise ValueError(f"unknown source {source!r}")
    for S in candidates:
        G = phi_lift(S, m, [(1, d) for d in profile])
        # A zero top-degree slice lowers a row's degree, and the lower-degree
        # code could still certify; only a lift of `profile` flattens to S.
        if G.row_degrees() == profile:
            code = CodeDescriptor.from_generator(G)
            cert = certify(code)
            if cert.verdict == CERTIFIED_MDS:
                return code, cert
    raise ConstructionError("source matrix is not superregular")


def construct_mds_rate_1n(
    F: FiniteField,
    m: int,
    n: int,
    delta: int,
    source: Source = "cauchy",
    seed: int = 0,
    max_tries: int = 10_000,
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
    max_tries: int = 10_000,
) -> tuple[CodeDescriptor, MdsCertificate]:
    """Build a certified MDS rate-k/n code of degree k*nu + k - 1: k - 1 rows
    of degree nu + 1 and one row of degree nu, flattening superregular."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _construct(F, m, [nu + 1] * (k - 1) + [nu], n, source, seed, max_tries)


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
    degrees = [int(d) for d in G.row_degrees()]
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
