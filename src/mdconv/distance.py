"""Encoding and a bounded brute-force oracle for the free distance.

The oracle enumerates every normalized message of total degree at most a
cap D and reports the minimum codeword weight found with its witness.  A
message is normalized when its first nonzero coefficient is 1 and, for
every variable, some nonzero coefficient sits at a monomial free of that
variable; every nonzero message is a scaled monomial shift of a
normalized one with the same weight.  Since only messages up to the cap
are covered, the result always satisfies min_weight_found >= d_free(C).

Messages are enumerated in a fixed order: by stratum, the flat index of
the leading 1 (component-major, terms in canonical order), ascending;
then with the tail coefficients counting up in base q.  The search is
one stream of equal batches in this order, reduced in order and ended at
the first batch that stops, which makes reports deterministic and
independent of the worker count and batch size.

Codewords are computed over the prime subfield GF(p), for every field
GF(p^e), by one matrix product: each message coefficient is expanded to
its e base-p digits (its power-basis coordinates, see `galois`) and each
generator coefficient g to the e x e GF(p) matrix of x -> g*x.  The
product runs in float64 (BLAS) where every partial sum, at most
dim*e*(p - 1)^2, and every code, at most q - 1, is an integer below 2^53,
and in int64 above that.  A codeword coefficient's e digits, read in
base p, are its code in range(q); prime fields are the case e = 1.  The
map is linear, so for a tail counter x = h*Q + l with Q = q^L, a codeword
is a high part (the leading 1 and h) plus a low part (l in the last L
positions), and a coefficient is zero exactly when its high code equals
its negated low code (negation is digitwise, d -> (p - d) % p).  The Q
low parts are encoded and negated once per search into a float32 one-hot
table B with a row per coefficient and negated low code that occurs,
K <= n*T*min(q, Q) rows.  A batch of whole high parts encodes each once,
as one-hot rows A of its codes, so A @ B counts the zero coefficients of
every message in the batch and its weight is n*T minus that count.  A
count is an integer of at most n*T, and float32 holds every integer up to
2^24 exactly, so the sums are exact in any order, on any number of BLAS
threads.  Q is the largest q^L, L <= dim // 2, whose table (at most
n*T*q rows by Q) fits in `_BATCH_ELEMENTS`; half the positions balance
the table against the high parts of the largest stratum.  A field too
large for a table of q low parts (n*T*q^2 > `_BATCH_ELEMENTS`) gets none,
and each of its messages is encoded on its own.  numpy is imported on
first use, so `import mdconv` does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Optional

from .galois import to_digits
from .multipoly import Polynomial, PolyMatrix, monomials_upto, term_key

#: Most values the one-hot low table B (K x Q), one batch's one-hot rows
#: (h x K) and its product (h x Q) hold together, or the table and one
#: row: this bounds the working set whatever the code's length and q.
_BATCH_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class DistanceReport:
    min_weight_found: int
    cap: int
    messages_tried: int
    witness_message: PolyMatrix
    below_bound: bool

    def to_json(self) -> dict:
        return {
            "min_weight": self.min_weight_found,
            "cap": self.cap,
            "messages_tried": self.messages_tried,
            "witness": [p.to_json() for p in self.witness_message.entries[0]],
            "below_bound": self.below_bound,
        }


def encode(u: PolyMatrix, G: PolyMatrix) -> PolyMatrix:
    """Codeword u * G for a 1 x k message and k x n generator."""
    if u.rows != 1:
        raise ValueError("message must be a single row")
    return u @ G


def codeword_weight_profile(G: PolyMatrix) -> list[tuple[int, int]]:
    """Weight of each generator row viewed as a codeword; rows numbered from 1."""
    return [
        (i + 1, sum(p.weight() for p in row)) for i, row in enumerate(G.entries)
    ]


def _product_dtype(dim: int, p: int, e: int) -> str:
    """The dtype of the encode map's arithmetic.  A codeword digit sums dim*e
    products of two digits below p, so its partial sums are integers of at
    most dim*e*(p - 1)^2, and a code sums its e digits times powers of p to at
    most q - 1.  float64 (BLAS) holds every such integer exactly, in any order,
    when both bounds are below 2^53; otherwise the arithmetic runs in int64."""
    return "float64" if max(dim * e * (p - 1) ** 2, p**e - 1) < 1 << 53 else "int64"


class _Enumerator:
    """Shared geometry, encode map, low table and batch order for one search."""

    def __init__(self, G: PolyMatrix, cap: int, stop_below: Optional[int]):
        import numpy as np

        self.stop_below = stop_below
        self.F = F = G.field
        self.k, self.n, self.m = G.rows, G.cols, G.m
        self.monomials = monomials_upto(cap, self.m)
        self.s = len(self.monomials)
        self.dim = self.k * self.s
        # The generator's terms (row j, column i, exponent beta, coefficient),
        # and per beta the output monomials alpha + beta over the cap monomials.
        terms = [(j, i, beta, cf) for j, row in enumerate(G.entries)
                 for i, poly in enumerate(row) for beta, cf in poly.terms.items()]
        shifted = {beta: [tuple(map(add, alpha, beta)) for alpha in self.monomials]
                   for _, _, beta, _ in terms}
        self.out_monomials = sorted({g for gs in shifted.values() for g in gs}, key=term_key)
        self.T = len(self.out_monomials)
        self.ncoef = ncoef = self.n * self.T
        out_idx = {g: t for t, g in enumerate(self.out_monomials)}

        p, e, q = F.p, F.e, F.q
        # A codeword digit sums dim*e products of two digits below p.
        if self.dim * e * (p - 1) ** 2 >= 1 << 63:
            raise ValueError(
                f"distance search over {F!r} with {self.dim} message coefficients "
                "would overflow int64 arithmetic"
            )
        dtype = _product_dtype(self.dim, p, e)

        def mul_block(g: int) -> list[list[int]]:
            # Row i: the digits of g * x^i, the image of the i-th basis element.
            return [to_digits(F.mul(g, p**i), p, e) for i in range(e)]

        # Linear encode map over GF(p): the e message digits of coefficient
        # (j, alpha) -> digit d of codeword coefficient (i, alpha + beta), in
        # column d*n*T + i*T + t (digit-major), set by one indexed assignment.
        M = np.zeros((self.k, self.s, e, e, ncoef), dtype=dtype)
        if terms:
            M[np.repeat([j for j, *_ in terms], self.s), np.tile(np.arange(self.s), len(terms)),
              :, :, [i * self.T + out_idx[g] for _, i, beta, _ in terms for g in shifted[beta]]
              ] = np.repeat([mul_block(cf) for *_, cf in terms], self.s, axis=0)
        # Rows in place order: message position x (of dim) and digit d at row
        # (dim - 1 - x)*e + d, the base-p place of that digit in a tail
        # counter, whose base-p digits are its positions' digits since q = p^e.
        self.M = M.reshape(self.dim, e, e * ncoef)[::-1].reshape(self.dim * e, -1)
        # free[d, v]: flat position d's monomial has exponent 0 in variable
        # v.  A normalized message is nonzero at a free position of each v.
        # free_places is the same per row of M.
        self.free = np.array(self.monomials * self.k) == 0
        self.free_places = np.repeat(self.free[::-1], e, axis=0)
        # Q = q^L low parts (the last L <= dim // 2 positions): the largest
        # table whose one-hot matrix, at most q codes per coefficient, fits.
        self.Q = max(q**L for L in range(self.dim // 2 + 1)
                     if L == 0 or q ** (L + 1) * max(1, ncoef) <= _BATCH_ELEMENTS)
        low, self.low_ok = self.codewords(range(self.Q), None, negate=True)
        # A negated low code is below width: any of GF(q) once Q >= q, else 0.
        # Key c*width + a stands for code a at coefficient c, and col[key] is
        # the key's row of the one-hot table B, or -1 when no low part has it.
        self.width = width = min(q, self.Q)
        self.offsets = width * np.arange(ncoef, dtype=np.int64)
        key = low + self.offsets
        seen = np.zeros(ncoef * width, dtype=bool)
        seen[key] = True
        self.col = np.cumsum(seen) - 1
        self.col[~seen] = -1
        # B[j, l] = 1 iff low part l has the negated code of row j.
        self.B = np.zeros((int(seen.sum()), self.Q), dtype=np.float32)
        self.B[self.col[key], np.arange(self.Q)[:, None]] = 1
        # High parts per batch: B, a batch's one-hot rows and its product
        # hold at most _BATCH_ELEMENTS values together (or one row more).
        self.rows = max(1, (_BATCH_ELEMENTS - self.B.size) // (len(self.B) + self.Q))

    def codewords(self, x: range, lead: Optional[int], negate: bool = False):
        """Codeword coefficient codes (an N x n*T array over range(q)) of the
        messages with tail counters x after a 1 at `lead`, negated when
        `negate`, and per variable whether each message has a nonzero term
        free of it (an N x m bool array)."""
        import numpy as np

        p, e = self.F.p, self.F.e
        # The counters' base-p digits up to the largest one's top digit: every
        # higher place is 0 in every message, and p^(places - 1) <= x[-1]
        # fits int64.
        places = 0
        while p**places <= x[-1]:
            places += 1
        xs = np.arange(x.start, x.stop, x.step, dtype=np.int64)
        digits = xs[:, None] // p ** np.arange(places, dtype=np.int64) % p
        W = digits.astype(self.M.dtype) @ self.M[:places]
        ok = (digits != 0) @ self.free_places[:places]
        if lead is not None:
            # The leading 1: digit 0 of position `lead`.
            W += self.M[(self.dim - 1 - lead) * e]
            ok |= self.free[lead]
        # Negation in GF(p^e) is digitwise.
        if negate:
            np.negative(W, out=W)
        if W.dtype == np.int64:
            W %= p
        else:
            # Floor of an exact quotient of integers below 2^53 is exact, and
            # much faster than float `%`.
            W -= np.floor(W / p) * p
        # Columns are digit-major: Horner over the digits, highest first.
        codes = W[:, (e - 1) * self.ncoef:]
        for d in reversed(range(e - 1)):
            codes = codes * p + W[:, d * self.ncoef:(d + 1) * self.ncoef]
        return codes.astype(np.int64), ok

    def message(self, p0: int, x: int) -> PolyMatrix:
        q = self.F.q
        c = [0] * p0 + [1] + [x // q**d % q for d in reversed(range(self.dim - 1 - p0))]
        polys = [
            Polynomial(self.F, self.m, {
                alpha: c[j * self.s + a] for a, alpha in enumerate(self.monomials)
            })
            for j in range(self.k)
        ]
        return PolyMatrix(self.F, self.m, [polys])

    def batches(self):
        """Ranges `(p0, h0, h1)` of high parts in enumeration order: the
        messages with tail counters h*Q + l for h0 <= h < h1 and every low
        part l (only l below the stratum's size when that is below Q).

        A stratum past the last free position of some variable holds no
        normalized message, and one up to it holds the all-(q - 1) tail.
        Every variable has a free position: component 0's constant monomial.
        """
        for p0 in range(self.dim - int(self.free[::-1].argmax(axis=0).max())):
            highs = max(1, self.F.q ** (self.dim - 1 - p0) // self.Q)
            for h0 in range(0, highs, self.rows):
                yield p0, h0, min(h0 + self.rows, highs)

    def scan(self, batch) -> tuple[Optional[int], Optional[tuple[int, int]], int, bool]:
        """Encode one batch: (min weight or None, witness `(p0, x)`,
        messages counted, stopped).

        With `stop_below`, the scan ends at the batch's first message whose
        weight is below it; that message is the witness and the last one
        counted.  Otherwise the witness is the first message attaining the
        minimum.
        """
        import numpy as np

        p0, h0, h1 = batch
        nl = min(self.Q, self.F.q ** (self.dim - 1 - p0))
        high, high_ok = self.codewords(range(h0 * self.Q, h1 * self.Q, self.Q), p0)
        # keep[h, l]: message h*Q + l is normalized (row-major is enumeration
        # order).  Only the count needs it: a message that is not normalized
        # weighs as much as its normalized shift, which comes first.
        keep = (high_ok[:, None] | self.low_ok[None, :nl]).all(axis=2)
        if not keep.any():
            return None, None, 0, False
        # A coefficient is zero iff its high code is its negated low code:
        # one-hot rows of the high codes times B count the zeros.
        col = np.where(high < self.width, self.col.take(high + self.offsets, mode="clip"), -1)
        hit = col >= 0
        A = np.zeros((len(high), len(self.B)), dtype=np.float32)
        A[hit.nonzero()[0], col[hit]] = 1
        w = A @ self.B[:, :nl]
        np.subtract(self.ncoef, w, out=w)
        x0 = h0 * self.Q
        if self.stop_below is not None:
            hits = np.flatnonzero(w < self.stop_below)
            if len(hits):
                # Every earlier message weighed at least stop_below.
                f = int(hits[0])
                return int(w.flat[f]), (p0, x0 + f), int(np.count_nonzero(keep.flat[:f + 1])), True
        i = int(w.argmin())
        return int(w.flat[i]), (p0, x0 + i), int(np.count_nonzero(keep)), False


def free_distance_estimate(
    G: PolyMatrix,
    cap: int,
    stop_below: Optional[int] = None,
    workers: int = 1,
) -> DistanceReport:
    """Minimum codeword weight over the normalized messages of total
    degree <= cap; `messages_tried` counts normalized messages only.

    With `stop_below`, the search stops at the first codeword (in
    enumeration order) of weight below it: that codeword is the witness,
    `messages_tried` counts up to it, and the report's `below_bound` flag is
    set.  Otherwise the witness is the first message (in enumeration order)
    attaining the minimum.  Every `workers` count runs the same search in
    enumeration order, so results are identical; numpy's BLAS may run the
    exact products on several threads.

    Raises ValueError when `workers` < 1, or when the field is too large
    for exact int64 arithmetic (dim * e * (p - 1)^2 >= 2^63,
    dim = k * C(cap + m, m)).
    """
    if cap < 0:
        raise ValueError("degree cap must be >= 0")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    enum = _Enumerator(G, cap, stop_below)
    best: Optional[int] = None
    witness = None
    tried = 0
    below = False
    for weight, vec, count, stopped in map(enum.scan, enum.batches()):
        tried += count
        if weight is not None and (best is None or weight < best):
            best, witness = weight, vec
        if stopped:
            below = True
            break
    return DistanceReport(
        min_weight_found=best,
        cap=cap,
        messages_tried=tried,
        witness_message=enum.message(*witness),
        below_bound=below,
    )


def default_cap(k: int, delta: int) -> int:
    """CLI default enumeration cap: delta + 1 for single-row codes, else 1
    (the search space grows as q^(k * C(cap + m, m)))."""
    return delta + 1 if k == 1 else 1
