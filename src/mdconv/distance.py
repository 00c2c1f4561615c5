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
GF(p^e), by one int64 matrix product: each message coefficient is
expanded to its e base-p digits (its power-basis coordinates, see
`galois`), each generator coefficient g to the e x e GF(p) matrix of
x -> g*x, and a codeword coefficient is nonzero iff one of its e digits
is.  Prime fields are the case e = 1.  The product is linear, so for a
tail counter x = h*q^L + l the codeword digits are a high row (the
leading 1 and h) plus a low row (l in the last L positions), added in the
smallest unsigned dtype that holds 2(p - 1).  The q^L low rows, with the
largest L that keeps them within `_BATCH_ELEMENTS` digits, are tabled
once per search, and a batch encodes only its distinct h; so the table
and each batch hold at most `_BATCH_ELEMENTS` digits (or one row),
whatever q.  numpy is imported on first use, so `import mdconv` does not
pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .multipoly import Polynomial, PolyMatrix, monomials_upto, term_key

#: Most codeword digits (rows x n*T*e) one batch, or the low-part table,
#: holds, which bounds the working set whatever the code's length and q.
_BATCH_ELEMENTS = 1 << 14


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


class _Enumerator:
    """Shared geometry, encode map and batch order for one search."""

    def __init__(self, G: PolyMatrix, cap: int, stop_below: Optional[int]):
        import numpy as np

        self.stop_below = stop_below
        self.F = F = G.field
        self.k, self.n, self.m = G.rows, G.cols, G.m
        self.monomials = monomials_upto(cap, self.m)
        self.s = len(self.monomials)
        self.dim = self.k * self.s
        # Output monomial set: every alpha + beta reachable from the cap
        # monomials and the generator supports.
        out = set()
        for alpha in self.monomials:
            for row in G.entries:
                for p in row:
                    for beta in p.terms:
                        out.add(tuple(a + b for a, b in zip(alpha, beta)))
        self.out_monomials = sorted(out, key=term_key)
        self.T = len(self.out_monomials)
        out_idx = {g: t for t, g in enumerate(self.out_monomials)}

        p, e = F.p, F.e
        # A codeword digit sums dim*e products of two digits below p.
        if self.dim * e * (p - 1) ** 2 >= 1 << 63:
            raise ValueError(
                f"distance search over {F!r} with {self.dim} message coefficients "
                "would overflow int64 arithmetic"
            )

        def mul_block(g: int) -> list[list[int]]:
            # Row i: the digits of g * x^i, the image of the i-th basis element.
            return [[F.mul(g, p**i) // p**j % p for j in range(e)] for i in range(e)]

        # Linear encode map over GF(p): the e message digits of coefficient
        # (j, alpha) -> digit d of codeword coefficient (i, alpha + beta), in
        # column d*n*T + i*T + t (digit-major).
        M = np.zeros((self.dim * e, e, self.n * self.T), dtype=np.int64)
        for j, row in enumerate(G.entries):
            for i, poly in enumerate(row):
                for beta, cf in poly.terms.items():
                    block = mul_block(cf)
                    for a, alpha in enumerate(self.monomials):
                        r = (j * self.s + a) * e
                        c = i * self.T + out_idx[tuple(x + y for x, y in zip(alpha, beta))]
                        M[r:r + e, :, c] = block
        self.M = M.reshape(self.dim * e, -1)
        # free[d, v]: flat position d's monomial has exponent 0 in variable
        # v.  A normalized message is nonzero at a free position of each v.
        self.free = np.array(self.monomials * self.k) == 0
        # Rows per batch, and Q = q^L low parts (the last L < dim positions).
        self.rows = max(1, _BATCH_ELEMENTS // max(1, self.M.shape[1]))
        self.Q = max(F.q**L for L in range(self.dim) if F.q**L <= self.rows)
        self.low, self.low_ok = self.codewords(range(self.Q), None)

    def codewords(self, x, lead: Optional[int]):
        """Codeword digits of the messages with tail counters x after a 1 at
        `lead`, and per variable whether each has a nonzero term free of it
        (an N x m bool array)."""
        import numpy as np

        p, e = self.F.p, self.F.e
        C = np.zeros((len(x), self.dim), dtype=np.int64)
        rem = np.array(x, dtype=np.int64)
        for d in range(self.dim - 1, -1 if lead is None else lead, -1):
            rem, C[:, d] = np.divmod(rem, self.F.q)
        if lead is not None:
            C[:, lead] = 1
        digits = C[:, :, None] // p ** np.arange(e, dtype=np.int64)
        digits %= p
        W = digits.reshape(len(C), self.dim * e) @ self.M
        W %= p
        return W.astype(np.min_scalar_type(2 * (p - 1))), (C != 0) @ self.free

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
        """Ranges `(p0, start, stop)` of the tail counter in enumeration order.

        A stratum past the last free position of some variable holds no
        normalized message, and one up to it holds the all-(q - 1) tail.
        Every variable has a free position: component 0's constant monomial.
        """
        for p0 in range(self.dim - int(self.free[::-1].argmax(axis=0).max())):
            total = self.F.q ** (self.dim - 1 - p0)
            for start in range(0, total, self.rows):
                yield p0, start, min(start + self.rows, total)

    def scan(self, batch) -> tuple[Optional[int], Optional[tuple[int, int]], int, bool]:
        """Encode one batch: (min weight or None, witness `(p0, x)`,
        messages counted, stopped).

        With `stop_below`, the scan ends at the batch's first message whose
        weight is below it; that message is the witness and the last one
        counted.  Otherwise the witness is the first message attaining the
        minimum.
        """
        import numpy as np

        p0, start, stop = batch
        x = np.arange(start, stop, dtype=np.int64)
        h, l = np.divmod(x, self.Q)
        h -= start // self.Q
        high, high_ok = self.codewords(range(start - start % self.Q, stop, self.Q), p0)
        keep = (high_ok[h] | self.low_ok[l]).all(axis=1)
        x, h, l = x[keep], h[keep], l[keep]
        if not len(x):
            return None, None, 0, False
        W = np.take(high, h, axis=0)
        W += np.take(self.low, l, axis=0)
        # Each digit sum is below 2p, so it is zero mod p iff it is 0 or p.
        nz = (W != 0) & (W != self.F.p)
        # Columns are digit-major, so axis 1 of the reshape is the digit.
        w = np.count_nonzero(nz.reshape(len(nz), self.F.e, -1).any(axis=1), axis=1)
        if self.stop_below is not None:
            hits = np.flatnonzero(w < self.stop_below)
            if len(hits):
                # Every earlier message weighed at least stop_below.
                f = int(hits[0])
                return int(w[f]), (p0, int(x[f])), f + 1, True
        i = int(np.argmin(w))
        return int(w[i]), (p0, int(x[i])), len(x), False


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
    attaining the minimum.  Every `workers` count runs the same
    single-threaded search in enumeration order, so results are identical.

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
