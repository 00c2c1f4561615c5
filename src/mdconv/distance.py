"""Encoding and a bounded brute-force oracle for the free distance.

The oracle enumerates every nonzero message of total degree at most a cap
D, modulo two weight-preserving symmetries (leading-coefficient scaling
and monomial shifts), and reports the minimum codeword weight found with
its witness.  Since only a subset of messages is covered, the result
always satisfies min_weight_found >= d_free(C).

Messages are enumerated in a fixed order: by stratum, the flat index of
the first nonzero coefficient (component-major, terms in canonical
order), ascending; then by the value of that leading coefficient; then
with the tail coefficients counting up in base q.  The search is one
stream of equal batches in this order, reduced in order and ended at the
first batch that stops, which makes reports deterministic and independent
of the worker count and batch size.

Codewords are computed in batches by one numpy matrix product over the
prime subfield GF(p), for every field GF(p^e).  Each message coefficient
is expanded to its e base-p digits (its power-basis coordinates, see
`galois`), each generator coefficient g to the e x e GF(p) matrix of
x -> g*x, and a codeword coefficient is nonzero iff one of its e digits
is.  Prime fields are the case e = 1.  numpy is imported on first use,
and the thread pool only for workers > 1, so `import mdconv` pays for
neither.  A pool encodes one window of batches at a time, so memory does
not grow with the search space and a stop wastes at most one window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .multipoly import Polynomial, PolyMatrix, monomials_upto, term_key

#: Most int64 codeword digits (rows x n*T*e) one batch holds, which bounds
#: the working set whatever the code's length.
_BATCH_ELEMENTS = 1 << 14
#: Batches handed to a pool of workers > 1 at once.
_WINDOW = 64


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

    def __init__(self, G: PolyMatrix, cap: int, normalize: bool, stop_below: Optional[int]):
        import numpy as np

        self.normalize, self.stop_below = normalize, stop_below
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
        self.powers = p ** np.arange(e, dtype=np.int64)

        def mul_block(g: int) -> list[list[int]]:
            # Row i: the digits of g * x^i, the image of the i-th basis element.
            return [[F.mul(g, p**i) // p**j % p for j in range(e)] for i in range(e)]

        # Linear encode map over GF(p): the e message digits of coefficient
        # (j, alpha) -> the e codeword digits of coefficient (i, alpha + beta).
        M = np.zeros((self.dim * e, self.n * self.T * e), dtype=np.int64)
        for j, row in enumerate(G.entries):
            for i, poly in enumerate(row):
                for beta, cf in poly.terms.items():
                    block = mul_block(cf)
                    for a, alpha in enumerate(self.monomials):
                        r = (j * self.s + a) * e
                        c = (i * self.T + out_idx[tuple(x + y for x, y in zip(alpha, beta))]) * e
                        M[r:r + e, c:c + e] = block
        self.M = M
        # Flat coefficient positions whose monomial has exponent 0 in each
        # variable, for the monomial-shift normalization.
        self.zero_exp_positions = [
            np.array(
                [j * self.s + a for j in range(self.k)
                 for a, alpha in enumerate(self.monomials) if alpha[v] == 0],
                dtype=np.int64,
            )
            for v in range(self.m)
        ]

    def message_from_vector(self, c) -> PolyMatrix:
        polys = [
            Polynomial(self.F, self.m, {
                alpha: int(c[j * self.s + a]) for a, alpha in enumerate(self.monomials)
            })
            for j in range(self.k)
        ]
        return PolyMatrix(self.F, self.m, [polys])

    def weights(self, C):
        """Codeword weight of each row of the q-ary coefficient matrix C."""
        import numpy as np

        p, e = self.F.p, self.F.e
        digits = C[:, :, None] // self.powers
        digits %= p
        W = digits.reshape(len(C), self.dim * e) @ self.M
        W %= p
        return np.count_nonzero(W.reshape(len(C), self.n * self.T, e).any(axis=2), axis=1)

    def batches(self):
        """Ranges `(p0, lead, start, stop)` of the tail counter, in
        enumeration order; each holds at most the rows `_BATCH_ELEMENTS`
        allows, and at least one."""
        q = self.F.q
        rows = max(1, _BATCH_ELEMENTS // max(1, self.n * self.T * self.F.e))
        for p0 in range(self.dim):
            total = q ** (self.dim - 1 - p0)
            for lead in [1] if self.normalize else range(1, q):
                for start in range(0, total, rows):
                    yield p0, lead, start, min(start + rows, total)

    def scan(self, batch) -> tuple[Optional[int], Optional[tuple[int, ...]], int, bool]:
        """Encode one batch: (min weight or None, witness, messages counted,
        stopped).

        With `stop_below`, the scan ends at the batch's first message whose
        weight is below it; that message is the witness and the last one
        counted.  Otherwise the witness is the first message attaining the
        minimum.
        """
        import numpy as np

        p0, lead, start, stop = batch
        q = self.F.q
        rem = np.arange(start, stop, dtype=np.int64)
        C = np.zeros((len(rem), self.dim), dtype=np.int64)
        C[:, p0] = lead
        for d in range(self.dim - 1, p0, -1):
            C[:, d] = rem % q
            rem //= q
        if self.normalize:
            keep = np.ones(len(C), dtype=bool)
            for pos in self.zero_exp_positions:
                keep &= C[:, pos].any(axis=1)
            C = C[keep]
        if not len(C):
            return None, None, 0, False
        w = self.weights(C)
        if self.stop_below is not None:
            hits = np.flatnonzero(w < self.stop_below)
            if len(hits):
                # Every earlier message weighed at least stop_below.
                f = int(hits[0])
                return int(w[f]), tuple(int(x) for x in C[f]), f + 1, True
        i = int(np.argmin(w))
        return int(w[i]), tuple(int(x) for x in C[i]), len(C), False


def free_distance_estimate(
    G: PolyMatrix,
    cap: int,
    stop_below: Optional[int] = None,
    workers: int = 1,
    normalize: bool = True,
) -> DistanceReport:
    """Minimum codeword weight over all nonzero messages of total degree
    <= cap, modulo scaling and monomial-shift symmetries.

    With `stop_below`, the search stops at the first codeword (in
    enumeration order) of weight below it: that codeword is the witness,
    `messages_tried` counts up to it, and the report's `below_bound` flag is
    set.  Otherwise the witness is the first message (in enumeration order)
    attaining the minimum.  Batches are reduced in enumeration order, so
    results are identical for any `workers` count; workers > 1 encode the
    batches of one window at a time on a thread pool.

    Raises ValueError when the field is too large for exact int64
    arithmetic (dim * e * (p - 1)^2 >= 2^63, dim = k * C(cap + m, m)).
    """
    if cap < 0:
        raise ValueError("degree cap must be >= 0")
    enum = _Enumerator(G, cap, normalize, stop_below)
    batches = enum.batches()
    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
        results = (
            res
            for window in iter(lambda: list(islice(batches, _WINDOW)), [])
            for res in pool.map(enum.scan, window)
        )
    else:
        results = map(enum.scan, batches)

    best: Optional[int] = None
    witness = None
    tried = 0
    below = False
    try:
        for weight, vec, count, stopped in results:
            tried += count
            if weight is not None and (best is None or weight < best):
                best, witness = weight, vec
            if stopped:
                below = True
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    if best is None:
        raise ValueError("enumeration covered no messages (empty message space)")
    return DistanceReport(
        min_weight_found=best,
        cap=cap,
        messages_tried=tried,
        witness_message=enum.message_from_vector(witness),
        below_bound=below,
    )


def default_cap(k: int, delta: int) -> int:
    """CLI default enumeration cap: delta + 1 for single-row codes, else 1
    (the search space grows as q^(k * C(cap + m, m)))."""
    return delta + 1 if k == 1 else 1
