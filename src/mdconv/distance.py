"""Encoding and a bounded brute-force oracle for the free distance.

The oracle enumerates every nonzero message of total degree at most a cap
D, modulo two weight-preserving symmetries (leading-coefficient scaling
and monomial shifts), and reports the minimum codeword weight found with
its witness.  Since only a subset of messages is covered, the result
always satisfies min_weight_found >= d_free(C).

Messages are enumerated by strata: the stratum of a coefficient vector is
the flat index of its first nonzero coefficient (component-major, terms in
canonical order).  Strata are scanned in ascending order; within a
stratum, tail coefficients count up in base q.  This order is what makes
reports deterministic and independent of the worker count and batch size.

Codewords are computed in batches by one numpy matrix product over the
prime subfield GF(p), for every field GF(p^e).  Each message coefficient
is expanded to its e base-p digits (its power-basis coordinates, see
`galois`), each generator coefficient g to the e x e GF(p) matrix of
x -> g*x, and a codeword coefficient is nonzero iff one of its e digits
is.  Prime fields are the case e = 1.  numpy is imported on first use,
and the thread pool only for workers > 1, so `import mdconv` pays for
neither.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from .multipoly import Polynomial, PolyMatrix, monomials_upto, term_key

#: Most int64 codeword digits (rows x n*T*e) one batch holds; the rows of a
#: batch are capped by it and by `batch_size`, which bounds the working set
#: whatever the code's length.
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


@dataclass(frozen=True)
class _StratumResult:
    min_weight: Optional[int]
    witness: Optional[tuple[int, ...]]
    tried: int
    stopped: bool


class _Enumerator:
    """Shared geometry and encode map for the enumeration of one (G, cap) pair."""

    def __init__(self, G: PolyMatrix, cap: int):
        import numpy as np

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
        polys = []
        for j in range(self.k):
            terms = {}
            for a, alpha in enumerate(self.monomials):
                cf = int(c[j * self.s + a])
                if cf:
                    terms[alpha] = cf
            polys.append(Polynomial(self.F, self.m, terms))
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

    def scan_stratum(
        self,
        p0: int,
        normalize: bool,
        stop_below: Optional[int],
        batch_size: int,
    ) -> _StratumResult:
        """Scan the messages whose first nonzero coefficient is at `p0`.

        With `stop_below`, the scan ends at the first message (in
        enumeration order) whose weight is below it; that message is the
        witness and the last one counted in `tried`.
        """
        import numpy as np

        q = self.F.q
        rows = max(1, min(batch_size, _BATCH_ELEMENTS // max(1, self.n * self.T * self.F.e)))
        total = q ** (self.dim - 1 - p0)
        leads = [1] if normalize else range(1, q)
        best: Optional[int] = None
        witness = None
        tried = 0
        for lead in leads:
            for start in range(0, total, rows):
                rem = np.arange(start, min(start + rows, total), dtype=np.int64)
                C = np.zeros((len(rem), self.dim), dtype=np.int64)
                C[:, p0] = lead
                for d in range(self.dim - 1, p0, -1):
                    C[:, d] = rem % q
                    rem //= q
                if normalize:
                    keep = np.ones(len(C), dtype=bool)
                    for pos in self.zero_exp_positions:
                        keep &= C[:, pos].any(axis=1)
                    C = C[keep]
                if not len(C):
                    continue
                w = self.weights(C)
                if stop_below is not None:
                    hits = np.flatnonzero(w < stop_below)
                    if len(hits):
                        # Every earlier message weighed at least stop_below.
                        f = int(hits[0])
                        return _StratumResult(
                            int(w[f]), tuple(int(x) for x in C[f]), tried + f + 1, True
                        )
                tried += len(C)
                i = int(np.argmin(w))
                if best is None or int(w[i]) < best:
                    best = int(w[i])
                    witness = tuple(int(x) for x in C[i])
        return _StratumResult(best, witness, tried, False)


def free_distance_estimate(
    G: PolyMatrix,
    cap: int,
    stop_below: Optional[int] = None,
    workers: int = 1,
    normalize: bool = True,
    batch_size: int = 1 << 16,
) -> DistanceReport:
    """Minimum codeword weight over all nonzero messages of total degree
    <= cap, modulo scaling and monomial-shift symmetries.

    With `stop_below`, the search stops at the first codeword (in
    enumeration order) of weight below it: that codeword is the witness,
    `messages_tried` counts up to it, and the report's `below_bound` flag is
    set.  Results are identical for any `workers` count and `batch_size`
    (an upper limit on the messages encoded at once): strata are reduced in
    ascending order and the witness is the first message (in enumeration
    order) attaining the minimum.

    Raises ValueError when the field is too large for exact int64
    arithmetic (dim * e * (p - 1)^2 >= 2^63, dim = k * C(cap + m, m)).
    """
    if cap < 0:
        raise ValueError("degree cap must be >= 0")
    enum = _Enumerator(G, cap)
    # Lowest stratum that has stopped so far; strata above it are skipped,
    # since the reduction below never reads past it.
    lowest_stop = [enum.dim]
    lock = threading.Lock()

    def job(p0: int) -> Optional[_StratumResult]:
        if p0 > lowest_stop[0]:
            return None
        res = enum.scan_stratum(p0, normalize, stop_below, batch_size)
        if res.stopped:
            with lock:
                lowest_stop[0] = min(lowest_stop[0], p0)
        return res

    strata = range(enum.dim)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, strata))
    else:
        results = [job(p0) for p0 in strata]

    best: Optional[int] = None
    witness = None
    tried = 0
    below = False
    for res in results:
        tried += res.tried
        if res.min_weight is not None and (best is None or res.min_weight < best):
            best, witness = res.min_weight, res.witness
        if res.stopped:
            below = True
            break

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
