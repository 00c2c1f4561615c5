"""A fixed reference kernel, timed beside the workload to gauge machine speed.

On a shared host the speed of pure-Python code drifts by up to 2x over tens
of seconds to minutes (other tenants' load and stolen CPU time), which no
run length averages away.  The runner therefore times this kernel in short
slices between the workload's operations and reports a round's wall time
also as a multiple of the slice time measured in the same round
(`wall_ref`).  The kernel does the same kind of work as mdconv's hot paths,
field arithmetic by method calls and Gaussian elimination on lists of ints,
but uses none of mdconv's code, so a change to the program does not move it.
"""

from __future__ import annotations

import random
import time


class _Field:
    """GF(p^e): elements are ints whose base-p digits are coefficients."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p, self.e, self.modulus = p, e, modulus  # x^e = -sum(modulus[i] x^i)
        self.q = p**e

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def code(self, ds: list[int]) -> int:
        acc = 0
        for d in reversed(ds):
            acc = acc * self.p + d
        return acc

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return self.code([(x - y) % self.p for x, y in zip(self.digits(a), self.digits(b))])

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        for k in range(len(prod) - 1, self.e - 1, -1):
            c = prod[k]
            for t, m in enumerate(self.modulus):
                prod[k - self.e + t] = (prod[k - self.e + t] - c * m) % self.p
        return self.code(prod[: self.e])

    def inv(self, a: int) -> int:
        acc, n = 1, self.q - 2
        while n:
            if n & 1:
                acc = self.mul(acc, a)
            a, n = self.mul(a, a), n >> 1
        return acc


def _det(F: _Field, rows: list[list[int]]) -> int:
    M = [list(r) for r in rows]
    d = 1
    for c in range(len(M)):
        piv = next((r for r in range(c, len(M)) if M[r][c]), None)
        if piv is None:
            return 0
        M[c], M[piv] = M[piv], M[c]
        d = F.mul(d, M[c][c])
        iv = F.inv(M[c][c])
        for r in range(c + 1, len(M)):
            f = F.mul(M[r][c], iv)
            M[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[r], M[c])]
    return d


class Reference:
    """One slice is a fixed set of 5x5 determinants over GF(23), GF(16) and
    GF(27), about 20 ms on a 2020s server core."""

    def __init__(self):
        rng = random.Random(20260)
        fields = [_Field(23, 1, (0,)), _Field(2, 4, (1, 1, 0, 0)), _Field(3, 3, (1, 2, 0))]
        self.cases = [(F, [[rng.randrange(F.q) for _ in range(5)] for _ in range(5)])
                      for F in fields for _ in range(6)]

    def slice(self) -> float:
        """Run one slice; returns its wall time in seconds."""
        t0 = time.perf_counter()
        for F, M in self.cases:
            _det(F, M)
        return time.perf_counter() - t0
