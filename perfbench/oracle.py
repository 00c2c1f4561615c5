"""Expected answers computed without mdconv's own algorithms.

Everything here is closed-form counting or plain modular arithmetic over a
prime field, so a check built on it shares no code with the scan it checks.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def minors_count(rows: int, cols: int) -> int:
    """Number of square minors of every size in a rows x cols matrix."""
    return sum(comb(rows, t) * comb(cols, t) for t in range(1, min(rows, cols) + 1))


def _lex_rank(subset: tuple[int, ...], n: int) -> int:
    """0-based position of `subset` among the k-subsets of range(n) in lex order."""
    k = len(subset)
    rank, prev = 0, -1
    for i, x in enumerate(subset):
        for y in range(prev + 1, x):
            rank += comb(n - 1 - y, k - 1 - i)
        prev = x
    return rank


def minor_position(rows: int, cols: int, rsub: tuple[int, ...], csub: tuple[int, ...]) -> int:
    """1-based position of a minor in the canonical scan order: size
    ascending, then row subsets in lex order, then column subsets in lex order."""
    t = len(rsub)
    before = sum(comb(rows, s) * comb(cols, s) for s in range(1, t))
    return before + _lex_rank(rsub, rows) * comb(cols, t) + _lex_rank(csub, cols) + 1


def det_mod_p(rows: list[list[int]], p: int) -> int:
    """Determinant over GF(p) by Gaussian elimination."""
    M = [list(r) for r in rows]
    n = len(M)
    acc = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            acc = -acc
        acc = acc * M[col][col] % p
        inv = pow(M[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = M[r][col] * inv % p
            if f:
                M[r] = [(a - f * b) % p for a, b in zip(M[r], M[col])]
    return acc % p


def cauchy_mod_p(p: int, xs, ys) -> list[list[int]]:
    """Entries (x_i - y_j)^(-1) over GF(p)."""
    return [[pow((x - y) % p, p - 2, p) for y in ys] for x in xs]


def inject_zero_minor(S: list[list[int]], p: int, rng, size: int):
    """Make one size x size minor of the superregular matrix S vanish by
    changing a single entry to a nonzero value.

    Returns (matrix, expected first zero minor as (rows, cols)).  Every minor
    that avoids the changed entry keeps its nonzero value, so the first zero
    in canonical order is the first zero among the minors through that
    entry; those are few, and are checked here one by one.
    """
    r, c = len(S), len(S[0])
    while True:
        R = tuple(sorted(rng.sample(range(r), size)))
        C = tuple(sorted(rng.sample(range(c), size)))
        j, b = rng.choice(R), rng.choice(C)
        sub = [[S[i][k] for k in C] for i in R]
        jj, bb = R.index(j), C.index(b)
        sub[jj][bb] = 0
        a0 = det_mod_p(sub, p)
        sub[jj][bb] = 1
        slope = (det_mod_p(sub, p) - a0) % p
        x = -a0 * pow(slope, p - 2, p) % p
        if x:
            break
    M = [list(row) for row in S]
    M[j][b] = x
    for t in range(2, size + 1):
        for rs in combinations(range(r), t):
            if j not in rs:
                continue
            for cs in combinations(range(c), t):
                if b in cs and det_mod_p([[M[i][k] for k in cs] for i in rs], p) == 0:
                    return M, (rs, cs)
    raise AssertionError("injected minor is not zero")  # unreachable: (R, C) is zero


def normalized_message_count(q: int, k: int, cap: int, m: int) -> int:
    """Size of the distance search space in closed form.

    Messages are k polynomials of total degree <= cap in m variables, taken
    up to scaling (leading coefficient 1) and up to monomial shifts (for
    every variable some coefficient at a monomial free of it is nonzero).
    Inclusion-exclusion over the variables whose shift condition fails.
    """
    s = comb(cap + m, m)
    dim = k * s
    total = 0
    for mask in range(1 << m):
        j = bin(mask).count("1")
        # Monomials free of at least one of the j variables, per message row;
        # those coefficients are forced to zero.
        free = s - (comb(cap - j + m, m) if cap >= j else 0) if j else 0
        total += (-1) ** j * q ** (dim - k * free)
    return total // (q - 1)
