"""Exact arithmetic in prime and prime-power finite fields GF(p^e).

Elements are encoded as integers in [0, q).  For extension fields the
base-p digits of the code, ascending, are the coordinates in the power
basis 1, x, ..., x^(e-1).  Prime fields use direct modular arithmetic, and
inverses come from Python's builtin pow(a, -1, p).

Extension fields from `make_field` with q <= _TABLE_MAX_Q keep an exp table
of a primitive element g and its log table (Lidl-Niederreiter, "Introduction
to Finite Fields and Their Applications", ch. 9), so `mul` and `inv` are two
or three list lookups instead of polynomial multiply-and-reduce and an
extended Euclid in GF(p)[x].  The tables take O(q) memory and O(q) multiplies
to build, so larger fields, up to GF(2^61), keep the polynomial path, which
is also the code that builds the tables.

Addition is digitwise mod p, and on extension fields it takes one of three
paths.  For p = 2 it is `a ^ b` on every field, tabled or not, and `neg` is
the identity.  Tabled fields of odd p also keep Zech logarithms,
zech[n] = log(1 + g^n), so a + b = g^(log a + zech[log b - log a]) and
-a = g^(log a + (q - 1)/2).  Fields of odd p above _TABLE_MAX_Q, and any
field built directly with `FiniteField(...)`, add digit by digit.  `make_field`
is memoized, so each (p, e) builds its tables once per process.

The canonical irreducible is selected with Ben-Or's test ("Probabilistic
algorithms in finite fields", FOCS 1981): f of degree e is irreducible iff
gcd(f, x^(p^i) - x mod f) = 1 for every 1 <= i <= e/2, which takes
milliseconds even for GF(2^61).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Sequence


class GaloisError(ValueError):
    """Invalid field construction or field operation."""


def json_int(x) -> int:
    """An integer read from JSON.  Floats, strings and booleans are refused
    rather than truncated or converted."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def json_list(x) -> list:
    """A list read from JSON; other values are refused, not iterated."""
    if type(x) is not list:
        raise ValueError(f"expected a list, got {x!r}")
    return x


def json_get(obj, key: str):
    """The value of a required key of a JSON object."""
    if type(obj) is not dict:
        raise ValueError(f"expected an object with key {key!r}, got {obj!r}")
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    return obj[key]


# Miller-Rabin with these bases is exact for n < 3.18e23 (Sorenson-Webster
# 2015), far above the 2^62 field-size limit of `make_field`.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n passes base b iff b^d = 1 or b^(d * 2^i) = -1 (mod n) for some i < s.
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(s)):
            return False
    return True


# --- GF(p)[x]: coefficient lists, ascending ---

def _trim(coeffs: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place; the zero polynomial is []."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divmod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num / den over GF(p); den has no trailing zero."""
    rem = _trim(list(num))
    dn = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(len(rem) - dn, 0)
    while len(rem) > dn:
        shift = len(rem) - 1 - dn
        c = quot[shift] = rem[-1] * inv_lead % p
        for i, d in enumerate(den, shift):
            rem[i] = (rem[i] - c * d) % p
        _trim(rem)
    return quot, rem


def _monic_polys(p: int, deg: int) -> Iterator[tuple[int, ...]]:
    """Monic degree-`deg` polynomials over GF(p), nonzero constant term,
    ascending by the integer sum(c_i * p^i) over the non-leading coefficients."""
    digits = FiniteField(p, deg)._digits
    for code in range(p**deg):
        if code % p:
            yield tuple(digits(code)) + (1,)


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test for a monic f: irreducible iff gcd(f, x^(p^i) - x) = 1
    for every 1 <= i <= deg f / 2, with x^(p^i) reduced mod f."""
    deg = len(coeffs) - 1
    # The ring GF(p)[x]/(f); its multiply-and-reduce needs only f monic.
    ring = FiniteField(p, deg, coeffs)
    h = p  # the code of x
    for _ in range(deg // 2):
        h = ring.pow(h, p)
        r0, r1 = coeffs, _trim(ring._digits(ring.sub(h, p)))
        while r1:
            r0, r1 = r1, _poly_divmod(r0, r1, p)[1]
        if len(r0) > 1:
            return False
    return True


def _canonical_irreducible(p: int, e: int) -> tuple[int, ...]:
    return next(c for c in _monic_polys(p, e) if _is_irreducible(c, p))


@dataclass(frozen=True)
class FiniteField:
    """The finite field GF(p^e).  Immutable; operations are pure."""

    p: int
    e: int
    irreducible: tuple[int, ...] | None = field(default=None)
    # (exp, log) of a primitive element g, and for odd p the Zech logarithms
    # zech[n] = log(1 + g^n), None where 1 + g^n = 0; set only by
    # `make_field`.  See the module docstring.
    _log_exp: tuple[tuple[int, ...], tuple[int, ...]] | None = field(
        default=None, init=False, compare=False, repr=False)
    _zech: tuple[int | None, ...] | None = field(
        default=None, init=False, compare=False, repr=False)

    @property
    def q(self) -> int:
        return self.p**self.e

    # -- element encoding ------------------------------------------------

    def _digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(code % self.p)
            code //= self.p
        return out

    def _code(self, digits: list[int]) -> int:
        acc = 0
        for d in reversed(digits):
            acc = acc * self.p + d
        return acc

    def check(self, a: int) -> int:
        if type(a) is not int or not 0 <= a < self.q:
            raise GaloisError(f"{a!r} is not an element code of GF({self.q})")
        return a

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._zech is None:
            da, db = self._digits(a), self._digits(b)
            return self._code([(x + y) % self.p for x, y in zip(da, db)])
        if not (a and b):
            return a or b
        # a + b = a * (1 + b/a) = g^(log a + zech[log b - log a]).  The zech
        # table has length q - 1, so a negative index reads the exponent
        # difference mod q - 1.
        exp, log = self._log_exp
        la = log[a]
        z = self._zech[log[b] - la]
        return 0 if z is None else exp[la + z]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        if self._zech is not None:
            # -1 = g^((q-1)/2), and (q-1)/2 = q // 2 = len(log) // 2 for odd q.
            exp, log = self._log_exp
            return exp[log[a] + len(log) // 2]
        return self._code([(-x) % self.p for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if self._log_exp is not None:
            exp, log = self._log_exp
            return exp[log[a] + log[b]] if a and b else 0
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._code(_poly_divmod(prod, self.irreducible, self.p)[1])

    def inv(self, a: int) -> int:
        if a == 0:
            raise GaloisError("0 has no multiplicative inverse")
        p = self.p
        if self.e == 1:
            return pow(a, -1, p)
        if self._log_exp is not None:
            exp, log = self._log_exp
            return exp[len(log) - 1 - log[a]]
        # Extended Euclid on (f, a): s_i * a = r_i (mod f) throughout.  The
        # last nonzero remainder is a constant because f is irreducible.
        r0, r1 = self.irreducible, _trim(self._digits(a))
        s0, s1 = [], [1]
        while len(r1) > 1:
            quot, rem = _poly_divmod(r0, r1, p)
            # s0 - quot * s1; deg s grows each step, so no zero is trailing.
            s = s0 + [0] * (len(quot) + len(s1) - 1 - len(s0))
            for i, x in enumerate(quot):
                for j, y in enumerate(s1):
                    s[i + j] = (s[i + j] - x * y) % p
            r0, r1, s0, s1 = r1, rem, s1, s
        c = pow(r1[0], -1, p)
        return self._code([c * x % p for x in s1])

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if n == 0:
            return 1
        # Left to right over the bits of n after the leading one.
        acc = a
        for bit in bin(n)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def to_json(self) -> dict:
        out: dict = {"p": self.p, "e": self.e}
        if self.e > 1:
            out["irreducible"] = list(self.irreducible)
        return out

    @staticmethod
    def from_json(obj: dict) -> "FiniteField":
        p = json_int(json_get(obj, "p"))
        F = make_field(p, json_int(obj.get("e", 1)))
        canonical = list(F.irreducible or [])
        if [json_int(c) for c in json_list(obj.get("irreducible", canonical))] != canonical:
            raise GaloisError("irreducible polynomial does not match the canonical choice")
        return F

    def __repr__(self) -> str:
        return f"GF({self.q})"


# Fields up to this size get log/exp tables, and for odd p a Zech table.
# A whole `make_field` build takes 12-17 ms at q = 2^10 and 8-11 ms at 3^6
# and 31^2; the tables alone would take 29-36 ms at 2^11 and 39 ms at 3^7
# (2-core Xeon, Python 3.11.7, minima of 15-20 builds on a shared host).
_TABLE_MAX_Q = 2**10


def _log_exp_tables(F: FiniteField) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """exp[i] = g^i for 0 <= i < 2(q - 1) and log[g^i] = i, for the least
    primitive element code g; log[0] is an unused 0."""
    n = F.q - 1
    primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
    # g generates GF(q)* iff g^(n/r) != 1 for every prime r dividing n.
    g = next(g for g in range(2, F.q) if all(F.pow(g, n // r) != 1 for r in primes))
    exp = [1]
    for _ in range(n - 1):
        exp.append(F.mul(exp[-1], g))
    log = [0] * F.q
    for i, a in enumerate(exp):
        log[a] = i
    return tuple(exp * 2), tuple(log)


@functools.cache
def make_field(p: int, e: int = 1) -> FiniteField:
    """Build GF(p^e) with the canonical irreducible polynomial.

    The irreducible is the first irreducible monic degree-e polynomial with
    nonzero constant term, ordered by the integer sum(c_i * p^i) over the
    non-leading coefficients.  Deterministic across runs.  Memoized: equal
    arguments return the same object, with its log/exp tables built once.
    """
    if e < 1:
        raise GaloisError(f"extension degree must be >= 1, got {e}")
    if e > 62 or p**e > 2**62:
        raise GaloisError(f"field size {p}^{e} too large")
    if not is_prime(p):
        raise GaloisError(f"{p} is not prime")
    if e == 1:
        return FiniteField(p, 1, None)
    F = FiniteField(p, e, _canonical_irreducible(p, e))
    if F.q <= _TABLE_MAX_Q:
        exp, log = _log_exp_tables(F)
        if p > 2:
            # F has no Zech table yet, so `add` here is the digitwise sum.
            zech = tuple(log[s] if (s := F.add(1, x)) else None for x in exp[:F.q - 1])
            object.__setattr__(F, "_zech", zech)
        object.__setattr__(F, "_log_exp", (exp, log))
    return F
