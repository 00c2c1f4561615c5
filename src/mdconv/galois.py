"""Exact arithmetic in prime and prime-power finite fields GF(p^e).

Elements are encoded as integers in [0, q).  For extension fields the
base-p digits of the code, ascending, are the coordinates in the power
basis 1, x, ..., x^(e-1); for prime fields the code is the residue.

Every field from `make_field` with q <= _TABLE_MAX_Q, prime or not, keeps an
exp table of a primitive element g and its log table (Lidl-Niederreiter,
"Introduction to Finite Fields and Their Applications", ch. 9), and
`make_field` sets lookups over them, made once per field, as the field's own
`add`, `mul`, `neg` and `inv`: a * b = g^(log a + log b) and
1/a = g^(q - 1 - log a).  The lookups take no branch on a zero operand:
log 0 = 2(q - 1), and exp, whose entries 0 to 2(q - 1) - 1 hold g^i, is
padded with zeros to 4(q - 1) + 1 entries, so any index that counts log 0
reads 0.  For p = 2, `add` is XOR and `neg` the identity.  Odd p also keeps
Zech logarithms log(1 + g^n), so a + b = g^(log a + zech(log b - log a)) and
-a = g^(log a + (q - 1)/2); the Zech table is read at log b - log a + 2(q - 1),
and its regions give b when a = 0, a when b = 0, and the zero padding when
a + b = 0.  `inv` keeps its GaloisError on 0.  The tables take O(q) memory
and O(q) multiplies to build, so larger fields, up to q = 2^62, keep the
methods of `FiniteField`.  `make_field` is memoized on the pair (p, e),
however a call spells it, so each field and its tables are built once.

Those methods are table-free (for e = 1, arithmetic modulo p with inverses
from pow(a, -1, p); for e > 1, XOR or digitwise addition, multiply-and-reduce
and extended Euclid over GF(p)[x]): they build the tables, serve untabled
fields, and are the oracle the lookups are tested against.

`FiniteField` refuses a reducible modulus by Ben-Or's test ("Probabilistic
algorithms in finite fields", FOCS 1981), and `make_field` takes the first
candidate it accepts as the canonical irreducible, so each candidate is
tested once: f of degree e is irreducible iff gcd(f, x^(p^i) - x mod f) = 1
for every 1 <= i <= e/2, which takes milliseconds even for GF(2^61).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


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


# --- element codes and their base-p digits, ascending ---

def to_digits(code: int, p: int, e: int) -> list[int]:
    """The e base-p digits of `code`, least significant first."""
    out = []
    for _ in range(e):
        out.append(code % p)
        code //= p
    return out


def from_digits(digits: Sequence[int], p: int) -> int:
    """The code whose base-p digits, least significant first, are `digits`."""
    acc = 0
    for d in reversed(digits):
        acc = acc * p + d
    return acc


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
    for code in range(p**deg):
        if code % p:
            yield tuple(to_digits(code, p, deg)) + (1,)


def _mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    """a * b mod the monic f over GF(p), all coefficient lists ascending."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    return _poly_divmod(prod, f, p)[1]


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Ben-Or's test for a monic f: irreducible iff gcd(f, x^(p^i) - x) = 1
    for every 1 <= i <= deg f / 2, with x^(p^i) reduced mod f."""
    h = [0, 1]  # x
    for _ in range((len(f) - 1) // 2):
        # h^p, left to right over the bits of p after the leading one.
        base = h
        for bit in bin(p)[3:]:
            h = _mulmod(h, h, f, p)
            if bit == "1":
                h = _mulmod(h, base, f, p)
        r1 = h + [0] * (2 - len(h))
        r1[1] = (r1[1] - 1) % p  # h - x
        r0, r1 = f, _trim(r1)
        while r1:
            r0, r1 = r1, _poly_divmod(r0, r1, p)[1]
        if len(r0) > 1:
            return False
    return True


@dataclass(frozen=True)
class FiniteField:
    """GF(p^e) as GF(p)[x] modulo `irreducible`, monic of degree e, given iff
    e > 1; immutable.  A modulus that is not a tuple or not irreducible is
    refused.  The methods are table-free: a tabled field from `make_field`
    (any with q <= _TABLE_MAX_Q) carries its own lookup add, mul, neg and inv
    in their place."""

    p: int
    e: int
    irreducible: tuple[int, ...] | None = field(default=None)
    # p^e, stored once by __post_init__.
    q: int = field(init=False, compare=False, repr=False)
    # Set only by `make_field`: (exp, log) of a primitive element g, and for odd
    # p the Zech table; their layout is in the module docstring.
    _log_exp: tuple[tuple[int, ...], tuple[int, ...]] | None = field(
        default=None, init=False, compare=False, repr=False)
    _zech: tuple[int, ...] | None = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        p, e, f = self.p, self.e, self.irreducible
        if not is_prime(p) or e < 1 or (f is None) != (e == 1) or f is not None and (
                type(f) is not tuple or len(f) != e + 1 or f[-1] != 1 or not all(
                    type(c) is int and 0 <= c < p for c in f) or not _is_irreducible(f, p)):
            raise GaloisError(f"p = {p}, e = {e}, modulus {f} do not define GF({p}^{e})")
        object.__setattr__(self, "q", p**e)

    def check(self, a: int) -> int:
        if type(a) is not int or not 0 <= a < self.q:
            raise GaloisError(f"{a!r} is not an element code of GF({self.q})")
        return a

    def check_all(self, codes: Iterable) -> tuple[int, ...]:
        """`codes` as a tuple, checked in one pass; `check`'s error on the first bad one."""
        codes, q = tuple(codes), self.q
        for a in codes:
            if type(a) is not int or not 0 <= a < q:
                self.check(a)
        return codes

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, e = self.p, self.e
        da, db = to_digits(a, p, e), to_digits(b, p, e)
        return from_digits([(x + y) % p for x, y in zip(da, db)], p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        p = self.p
        return from_digits([(-x) % p for x in to_digits(a, p, self.e)], p)

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        p, e = self.p, self.e
        return from_digits(_mulmod(to_digits(a, p, e), to_digits(b, p, e), self.irreducible, p), p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise GaloisError("0 has no multiplicative inverse")
        p = self.p
        if self.e == 1:
            return pow(a, -1, p)
        # Extended Euclid on (f, a): s_i * a = r_i (mod f) throughout.  The
        # last remainder is a nonzero constant because f is irreducible.
        r0, r1 = self.irreducible, _trim(to_digits(a, p, self.e))
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
        return from_digits([c * x % p for x in s1], p)

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

    def __reduce__(self):
        # A tabled field's own ops are closures: pickle it as its make_field call.
        args = (self.p, self.e, self.irreducible)
        return (make_field, args[:2]) if self._log_exp else (FiniteField, args)

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


# Fields up to this size get log/exp tables, and for odd p a Zech table.  A
# `make_field` build takes 12-17 ms at q = 2^10, 8-11 ms at 3^6 and 31^2, and
# about 0.7 ms for a prime (q = 1021); the tables alone would take 29-36 ms
# at 2^11 and 39 ms at 3^7 (2-core Xeon, Python 3.11.7, minima of 15-20 builds).
_TABLE_MAX_Q = 2**10


def _log_exp_tables(F: FiniteField) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """exp[i] = g^(i mod (q - 1)) for 0 <= i < 2(q - 1), then zeros up to
    exp[4(q - 1)], and log[g^i] = i with log[0] = 2(q - 1), for the least
    primitive element code g: 1 for GF(2), and at least 2 for any larger q."""
    n = F.q - 1
    primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
    # g generates GF(q)* iff g^(n/r) != 1 for every prime r dividing n.
    g = next(g for g in range(1, F.q) if all(F.pow(g, n // r) != 1 for r in primes))
    exp = [1]
    for _ in range(n - 1):
        exp.append(F.mul(exp[-1], g))
    log = [2 * n] * F.q
    for i, a in enumerate(exp):
        log[a] = i
    return tuple(exp * 2 + [0] * (2 * n + 1)), tuple(log)


def _zech_table(exp: Sequence[int], log: Sequence[int], p: int) -> tuple[int, ...]:
    """The odd-p addition table, read at log b - log a + 2(q - 1) with the
    tables of `_log_exp_tables`: entry i < q - 1 is i - 2(q - 1), so
    a = 0 reads exp[log b] = b; entries q to 3(q - 1) - 1 hold
    log(1 + g^d) at d + 2(q - 1), which is log 0 = 2(q - 1) when 1 + g^d = 0;
    the rest are 0, so b = 0 reads exp[log a] = a."""
    n = len(log) - 1
    zech = [0] * (4 * n + 1)
    for i in range(n):
        zech[i] = i - 2 * n
    for d in range(1 - n, n):
        x = exp[d % n]
        # 1 + x differs from x only in digit 0.
        zech[d + 2 * n] = log[x - x % p + (x + 1) % p]
    return tuple(zech)


def make_field(p: int, e: int = 1) -> FiniteField:
    """Build GF(p^e) with the canonical irreducible polynomial.

    The irreducible is the first irreducible monic degree-e polynomial with
    nonzero constant term, ordered by the integer sum(c_i * p^i) over the
    non-leading coefficients.  Deterministic across runs.  Memoized on the
    pair (p, e), however it is spelled: make_field(7), make_field(7, 1) and
    make_field(p=7, e=1) return the same object, with its tables built once.
    """
    return _field(p, e)


@functools.cache
def _field(p: int, e: int) -> FiniteField:
    if e < 1:
        raise GaloisError(f"extension degree must be >= 1, got {e}")
    if e > 62 or p**e > 2**62:
        raise GaloisError(f"field size {p}^{e} too large")
    if not is_prime(p):
        raise GaloisError(f"{p} is not prime")
    for f in [None] if e == 1 else _monic_polys(p, e):
        try:
            F = FiniteField(p, e, f)
        except GaloisError:  # its refusal is the one irreducibility test
            continue
        break
    if F.q > _TABLE_MAX_Q:
        return F
    # F's class methods build the tables; lookups over them, each made once
    # here, become F's own add, mul, neg and inv.  See the module docstring.
    exp, log = _log_exp_tables(F)
    n = F.q - 1

    def mul(a: int, b: int) -> int:
        return exp[log[a] + log[b]]

    def inv(a: int) -> int:
        if a == 0:
            raise GaloisError("0 has no multiplicative inverse")
        return exp[n - log[a]]

    if p == 2:
        add, neg = operator.xor, operator.pos
    else:
        zech = _zech_table(exp, log, p)
        # log b + 2(q - 1): the Zech table's read index without a third add.
        zlog = tuple(x + 2 * n for x in log)
        half = n // 2  # -1 = g^((q-1)/2)

        def add(a: int, b: int) -> int:
            la = log[a]
            return exp[la + zech[zlog[b] - la]]

        def neg(a: int) -> int:
            return exp[log[a] + half]

        object.__setattr__(F, "_zech", zech)
    object.__setattr__(F, "_log_exp", (exp, log))
    for name, op in [("add", add), ("mul", mul), ("neg", neg), ("inv", inv)]:
        object.__setattr__(F, name, op)
    return F
