"""Exact arithmetic in prime and prime-power finite fields GF(p^e).

Elements are encoded as integers in [0, q).  For extension fields the
base-p digits of the code, ascending, are the coordinates in the power
basis 1, x, ..., x^(e-1).  Arithmetic is direct modular arithmetic for
prime fields and polynomial multiply-and-reduce for extensions; the
fields in play are small, so no log/exp tables are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


class GaloisError(ValueError):
    """Invalid field construction or field operation."""


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


# --- GF(p) polynomial helpers used only for irreducible selection ---

def _poly_eval_mod_p(coeffs: tuple[int, ...], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over GF(p); den is monic."""
    num = list(num)
    dn = len(den) - 1
    while len(num) - 1 >= dn and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dn:
            break
        lead = num[-1]
        shift = len(num) - 1 - dn
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - lead * c) % p
        while num and num[-1] == 0:
            num.pop()
    return num


def _monic_polys(p: int, deg: int) -> Iterator[tuple[int, ...]]:
    """Monic degree-`deg` polynomials over GF(p), nonzero constant term,
    ascending by the integer sum(c_i * p^i) over the non-leading coefficients."""
    for code in range(p**deg):
        digits = []
        c = code
        for _ in range(deg):
            digits.append(c % p)
            c //= p
        if digits[0] == 0:
            continue
        yield tuple(digits) + (1,)


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if deg <= 3:
        # A polynomial of degree 2 or 3 is irreducible iff it has no root.
        return all(_poly_eval_mod_p(coeffs, x, p) != 0 for x in range(p))
    # Reducible iff a monic factor of degree <= deg / 2 divides it.  x is not
    # tried: the candidates of `_canonical_irreducible` have a nonzero constant.
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(p, d):
            if not _poly_mod(list(coeffs), list(cand), p):
                return False
    return True


def _canonical_irreducible(p: int, e: int) -> tuple[int, ...]:
    for cand in _monic_polys(p, e):
        if _is_irreducible(cand, p):
            return cand
    raise GaloisError(f"no irreducible polynomial found for GF({p}^{e})")  # unreachable


@dataclass(frozen=True)
class FiniteField:
    """The finite field GF(p^e).  Immutable; operations are pure."""

    p: int
    e: int
    irreducible: tuple[int, ...] | None = field(default=None)

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
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise GaloisError(f"{a!r} is not an element code of GF({self.q})")
        return a

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._code([(x + y) % self.p for x, y in zip(da, db)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._code([(-x) % self.p for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        rem = _poly_mod(prod, list(self.irreducible), self.p)
        rem += [0] * (self.e - len(rem))
        return self._code(rem)

    def inv(self, a: int) -> int:
        if a == 0:
            raise GaloisError("0 has no multiplicative inverse")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc, base = 1, a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def elements(self) -> range:
        """All q element codes in ascending order."""
        return range(self.q)

    def to_json(self) -> dict:
        out: dict = {"p": self.p, "e": self.e}
        if self.e > 1:
            out["irreducible"] = list(self.irreducible)
        return out

    @staticmethod
    def from_json(obj: dict) -> "FiniteField":
        F = make_field(int(obj["p"]), int(obj.get("e", 1)))
        if "irreducible" in obj and list(F.irreducible or []) != list(obj["irreducible"]):
            raise GaloisError("irreducible polynomial does not match the canonical choice")
        return F

    def __repr__(self) -> str:
        return f"GF({self.q})"


def make_field(p: int, e: int = 1) -> FiniteField:
    """Build GF(p^e) with the canonical irreducible polynomial.

    The irreducible is the first irreducible monic degree-e polynomial with
    nonzero constant term, ordered by the integer sum(c_i * p^i) over the
    non-leading coefficients.  Deterministic across runs.
    """
    if e < 1:
        raise GaloisError(f"extension degree must be >= 1, got {e}")
    if e > 62 or p**e > 2**62:
        raise GaloisError(f"field size {p}^{e} too large")
    if not is_prime(p):
        raise GaloisError(f"{p} is not prime")
    if e == 1:
        return FiniteField(p, 1, None)
    return FiniteField(p, e, _canonical_irreducible(p, e))
