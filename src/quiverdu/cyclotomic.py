"""Exact arithmetic in the n-th cyclotomic field Q(zeta_n).

Scalars are residues modulo the n-th cyclotomic polynomial Phi_n, computed
by the standard recursive factorization of x^n - 1.  A scalar is stored as
integer numerators (one per power of zeta below phi(n)) over one positive
common denominator, kept canonical: the gcd of the denominator and all
numerators is 1, and zero is all zeros over 1.  Phi_n is monic with integer
coefficients, so x^k mod Phi_n is integral; a per-n table of those residues
turns a product into an integer convolution plus one table reduction.
A product with a rational (a plain number, or a scalar whose numerators of
zeta^1 .. zeta^(phi(n)-1) are zero) skips the convolution and scales the
numerators in O(phi(n)).  A rational-valued scalar hashes as its
``Fraction``, so it hashes equal to the number it equals.
Division uses the extended Euclidean algorithm.

Callers that multiply many scalars at once (the skew-group check) work in
the group algebra Q[x]/(x^n - 1) instead: a value there is a sparse map
{k: int} for sum_k c_k x^k, 0 <= k < n, over a denominator the caller
keeps, and a product is a cyclic convolution of such maps.  x -> zeta is
a ring map onto Q(zeta_n) with kernel (Phi_n), so reducing a map by
``power_residue`` gives exactly the numerators of the scalar it stands
for; ``from_power_counts`` and ``power_counts`` convert between the two.
A map that is nonzero can still stand for zero (1 + x + ... + x^(n-1)
does), so such values are compared and tested for zero only after
reduction.  This module is the only one that knows Phi_n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping


def _poly_trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for shift in range(len(rem) - len(b), -1, -1):
        c = rem[shift + len(b) - 1] / lead
        if c:
            quo[shift] = c
            for j, y in enumerate(b):
                rem[shift + j] -= c * y
    return _poly_trim(quo), _poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    xn_minus_1 = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    divisor = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            divisor = _poly_mul(divisor, list(cyclotomic_polynomial(d)))
    quo, rem = _poly_divmod(xn_minus_1, divisor)
    if rem:
        raise AssertionError("cyclotomic division left a remainder")
    return tuple(quo)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k holds the integer coefficients of x^k mod Phi_n.

    There are max(n, 2 phi(n) - 1) rows: enough for zeta^e with
    0 <= e < n and for the product of two reduced residues.
    """
    modulus = [int(c) for c in cyclotomic_polynomial(n)]
    phi = len(modulus) - 1
    rows = []
    vec = [1] + [0] * (phi - 1)
    for _ in range(max(n, 2 * phi - 1)):
        rows.append(tuple(vec))
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:  # x^phi = -(modulus[0] + ... + modulus[phi-1] x^(phi-1))
            vec = [v - top * m for v, m in zip(vec, modulus)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _residue_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row k lists the nonzero (i, c) of x^k mod Phi_n, for 0 <= k < n."""
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in _power_table(n)[:n])


def power_residue(n: int, counts: Mapping[int, int]) -> list[int]:
    """Integer numerators of (sum_k counts[k] x^k) mod Phi_n, for 0 <= k < n.

    The group-algebra reduction: the image of sum_k counts[k] x^k under
    x -> zeta, as numerators of 1, zeta, ..., zeta^(phi(n)-1).  The value
    is zero exactly when every numerator is.
    """
    num = [0] * len(_power_table(n)[0])
    rows = _residue_rows(n)
    for k, c in counts.items():
        for i, r in rows[k]:
            num[i] += c * r
    return num


def _canonical(n: int, num, den: int) -> "CycScalar":
    """The scalar num / den for a positive den, reduced to canonical form."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _raw(n, tuple(num), den)


def _scaled(x: "CycScalar", p: int, q: int) -> "CycScalar":
    """x * p / q for a positive q: the numerators scaled, no convolution."""
    if p == q == 1:
        return x
    return _canonical(x.n, [v * p for v in x._num], x._den * q)


def _same_n(a: "CycScalar", b: "CycScalar") -> None:
    if a.n != b.n:
        raise ValueError(f"scalars over different fields: n={a.n} and n={b.n}")


class CycScalar:
    """Residue modulo the n-th cyclotomic polynomial; zeta is the class of x."""

    __slots__ = ("n", "_num", "_den")

    def __init__(self, n: int, coeffs: Mapping[int, Fraction] | list | None = None):
        phi = len(cyclotomic_polynomial(n)) - 1
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = enumerate(coeffs or [])
        terms = [(k, Fraction(c)) for k, c in items]
        den = lcm(*(c.denominator for _, c in terms))
        num = [0] * phi
        for k, c in terms:
            c = c.numerator * (den // c.denominator)
            if 0 <= k < phi:
                num[k] += c
            elif c:  # zeta^n = 1, and row k mod n of the table is reduced
                num = [x + c * r for x, r in zip(num, _power_table(n)[k % n])]
        reduced = _canonical(n, num, den)
        _set_n(self, n)
        _set_num(self, reduced._num)
        _set_den(self, reduced._den)

    def __setattr__(self, *args):  # pragma: no cover - guard only
        raise AttributeError("CycScalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients of 1, zeta, ..., zeta^(phi(n)-1)."""
        return tuple(Fraction(x, self._den) for x in self._num)

    @classmethod
    def zero(cls, n: int) -> "CycScalar":
        return _raw(n, (0,) * (len(cyclotomic_polynomial(n)) - 1), 1)

    @classmethod
    def one(cls, n: int) -> "CycScalar":
        return cls.from_rational(n, 1)

    @classmethod
    def from_rational(cls, n: int, c) -> "CycScalar":
        c = Fraction(c)
        phi = len(cyclotomic_polynomial(n)) - 1
        return _raw(n, (c.numerator,) + (0,) * (phi - 1), c.denominator)

    @classmethod
    def zeta_power(cls, n: int, e: int) -> "CycScalar":
        return _raw(n, _power_table(n)[e % n], 1)

    @classmethod
    def from_power_counts(cls, n: int, counts: Mapping[int, int], den: int = 1) -> "CycScalar":
        """(sum_e counts[e] zeta^e) / den for integer counts, 0 <= e < n, and den > 0."""
        return _canonical(n, power_residue(n, counts), den)

    def power_counts(self) -> tuple[dict[int, int], int]:
        """``(counts, den)`` with ``from_power_counts(n, counts, den) == self``.

        The counts are the nonzero canonical numerators, by power of zeta
        below phi(n): a group-algebra representative of the scalar.
        """
        return {k: x for k, x in enumerate(self._num) if x}, self._den

    def is_zero(self) -> bool:
        return not any(self._num)

    def __bool__(self) -> bool:
        return any(self._num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            num = self._num
            return (self._den == other.denominator and num[0] == other.numerator
                    and not any(num[1:]))
        if not isinstance(other, CycScalar):
            return False
        if self.n == other.n:
            return self._num == other._num and self._den == other._den
        # Over different n only rational values compare, by value, so that
        # equality stays transitive through the plain numbers.
        num, other_num = self._num, other._num
        return (self._den == other._den and num[0] == other_num[0]
                and not any(num[1:]) and not any(other_num[1:]))

    def __hash__(self):
        num = self._num
        if not any(num[1:]):  # equal to a Fraction, so hashed as one
            return hash(Fraction(num[0], self._den))
        return hash((self.n, num, self._den))

    def __add__(self, other: "CycScalar") -> "CycScalar":
        if type(other) is not CycScalar:
            return NotImplemented
        _same_n(self, other)
        da, db = self._den, other._den
        if da == db:
            return _canonical(self.n, [x + y for x, y in zip(self._num, other._num)], da)
        return _canonical(self.n, [x * db + y * da for x, y in zip(self._num, other._num)],
                          da * db)

    def __neg__(self) -> "CycScalar":
        return _raw(self.n, tuple(-x for x in self._num), self._den)

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        if type(other) is not CycScalar:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not CycScalar:
            if isinstance(other, (int, Fraction)):
                c = Fraction(other)
                return _scaled(self, c.numerator, c.denominator)
            return NotImplemented
        _same_n(self, other)
        a, b = self._num, other._num
        if not any(b[1:]):
            return _scaled(self, b[0], other._den)
        if not any(a[1:]):
            return _scaled(other, a[0], self._den)
        phi = len(a)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        num = conv[:phi]
        table = _power_table(self.n)
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                num = [x + c * r for x, r in zip(num, table[k])]
        return _canonical(self.n, num, self._den * other._den)

    def __rmul__(self, other):
        return self * other

    def inverse(self) -> "CycScalar":
        """Extended Euclid against the (irreducible) cyclotomic modulus."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        if not any(self._num[1:]):
            return CycScalar.from_rational(self.n, Fraction(self._den, self._num[0]))
        modulus = list(cyclotomic_polynomial(self.n))
        r0, r1 = modulus, _poly_trim([Fraction(x) for x in self._num])
        s0, s1 = [], [Fraction(1)]
        while True:
            quo, rem = _poly_divmod(r0, r1)
            if not rem:
                break
            prod = _poly_mul(quo, s1)
            new_s = [Fraction(0)] * max(len(s0), len(prod))
            for idx, c in enumerate(s0):
                new_s[idx] += c
            for idx, c in enumerate(prod):
                new_s[idx] -= c
            s0, s1 = s1, _poly_trim(new_s)
            r0, r1 = r1, rem
        if len(r1) != 1:
            raise AssertionError("cyclotomic modulus is irreducible; gcd must be constant")
        scale = self._den / r1[0]
        return CycScalar(self.n, {k: c * scale for k, c in enumerate(s1)})

    def __truediv__(self, other: "CycScalar") -> "CycScalar":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CycScalar":
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                bits.append(str(c))
            elif k == 1:
                bits.append(f"{c}*z" if c != 1 else "z")
            else:
                bits.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"CycScalar({self.n}, {self})"


# The slot setters, bound once: they skip the immutability guard of
# ``CycScalar.__setattr__`` without a per-call attribute lookup.
_set_n, _set_num, _set_den = (CycScalar.__dict__[s].__set__ for s in CycScalar.__slots__)


def _raw(n: int, num: tuple[int, ...], den: int) -> CycScalar:
    """Wrap numerators and a denominator already in canonical form."""
    x = object.__new__(CycScalar)
    _set_n(x, n)
    _set_num(x, num)
    _set_den(x, den)
    return x
