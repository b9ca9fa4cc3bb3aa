"""Exact arithmetic in the n-th cyclotomic field Q(zeta_n).

Scalars are residues modulo the n-th cyclotomic polynomial Phi_n, computed
in ints by the standard recursive factorization of x^n - 1.  A scalar is
stored as integer numerators (one per power of zeta below phi(n)) over one
positive common denominator, kept canonical: the gcd of the denominator
and all numerators is 1, and zero is all zeros over 1.  A rational-valued
scalar hashes as its ``Fraction``, so it hashes equal to the number it
equals.

Values are built in the group algebra Q[x]/(x^n - 1): a sparse map
{k: int} for sum_k c_k x^k, 0 <= k < n, over one denominator.  x -> zeta
is a ring map onto Q(zeta_n) with kernel (Phi_n), and ``power_residue``,
the one reduction mod Phi_n, takes such a map to the numerators of the
scalar it stands for; ``from_power_counts`` and ``power_counts`` convert
between the two.  Every constructor and every product ends in
``from_power_counts``: a product is the cyclic convolution of the
numerators mod n.  The inverse of a is adj / N(a), where adj is the
product of the conjugates zeta -> zeta^k of a over the units k != 1 mod n
and N(a) = a * adj is the field norm, a nonzero rational.

The skew-group check, the one caller in ``src/``, keeps its values as
such maps, over a denominator of their own, and calls ``power_residue``
only to compare.  A map that is nonzero can still stand for zero
(1 + x + ... + x^(n-1) does), so such values are compared and tested for
zero only after reduction.  This module is the only one that knows Phi_n.

``CycScalar`` has no caller in ``src/``.  It stays as the field's value
type for the tests, whose references decode coded smash elements into
``CycScalar``s, and for the benchmark's tracer, which wraps its methods.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    Phi_n is x^n - 1 divided by the product of Phi_d over the proper
    divisors d of n.  That product is monic with int coefficients, so the
    long division stays in ints and must leave no remainder.
    """
    if n < 1:
        raise ValueError("n must be positive")
    divisor = [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_polynomial(d)
            product = [0] * (len(divisor) + len(phi_d) - 1)
            for i, x in enumerate(divisor):
                if x:
                    for j, y in enumerate(phi_d):
                        product[i + j] += x * y
            divisor = product
    rem = [-1] + [0] * (n - 1) + [1]
    deg = len(divisor) - 1
    quo = [0] * (n - deg + 1)
    for shift in range(n - deg, -1, -1):
        c = quo[shift] = rem[shift + deg]
        if c:
            for j, y in enumerate(divisor):
                rem[shift + j] -= c * y
    if any(rem):
        raise AssertionError("cyclotomic division left a remainder")
    return tuple(quo)


@lru_cache(maxsize=None)
def _residue_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row k lists the nonzero (i, c) of x^k mod Phi_n, for 0 <= k < n."""
    modulus = cyclotomic_polynomial(n)
    phi = len(modulus) - 1
    rows = []
    vec = [1] + [0] * (phi - 1)
    for _ in range(n):
        rows.append(tuple((i, c) for i, c in enumerate(vec) if c))
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:  # x^phi = -(modulus[0] + ... + modulus[phi-1] x^(phi-1))
            vec = [v - top * m for v, m in zip(vec, modulus)]
    return tuple(rows)


def power_residue(n: int, counts: Mapping[int, int]) -> list[int]:
    """Integer numerators of (sum_k counts[k] x^k) mod Phi_n, for 0 <= k < n.

    The image of sum_k counts[k] x^k under x -> zeta, as numerators of
    1, zeta, ..., zeta^(phi(n)-1).  The value is zero exactly when every
    numerator is.
    """
    num = [0] * (len(cyclotomic_polynomial(n)) - 1)
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
    x = object.__new__(CycScalar)
    object.__setattr__(x, "n", n)
    object.__setattr__(x, "_num", tuple(num))
    object.__setattr__(x, "_den", den)
    return x


def _same_n(a: "CycScalar", b: "CycScalar") -> None:
    if a.n != b.n:
        raise ValueError(f"scalars over different fields: n={a.n} and n={b.n}")


class CycScalar:
    """Residue modulo the n-th cyclotomic polynomial; zeta is the class of x."""

    __slots__ = ("n", "_num", "_den")

    def __new__(cls, n: int, coeffs: Mapping[int, Fraction] | list | None = None):
        items = coeffs.items() if isinstance(coeffs, Mapping) else enumerate(coeffs or [])
        terms = [(k, Fraction(c)) for k, c in items]
        den = lcm(*(c.denominator for _, c in terms))
        counts: dict[int, int] = {}
        for k, c in terms:  # zeta^n = 1
            counts[k % n] = counts.get(k % n, 0) + c.numerator * (den // c.denominator)
        return cls.from_power_counts(n, counts, den)

    def __setattr__(self, *args):  # pragma: no cover - guard only
        raise AttributeError("CycScalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients of 1, zeta, ..., zeta^(phi(n)-1)."""
        return tuple(Fraction(x, self._den) for x in self._num)

    @classmethod
    def zero(cls, n: int) -> "CycScalar":
        return cls.from_power_counts(n, {})

    @classmethod
    def one(cls, n: int) -> "CycScalar":
        return cls.from_rational(n, 1)

    @classmethod
    def from_rational(cls, n: int, c) -> "CycScalar":
        c = Fraction(c)
        return cls.from_power_counts(n, {0: c.numerator}, c.denominator)

    @classmethod
    def zeta_power(cls, n: int, e: int) -> "CycScalar":
        return cls.from_power_counts(n, {e % n: 1})

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
        return _canonical(self.n, [-x for x in self._num], self._den)

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        if type(other) is not CycScalar:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """The cyclic convolution of the numerators mod n, reduced mod Phi_n."""
        if type(other) is not CycScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycScalar.from_rational(self.n, other)
        _same_n(self, other)
        n = self.n
        counts: dict[int, int] = {}
        for i, x in enumerate(self._num):
            if x:
                for j, y in enumerate(other._num):
                    if y:
                        k = (i + j) % n
                        counts[k] = counts.get(k, 0) + x * y
        return CycScalar.from_power_counts(n, counts, self._den * other._den)

    def __rmul__(self, other):
        return self * other

    def inverse(self) -> "CycScalar":
        """adj / N(self), by the field norm.

        adj is the product of the conjugates zeta -> zeta^k of self over
        the units k != 1 mod n, and N(self) = self * adj is rational.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        n = self.n
        adj = CycScalar.one(n)
        for k in range(2, n):
            if gcd(k, n) == 1:
                conjugate = {i * k % n: x for i, x in enumerate(self._num) if x}
                adj = adj * CycScalar.from_power_counts(n, conjugate, self._den)
        norm = self * adj
        if not norm or any(norm._num[1:]):
            raise AssertionError("the norm of a nonzero scalar must be a nonzero rational")
        return adj * Fraction(norm._den, norm._num[0])

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
