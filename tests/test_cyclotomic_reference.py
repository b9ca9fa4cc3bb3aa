"""Differential test of the integer-coded cyclotomic scalars.

The reference is the ``Fraction``-list ``CycScalar`` that the integer
representation replaced, kept here verbatim with its polynomial helpers
and its own ``cyclotomic_polynomial`` cache.  Every public operation of
``quiverdu.cyclotomic.CycScalar`` must give the same rational coefficients
as the reference, for n = 1..12.

A product is a cyclic convolution mod n reduced by ``power_residue``.
``convolution_product`` keeps, verbatim, the product that
``quiverdu.cyclotomic`` ran before: a convolution of the reduced
numerators, then a reduction through the ``_power_table`` of
``test_smash_reference``.  It is an independent reference for products
by a rational and by a power of zeta (``times_zeta``, kept there with
the smash product that called it).

``power_residue`` reduces a group-algebra map {k: int}, 0 <= k < n, mod
Phi_n; the reference constructor, which divides by Phi_n, must give the
same coefficients, and ``power_counts`` must give a map that reduces back
to the scalar.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from quiverdu import cyclotomic
from test_smash_reference import _power_table, times_zeta

New = cyclotomic.CycScalar


# ---------------------------------------------------------------------------
# Reference implementation (verbatim)
# ---------------------------------------------------------------------------

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


class CycScalar:
    """Residue modulo the n-th cyclotomic polynomial; zeta is the class of x."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[int, Fraction] | list | None = None):
        phi = len(cyclotomic_polynomial(n)) - 1
        vec = [Fraction(0)] * phi
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = enumerate(coeffs or [])
        overflow: list[tuple[int, Fraction]] = []
        for k, c in items:
            c = Fraction(c)
            if not c:
                continue
            if k < phi:
                vec[k] += c
            else:
                overflow.append((k, c))
        if overflow:
            top = max(k for k, _ in overflow)
            poly = vec + [Fraction(0)] * (top - phi + 1)
            for k, c in overflow:
                poly[k] += c
            _, rem = _poly_divmod(poly, list(cyclotomic_polynomial(n)))
            vec = list(rem) + [Fraction(0)] * (phi - len(rem))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(vec))

    def __setattr__(self, *args):  # pragma: no cover - guard only
        raise AttributeError("CycScalar is immutable")

    @classmethod
    def zero(cls, n: int) -> "CycScalar":
        return cls(n, [])

    @classmethod
    def one(cls, n: int) -> "CycScalar":
        return cls(n, [Fraction(1)])

    @classmethod
    def from_rational(cls, n: int, c) -> "CycScalar":
        return cls(n, [Fraction(c)])

    @classmethod
    def zeta_power(cls, n: int, e: int) -> "CycScalar":
        return cls(n, {e % n: Fraction(1)})

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycScalar.from_rational(self.n, other)
        return isinstance(other, CycScalar) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __add__(self, other: "CycScalar") -> "CycScalar":
        return CycScalar(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.n, [-a for a in self.coeffs])

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CycScalar(self.n, [a * c for a in self.coeffs])
        prod = _poly_mul(list(self.coeffs), list(other.coeffs))
        return CycScalar(self.n, {k: c for k, c in enumerate(prod)})

    def __rmul__(self, other):
        return self * other

    def inverse(self) -> "CycScalar":
        """Extended Euclid against the (irreducible) cyclotomic modulus."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        modulus = list(cyclotomic_polynomial(self.n))
        r0, r1 = modulus, _poly_trim(list(self.coeffs))
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
        scale = 1 / r1[0]
        return CycScalar(self.n, {k: c * scale for k, c in enumerate(s1)})

    def __truediv__(self, other: "CycScalar") -> "CycScalar":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

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


# ---------------------------------------------------------------------------
# Strategies and helpers
# ---------------------------------------------------------------------------

def phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
small_ints = st.integers(-5, 5)


@st.composite
def raw_coeffs(draw, n: int):
    """Constructor input: a list or a dict, with exponents up to 3n (>= phi(n))."""
    if draw(st.booleans()):
        return draw(st.lists(st.one_of(rationals, small_ints), max_size=3 * n + 1))
    return draw(st.dictionaries(st.integers(0, 3 * n), st.one_of(rationals, small_ints),
                                max_size=6))


@st.composite
def scalar_pairs(draw):
    """(n, reference scalar, new scalar) built from the same input."""
    n = draw(st.integers(1, 12))
    raw = draw(raw_coeffs(n))
    return n, CycScalar(n, raw), New(n, raw)


def same(ref: CycScalar, new: New) -> bool:
    return new.n == ref.n and new.coeffs == ref.coeffs


def convolution_product(a: New, b: New) -> tuple[Fraction, ...]:
    """Coefficients of a * b by the general integer convolution (verbatim)."""
    x, y = a._num, b._num
    phi = len(x)
    conv = [0] * (2 * phi - 1)
    for i, u in enumerate(x):
        if u:
            for j, v in enumerate(y):
                if v:
                    conv[i + j] += u * v
    num = conv[:phi]
    table = _power_table(a.n)
    for k in range(phi, 2 * phi - 1):
        c = conv[k]
        if c:
            num = [u + c * r for u, r in zip(num, table[k])]
    den = a._den * b._den
    return tuple(Fraction(u, den) for u in num)


def assert_canonical(x: New) -> None:
    num, den = x._num, x._den
    assert all(type(v) is int for v in num) and type(den) is int
    assert len(num) == phi(x.n)
    assert den > 0
    assert gcd(den, *num) == 1
    if not any(num):
        assert den == 1


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(scalar_pairs())
def test_constructor_matches_reference(pair):
    n, ref, new = pair
    assert same(ref, new)
    assert_canonical(new)
    assert str(new) == str(ref)
    assert new.is_zero() == ref.is_zero() and bool(new) == bool(ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(-40, 40))
def test_named_constructors_match_reference(n, e):
    assert same(CycScalar.zeta_power(n, e), New.zeta_power(n, e))
    assert same(CycScalar.zero(n), New.zero(n))
    assert same(CycScalar.one(n), New.one(n))
    c = Fraction(e, 7)
    assert same(CycScalar.from_rational(n, c), New.from_rational(n, c))
    for x in (New.zeta_power(n, e), New.zero(n), New.one(n), New.from_rational(n, c)):
        assert_canonical(x)


@settings(max_examples=150, deadline=None)
@given(scalar_pairs(), st.data())
def test_ring_operations_match_reference(pair, data):
    n, ra, na = pair
    raw = data.draw(raw_coeffs(n))
    rb, nb = CycScalar(n, raw), New(n, raw)
    c = data.draw(st.one_of(rationals, small_ints))
    for ref, new in ((ra + rb, na + nb), (ra - rb, na - nb), (ra * rb, na * nb),
                     (-ra, -na), (ra * c, na * c), (c * ra, c * na)):
        assert same(ref, new)
        assert_canonical(new)
        assert str(new) == str(ref)
    if c:
        assert same(ra / c, na / c)
    if not rb.is_zero():
        assert same(rb.inverse(), nb.inverse())
        assert same(ra / rb, na / nb)
        assert_canonical(na / nb)
        assert na / nb * nb == na


@settings(max_examples=100, deadline=None)
@given(scalar_pairs(), st.one_of(rationals, small_ints))
def test_equality_and_hash_match_reference(pair, c):
    n, ref, new = pair
    assert (new == c) == (ref == c)
    assert (New.from_rational(n, c) == c) and (CycScalar.from_rational(n, c) == c)
    # The same value reached two ways: equal, with equal hashes.
    other = (new + New.from_rational(n, c)) - New.from_rational(n, c)
    assert other == new and hash(other) == hash(new)
    shifted = New(n, {k + n: v for k, v in enumerate(new.coeffs)})  # zeta^n = 1
    assert shifted == new and hash(shifted) == hash(new)
    assert new != New.one(n) + new
    # A rational value equals its Fraction and int, so it hashes like them.
    rational = New.from_rational(n, c)
    assert hash(rational) == hash(Fraction(c)) and len({rational, Fraction(c)}) == 1
    if not any(new.coeffs[1:]):
        assert new == new.coeffs[0] and hash(new) == hash(new.coeffs[0])
    assert len({New.one(n), 1}) == 1 and len({New.zero(n), 0, Fraction(0)}) == 1
    assert len({New.from_rational(n, Fraction(1, 2)), Fraction(1, 2)}) == 1


# ---------------------------------------------------------------------------
# Fast paths against the general convolution
# ---------------------------------------------------------------------------

SAMPLE_RATIONALS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 4),
                    Fraction(5, 6), Fraction(-7, 2))


def sample_scalars(n: int) -> list[New]:
    """Zero, rationals, powers of zeta and dense scalars with common denominators."""
    out = [New.zero(n), New.one(n), New.from_rational(n, Fraction(-2, 3))]
    out += [New.zeta_power(n, e) for e in range(n)]
    out.append(New(n, [Fraction(k + 1, 6) * (-1) ** k for k in range(n)]))
    out.append(New(n, {0: Fraction(1, 4), n - 1: Fraction(-3, 8), 2 * n + 1: 5}))
    return out


def assert_convolution_product(a: New, b: New) -> None:
    prod = a * b
    assert_canonical(prod)
    assert prod.coeffs == convolution_product(a, b)
    ref = CycScalar(a.n, list(a.coeffs)) * CycScalar(b.n, list(b.coeffs))
    assert same(ref, prod)


def test_rational_products_match_convolution():
    for n in range(1, 13):
        for x in sample_scalars(n):
            for c in SAMPLE_RATIONALS:
                r = New.from_rational(n, c)
                assert_convolution_product(r, x)
                assert_convolution_product(x, r)
                for prod in (x * c, c * x):
                    assert_canonical(prod)
                    assert prod.coeffs == convolution_product(x, r)


@settings(max_examples=150, deadline=None)
@given(scalar_pairs(), st.one_of(rationals, small_ints))
def test_random_rational_products_match_convolution(pair, c):
    n, _, x = pair
    r = New.from_rational(n, c)
    assert_convolution_product(r, x)
    assert_convolution_product(x, r)
    assert_convolution_product(x, x)


def test_zeta_power_products_match_convolution():
    for n in range(1, 13):
        for x in sample_scalars(n):
            rx = CycScalar(n, list(x.coeffs))
            for e in range(-2 * n, 2 * n + 1):
                moved = times_zeta(x, e)
                assert_canonical(moved)
                assert moved == x * New.zeta_power(n, e)
                assert moved.coeffs == convolution_product(x, New.zeta_power(n, e))
                assert same(rx * CycScalar.zeta_power(n, e), moved)


@settings(max_examples=150, deadline=None)
@given(scalar_pairs(), st.integers(-40, 40))
def test_random_zeta_power_products_match_convolution(pair, e):
    n, ref, x = pair
    moved = times_zeta(x, e)
    assert_canonical(moved)
    assert moved.coeffs == convolution_product(x, New.zeta_power(n, e))
    assert same(ref * CycScalar.zeta_power(n, e), moved)


@st.composite
def power_maps(draw):
    """(n, {k: int} with 0 <= k < n, positive denominator)."""
    n = draw(st.integers(1, 12))
    counts = draw(st.dictionaries(st.integers(0, n - 1), st.integers(-20, 20), max_size=n))
    return n, counts, draw(st.integers(1, 30))


@settings(max_examples=200, deadline=None)
@given(power_maps())
def test_power_residue_matches_reference_division(case):
    n, counts, den = case
    ref = CycScalar(n, {k: Fraction(c, den) for k, c in counts.items()})
    num = cyclotomic.power_residue(n, counts)
    assert len(num) == phi(n) and all(type(v) is int for v in num)
    assert tuple(Fraction(v, den) for v in num) == ref.coeffs
    new = New.from_power_counts(n, counts, den)
    assert_canonical(new)
    assert same(ref, new)
    again, again_den = new.power_counts()
    assert all(0 <= k < phi(n) and v for k, v in again.items())
    assert New.from_power_counts(n, again, again_den) == new


def test_power_residue_of_the_full_orbit_sum_is_zero():
    # 1 + x + ... + x^(n-1) is nonzero in the group algebra and 0 in Q(zeta_n), n >= 2.
    for n in range(2, 13):
        assert not any(cyclotomic.power_residue(n, {k: 1 for k in range(n)}))
        assert any(cyclotomic.power_residue(n, {k: 1 for k in range(n - 1)}))


def test_int_cyclotomic_polynomial_matches_fraction_division():
    # The package divides x^n - 1 by the product of Phi_d over the proper
    # divisors d in ints; the reference divides in Fractions.
    for n in range(1, 61):
        got = cyclotomic.cyclotomic_polynomial(n)
        assert all(type(c) is int for c in got)
        assert got == cyclotomic_polynomial(n), n
