"""Differential test of the coded smash product.

The reference is the ``CycScalar`` loop that the smash product ran before
products moved to int-coded group-algebra coefficients, kept here as
``reference_smash_multiply`` (verbatim, up to taking n and plain decoded
dicts, ``test_skewgroup.decode``, in place of the ``SmashElement`` class
that no longer exists), with ``times_zeta``, the ``CycScalar``
method it called (now a function of the scalar, otherwise verbatim).
``times_zeta`` reads ``_power_table`` (the table of x^k mod Phi_n) and
``_raw`` (the wrapper of canonical numerators), which left
``quiverdu.cyclotomic`` when ``power_residue`` became its one reduction
mod Phi_n; they are kept here verbatim, and ``test_cyclotomic_reference``
imports the table.  The
coded product keeps its coefficients in Q[x]/(x^n - 1) and reduces them
mod Phi_n only where it compares or tests for zero, so, decoded, it must
give the reference's value for every n, also where a
coefficient vanishes in Q(zeta_n) without vanishing in the group algebra.

``r_monomial_product`` multiplies int-coded words in the rewriting
kernel; the ``Element``/``normal_product`` path it replaced is kept here
verbatim as ``element_r_monomial_product`` (without its cache).
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from quiverdu import skewgroup
from quiverdu.core import Element, Parameters
from quiverdu.cyclotomic import CycScalar, cyclotomic_polynomial
from quiverdu.rewrite import PRESET_QDU, build_system, ensure_confluent, normal_product, normal_shape
from quiverdu.skewgroup import (
    _UNIT,
    GRADED_DOWN_UP,
    RMonomial,
    r_monomial_product,
    verify_quotient_match,
)
from test_skewgroup import (
    _monomial_to_path,
    decode,
    decoded_idempotents,
    encode,
    monomial,
    monomials_of_degree,
    smash,
    smash_product,
)


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


def times_zeta(self, e: int) -> CycScalar:
    """self * zeta^e: numerator i moves to the power (i + e) mod n.

    Only a power at or above phi(n) goes through its ``_power_table``
    row.  zeta^e is a unit, so the result keeps the canonical
    denominator and needs no gcd.
    """
    n = self.n
    e %= n
    if not e:
        return self
    num = self._num
    phi = len(num)
    out = [0] * phi
    for i, x in enumerate(num):
        if x:
            k = (i + e) % n
            if k < phi:
                out[k] += x
            else:
                out = [y + x * r for y, r in zip(out, _power_table(n)[k])]
    return _raw(n, tuple(out), self._den)


def reference_smash_multiply(n: int, a: dict, b: dict) -> dict:
    sums: dict[tuple[tuple[int, int, int], int], CycScalar] = {}
    for (m1, j1), c1 in a.items():
        for (m2, j2), c2 in b.items():
            # g^j1 scales u^a (du)^b d^c by zeta^(j1 (a - c)), read here from the
            # definition of the action and not through ``monomial_weight``, so
            # the left-factor check of ``corner_dimensions`` compares two
            # independent computations of the weight.
            scalar = times_zeta(c1 * c2, j1 * (m2[0] - m2[2]))
            j = (j1 + j2) % n
            for m, q in r_monomial_product(m1, m2):
                term = scalar if q == 1 else -scalar if q == -1 else scalar * q
                old = sums.get((m, j))
                sums[(m, j)] = term if old is None else old + term
    return {key: c for key, c in sums.items() if c}


def random_scalar(rng: random.Random, n: int) -> CycScalar:
    """A general element of Q(zeta_n): every power below phi(n), rational coefficients."""
    phi = len(cyclotomic_polynomial(n)) - 1
    return CycScalar(n, {k: Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for k in range(phi)})


def random_smash(rng: random.Random, n: int, terms: int = 3, max_degree: int = 3) -> dict:
    sums = {}
    for _ in range(terms):
        key = (rng.choice(monomials_of_degree(rng.randint(0, max_degree))), rng.randrange(n))
        c = random_scalar(rng, n)
        sums[key] = sums[key] + c if key in sums else c
    return smash(n, sums)


@pytest.mark.parametrize("n", range(2, 13))
def test_coded_product_matches_reference(n):
    rng = random.Random(1000 + n)
    for _ in range(12):
        a, b, c = (random_smash(rng, n) for _ in range(3))
        ab = smash_product(n, a, b)
        assert ab == reference_smash_multiply(n, a, b)
        assert (smash_product(n, ab, c) == smash_product(n, a, smash_product(n, b, c))
                == reference_smash_multiply(n, a, reference_smash_multiply(n, b, c)))


@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_coded_product_of_idempotents_matches_reference(n):
    fs = decoded_idempotents(n)
    u, d = monomial(n, (1, 0, 0)), monomial(n, (0, 0, 1))
    for f in fs:
        for g in fs + [u, d]:
            assert smash_product(n, f, g) == reference_smash_multiply(n, f, g)
            assert smash_product(n, g, f) == reference_smash_multiply(n, g, f)


def test_product_vanishing_only_in_the_cyclotomic_field():
    # Over n = 3, (zeta # 1 + 1 # g)(zeta # 1 + (1 + zeta) # g^2) has
    # x^2 + (1 + x) = 1 + x + x^2 at 1 # g^0 in the group algebra, which
    # is nonzero there and 0 in Q(zeta_3).
    n = 3
    zeta = CycScalar.zeta_power(n, 1)
    one = CycScalar.one(n)
    unit = (0, 0, 0)
    a = {(unit, 0): zeta, (unit, 1): one}
    b = {(unit, 0): zeta, (unit, 2): one + zeta}
    den, terms = skewgroup._coded_product(n, encode(a), encode(b))
    at_unit = {key: c for key, c in terms.items() if key[:2] == (unit, 0)}
    assert at_unit == {(unit, 0, 0): 1, (unit, 0, 1): 1, (unit, 0, 2): 1}
    prod = decode(n, (den, terms))
    assert prod == reference_smash_multiply(n, a, b)
    assert (unit, 0) not in prod
    assert prod == {(unit, 1): zeta, (unit, 2): zeta + zeta * zeta}
    # Equal as values, unequal as group-algebra vectors: only the
    # comparison after reduction says so.
    zero = (1, {})
    unreduced = (den, terms)
    assert skewgroup._agree(n, unreduced, encode(prod))
    assert not skewgroup._agree(n, unreduced, zero)
    assert skewgroup._agree(n, (den, at_unit), zero)


def reference_coded_product(n, a, b):
    """The reference product on coded elements: decode, multiply, encode."""
    return encode(reference_smash_multiply(n, decode(n, a), decode(n, b)))


@pytest.mark.parametrize("n", range(2, 13))
def test_report_matches_reference_product(n, monkeypatch):
    reports = [verify_quotient_match(n, max_degree=k) for k in range(5)]
    for k, report in enumerate(reports):
        assert (report.n, report.max_degree, report.idempotents_ok, report.generator_forms_agree,
                report.proof_identities_ok, report.relation_kill, report.dimensions_ok,
                report.dimension_mismatch) == (n, k, True, True, True, {1: False, -1: True},
                                               True, None)
    monkeypatch.setattr(skewgroup, "_coded_product", reference_coded_product)
    assert verify_quotient_match(n, max_degree=4) == reports[4]


def element_r_monomial_product(m1: RMonomial, m2: RMonomial) -> tuple[tuple[RMonomial, int], ...]:
    """Normal-form expansion of the product of two R-monomials.

    Every u^a (du)^b d^c is a normal word, so a product with the unit
    monomial is the other factor, with no rewriting.  R's rules have
    coefficients +-1, so every coefficient is an int.
    """
    if m1 == _UNIT:
        return ((m2, 1),)
    if m2 == _UNIT:
        return ((m1, 1),)
    sys = ensure_confluent(build_system(PRESET_QDU, GRADED_DOWN_UP))
    nf = normal_product(sys, Element.from_path(_monomial_to_path(m1)),
                        Element.from_path(_monomial_to_path(m2)))
    return tuple(sorted((normal_shape(p), int(c)) for p, c in nf.terms.items()))


def test_coded_monomial_products_match_element_path():
    r_monomial_product.cache_clear()
    monomials = [m for k in range(5) for m in monomials_of_degree(k)]
    for m1 in monomials:
        for m2 in monomials:
            got = r_monomial_product(m1, m2)
            assert got == element_r_monomial_product(m1, m2), (m1, m2)
            assert all(type(c) is int for _, c in got)


def test_monomial_product_refuses_a_non_int_coefficient(monkeypatch):
    # beta = -1/2 gives d^2 u -> -(1/2) u d^2: denominator 2 in the kernel.
    halved = Parameters.of(1, [0], [Fraction(-1, 2)], [0])
    tables = skewgroup._tables(ensure_confluent(build_system(PRESET_QDU, halved)))
    monkeypatch.setattr(skewgroup, "_r_tables", lambda: tables)
    r_monomial_product.cache_clear()
    try:
        assert r_monomial_product((0, 0, 1), (1, 0, 0)) == (((0, 1, 0), 1),)
        with pytest.raises(AssertionError, match=r"\(0, 0, 2\) \* \(1, 0, 0\) has a non-int"):
            r_monomial_product((0, 0, 2), (1, 0, 0))
    finally:
        r_monomial_product.cache_clear()
