"""The skew-group kernel against ``oracle``'s skew group algebra B = R # Z_n.

``skewgroup`` codes an element of B as ``(den, {(m, j, k): int})``, the sum
of c x^k (m # g^j) over one denominator, m = (a, b, c) standing for
u^a (du)^b d^c and x for the generator of Q[x]/(x^n - 1); ``to_oracle``
reads it as the oracle's value on R's arrow names.  Both sides work in the
group algebra, so products and sums must agree exactly, while ``_agree``,
``power_residue``, ``_twist`` and the f_i are judged mod Phi_n, also on
pairs equal only after that reduction.  The elements are seeded and random
for n = 2..12, zero numerators and vanishing sums 1 + x + ... + x^(n-1)
among them.  Last, ``verify_quotient_match`` must give the same report with
the oracle's product in place of ``_coded_product``.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

import oracle
from quiverdu import skewgroup
from quiverdu.core import coded_sum
from quiverdu.cyclotomic import CycScalar, power_residue
from quiverdu.skewgroup import build_idempotents, r_monomial_product, verify_quotient_match
from test_skewgroup import decode, encode, monomials_of_degree

NS = range(2, 13)


def word(m) -> tuple:
    """The arrow names of u^a (du)^b d^c in R, the quiver down-up algebra at n = 1."""
    a, b, c = m
    return ("u0",) * a + ("d0", "u0") * b + ("d0",) * c


def to_oracle(x) -> dict:
    """A coded element as the oracle's value {(word, j): {k: Fraction}}, zeros dropped."""
    den, terms = x
    out: dict = {}
    for (m, j, k), c in terms.items():
        if c:
            out.setdefault((word(m), j), {})[k] = Fraction(c, den)
    return out


def from_oracle(x: dict):
    """The oracle's value coded as ``skewgroup`` codes it, over the lcm of its denominators."""
    den = lcm(1, *(c.denominator for counts in x.values() for c in counts.values()))
    return den, {(oracle.shape(w), j, k): int(c * den) for (w, j), counts in x.items()
                 for k, c in counts.items()}


def oracle_product(n: int, a, b):
    """``_coded_product`` taken by the oracle: decode, multiply in B, code again."""
    return from_oracle(oracle.smash_times(n, to_oracle(a), to_oracle(b)))


def random_coded(rng: random.Random, n: int, terms: int = 4, max_degree: int = 3):
    """Int numerators, zeros included, over a denominator in 1..6."""
    out = {}
    for _ in range(terms):
        m = rng.choice(monomials_of_degree(rng.randint(0, max_degree)))
        out[(m, rng.randrange(n), rng.randrange(n))] = rng.randint(-4, 4)
    return rng.randint(1, 6), out


def vanishing(n: int, m, j: int):
    """1 + x + ... + x^(n-1) at m # g^j: nonzero in the group algebra, 0 in Q(zeta_n)."""
    return 1, {(m, j, k): 1 for k in range(n)}


@pytest.mark.parametrize("n", range(1, 13))
def test_power_residue_matches_the_oracle(n):
    # The kernel's one reduction mod Phi_n: phi(n) numerators, the oracle's remainder.
    rng = random.Random(900 + n)
    for counts in [{k: 1 for k in range(n)}, {}] + [
            {rng.randrange(n): rng.randint(-9, 9) for _ in range(rng.randint(1, n))} for _ in range(20)]:
        assert power_residue(n, counts) == list(oracle.residue(n, counts)), counts


@pytest.mark.parametrize("n", NS)
def test_coded_product_matches_the_oracle(n):
    rng = random.Random(1000 + n)
    for _ in range(12):
        a, b, c = (random_coded(rng, n) for _ in range(3))
        if rng.randrange(3) == 0:
            m, j, _ = next(iter(b[1]))
            b = coded_sum([(b, 1), (vanishing(n, m, j), 1)])
        ab = skewgroup._coded_product(n, a, b)
        assert to_oracle(ab) == oracle.smash_times(n, to_oracle(a), to_oracle(b))
        # Associative, exactly, in the group algebra.
        assert (to_oracle(skewgroup._coded_product(n, ab, c))
                == to_oracle(skewgroup._coded_product(n, a, skewgroup._coded_product(n, b, c))))


@pytest.mark.parametrize("n", NS)
def test_coded_sum_matches_the_oracle(n):
    rng = random.Random(2300 + n)
    for _ in range(25):
        xs = [random_coded(rng, n) for _ in range(rng.randint(1, 3))]
        total = coded_sum((x, 1) for x in xs)
        assert to_oracle(total) == oracle.smash_sum(map(to_oracle, xs))
        assert total[0] == lcm(*(den for den, _ in xs))


@pytest.mark.parametrize("n", NS)
def test_agree_matches_the_oracle(n):
    rng = random.Random(2400 + n)
    verdicts = set()
    for _ in range(12):
        a, b = random_coded(rng, n), random_coded(rng, n)
        prod = skewgroup._coded_product(n, a, b)
        m, j, _ = next(iter(a[1]))
        # prod plus a term that vanishes only in Q(zeta_n), over another denominator.
        shifted = coded_sum([(prod, 1), (vanishing(n, m, j), 1)])
        reduced = from_oracle({key: dict(enumerate(rem))
                               for key, rem in oracle.value(n, to_oracle(prod)).items()})
        zero = (1, {})
        values = {id(x): oracle.value(n, to_oracle(x)) for x in (a, b, prod, shifted, reduced, zero)}
        for x, y in ((a, b), (prod, reduced), (prod, shifted), (shifted, reduced), (a, a), (prod, zero)):
            vx, vy = values[id(x)], values[id(y)]
            expected = {s: vx == {key: tuple(s * c for c in rem) for key, rem in vy.items()}
                        for s in (1, -1, 2)}
            for s, same in expected.items():
                assert skewgroup._agree(n, x, y, s) is same, (x, y, s)
            assert skewgroup._agree(n, x, y) is expected[1]
            verdicts.update(expected.values())
            if y is shifted:
                # Equal only mod Phi_n: the group-algebra forms differ.
                assert expected[1] and to_oracle(x) != to_oracle(y)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", NS)
def test_twist_is_the_character_automorphism(n):
    # phi_i(ab) = phi_i(a) phi_i(b) under the oracle's product, phi_i fixes
    # m # 1, and phi_i(f_k) = f_(k+i) with the oracle's f.
    rng = random.Random(2600 + n)
    for _ in range(6):
        i = rng.randrange(1, n)
        a, b = random_coded(rng, n), random_coded(rng, n)
        twist = lambda x: skewgroup._twist(n, i, x)
        assert to_oracle(twist(oracle_product(n, a, b))) == to_oracle(
            oracle_product(n, twist(a), twist(b)))
        fixed = (a[0], {(m, 0, k): c for (m, _, k), c in a[1].items()})
        assert to_oracle(twist(fixed)) == to_oracle(fixed)
    for i in range(n):
        for k in range(n):
            image = skewgroup._twist(n, i, skewgroup._one_power_idempotent(n, k))
            assert oracle.value(n, to_oracle(image)) == oracle.value(n, oracle.idempotent(n, k + i))


@pytest.mark.parametrize("n", NS)
def test_idempotents_match_the_oracle(n):
    fs = build_idempotents(n)
    assert len(fs) == n
    for i, f in enumerate(fs):
        assert oracle.value(n, to_oracle(f)) == oracle.value(n, oracle.idempotent(n, i))


@pytest.mark.parametrize("n", NS)
def test_products_of_idempotents_match_the_oracle(n):
    fs = build_idempotents(n)
    u, d = skewgroup._monomial((1, 0, 0)), skewgroup._monomial((0, 0, 1))
    for f in fs:
        for x, y in ((f, fs[0]), (fs[0], f), (f, u), (u, f), (f, d), (d, f)):
            assert to_oracle(skewgroup._coded_product(n, x, y)) == oracle.smash_times(
                n, to_oracle(x), to_oracle(y))


def test_monomial_products_match_the_oracle():
    r_monomial_product.cache_clear()
    reducer = oracle.graded_down_up()
    monomials = [m for k in range(5) for m in monomials_of_degree(k)]
    for m1 in monomials:
        for m2 in monomials:
            got = r_monomial_product(m1, m2)
            expected = sorted((oracle.shape(w), c) for w, c in reducer.normal_form(word(m1) + word(m2)).items())
            assert list(got) == expected, (m1, m2)
            assert all(type(c) is int for _, c in got)


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
    assert oracle.value(n, to_oracle(encode(prod))) == oracle.value(
        n, oracle.smash_times(n, to_oracle(encode(a)), to_oracle(encode(b))))
    assert (unit, 0) not in prod
    assert prod == {(unit, 1): zeta, (unit, 2): zeta + zeta * zeta}
    # Equal as values, unequal as group-algebra vectors: only the
    # comparison after reduction says so.
    zero = (1, {})
    unreduced = (den, terms)
    assert skewgroup._agree(n, unreduced, encode(prod))
    assert not skewgroup._agree(n, unreduced, zero)
    assert skewgroup._agree(n, (den, at_unit), zero)


@pytest.mark.parametrize("n", NS)
def test_report_matches_the_oracle_product(n, monkeypatch):
    reports = [verify_quotient_match(n, max_degree=k) for k in range(5)]
    for k, report in enumerate(reports):
        assert (report.n, report.max_degree, report.idempotents_ok, report.generator_forms_agree,
                report.proof_identities_ok, report.relation_kill, report.dimensions_ok) == (
                    n, k, True, True, True, {1: False, -1: True}, True)
    monkeypatch.setattr(skewgroup, "_coded_product", oracle_product)
    assert verify_quotient_match(n, max_degree=4) == reports[4]
