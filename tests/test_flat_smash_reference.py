"""Differential test of the flat coded smash kernel.

The skew-group kernel codes a smash element as ``(den, {(m, j, k): int})``,
the sum of c x^k (m # g^j) over one positive denominator.  The nested form
it replaced, ``(den, {(m, j): {k: int}})``, is kept here verbatim with its
kernel: ``_encode``, ``_decode``, ``_rotate``, ``_coded_product``,
``_coded_sum`` and ``_agree`` (renamed with a ``nested_`` prefix), and the
``CycScalar`` loop of ``build_idempotents`` (here it returns the list of
the elements it built).  Decoded elements are the plain
{(monomial, group exponent): CycScalar} dicts of ``test_skewgroup``, in
place of the ``SmashElement`` class that carried them.  On seeded random
coded elements for n = 2..12 the flat kernel's products and sums must
decode to the reference's, and ``_agree`` must give the reference's
verdict, also on pairs that agree only after reduction mod Phi_n.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from quiverdu import skewgroup
from quiverdu.cyclotomic import CycScalar, power_residue
from quiverdu.skewgroup import build_idempotents, r_monomial_product
from test_skewgroup import decode, encode, monomials_of_degree, smash


def nested_encode(x: dict):
    """``x`` over the lcm of its denominators, by canonical numerators."""
    forms = {key: c.power_counts() for key, c in x.items()}
    den = lcm(*(d for _, d in forms.values()))
    return den, {key: {k: v * (den // d) for k, v in counts.items()}
                 for key, (counts, d) in forms.items()}


def nested_decode(n: int, x) -> dict:
    den, terms = x
    values = {key: CycScalar.from_power_counts(n, v, den) for key, v in terms.items()}
    return {key: c for key, c in values.items() if c}


def nested_rotate(v: dict, e: int, n: int) -> dict:
    """The map v times x^e: exponent k moves to (k + e) mod n."""
    e %= n
    if not e:
        return v
    return {(k + e) % n: c for k, c in v.items()}


def nested_coded_product(n: int, a, b):
    """The smash product on coded elements; nothing is reduced mod Phi_n."""
    (da, ta), (db, tb) = a, b
    right = list(tb.items())
    out: dict = {}
    for (m1, j1), v1 in ta.items():
        for (m2, j2), v2 in right:
            # g^j1 scales u^a (du)^b d^c by x^(j1 (a - c)), read here from the
            # definition of the action and not through ``monomial_weight``, so
            # the left-factor check of ``corner_dimensions`` compares two
            # independent computations of the weight.
            conv = {}
            for k1, c1 in nested_rotate(v1, j1 * (m2[0] - m2[2]), n).items():
                for k2, c2 in v2.items():
                    k = (k1 + k2) % n
                    conv[k] = conv.get(k, 0) + c1 * c2
            j = (j1 + j2) % n
            for m, q in r_monomial_product(m1, m2):
                acc = out.get((m, j))
                if acc is None:
                    out[(m, j)] = {k: q * c for k, c in conv.items()}
                else:
                    for k, c in conv.items():
                        acc[k] = acc.get(k, 0) + q * c
    return da * db, out


def nested_coded_sum(xs):
    """The sum of coded elements, over the lcm of their denominators."""
    den = lcm(*(d for d, _ in xs))
    out: dict = {}
    for d, terms in xs:
        scale = den // d
        for key, v in terms.items():
            acc = out.setdefault(key, {})
            for k, c in v.items():
                acc[k] = acc.get(k, 0) + scale * c
    return den, out


def nested_agree(n: int, a, b, scale: int = 1) -> bool:
    """a == scale * b over Q(zeta_n), decided after reduction mod Phi_n."""
    (da, ta), (db, tb) = a, b
    s = scale * da
    for key in ta.keys() | tb.keys():
        diff = {k: c * db for k, c in ta.get(key, {}).items()}
        for k, c in tb.get(key, {}).items():
            diff[k] = diff.get(k, 0) - s * c
        if any(power_residue(n, diff)):
            return False
    return True


def reference_build_idempotents(n: int) -> list[dict]:
    """f_i = (1/n) sum_a zeta^{ia} # g^a; orthogonality and completeness verified.

    The f_i lie in the group algebra, where the action is trivial, so
    f_i f_j is the cyclic convolution of the coefficient vectors
    (zeta^{ia} / n)_a and (zeta^{jb} / n)_b: its coefficient at g^m is
    (1/n^2) sum_a zeta^{ia + j(m - a)}.  Each such sum is counted by
    exponent mod n; it equals the coefficient num/den of delta_ij f_i
    exactly when counts * den - n^2 * num reduces to zero mod Phi_n, so
    the check is an int zero test, with no smash product.
    """
    if n < 2:
        raise ValueError("idempotent decomposition needs n >= 2")
    inv_n = Fraction(1, n)
    fs = []
    for i in range(n):
        terms = {((0, 0, 0), a): CycScalar.zeta_power(n, i * a) * inv_n for a in range(n)}
        fs.append(smash(n, terms))
    zero = CycScalar.zero(n)
    for i in range(n):
        for j in range(n):
            for m in range(n):
                expected = fs[i].get(((0, 0, 0), m), zero) if i == j else zero
                num, den = expected.power_counts()
                diff = {k: -n * n * v for k, v in num.items()}
                for a in range(n):
                    k = (i * a + j * (m - a)) % n
                    diff[k] = diff.get(k, 0) + den
                if any(power_residue(n, diff)):
                    raise AssertionError(f"idempotent orthogonality failed at ({i},{j})")
    total = {key: sum((f.get(key, zero) for f in fs), zero) for key in set().union(*fs)}
    if smash(n, total) != smash(n, {((0, 0, 0), 0): 1}):
        raise AssertionError("idempotents do not sum to the identity")
    return fs


def nested(x):
    """A flat coded element in the nested form, term for term."""
    den, terms = x
    out: dict = {}
    for (m, j, k), c in terms.items():
        out.setdefault((m, j), {})[k] = c
    return den, out


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


@pytest.mark.parametrize("n", range(2, 13))
def test_flat_products_and_sums_match_nested_kernel(n):
    rng = random.Random(2300 + n)
    for _ in range(25):
        a, b, c = (random_coded(rng, n) for _ in range(3))
        flat = skewgroup._coded_product(n, a, b)
        ref = nested_coded_product(n, nested(a), nested(b))
        assert decode(n, flat) == nested_decode(n, ref)
        assert flat[0] == ref[0]
        three = skewgroup._coded_product(n, flat, c)
        assert decode(n, three) == nested_decode(
            n, nested_coded_product(n, ref, nested(c)))
        total = skewgroup._coded_sum([a, b, c])
        assert decode(n, total) == nested_decode(
            n, nested_coded_sum([nested(a), nested(b), nested(c)]))


@pytest.mark.parametrize("n", range(2, 13))
def test_flat_agree_matches_nested_verdicts(n):
    rng = random.Random(2400 + n)
    verdicts = set()
    for _ in range(25):
        a, b = random_coded(rng, n), random_coded(rng, n)
        prod = skewgroup._coded_product(n, a, b)
        m, j, _ = next(iter(a[1]))
        # prod plus a term that vanishes only in Q(zeta_n), over another denominator.
        shifted = skewgroup._coded_sum([prod, vanishing(n, m, j)])
        reencoded = encode(decode(n, prod))
        for x, y in ((a, b), (prod, reencoded), (prod, shifted), (shifted, reencoded),
                     (a, a), (prod, (1, {}))):
            for scale in (1, -1, 2):
                got = skewgroup._agree(n, x, y, scale)
                assert got == nested_agree(n, nested(x), nested(y), scale)
                verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", range(2, 13))
def test_flat_idempotents_match_cyclotomic_build(n):
    assert [decode(n, f) for f in build_idempotents(n)] == reference_build_idempotents(n)


@pytest.mark.parametrize("n", range(2, 13))
def test_flat_encode_and_decode_match_nested(n):
    rng = random.Random(2500 + n)
    for _ in range(10):
        x = decode(n, random_coded(rng, n))
        assert nested(encode(x)) == nested_encode(x)
        assert decode(n, encode(x)) == x
