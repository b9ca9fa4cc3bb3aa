"""The character twist against the vertex-by-vertex products it replaced.

The skew-group check makes each vertex-indexed identity at vertex 0 and
carries it to vertex i by the twist phi_i (``skewgroup._twist``:
x^k (m # g^j) -> x^(k + ij) (m # g^j)).  Here every identity that the
check once made at every vertex is formed again by ``_coded_product``,
one vertex at a time, and must agree mod Phi_n with the phi_i image of
its vertex-0 value:

- f_i f_j for every (i, j), against phi_i(f_0 f_(j-i));
- g^t f_j for every (t, j), against phi_j(g^t f_0) = x^(tj) g^t f_j;
- both forms of each cap, f_i (u#1) = (u#1) f_(i+1) and
  (d#1) f_i = f_(i+1) (d#1), against phi_i of vertex 0's;
- both relation pairs at every vertex, against phi_i of vertex 0's;
- the generator identity f_i (m # 1) = m # f_(i+w(m)) at every vertex.

The three checks of ``build_idempotents`` each fail on a tamper of their
own, which passes the checks before it: f_2 rewritten with its value kept
fails only the exact twist check, every f_i doubled fails orthogonality,
and every f_i zeroed fails completeness.  The rotated labels of
``test_corner_reference.rotate_idempotents`` pass all three and fail
absorption.
"""

import random

import pytest

from quiverdu import skewgroup
from quiverdu.skewgroup import (
    _UNIT,
    _agree,
    _coded_caps,
    _coded_product,
    _monomial,
    _twist,
    build_idempotents,
    monomial_weight,
    verify_quotient_match,
)
from test_corner_reference import f2_rewritten, tamper_idempotents
from test_skewgroup import monomials_of_degree

U, D = (1, 0, 0), (0, 0, 1)


def times_x(n, e, a):
    """x^e a: every power of x raised by e."""
    den, terms = a
    return den, {(m, j, (k + e) % n): c for (m, j, k), c in terms.items()}


def random_coded(n, rng):
    """A coded smash element with up to four terms of degree at most 2."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        m = rng.choice(monomials_of_degree(rng.randint(0, 2)))
        terms[(m, rng.randrange(n), rng.randrange(n))] = rng.randint(-3, 3)
    return rng.randint(1, 3), terms


@pytest.mark.parametrize("n", range(2, 8))
def test_twist_is_an_automorphism_that_fixes_m_1(n):
    rng = random.Random(370 + n)
    phi = lambda i, a: _twist(n, i, a)
    for _ in range(10):
        a, b = random_coded(n, rng), random_coded(n, rng)
        for i in range(n):
            # Exactly on coded forms, not only mod Phi_n.
            assert phi(i, _coded_product(n, a, b)) == _coded_product(n, phi(i, a), phi(i, b))
            assert phi(n - i, phi(i, a)) == phi(0, a) == a
            assert phi(i, phi(1, a)) == phi(i + 1, a)
    for k in range(4):
        for m in monomials_of_degree(k):
            assert all(phi(i, _monomial(m)) == _monomial(m) for i in range(n))
    # phi_i keeps agreement mod Phi_n: (1 + x + ... + x^(n-1)) g maps to 0.
    g = _monomial(_UNIT, 1)
    vanishing = (1, {(_UNIT, 1, k): 1 for k in range(n)})
    for i in range(n):
        assert _agree(n, phi(i, vanishing), (1, {}))
        assert not _agree(n, phi(i, g), (1, {}))
        assert _agree(n, phi(i, g), times_x(n, i, g))


def vertex_identities(n, fs):
    """The parent check's identities at every vertex, each formed by ``_coded_product``."""
    u, d = _monomial(U), _monomial(D)
    caps = {"U": [_coded_product(n, fs[i], u) for i in range(n)],
            "U other": [_coded_product(n, u, fs[(i + 1) % n]) for i in range(n)],
            "D": [_coded_product(n, d, fs[i]) for i in range(n)],
            "D other": [_coded_product(n, fs[(i + 1) % n], d) for i in range(n)]}
    us, ds = caps["U"], caps["D"]
    du = [_coded_product(n, ds[i], us[i]) for i in range(n)]
    ud = [_coded_product(n, us[i], ds[i]) for i in range(n)]
    relations = []
    for i in range(n):
        h, j = (i - 1) % n, (i + 1) % n
        relations.append(((_coded_product(n, du[h], us[i]), _coded_product(n, us[i], ud[j])),
                          (_coded_product(n, ds[i], du[h]), _coded_product(n, ud[j], ds[i]))))
    return caps, relations


@pytest.mark.parametrize("n", range(2, 13))
def test_every_vertex_identity_is_the_twist_of_its_vertex_0_value(n):
    fs = build_idempotents(n)
    phi = lambda i, a: _twist(n, i, a)
    zero = (1, {})
    for i in range(n):
        assert phi(i, fs[0]) == fs[i]
        for j in range(n):
            product = _coded_product(n, fs[i], fs[j])
            assert _agree(n, product, phi(i, _coded_product(n, fs[0], fs[(j - i) % n])))
            assert _agree(n, product, fs[i] if i == j else zero)
    for t in range(n):
        g = _monomial(_UNIT, t)
        at_0 = _coded_product(n, g, fs[0])
        for j in range(n):
            product = _coded_product(n, g, fs[j])
            assert _agree(n, times_x(n, t * j, product), phi(j, at_0))
            assert _agree(n, product, times_x(n, -t * j, fs[j]))
    caps, relations = vertex_identities(n, fs)
    us, ds, agree = _coded_caps(n, fs)
    assert agree
    for i in range(n):
        for form in caps.values():
            assert _agree(n, form[i], phi(i, form[0]))
        assert _agree(n, caps["U"][i], caps["U other"][i]) and _agree(n, caps["U"][i], us[i])
        assert _agree(n, caps["D"][i], caps["D other"][i]) and _agree(n, caps["D"][i], ds[i])
        for (a, b), (a0, b0) in zip(relations[i], relations[0], strict=True):
            assert _agree(n, a, phi(i, a0)) and _agree(n, b, phi(i, b0))
            assert _agree(n, a, b, -1) and not _agree(n, a, b, 1)
        for m in (_UNIT, D, U):
            left = _coded_product(n, fs[i], _monomial(m))
            assert _agree(n, left, phi(i, _coded_product(n, fs[0], _monomial(m))))
            den, f = fs[(i + monomial_weight(m)) % n]
            assert _agree(n, left, (den, {(m, t, e): c for (_, t, e), c in f.items()}))
    report = verify_quotient_match(n, max_degree=3)
    assert report.ok and report.relation_kill == {1: False, -1: True}


@pytest.mark.parametrize("tamper, message", [
    (f2_rewritten, r"phi_1\(f_k\) != f_\(k\+1\) at k=1"),
    (lambda n, i, f: (f[0], {key: 2 * c for key, c in f[1].items()}),
     r"orthogonality failed at \(0,0\)"),
    (lambda n, i, f: (1, {}), "idempotents do not sum to the identity"),
], ids=["f2-rewritten", "every-f-doubled", "every-f-zeroed"])
def test_each_idempotent_check_fails_on_its_own_tamper(tamper, message, monkeypatch):
    # The checks run in the order orthogonality, completeness, twist, so
    # each message shows that the checks before it passed.
    tamper_idempotents(monkeypatch, tamper)
    for n in (3, 4, 7):
        with pytest.raises(AssertionError, match=message):
            build_idempotents(n)


@pytest.mark.parametrize("broken", ["U", "D"])
def test_one_broken_cap_form_fails_the_forms_check(broken, monkeypatch):
    # Only the other form of U_0, (u#1) f_1, or of D_0, f_1 (d#1), is
    # doubled: the caps must still be reported as disagreeing.
    n = 3
    fs = build_idempotents(n)
    genuine = skewgroup._coded_product
    pair = (_monomial(U), fs[1]) if broken == "U" else (fs[1], _monomial(D))

    def product(n_, a, b):
        den, terms = genuine(n_, a, b)
        return (den, {key: 2 * c for key, c in terms.items()}) if (a, b) == pair else (den, terms)

    monkeypatch.setattr(skewgroup, "_coded_product", product)
    assert not _coded_caps(n, fs)[2]
    report = verify_quotient_match(n, max_degree=1)
    assert not report.generator_forms_agree and not report.ok
    assert report.relation_kill == {1: False, -1: True} and report.dimensions_ok
