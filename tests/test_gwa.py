import random
from fractions import Fraction

import pytest

from quiverdu import gwa
from quiverdu.core import Element, Parameters, path_from_word
from quiverdu.gwa import (
    BaseElement,
    GwaElement,
    gwa_multiply,
    pwd_probe_gwa,
    sigma,
    sigma_inverse,
    sigma_power,
    theta,
    theta_prime,
    verify_gwa,
)
from quiverdu.rewrite import PRESET_QDU, build_system, normal_form


def params_n3():
    return Parameters.of(3, [2, -1, "1/3"], [1, 2, "3/2"], ["1/2", 0, 1])


def rand_params(n, rng):
    nz = lambda: Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
    any_ = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Parameters.of(n, [any_() for _ in range(n)], [nz() for _ in range(n)],
                         [any_() for _ in range(n)])


def rand_base(n, rng, deg=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        v = rng.randrange(n)
        a = rng.randint(0, deg)
        b = rng.randint(0, deg - a if deg >= a else 0)
        terms[(v, a, b)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return BaseElement(n, terms)


def test_sigma_on_generators():
    p = params_n3()
    n = 3
    img = sigma(p, BaseElement.y(n, 0))
    expected = (
        BaseElement.y(n, 1).scale(p.alpha[0])
        + BaseElement.x(n, 1).scale(p.beta[0])
        + BaseElement.e(n, 1).scale(p.gamma[0])
    )
    assert img == expected
    assert sigma(p, BaseElement.e(n, 2)) == BaseElement.e(n, 0)
    assert sigma(p, BaseElement.x(n, 0)) == BaseElement.y(n, 1)


def test_sigma_inverse_formula():
    p = params_n3()
    n = 3
    img = sigma_inverse(p, BaseElement.x(n, 1))
    expected = (
        BaseElement.y(n, 0)
        - BaseElement.x(n, 0).scale(p.alpha[0])
        - BaseElement.e(n, 0).scale(p.gamma[0])
    ).scale(1 / p.beta[0])
    assert img == expected


def test_sigma_roundtrip_and_homomorphism():
    rng = random.Random(41)
    p = rand_params(3, rng)
    for _ in range(20):
        b = rand_base(3, rng)
        assert sigma_inverse(p, sigma(p, b)) == b
        c = rand_base(3, rng)
        assert sigma(p, b * c) == sigma(p, b) * sigma(p, c)
    # idempotents are permuted cyclically
    for i in range(3):
        assert sigma(p, BaseElement.e(3, i)) == BaseElement.e(3, (i + 1) % 3)


def test_sigma_inverse_needs_nonzero_beta():
    p = Parameters.of(2, [1, 1], [0, 1], [0, 0])
    with pytest.raises(ValueError):
        sigma_inverse(p, BaseElement.x(2, 0))


def test_sigma_power_negative_needs_nonzero_beta_even_on_zero():
    p = Parameters.of(2, [1, 1], [0, 1], [0, 0])
    for b in (BaseElement.x(2, 0), BaseElement(2, {})):
        with pytest.raises(ValueError):
            sigma_power(p, b, -1)
        with pytest.raises(ValueError):
            sigma_power(p, b, -3)
    assert sigma_power(p, BaseElement.x(2, 0), 2) == sigma(p, sigma(p, BaseElement.x(2, 0)))


def test_sigma_power_zero_returns_argument():
    for p in (params_n3(), Parameters.of(2, [1, 1], [0, 1], [0, 0])):
        b = BaseElement(p.n, {(0, 2, 1): Fraction(3, 4)})
        assert sigma_power(p, b, 0) is b


def test_gwa_multiply_needs_nonzero_beta():
    p = Parameters.of(3, [1, 1, 1], [1, 0, 1], [0, 0, 0])
    with pytest.raises(ValueError):
        gwa_multiply(p, GwaElement.x_minus(3), GwaElement.x_plus(3))
    with pytest.raises(ValueError):
        gwa_multiply(p, GwaElement(3, {}), GwaElement(3, {}))


def test_gwa_caches_are_bounded_lru_caches():
    caches = [obj for obj in vars(gwa).values() if hasattr(obj, "cache_clear")]
    assert caches
    for cache in caches:
        assert cache.cache_info().maxsize is not None


def x_total(n):
    """x = sum_v x_v in R."""
    return BaseElement(n, {(v, 1, 0): Fraction(1) for v in range(n)})


def test_gwa_contractions():
    p = params_n3()
    n = 3
    xm = GwaElement.x_minus(n)
    xp = GwaElement.x_plus(n)
    assert gwa_multiply(p, xm, xp) == GwaElement.from_base(x_total(n))
    prod = gwa_multiply(p, GwaElement.x_plus(n, 0), GwaElement.x_minus(n, 0))
    assert prod == GwaElement.from_base(BaseElement.y(n, 1))
    prod2 = gwa_multiply(p, GwaElement.x_minus(n, 0), GwaElement.x_plus(n, 0))
    assert prod2 == GwaElement.from_base(BaseElement.x(n, 0))


def test_gwa_skew_commutation():
    p = params_n3()
    n = 3
    y0 = GwaElement.from_base(BaseElement.y(n, 0))
    lhs = gwa_multiply(p, GwaElement.x_plus(n), y0)
    rhs = gwa_multiply(p, GwaElement.from_base(sigma(p, BaseElement.y(n, 0))), GwaElement.x_plus(n))
    assert lhs == rhs


def test_gwa_associative():
    rng = random.Random(43)
    p = rand_params(3, rng)
    n = 3
    def rand_gwa():
        terms = {}
        for _ in range(2):
            m = rng.randint(-2, 2)
            b = rand_base(n, rng, deg=1, nterms=2)
            if b:
                terms[m] = terms.get(m, BaseElement.zero(n)) + b
        return GwaElement(n, terms)
    for _ in range(10):
        a, b, c = rand_gwa(), rand_gwa(), rand_gwa()
        assert gwa_multiply(p, gwa_multiply(p, a, b), c) == gwa_multiply(p, a, gwa_multiply(p, b, c))


def test_theta_on_generators_and_relations():
    p = params_n3()
    n = 3
    ud = Element.from_path(path_from_word(n, 0, "ud"))
    assert theta(p, ud) == GwaElement.from_base(BaseElement.x(n, 0))
    du = Element.from_path(path_from_word(n, 1, "du"))  # d_0 u_0
    assert theta(p, du) == GwaElement.from_base(BaseElement.y(n, 1))
    sys = build_system(PRESET_QDU, p)
    for rule in sys.rules:
        assert theta(p, rule.as_relation()).is_zero()


def test_theta_requires_nonzero_beta():
    p = Parameters.of(3, [0, 0, 0], [0, 1, 1], [0, 0, 0])
    with pytest.raises(ValueError):
        theta(p, Element.identity(3))


def test_theta_prime_inverse_on_base():
    p = params_n3()
    n = 3
    assert theta_prime(p, GwaElement.from_base(BaseElement.y(n, 1))) == Element.from_path(
        path_from_word(n, 1, "du"))
    assert theta_prime(p, GwaElement.from_base(BaseElement.x(n, 0))) == Element.from_path(
        path_from_word(n, 0, "ud"))


def test_roundtrip_random_elements():
    rng = random.Random(47)
    p = rand_params(3, rng)
    sys = build_system(PRESET_QDU, p)
    for _ in range(8):
        terms = {}
        for _ in range(3):
            src = rng.randrange(3)
            word = "".join(rng.choice("ud") for _ in range(rng.randint(0, 5)))
            terms[path_from_word(3, src, word)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        a = Element(3, terms)
        assert theta_prime(p, theta(p, a)) == normal_form(sys, a)


def test_theta_prime_multiplicative_on_samples():
    rng = random.Random(137)
    p = rand_params(3, rng)
    from quiverdu.rewrite import PRESET_QDU, build_system, normal_form

    sys = build_system(PRESET_QDU, p)

    def rand_gwa():
        terms = {}
        for _ in range(2):
            m = rng.randint(-2, 2)
            b = rand_base(3, rng, deg=1, nterms=2)
            if b:
                terms[m] = terms.get(m, b.__class__.zero(3)) + b
        return GwaElement(3, terms)

    for _ in range(8):
        a, b = rand_gwa(), rand_gwa()
        lhs = theta_prime(p, gwa_multiply(p, a, b))
        rhs = normal_form(sys, theta_prime(p, a) * theta_prime(p, b))
        assert lhs == rhs


def test_grading_intertwined():
    rng = random.Random(53)
    p = rand_params(3, rng)
    for _ in range(10):
        src = rng.randrange(3)
        word = "".join(rng.choice("ud") for _ in range(rng.randint(0, 5)))
        path = path_from_word(3, src, word)
        img = theta(p, Element.from_path(path))
        assert not img.is_zero()
        assert set(img.x_degrees()) == {word.count("d") - word.count("u")}  # +1 per d, -1 per u


def test_pwd_probe_trivial_and_random():
    p = params_n3()
    e0 = GwaElement.from_base(BaseElement.e(3, 0))
    assert not gwa_multiply(p, e0, e0).is_zero()
    report = pwd_probe_gwa(p, degree_bound=3, trials=50, seed=11)
    assert report.ok, report.failures


@pytest.mark.parametrize("n", range(1, 13))
def test_corner_draws_stay_within_the_degree_bound(n):
    # A corner (i, k) whose residue i - k mod n has no X-degree within the
    # bound draws None; every other draw is nonzero, with every term there.
    params = Parameters.of(n, [1] * n, [2] * n, [0] * n)
    for degree_bound in range(5):
        rng = random.Random(degree_bound)
        for i in range(n):
            for k in range(n):
                degrees = [m for m in range(-degree_bound, degree_bound + 1)
                           if m % n == (i - k) % n]
                for _ in range(4):
                    drawn = gwa._random_corner_element(params, i, k, rng, degree_bound)
                    if not degrees:
                        assert drawn is None
                        continue
                    assert drawn and set(drawn) <= set(degrees), (i, k, degree_bound)


def test_pwd_probe_counts_untested_trials():
    # n = 9 with bound 3: residues 4 and 5 have no X-degree in [-3, 3], so
    # some trials test nothing; with bound 0 only i = k = j is tested, and
    # a probe that tests nothing does not pass.
    n = 9
    p = Parameters.of(n, [1, 2, 3, "1/2", 0, -1, 2, 1, 5], [2, 3, "-3/2", 1, 7, -1, 2, "1/3", 4],
                      [1, 0, 2, 1, "1/2", 3, 1, 0, 2])
    report = pwd_probe_gwa(p, trials=200, seed=0)
    assert 0 < report.tested < report.trials and report.ok
    empty = pwd_probe_gwa(p, degree_bound=0, trials=2, seed=0)
    assert (empty.tested, empty.failures, empty.ok) == (0, [], False)


def test_pwd_probe_deterministic_under_seed():
    p = params_n3()
    r1 = pwd_probe_gwa(p, trials=20, seed=5)
    r2 = pwd_probe_gwa(p, trials=20, seed=5)
    assert r1 == r2


def test_verify_gwa_full():
    rng = random.Random(59)
    for _ in range(2):
        p = rand_params(3, rng)
        report = verify_gwa(p, trials=30, seed=7)
        assert report.ok


def test_verify_gwa_degenerate_n():
    rng = random.Random(61)
    for n in (1, 2):
        p = rand_params(n, rng)
        report = verify_gwa(p, trials=20, seed=3)
        assert report.ok


def test_verify_gwa_fails_when_theta_misses_one_relation(monkeypatch):
    # theta of one relation's leading word is off by X_0^+ = e_1 X^+, while
    # every other relation still maps to zero, so a check that needed only
    # some of them to vanish would pass.  The round trips read no word of
    # length 3, so they still pass.
    params = params_n3()
    tables = gwa._tables(build_system(PRESET_QDU, params))
    real = gwa._theta_word
    for leading in zip(tables.sources, (lhs for lhs, _ in tables.rules)):

        def theta_missing_one(table, source, word, leading=leading):
            image = real(table, source, word)
            return {**image, 1: (1, {(1, 0, 0): 1})} if (source, word) == leading else image

        monkeypatch.setattr(gwa, "_theta_word", theta_missing_one)
        report = verify_gwa(params, trials=20)
        assert not report.relations_killed and not report.ok
        assert report.roundtrip_arrows and report.roundtrip_base and report.grading_ok and report.pwd.ok
