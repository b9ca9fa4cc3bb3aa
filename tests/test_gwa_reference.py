"""The GWA kernel against ``oracle.Gwa``, which works from T's definition.

``oracle.Gwa`` substitutes sigma's defining formulas into each monomial
and multiplies in T one generator at a time, from X^+- r = sigma^+-1(r)
X^+-, X^- X^+ = x and X^+ X^- = sigma(x) alone.  The kernel's shift table
(generator images stepped by m, cached monomial images and cross
factors), its coded product and theta must give the same values, on
random parameters with denominators and gamma = 0 or not.

T is a piecewise domain by the proof of ``verify_gwa``, which replaced a
domain probe of sampled products.  ``reference_random_corner_element``
keeps that probe's draws, on ``random.Random``, and ``sampled_failures``
multiplies them with the oracle: wherever the proof holds, no drawn
product vanishes or drops its top degree.  The kernel's product takes the
same draws: the domain lemma (the top part of a b vanishes exactly when
cross(top a, top b) lacks a's vertex) decides each one, and with cross
factors or sigma broken it fails on the same trials as the oracle's
product broken alike.  What the proof derives from
sigma's injectivity (every cross factor has every vertex) is checked
against the oracle, and a sigma that is not injective must fail
``sigma_is_automorphism``.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from quiverdu import cli, gwa
from quiverdu.core import Element, Parameters, path_from_word
from quiverdu.gwa import (BaseElement, GwaElement, _coded_multiply, _gwa_table, _shift_table,
                          sigma_is_automorphism, theta, verify_gwa)
from test_oracle import names


# ---------------------------------------------------------------------------
# Translation between the kernel and the oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def oracle_of(params: Parameters) -> oracle.Gwa:
    """One oracle per parameter vector, so its normal forms are memoized across calls."""
    return oracle.Gwa(params.n, params.alpha, params.beta, params.gamma)


def coded(r: dict) -> tuple[int, dict]:
    """An element of R, {(v, a, b): Fraction}, as the kernel's (den, numerators)."""
    den = lcm(*(Fraction(c).denominator for c in r.values()))
    return den, {k: int(c * den) for k, c in r.items()}


def decoded(value: tuple[int, dict]) -> dict:
    den, nums = value
    return {k: Fraction(c, den) for k, c in nums.items() if c}


def coded_t(t: dict) -> dict:
    return {m: coded(r) for m, r in t.items()}


def decoded_t(t: dict) -> dict:
    return {m: r for m, value in t.items() if (r := decoded(value))}


def as_oracle(t: GwaElement) -> dict:
    return {m: dict(r.terms) for m, r in t.terms.items()}


def as_gwa_element(n: int, t: dict) -> GwaElement:
    return GwaElement(n, {m: BaseElement(n, r) for m, r in t.items()})


def kernel_sigma(params: Parameters, r: dict, m: int) -> dict:
    """sigma^m(r) from the shift table: the generator images at m, then one substitution per monomial."""
    table = _shift_table(params)
    table.images(m)  # refuses m < 0 without sigma^-1
    return decoded(table.shift(coded(r), m)) if m and r else r


# ---------------------------------------------------------------------------
# sigma^m, the cross factors and the product
# ---------------------------------------------------------------------------

# Denominators up to 7 and numerators other than +-1, so 1/beta has
# denominators; zero is drawn often for alpha and gamma, and gamma is
# drawn as the zero vector or entrywise.
RATIONALS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))
WIDE = st.one_of(st.just(Fraction(0)), RATIONALS)


@st.composite
def parameters(draw, beta=RATIONALS):
    n = draw(st.integers(1, 4))
    vec = lambda s: st.lists(s, min_size=n, max_size=n)
    gamma = draw(st.one_of(st.just([0] * n), vec(WIDE)))
    return Parameters.of(n, draw(vec(WIDE)), draw(vec(beta)), gamma)


def base_elements(n, max_size=4):
    """Elements of R of degree <= 4."""
    monomials = st.tuples(st.integers(0, n - 1), st.integers(0, 4), st.integers(0, 4)).filter(
        lambda t: t[1] + t[2] <= 4)
    return st.dictionaries(monomials, RATIONALS, max_size=max_size)


def gwa_elements(n):
    return st.dictionaries(st.integers(-3, 3), base_elements(n, max_size=3).filter(bool), max_size=3)


@st.composite
def sigma_cases(draw, beta=RATIONALS, powers=st.integers(-5, 5)):
    params = draw(parameters(beta))
    return params, draw(base_elements(params.n)), draw(powers)


@settings(max_examples=200, deadline=None)
@given(sigma_cases())
@example((Parameters.of(2, [Fraction(2, 7), 0], [Fraction(-3, 5), Fraction(9, 4)], [0, 0]),
          {(0, 2, 1): Fraction(5, 7), (1, 0, 3): -3, (0, 0, 0): 1}, -4))
@example((Parameters.of(3, [0, 2, 1], [Fraction(-1, 2), 1, Fraction(3, 4)], [1, 0, -1]),
          {(0, 2, 2): 1, (1, 0, 3): Fraction(3, 4), (2, 0, 0): -1}, -5))
def test_shift_matches_the_oracle(case):
    # One shift table per parameter set is shared across calls, so the
    # draws hit both fresh and already-filled tables.
    params, r, m = case
    assert kernel_sigma(params, r, m) == oracle_of(params).sigma(r, m)


@settings(max_examples=60, deadline=None)
@given(sigma_cases(beta=WIDE, powers=st.integers(0, 5)))
def test_shift_without_inverse_matches_the_oracle(case):
    # sigma^m for m >= 0 needs no inverse, so beta_i = 0 is allowed here.
    params, r, m = case
    assert kernel_sigma(params, r, m) == oracle_of(params).sigma(r, m)


def test_shift_refuses_negative_powers_without_inverse():
    params = Parameters.of(2, [1, 1], [0, 1], [0, 0])
    for r in ({(0, 1, 0): Fraction(1)}, {}):
        for m in (-1, -3):
            with pytest.raises(ValueError, match="not invertible"):
                kernel_sigma(params, r, m)


@pytest.mark.parametrize("n", range(1, 7))
def test_shift_matches_the_oracle_on_a_grid(n):
    rng = random.Random(n)
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3, 4)]
    params = Parameters.of(n, [rng.choice(values) for _ in range(n)],
                           [rng.choice(values[1:]) for _ in range(n)],
                           [rng.choice(values) for _ in range(n)])
    _shift_table.cache_clear()
    t = oracle_of(params)
    elements = [t.e(n - 1), t.x(0), t.y(n - 1), {(0, 2, 1): Fraction(3, 4), (n - 1, 0, 2): -1},
                {(v, 1, 1): v + 1 for v in range(n)}, {(n // 2, 0, 0): 2, (n // 2, 3, 0): Fraction(-1, 2)}]
    for m in (6, -6, *range(-5, 6)):
        for r in elements:
            assert kernel_sigma(params, r, m) == t.sigma(r, m), (m, r)


@settings(max_examples=80, deadline=None)
@given(parameters(), st.integers(-5, 5), st.integers(-5, 5))
def test_coded_cross_matches_the_oracle(params, m1, m2):
    # X^{m1} X^{m2} = cross(m1, m2) X^{m1 + m2}.
    t = oracle_of(params)
    one = t.combine((t.e(v), 1) for v in range(params.n))
    den, nums, at = _shift_table(params).coded_cross(m1, m2)
    assert t.times({m1: one}, {m2: one}) == {m1 + m2: decoded((den, nums))}
    assert at == {v: [(a, b, c) for (w, a, b), c in nums.items() if w == v] for v in {w for w, _, _ in nums}}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coded_multiply_matches_the_oracle(data):
    params = data.draw(parameters())
    a, b = data.draw(gwa_elements(params.n)), data.draw(gwa_elements(params.n))
    product = _coded_multiply(_gwa_table(params), coded_t(a), coded_t(b))
    assert decoded_t(product) == oracle_of(params).times(a, b)


def test_coded_gwa_multiply_strips_cancelled_sums_in_place():
    # n = 1, alpha = gamma = 0, beta = 1: sigma swaps x and y.  The parts at
    # X^0 are x y + e, then -x y (from X^-1 * X^1), then x y (from X^1 *
    # X^-1).  The sum strips x y when it cancels, so x y comes back after
    # e; a sum that kept the zero would leave it first.
    params = Parameters.of(1, [0], [1], [0])
    e = {(0, 0, 0): Fraction(1)}
    a = {0: e, -1: e, 1: e}
    b = {0: {(0, 1, 1): Fraction(1), (0, 0, 0): Fraction(1)}, 1: {(0, 1, 0): Fraction(-1)},
         -1: {(0, 0, 1): Fraction(1)}}
    product = _coded_multiply(_gwa_table(params), coded_t(a), coded_t(b))
    assert list(product[0][1]) == [(0, 0, 0), (0, 1, 1)]
    assert decoded_t(product) == oracle_of(params).times(a, b)


def test_coded_gwa_multiply_sums_parts_over_different_denominators():
    # The parts at X^0 are x/3 and, from X^1 * X^-1, y/5: the sum must
    # bring x/3 to the common denominator 15 before adding y/5.
    params = Parameters.of(1, [Fraction(1, 2)], [Fraction(3, 2)], [Fraction(-2, 7)])
    e = {(0, 0, 0): Fraction(1)}
    a, b = {0: e, 1: e}, {0: {(0, 1, 0): Fraction(1, 3)}, -1: {(0, 0, 0): Fraction(1, 5)}}
    product = _coded_multiply(_gwa_table(params), coded_t(a), coded_t(b))
    assert decoded_t(product)[0] == {(0, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(1, 5)}
    assert decoded_t(product) == oracle_of(params).times(a, b)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_coded_theta_matches_generator_at_a_time_reference(n):
    # Denominators up to 7 in every parameter, gamma zero in every third
    # draw, words up to length 9 (so X-exponents up to +-9) and relations,
    # whose images cancel to zero.
    rng = random.Random(1800 + n)
    rational = lambda: Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 7))
    for draw in range(12):
        gamma = [Fraction(0)] * n if draw % 3 == 0 else [rational() * rng.randint(0, 1) for _ in range(n)]
        params = Parameters.of(n, [rational() * rng.randint(0, 1) for _ in range(n)],
                               [rational() for _ in range(n)], gamma)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = "".join(rng.choice("ud") for _ in range(rng.randint(0, 9)))
            terms[path_from_word(n, rng.randrange(n), word)] = rational()
        t = oracle_of(params)
        for a in (Element(n, terms), *(rule.as_relation() for rule in
                                        gwa.build_system(gwa.PRESET_QDU, params).rules)):
            assert as_oracle(theta(params, a)) == t.theta({(p.source, names(p)): c for p, c in a.terms.items()})


def test_coded_theta_refuses_zero_beta():
    params = Parameters.of(2, [1, 1], [0, 1], [0, 0])
    with pytest.raises(ValueError, match="theta requires"):
        theta(params, Element.from_path(path_from_word(2, 0, "u")))


# ---------------------------------------------------------------------------
# The sampled products of the deleted domain probe, against the proof
# ---------------------------------------------------------------------------

def reference_random_corner_element(params: Parameters, i: int, k: int, rng: random.Random,
                                    degree_bound: int) -> dict | None:
    """Nonzero random element of e_i T e_k with bounded degrees: the draw of the domain probe
    that the proof replaced.  None when no X-degree m = i - k mod n has |m| <= ``degree_bound``."""
    n = params.n
    terms: dict[int, dict] = {}
    residue = (i - k) % n
    choices = [m for m in range(-degree_bound, degree_bound + 1) if m % n == residue]
    for m in rng.sample(choices, k=min(len(choices), rng.randint(1, 2))):
        poly: dict[tuple[int, int, int], Fraction] = {}
        for _ in range(rng.randint(1, 2)):
            a = rng.randint(0, max(0, degree_bound - 1))
            b = rng.randint(0, max(0, degree_bound - 1 - a))
            c = Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 3))
            poly[(i, a, b)] = poly.get((i, a, b), Fraction(0)) + c
        base = {key: c for key, c in poly.items() if c}
        if base:
            terms[m] = base
    if not choices:
        return None
    if not terms:
        terms[residue if residue <= degree_bound else residue - n] = {(i, 0, 0): Fraction(1)}
    return terms


def sampled_trials(params: Parameters, degree_bound: int, trials: int, seed: int):
    """(trial, i, a, b) for each tested trial of the probe's draws, a in e_i T e_k and b in
    e_k T e_j; a trial with a corner that has no X-degree within the bound tests nothing."""
    rng, n = random.Random(seed), params.n
    for trial in range(trials):
        i, k, j = (rng.randrange(n) for _ in range(3))
        a = reference_random_corner_element(params, i, k, rng, degree_bound)
        b = reference_random_corner_element(params, k, j, rng, degree_bound)
        if a is not None and b is not None:
            yield trial, i, a, b


def failure_kind(a: dict, b: dict, product: dict) -> str | None:
    """How the product a b fails: it vanishes, or its top X-degree is not the sum of the factors'."""
    if not product:
        return "zero product"
    return "top degree dropped" if max(product) != max(a) + max(b) else None


def kernel_times(params: Parameters):
    """The kernel's product in T, on the oracle's dicts."""
    table = _gwa_table(params)
    return lambda a, b: decoded_t(_coded_multiply(table, coded_t(a), coded_t(b)))


def oracle_times_without(params: Parameters, vanishing):
    """The oracle's product in T with the parts X^{m1} X^{m2} that ``vanishing`` names left out."""
    t = oracle_of(params)
    return lambda a, b: t.t_sum((t.times({m1: r}, {m2: s}), 1) for m1, r in a.items()
                                for m2, s in b.items() if not vanishing(m1, m2))


def sampled_failures(params: Parameters, degree_bound: int = 3, trials: int = 200,
                     seed: int = 0, times=None) -> tuple[int, list]:
    """(tested, failures) of the sampled probe, each product taken whole by ``times``, the
    oracle's product unless given: a trial fails as a zero product or a dropped top degree."""
    times = times or oracle_of(params).times
    failures, tested = [], 0
    for trial, _, a, b in sampled_trials(params, degree_bound, trials, seed):
        tested += 1
        if kind := failure_kind(a, b, times(a, b)):
            failures.append((trial, kind))
    return tested, failures


PROBE_PARAMS = [
    Parameters.of(1, [Fraction(1, 2)], [Fraction(-3, 7)], [2]),
    Parameters.of(3, [2, Fraction(1, 2), 5], [7, Fraction(-3, 2), 13], [1, 2, Fraction(1, 3)]),
    Parameters.of(4, [0] * 4, [-1] * 4, [0] * 4),
]

# The generic n = 9 config of the CI's GWA step: gamma != 0, and the
# corners with residue 4 or 5 have no X-degree within bound 3.
N9 = Parameters.of(9, ["1", "2", "3", "1/2", "0", "-1", "2", "1", "5"],
                   ["2", "3", "-3/2", "1", "7", "-1", "2", "1/3", "4"],
                   ["1", "0", "2", "1", "1/2", "3", "1", "0", "2"])


@pytest.mark.parametrize("params", PROBE_PARAMS + [N9], ids=lambda p: f"n{p.n}")
def test_sampled_products_in_T_are_nonzero_where_the_proof_holds(params):
    # The old draws at bounds 0..5 and many seeds: the proof holds, and no
    # drawn product in T, taken by the oracle, vanishes or drops its top degree.
    _shift_table.cache_clear()
    assert verify_gwa(params).proves_pwd
    tested = 0
    for degree_bound in range(6):
        for seed in range(6):
            count, failures = sampled_failures(params, degree_bound, trials=40, seed=seed)
            assert failures == [], (degree_bound, seed)
            tested += count
    assert tested > 0


def lemma_configs(n: int) -> list[Parameters]:
    """Random beta != 0 configs at n: with gamma = 0, and with alpha and gamma entrywise."""
    rng = random.Random(3400 + n)
    rational = lambda: Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 7))
    maybe = lambda: [rational() * rng.randint(0, 1) for _ in range(n)]
    return [Parameters.of(n, maybe(), [rational() for _ in range(n)], [0] * n),
            Parameters.of(n, maybe(), [rational() for _ in range(n)], maybe())]


@pytest.mark.parametrize("n", range(1, 7))
def test_sampled_products_on_random_configs(n):
    for params in lemma_configs(n):
        _shift_table.cache_clear()
        assert verify_gwa(params).proves_pwd
        assert sampled_failures(params, degree_bound=3, trials=60, seed=n)[1] == []


@pytest.fixture
def oracle_sigma_kills_x0(monkeypatch):
    """The oracle's sigma(x_0) = 0."""
    genuine = oracle.Gwa._images

    def images(self, v, sign):
        e, x, y = genuine(self, v, sign)
        return (e, {}, y) if sign > 0 and v == 0 else (e, x, y)

    monkeypatch.setattr(oracle.Gwa, "_images", images)
    oracle_of.cache_clear()
    yield
    oracle_of.cache_clear()


def test_sampled_products_catch_a_sigma_that_is_not_injective(oracle_sigma_kills_x0):
    # The differential can fail: with the oracle's sigma(x_0) = 0, X^+ X^- =
    # sigma(x) has no e_1-component, and some drawn products vanish or drop
    # their top degree.
    failures = sampled_failures(PROBE_PARAMS[1], degree_bound=3, trials=200, seed=0)[1]
    assert {kind for _, kind in failures} == {"zero product", "top degree dropped"}


def test_kernel_sampled_products_fail_as_the_oracle_when_sigma_is_not_injective(
        oracle_sigma_kills_x0, sigma_kills_x0):
    # The same sigma(x_0) = 0 in the kernel's shift table and in the oracle:
    # the kernel's drawn products fail on the same trials in the same way.
    params = PROBE_PARAMS[1]
    got = sampled_failures(params, degree_bound=3, trials=200, seed=0, times=kernel_times(params))
    assert got[1] and got == sampled_failures(params, degree_bound=3, trials=200, seed=0)


# ---------------------------------------------------------------------------
# Broken cross factors: the kernel's product and the domain lemma
# ---------------------------------------------------------------------------

GENERIC3 = {"n": 3, "alpha": ["2", "1/2", "5"], "beta": ["7", "-3/2", "13"],
            "gamma": ["1", "2", "1/3"]}


def patch_cross(monkeypatch, vanishes):
    """Every shift table rebuilt with cross(m1, m2) = 0 where ``vanishes(m1, m2)``, and so
    with every cross factor that the table builds on those."""
    genuine = gwa._ShiftTable.coded_cross
    monkeypatch.setattr(gwa._ShiftTable, "coded_cross", lambda self, m1, m2: (
        (1, {}, {}) if vanishes(m1, m2) else genuine(self, m1, m2)))
    _shift_table.cache_clear()


@pytest.fixture
def broken_cross(monkeypatch):
    """cross(3, -2) = 0, and so every cross(3 + k, -2 - k) built on it.  theta multiplies by
    X^{+-1} only, so the proof never reads it."""
    patch_cross(monkeypatch, lambda m1, m2: (m1, m2) == (3, -2))
    yield
    _shift_table.cache_clear()


@pytest.fixture
def opposite_crosses_vanish(monkeypatch):
    """cross(m1, m2) = 0 whenever m1 and m2 have opposite signs."""
    patch_cross(monkeypatch, lambda m1, m2: m1 * m2 < 0)
    yield
    _shift_table.cache_clear()


@pytest.fixture
def vertex_one_vanishes(monkeypatch):
    """The e_1-component of cross(m1, m2) is 0 whenever m1 and m2 have opposite signs, and
    only that one: a lookup at a vertex other than the product's would miss it."""
    genuine = gwa._ShiftTable.coded_cross

    def coded_cross(self, m1, m2):
        den, nums, at = genuine(self, m1, m2)
        if m1 * m2 < 0:
            nums = {key: c for key, c in nums.items() if key[0] != 1 % self.params.n}
            at = {v: terms for v, terms in at.items() if v != 1 % self.params.n}
        return den, nums, at

    monkeypatch.setattr(gwa._ShiftTable, "coded_cross", coded_cross)
    _shift_table.cache_clear()
    yield
    _shift_table.cache_clear()


@pytest.fixture(params=["genuine", "broken_cross", "opposite_crosses_vanish", "vertex_one_vanishes"])
def cross_factors(request):
    """The genuine shift tables, and each fixture above that breaks cross factors."""
    if request.param != "genuine":
        request.getfixturevalue(request.param)
    return request.param


@pytest.mark.parametrize("params", PROBE_PARAMS + [N9], ids=lambda p: f"n{p.n}")
def test_lemma_lookup_decides_each_trial_as_the_top_product(params, cross_factors):
    # The lemma the proof rests on, in the kernel's T: for a in e_i T e_k and
    # b in e_k T e_j, the top part of a b is a_top sigma^{ma}(b_top)
    # cross(ma, mb), nonzero exactly when cross(ma, mb) has an e_i-component.
    # Every drawn trial at bounds 0..5 and many seeds, with genuine or broken
    # cross factors; broken ones make some drawn products fail.
    table, times = _gwa_table(params), kernel_times(params)
    failed = 0
    for degree_bound in range(6):
        for seed in range(12):
            for trial, i, a, b in sampled_trials(params, degree_bound, 40, seed):
                top_a, top_b = max(a), max(b)
                top = _coded_multiply(table, {top_a: coded(a[top_a])}, {top_b: coded(b[top_b])})
                assert bool(top) == (i in table.coded_cross(top_a, top_b)[2]), (degree_bound, seed, trial)
                failed += failure_kind(a, b, times(a, b)) is not None
    assert (failed > 0) == (cross_factors != "genuine")


def test_kernel_products_see_a_broken_cross_factor(broken_cross):
    # Same failed trials and kinds as the oracle's products with the parts
    # that build on cross(3, -2) left out.
    params = Parameters.of(3, GENERIC3["alpha"], GENERIC3["beta"], GENERIC3["gamma"])
    tested, failures = sampled_failures(params, trials=200, seed=4, times=kernel_times(params))
    assert failures and {kind for _, kind in failures} <= {"zero product", "top degree dropped"}
    vanishing = lambda m1, m2: m1 >= 3 and m1 + m2 == 1
    assert (tested, failures) == sampled_failures(params, trials=200, seed=4,
                                                  times=oracle_times_without(params, vanishing))


@pytest.mark.parametrize("params", PROBE_PARAMS)
def test_kernel_failures_classify_as_the_oracle(params, opposite_crosses_vanish):
    # A top pair of opposite signs vanishes: the trial fails, as a zero
    # product when every pair has opposite signs and as a dropped top degree
    # when a lower pair survives; the kernel's product fails on the same
    # trials in the same way as the oracle's with those pairs left out.
    kinds = set()
    for degree_bound in (1, 2, 3, 4):
        got = sampled_failures(params, degree_bound, trials=100, seed=degree_bound,
                               times=kernel_times(params))
        assert got == sampled_failures(params, degree_bound, trials=100, seed=degree_bound,
                                       times=oracle_times_without(params, lambda m1, m2: m1 * m2 < 0))
        kinds.update(kind for _, kind in got[1])
    assert kinds == {"zero product", "top degree dropped"}


@pytest.mark.parametrize("params", PROBE_PARAMS)
def test_kernel_sampled_products_match_the_oracle(params):
    # The genuine tables: every drawn product, taken by the kernel and by the
    # oracle, is the same element, and none fails.
    times, t = kernel_times(params), oracle_of(params)
    for degree_bound in (1, 2, 3, 4, 5):
        for seed in (0, degree_bound, 7):
            for trial, _, a, b in sampled_trials(params, degree_bound, 80, seed):
                product = times(a, b)
                assert product == t.times(a, b), (degree_bound, seed, trial)
                assert failure_kind(a, b, product) is None


def test_verify_gwa_fails_on_a_broken_cross_factor(opposite_crosses_vanish, tmp_path, capsys):
    # theta(X^+ X^-) reads cross(1, -1) = sigma(x): with it broken the
    # relations no longer die in T, and the proof fails.
    cfg = tmp_path / "generic3.json"
    cfg.write_text(json.dumps(GENERIC3), encoding="utf-8")
    code = cli.main(["verify", "gwa", str(cfg), "--json"])
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert code == 1
    assert not findings["relations_killed"]


def crosses_missing_a_vertex(params: Parameters, power: int = 5) -> list[tuple[int, int]]:
    """The (m1, m2) with |m1|, |m2| <= ``power`` whose cross factor lacks an e_i-component."""
    table = _gwa_table(params)
    return [(m1, m2) for m1 in range(-power, power + 1) for m2 in range(-power, power + 1)
            if set(table.coded_cross(m1, m2)[2]) != set(range(params.n))]


@pytest.mark.parametrize("n", range(1, 7))
def test_every_cross_factor_has_every_vertex(n):
    # What the proof derives from sigma's injectivity: with every beta_i != 0,
    # cross(m1, m2) has a nonzero e_i-component at every vertex i, in the
    # kernel's table and in the oracle's X^{m1} X^{m2}.
    for params in lemma_configs(n):
        assert crosses_missing_a_vertex(params) == []
        t = oracle_of(params)
        one = t.combine((t.e(v), 1) for v in range(n))
        for m1 in range(-5, 6):
            for m2 in range(-5, 6):
                cross = t.times({m1: one}, {m2: one})[m1 + m2]
                assert {v for (v, _, _), c in cross.items() if c} == set(range(n)), (m1, m2)


@pytest.fixture
def sigma_kills_x0(monkeypatch):
    """sigma(x_0) = 0, so sigma is not injective, with every shift table rebuilt: sigma^{m+1}
    = sigma^m o sigma sends x_0 to 0 at each step up."""
    genuine = gwa._ShiftTable._step

    def step(self, m, sign):
        out = genuine(self, m, sign)
        return (((1, {}), out[0][1]),) + out[1:] if sign > 0 else out

    monkeypatch.setattr(gwa._ShiftTable, "_step", step)
    _shift_table.cache_clear()
    yield
    _shift_table.cache_clear()


@pytest.mark.parametrize("params", PROBE_PARAMS + [N9], ids=lambda p: f"n{p.n}")
def test_proof_fails_when_sigma_is_not_injective(params, sigma_kills_x0, tmp_path, capsys):
    # With sigma(x_0) = 0 the lemma's hypothesis fails: sigma(x) has no
    # e_1-component, nor has cross(1, -1) = sigma(x).  sigma o sigma^-1 sends
    # y_1 = sigma(x_0) to 0, so sigma_is_automorphism must fail.
    # Only x_0, x_1 and y_1 can fail, so each failure names its generator.
    assert (1, -1) in crosses_missing_a_vertex(params)
    automorphism = sigma_is_automorphism(params)
    one = 1 % params.n
    assert not automorphism.ok and automorphism.checked == 6 * params.n
    assert {"sigma^-1 sigma x0", f"sigma sigma^-1 y{one}"} <= set(automorphism.failed)
    assert {name.split()[-1] for name in automorphism.failed} <= {"x0", f"x{one}", f"y{one}"}
    report = verify_gwa(params)
    assert not report.proves_pwd and not report.ok and report.pwd_failures > 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n": params.n, "alpha": [str(x) for x in params.alpha],
                               "beta": [str(x) for x in params.beta],
                               "gamma": [str(x) for x in params.gamma]}), encoding="utf-8")
    for argv in (["verify", "gwa"], ["verify", "pwd"]):
        code = cli.main([*argv, str(cfg), "--json"])
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert code == 1 and findings["sigma_is_automorphism"] is False
