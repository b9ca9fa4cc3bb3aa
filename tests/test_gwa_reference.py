"""The GWA kernel against ``oracle.Gwa``, which works from T's definition.

``oracle.Gwa`` substitutes sigma's defining formulas into each monomial
and multiplies in T one generator at a time, from X^+- r = sigma^+-1(r)
X^+-, X^- X^+ = x and X^+ X^- = sigma(x) alone.  The kernel's shift table
(generator images stepped by m, cached monomial images, and the vertex
components of the cross factors cross(m, +-1) that theta reads) and theta
must give the same values, on random parameters with denominators and
gamma = 0 or not.  The kernel multiplies no two elements of T.

T is a piecewise domain by the proof of ``verify_gwa``, which replaced a
domain probe of sampled products.  ``reference_random_corner_element``
keeps that probe's draws, on ``random.Random``, and ``sampled_failures``
multiplies them with the oracle: wherever the proof holds, no drawn
product vanishes or drops its top degree (``tests/gwa_oracle_check.py``
also checks each top part against the proof's formula).  What the proof
derives from sigma's injectivity (sigma^m(x) has every vertex) is checked
against the oracle, a broken cross factor must fail theta's relation kill,
and a sigma that is not injective must fail ``sigma_is_automorphism``.
"""

import itertools
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
from quiverdu.gwa import (BaseElement, GwaElement, _gwa_table, _shift_table, sigma_is_automorphism, theta,
                          verify_gwa)
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
# sigma^m and the cross factors that theta reads
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
@given(parameters(), st.integers(-5, 5), st.sampled_from([-1, 1]))
def test_coded_cross_matches_the_oracle(params, m, s):
    # X^m X^s = cross(m, s) X^{m+s}: at each vertex the table's component of
    # cross(m, s) is the oracle's, and it is None exactly where the factor is 1.
    t, table = oracle_of(params), _shift_table(params)
    one = t.combine((t.e(v), 1) for v in range(params.n))
    cross = t.times({m: one}, {s: one})[m + s]
    for at in range(params.n):
        factor = table.cross(m, s, at)
        assert (factor is None) == (m * s >= 0)
        component = {k: c for k, c in cross.items() if k[0] == at}
        assert (t.e(at) if factor is None else decoded(factor)) == component, at


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


@pytest.mark.parametrize("n", range(1, 7))
def test_theta_of_every_path_to_degree_5_matches_the_oracle(n):
    # Every path from every vertex, in the order that reads each word's
    # image off the memo of its prefix, with gamma = 0 and with gamma and
    # alpha entrywise (zeros drawn among them).
    for params in lemma_configs(n):
        _shift_table.cache_clear()
        t = oracle_of(params)
        for source in range(n):
            for k in range(6):
                for letters in itertools.product("ud", repeat=k):
                    path = path_from_word(n, source, "".join(letters))
                    image = t.theta_word(source, names(path))
                    assert as_oracle(theta(params, Element.from_path(path))) == image, (source, letters)


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


def sampled_failures(params: Parameters, degree_bound: int = 3, trials: int = 200,
                     seed: int = 0) -> tuple[int, list]:
    """(tested, failures) of the sampled probe, each product taken whole by the oracle: a
    trial fails as a zero product or a dropped top degree."""
    failures, tested = [], 0
    for trial, _, a, b in sampled_trials(params, degree_bound, trials, seed):
        tested += 1
        if kind := failure_kind(a, b, oracle_of(params).times(a, b)):
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


# ---------------------------------------------------------------------------
# Broken cross factors and a sigma that is not injective
# ---------------------------------------------------------------------------

GENERIC3 = {"n": 3, "alpha": ["2", "1/2", "5"], "beta": ["7", "-3/2", "13"],
            "gamma": ["1", "2", "1/3"]}


@pytest.fixture
def sigma_x_factor_vanishes(monkeypatch):
    """cross(1, -1) = sigma(x), the factor of X^+ X^-, is 0 at every vertex where theta
    reads it; sigma itself, and so every other check, is untouched."""
    genuine = gwa._ShiftTable.cross
    monkeypatch.setattr(gwa._ShiftTable, "cross", lambda self, m, s, at: (
        (1, {}) if (m, s) == (1, -1) else genuine(self, m, s, at)))
    _shift_table.cache_clear()
    yield
    _shift_table.cache_clear()


def test_verify_gwa_fails_on_a_broken_cross_factor(sigma_x_factor_vanishes, tmp_path, capsys):
    # theta(d_{i-1} u_{i-1}) = X^+ X^- e_i reads cross(1, -1) = sigma(x): with
    # it broken the relations no longer die in T, and the proof fails,
    # while sigma and theta_prime, which read no cross factor, still pass.
    cfg = tmp_path / "generic3.json"
    cfg.write_text(json.dumps(GENERIC3), encoding="utf-8")
    code = cli.main(["verify", "gwa", str(cfg), "--json"])
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert code == 1
    assert not findings["relations_killed"]
    assert findings["sigma_is_automorphism"] and findings["theta_prime_is_homomorphism"]


def crosses_missing_a_vertex(params: Parameters, power: int = 5) -> dict[tuple[int, int], list[int]]:
    """The vertices at which a cross factor that theta reads, cross(m, s) with |m| <= ``power``
    and s = +-1, has no component, by (m, s)."""
    table, out = _gwa_table(params), {}
    for m in range(-power, power + 1):
        for s in (-1, 1):
            missing = [at for at in range(params.n) if (f := table.cross(m, s, at)) is not None and not f[1]]
            if missing:
                out[(m, s)] = missing
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_every_cross_factor_has_every_vertex(n):
    # What the proof derives from sigma's injectivity: with every beta_i != 0,
    # sigma^m(x) has a nonzero component at every vertex, in the oracle and in
    # the factors theta reads, sigma^m(x) = cross(m, -1) for m > 0 and
    # cross(m - 1, 1) for m <= 0, for |m| <= 5.
    for params in lemma_configs(n):
        assert crosses_missing_a_vertex(params) == {}
        table, t = _gwa_table(params), oracle_of(params)
        for m in range(-5, 6):
            image = t.sigma(t.x_total(), m)
            for at in range(n):
                component = {k: c for k, c in image.items() if k[0] == at}
                factor = table.cross(m, -1, at) if m > 0 else table.cross(m - 1, 1, at)
                assert component and decoded(factor) == component, (m, at)


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
    assert crosses_missing_a_vertex(params)[(1, -1)] == [1 % params.n]
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
