"""Differential test of ``rewrite._normal_sum`` and of the checks that use it.

``_normal_sum(tables, terms, (den, comb))`` returns the normal form of the
sum of c * (comb/den)·w over the ``(w, c)`` of ``terms``, for a normal
comb ending where every w starts, one arrow of w at a time, as ``core``'s
int-coded form ``(den, combination)``; it never builds a product's paths.
``coded_product`` drives it as the checks do, on NF(a) split by source and
target, and must equal both
``normal_form(sys, a * b)`` (the definition) and ``oracle``'s normal form
of a·b for any ``a``, normal or not.  ``normal_form`` itself, which sums
each source's words with ``_normal_sum``, is compared with the oracle too.

The zero-divisor pair of ``pwd_proof_H`` and ``property_report`` are
compared with ``oracle.property_witnesses``.  ``theta_prime``, which reduces one word
per term, is compared with ``oracle.Gwa.theta_prime``.

H is a piecewise domain by the proof of ``gwa.verify_gwa``, which
replaced a domain probe of sampled products in H.  ``sampled_products``
keeps that probe's draws, on ``random.Random``, and takes each drawn
product with ``oracle.Reducer``: wherever the proof holds, none vanishes.

The associated graded system gr H = H(alpha, beta, 0)
(``structure._graded_tables``), whose rules are H's without their gamma
words, is kept for the gamma != 0 route through gr H: the top-degree part
of each product in H must equal the product in gr H, compared as
rationals, and a graded system that drops beta instead of gamma must be
caught.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import oracle
from quiverdu import core, gwa, structure
from quiverdu.core import Element, Parameters, path_from_word, trivial_path
from quiverdu.gwa import theta_prime
from quiverdu.rewrite import (
    PRESET_PREPROJECTIVE,
    PRESET_QDU,
    _normal_sum,
    _normal_times,
    _qdu_specs,
    _qdu_system,
    basis_from,
    build_system,
    enumerate_basis,
    ensure_confluent,
    normal_form,
    _tables,
)
from quiverdu.structure import (
    _zero_divisor,
    noetherian_chain_check,
    property_report,
    pwd_proof_H,
)
from test_gwa_reference import as_gwa_element, as_oracle, oracle_of
from test_int_elimination_reference import assert_property_report_matches_the_oracle
from test_oracle import as_terms, oracle_nf, reducer_of, word_names


# ---------------------------------------------------------------------------
# _normal_sum against normal_form of the built product and the oracle
# ---------------------------------------------------------------------------

def random_params(rng: random.Random, n: int, integral: bool, zero_beta: bool = False) -> Parameters:
    """Entries with denominators 1 (integral, so D = 1) or up to 7; a fifth of them zero."""
    def entry(nonzero=False):
        if not nonzero and rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.choice([x for x in range(-9, 10) if x]), 1 if integral else rng.randint(1, 7))
    beta = [entry(nonzero=True) for _ in range(n)]
    if zero_beta:
        beta[rng.randrange(n)] = Fraction(0)
    return Parameters.of(n, [entry() for _ in range(n)], beta, [entry() for _ in range(n)])


def random_element(rng: random.Random, n: int, sources=None, max_len: int = 7) -> Element:
    """1-4 terms on random words (not normal in general), from ``sources`` if given."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = "".join(rng.choice("ud") for _ in range(rng.randint(0, max_len)))
        source = rng.choice(sources) if sources is not None else rng.randrange(n)
        terms[path_from_word(n, source, word)] = Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 7)))
    return Element(n, terms)


def systems(rng: random.Random, n: int):
    """Both presets; quiver down-up with integral (D = 1) and rational (D != 1) rules."""
    yield build_system(PRESET_PREPROJECTIVE, n=n)
    for integral in (True, False):
        yield build_system(PRESET_QDU, random_params(rng, n, integral))


def coded_product(sys_, a: Element, b: Element) -> Element:
    """NF(a·b) through ``_normal_sum``, without building a·b.

    NF(a) (``normal_form``) is split by source and target; each part is
    the normal ``comb`` of one ``_normal_sum`` with the words of b that
    start at its target as ``terms``.  The parts are decoded and added.
    """
    tables = _tables(sys_)
    La, left = tables.row(normal_form(sys_, a))
    Lb, right = tables.row(b)
    groups: dict = {}
    for (source, w), c in left.items():
        groups.setdefault((source, tables.target(source, w)), {})[w] = c
    parts = []
    for (source, target), comb in groups.items():
        terms = [(q, c) for (v, q), c in right.items() if v == target]
        den, nf = _normal_sum(tables, terms, (La * Lb, comb))
        parts.append((tables.element(source, den, nf), 1))
    return Element.combine(a.n, parts)


def assert_same_product(sys_, a: Element, b: Element) -> Element:
    """``coded_product`` and ``normal_form`` of a·b agree with each other and with the oracle."""
    got = coded_product(sys_, a, b)
    assert got == normal_form(sys_, a * b), (sys_.preset, sys_.params, a, b)
    assert as_terms(got) == oracle_nf(reducer_of(sys_), a * b), (sys_.preset, sys_.params, a, b)
    assert all(type(c) is Fraction for c in got.terms.values())
    return got


@pytest.mark.parametrize("n", range(1, 7))
def test_normal_sum_matches_normal_form_of_product(n):
    rng = random.Random(18_000 + n)
    for sys_ in systems(rng, n):
        integral = sys_.params is None or all(
            c.denominator == 1 for c in sys_.params.alpha + sys_.params.beta + sys_.params.gamma)
        assert (_tables(sys_).denominator == 1) == integral
        reducer = reducer_of(sys_)
        for _ in range(25):
            # a is not normal in general and has terms at several sources.
            a = random_element(rng, n)
            assert as_terms(normal_form(sys_, a)) == oracle_nf(reducer, a), (sys_.params, a)
            assert_same_product(sys_, a, random_element(rng, n))
        # a normal a, as the checks pass it.
        basis = [p for k in range(6) for p in enumerate_basis(sys_, k)]
        for _ in range(10):
            a = Element(n, {p: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                            for p in rng.sample(basis, min(3, len(basis)))})
            assert_same_product(sys_, a, random_element(rng, n))


@pytest.mark.parametrize("n", range(1, 7))
def test_normal_sum_rational_rules_have_a_denominator(n):
    rng = random.Random(18_100 + n)
    params = random_params(rng, n, integral=False)
    params = Parameters.of(n, params.alpha, [Fraction(2, 3)] + list(params.beta[1:]), params.gamma)
    sys_ = build_system(PRESET_QDU, params)
    a = Element.from_path(path_from_word(n, 0, "d" * 3 + "u" * 3), Fraction(5, 7))
    b = Element.from_path(path_from_word(n, 0, "du"), Fraction(-1, 2))
    assert_same_product(sys_, a, b)
    tables = sys_._tables
    assert tables.denominator % 3 == 0
    # A comb over den > 1, times more words: the denominator is honoured.
    den, comb = _normal_sum(tables, [(tables.encode(next(iter(a.terms))), 1)])
    assert den > 1
    word = tables.encode(next(iter(b.terms)))
    pden, nf = _normal_sum(tables, [(word, 3), (word, -1)], (den, comb))
    want = normal_form(sys_, a.scale(Fraction(7, 5)) * b.scale(-4))
    assert tables.element(0, pden, nf) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_normal_sum_endpoint_mismatch_is_zero(n):
    rng = random.Random(18_200 + n)
    for sys_ in systems(rng, n):
        for _ in range(10):
            a = random_element(rng, n)
            targets = {p.target for p in a.terms}
            others = [v for v in range(n) if v not in targets]
            if not others:
                continue
            b = random_element(rng, n, sources=others)
            assert assert_same_product(sys_, a, b).is_zero()
        # no term of b starts where a term of a ends
        if n > 1:
            a = Element.from_path(path_from_word(n, 0, "ud"))
            b = Element.from_path(path_from_word(n, 1, "d"))
            assert assert_same_product(sys_, a, b).is_zero()


@pytest.mark.parametrize("n", range(1, 7))
def test_normal_sum_with_trivial_paths(n):
    rng = random.Random(18_300 + n)
    for sys_ in systems(rng, n):
        tables = _tables(sys_)
        for _ in range(10):
            x = random_element(rng, n)
            e_v = Element.from_path(trivial_path(n, rng.randrange(n)), Fraction(3, 2))
            for a, b in ((e_v, x), (x, e_v), (Element.identity(n), x), (x, Element.identity(n)),
                         (e_v, e_v)):
                assert_same_product(sys_, a, b)
            assert coded_product(sys_, Element.identity(n), x) == normal_form(sys_, x)
            assert coded_product(sys_, x, Element.identity(n)) == normal_form(sys_, x)
            # The default comb is the empty word: the sum of the terms' own normal forms.
            for v in range(n):
                part = Element(n, {p: c for p, c in x.terms.items() if p.source == v})
                den, row = tables.row(part)
                nden, nf = _normal_sum(tables, [(w, c) for (_, w), c in row.items()])
                assert tables.element(v, den * nden, nf) == normal_form(sys_, part)


def test_normal_sum_of_zero_and_wrong_size():
    sys_ = build_system(PRESET_QDU, Parameters.of(3, [1, 2, 0], [1, -1, 2], [0, 1, 0]))
    x = Element.from_path(path_from_word(3, 0, "dud"))
    assert normal_form(sys_, Element.zero(3)).is_zero()
    assert coded_product(sys_, Element.zero(3), x).is_zero()
    assert coded_product(sys_, x, Element.zero(3)).is_zero()
    tables = _tables(sys_)
    assert _normal_sum(tables, []) == (1, {})
    assert _normal_sum(tables, [], (1, {tables.encode(next(iter(x.terms))): 1})) == (1, {})
    with pytest.raises(ValueError):
        normal_form(sys_, Element.identity(2))
    with pytest.raises(ValueError):
        Element.identity(2) * Element.identity(3)


def test_normal_sum_leaves_zero_sums_in():
    sys_ = build_system(PRESET_QDU, Parameters.of(3, [2, Fraction(1, 2), 5], [7, Fraction(-3, 2), 13],
                                                  [1, 2, Fraction(1, 3)]))
    tables = _tables(sys_)
    word = tables.encode(path_from_word(3, 0, "dduu"))
    _, nf = _normal_sum(tables, [(word, 2), (word, -2)])
    assert nf and not any(nf.values())
    assert set(nf) == set(_normal_sum(tables, [(word, 1)])[1])


def test_normal_sum_leaves_its_operands_and_memo_unchanged():
    sys_ = build_system(PRESET_QDU, Parameters.of(3, [2, Fraction(1, 2), 5], [7, Fraction(-3, 2), 13],
                                                  [1, 2, Fraction(1, 3)]))
    rng = random.Random(18_400)
    tables = sys_._tables
    for _ in range(20):
        a, b = random_element(rng, 3), random_element(rng, 3)
        a_terms, b_terms = dict(a.terms), dict(b.terms)
        first = coded_product(sys_, a, b)
        memo = {k: (e, comb, dict(comb)) for k, (e, comb) in tables.memo.items()}
        assert coded_product(sys_, a, b) == first
        assert a.terms == a_terms and b.terms == b_terms
        assert all(tables.memo[k][0] == e and tables.memo[k][1] is comb and comb == copy
                   for k, (e, comb, copy) in memo.items())
    # The comb and the terms passed in are only read.
    comb = {tables.encode(path_from_word(3, 0, text)): c for text, c in (("ud", 2), ("du", -1), ("", 3))}
    terms = [(tables.encode(path_from_word(3, 0, text)), 5) for text in ("dduu", "ud", "")]
    comb_copy, terms_copy = dict(comb), list(terms)
    den, nf = _normal_sum(tables, terms, (1, comb))
    assert comb == comb_copy and terms == terms_copy
    a, b = tables.element(0, 1, comb), tables.element(0, 1, dict(terms))
    assert tables.element(0, den, nf) == normal_form(sys_, a * b)


# ---------------------------------------------------------------------------
# The checks against the oracle
# ---------------------------------------------------------------------------

REGIMES = [
    # beta all nonzero, gamma = 0, integral
    Parameters.of(3, [1, 2, 3], [1, 1, 1], [0, 0, 0]),
    # beta all nonzero, gamma != 0, rational (the generic n = 3 config)
    Parameters.of(3, [2, Fraction(1, 2), 5], [7, Fraction(-3, 2), 13], [1, 2, Fraction(1, 3)]),
    # some beta_i = 0, gamma != 0
    Parameters.of(3, [1, 1, 1], [0, 2, 3], [1, 1, 1]),
    # two beta_i = 0, gamma = 0, alpha_2 = 0
    Parameters.of(4, [1, -1, 0, Fraction(3, 4)], [0, Fraction(-1, 2), 0, 1], [0, 0, 0, 0]),
    # n = 1 and n = 2, beta nonzero and gamma != 0
    Parameters.of(1, [2], [Fraction(-3, 7)], [5]),
    Parameters.of(2, [0, Fraction(1, 2)], [-1, 3], [Fraction(2, 3), 0]),
]


def assert_pwd_matches_the_oracle(params: Parameters) -> None:
    """The proof when every beta_i is nonzero; otherwise the pair a_i, u_i of the first
    beta_i = 0, whose product the oracle takes to 0."""
    got = pwd_proof_H(params)
    assert got.beta_nonzero == params.beta_all_nonzero() and got.ok
    if got.beta_nonzero:
        assert got.counterexample is None and got.gwa.proves_pwd
    else:
        first = oracle.property_witnesses(params.n, params.alpha, params.beta, params.gamma)[0]
        pair = (str(_zero_divisor(params, first["vertex"])), f"1 * u{first['vertex']}")
        assert got.gwa is None and first["product_zero"] and got.counterexample == pair


@pytest.mark.parametrize("params", REGIMES)
def test_pwd_proof_H_matches_the_oracle(params):
    assert_pwd_matches_the_oracle(params)


@pytest.mark.parametrize("params", REGIMES)
def test_property_report_matches_the_oracle(params):
    assert_property_report_matches_the_oracle(params)


@pytest.mark.parametrize("seed", range(6))
def test_checks_match_the_oracle_on_random_parameters(seed):
    rng = random.Random(18_500 + seed)
    n = rng.randint(1, 4)
    params = random_params(rng, n, integral=seed % 2 == 0, zero_beta=seed % 3 == 0)
    assert_property_report_matches_the_oracle(params)
    assert_pwd_matches_the_oracle(params)


@pytest.mark.parametrize("params", [p for p in REGIMES if p.beta_all_nonzero()])
def test_theta_prime_matches_reference(params):
    rng = random.Random(18_600 + params.n)
    n = params.n
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            base = {(rng.randrange(n), rng.randint(0, 2), rng.randint(0, 2)):
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))}
            if any(base.values()):
                terms[rng.randint(-4, 4)] = base
        t = as_gwa_element(n, terms)
        assert as_terms(theta_prime(params, t)) == oracle_of(params).theta_prime(as_oracle(t))


# ---------------------------------------------------------------------------
# The checks no longer build products in the free path algebra
# ---------------------------------------------------------------------------

def test_checks_do_not_build_path_algebra_products(monkeypatch):
    def refuse(a, b):
        raise AssertionError("core.multiply called")

    monkeypatch.setattr(core, "multiply", refuse)
    with pytest.raises(AssertionError):
        Element.identity(2) * Element.identity(2)
    generic = REGIMES[1]
    zero_beta = REGIMES[2]
    assert pwd_proof_H(generic).ok
    assert pwd_proof_H(zero_beta).ok
    assert property_report(generic).checks_passed
    assert property_report(zero_beta).checks_passed
    assert noetherian_chain_check(zero_beta, s_max=2).ok
    t = as_gwa_element(3, {2: {(0, 1, 1): 1}, -1: {(2, 0, 0): 1}})
    assert not theta_prime(generic, t).is_zero()
    assert gwa.verify_gwa(generic).ok


# ---------------------------------------------------------------------------
# The sampled products of the deleted domain probe, against the proof
# ---------------------------------------------------------------------------

def draw_combination(pool: list[int], rng: random.Random) -> dict[int, int]:
    """1 to 3 distinct words of ``pool``, each with a numerator c * (6 / q) over 6 for c/q,
    c in -5..5 without 0 and q in 1..3; c is drawn before q, word by word in sampled order."""
    size = rng.randint(1, min(3, len(pool)))
    return {w: rng.choice([x for x in range(-5, 6) if x]) * (6 // rng.randint(1, 3))
            for w in rng.sample(pool, size)}


def sampled_products(params: Parameters, degree_bound: int, trials: int, seed: int) -> tuple[int, list]:
    """(tested, trials whose product vanishes) of the domain probe's draws in H.

    A corner pool holds the normal words of degree <= ``degree_bound`` from one vertex to
    another; a trial draws its corners (i, k, j) uniformly and tests nothing when a pool is
    empty.  Each product a·b is the sum of the oracle's normal forms of its word pairs.
    """
    n = params.n
    sys = ensure_confluent(build_system(PRESET_QDU, params))
    tables, reducer = _tables(sys), reducer_of(sys)
    pools: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        for words in basis_from(sys, v, degree_bound):
            for w in words:
                pools.setdefault((v, tables.target(v, w)), []).append(w)
    rng = random.Random(seed)
    tested, zero = 0, []
    for t in range(trials):
        i, k, j = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        pool_a, pool_b = pools.get((i, k), []), pools.get((k, j), [])
        if not pool_a or not pool_b:
            continue
        a, b = draw_combination(pool_a, rng), draw_combination(pool_b, rng)
        tested += 1
        product: dict = {}
        for w, c in a.items():
            for q, c2 in b.items():
                for x, cx in reducer.normal_form(word_names(n, w) + word_names(n, q)).items():
                    product[x] = product.get(x, 0) + c * c2 * cx
        if not any(product.values()):
            zero.append(t)
    return tested, zero


def probe_regimes(n: int) -> list[Parameters]:
    """Rational parameters, beta nonzero: gamma = 0, gamma != 0, and alpha_0 = 0 with gamma != 0."""
    alpha = [Fraction(2 * i + 1, i + 2) for i in range(n)]
    beta = [Fraction(-3, i + 1) if i % 2 else Fraction(i + 2) for i in range(n)]
    gamma = [Fraction(i + 1, 3) for i in range(n)]
    return [Parameters.of(n, alpha, beta, [0] * n), Parameters.of(n, alpha, beta, gamma),
            Parameters.of(n, [0] + alpha[1:], beta, gamma)]


@pytest.mark.parametrize("n", range(1, 5))
def test_sampled_products_in_H_are_nonzero_where_the_proof_holds(n):
    tested = 0
    for params in probe_regimes(n):
        assert pwd_proof_H(params).ok
        for degree_bound in range(5):
            count, zero = sampled_products(params, degree_bound, trials=40, seed=19_000 + 10 * n + degree_bound)
            assert zero == [], (params, degree_bound)
            tested += count
    assert tested > 0


@pytest.mark.parametrize("n", range(1, 4))
def test_sampled_products_vanish_where_no_proof_applies(n):
    # alpha = beta = gamma = 0: the sampled draws find zero products, and the
    # proof is not run; the zero-divisor pair stands in for it.
    params = Parameters.of(n, [0] * n, [0] * n, [0] * n)
    report = pwd_proof_H(params)
    assert report.ok and report.gwa is None and report.counterexample is not None
    zero = [t for degree_bound in range(1, 6) for t in sampled_products(params, degree_bound, 200, 0)[1]]
    assert zero
    if n == 1:
        assert len(sampled_products(params, 3, 200, 0)[1]) == 29


# ---------------------------------------------------------------------------
# The associated graded system gr H
# ---------------------------------------------------------------------------

def length(tables, word: int) -> int:
    """The number of arrows of a packed word."""
    return (word.bit_length() - 1) // tables.bits


def graded_regimes(n: int) -> list[Parameters]:
    """gamma_i != 0 throughout; some alpha_i = 0 in the first config, some beta_i = 0 in the second."""
    rng = random.Random(29_000 + n)
    entry = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 3))
    configs = []
    for zeroed in (0, 1):
        vectors = [[entry() for _ in range(n)] for _ in range(3)]
        for k in rng.sample(range(n), max(1, n // 2)):
            vectors[zeroed][k] = Fraction(0)
        configs.append(Parameters.of(n, *vectors))
    return configs


def check_top_parts_are_graded_products(params: Parameters, max_degree: int = 5) -> int:
    """For normal words w, q of degree <= ``max_degree`` with q starting where w ends: the
    degree-|wq| part of NF_H(w·q) equals NF_gr(w·q), as rationals.  Returns the pairs checked."""
    n = params.n
    sys_ = ensure_confluent(build_system(PRESET_QDU, params))
    tables = _tables(sys_)
    graded = structure._graded_tables(params, tables)
    assert graded is not tables
    words = [(v, tables.path(v, w).target, w) for v in range(n)
             for by_degree in basis_from(sys_, v, max_degree) for w in by_degree]
    checked = 0
    for v, k, w in words:
        for _, _, q in (x for x in words if x[0] == k):
            den, full = _normal_times(tables, (1, {w: 1}), q)
            gden, top = _normal_times(graded, (1, {w: 1}), q)
            degree = length(tables, w) + length(tables, q)
            want = {x: Fraction(c, den) for x, c in full.items() if length(tables, x) == degree}
            assert {x: Fraction(c, gden) for x, c in top.items()} == want, (params, v, w, q)
            checked += 1
    return checked


@pytest.mark.parametrize("n", range(1, 6))
def test_top_degree_part_is_the_graded_product(n):
    assert sum(check_top_parts_are_graded_products(p) for p in graded_regimes(n)) > 0


def drop_beta(params: Parameters, tables):
    """A mutant: the graded tables drop beta instead of gamma."""
    return _tables(_qdu_system(replace(params, beta=(Fraction(0),) * params.n)))


def test_graded_tables_that_drop_beta_are_caught(monkeypatch):
    monkeypatch.setattr(structure, "_graded_tables", drop_beta)
    with pytest.raises(AssertionError):
        check_top_parts_are_graded_products(graded_regimes(2)[0], max_degree=2)


@pytest.mark.parametrize("n", range(1, 13))
def test_no_rule_raises_degree(n):
    # The hypotheses of the top-degree lemma, with zero entries included: no
    # rhs word is longer than its leading word, the shorter ones are gamma
    # words two degrees lower, and gr H's rules are H's without them.
    rng = random.Random(24_300 + n)
    for trial in range(8):
        params = random_params(rng, n, integral=trial % 2 == 0, zero_beta=trial % 3 == 0)
        graded = _qdu_specs(replace(params, gamma=(Fraction(0),) * n))
        for (source, lhs, rhs), top in zip(_qdu_specs(params), graded, strict=True):
            assert all(len(w) == len(lhs) or len(w) == len(lhs) - 2 for w, _ in rhs), (params, lhs)
            assert top == (source, lhs, tuple(t for t in rhs if len(t[0]) == len(lhs)))
