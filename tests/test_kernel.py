"""Property tests for the shared linear-combination kernel (core.Combination)
and the normal-form kernel (rewrite.normal_form)."""

import sys
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverdu.core import Element, Parameters, format_element, parse_element, path_from_word
from quiverdu.gwa import BaseElement, GwaElement, theta, theta_prime
from quiverdu.rewrite import PRESET_QDU, _tables, build_system, normal_form
from oracle import shape
from test_gwa_reference import as_oracle, oracle_of
from test_oracle import as_terms, names, oracle_nf

# Enough cases to hit cancellations and size mismatches, few enough to stay fast.
kernel_settings = settings(max_examples=60, deadline=None)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
factors = st.one_of(st.integers(-3, 3), rationals)


def paths(n, max_len=4):
    return st.builds(lambda v, word: path_from_word(n, v, word),
                     st.integers(0, n - 1), st.text("ud", max_size=max_len))


def elements(n, max_len=4):
    return st.dictionaries(paths(n, max_len), rationals, max_size=4).map(lambda t: Element(n, t))


def base_elements(n):
    keys = st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(keys, rationals, max_size=4).map(lambda t: BaseElement(n, t))


def gwa_elements(n):
    return st.dictionaries(st.integers(-2, 2), base_elements(n), max_size=3).map(
        lambda t: GwaElement(n, t))


KINDS = {
    "element": (st.integers(1, 3), elements),
    "base": (st.integers(1, 3), base_elements),
    "gwa": (st.integers(1, 2), gwa_elements),
}


@st.composite
def combination_parts(draw, kind):
    sizes, values = KINDS[kind]
    n = draw(sizes)
    return n, draw(st.lists(st.tuples(values(n), factors), max_size=4))


def reference_sum(parts):
    """Term-by-term sum of c * x with plain dicts, zero sums dropped."""
    sums = {}
    for x, c in parts:
        for key, v in x.terms.items():
            v = v * c
            sums[key] = sums[key] + v if key in sums else v
    return {key: v for key, v in sums.items() if v}


def check_combine(cls, n, parts):
    snapshots = [dict(x.terms) for x, _ in parts]
    combined = cls.combine(n, parts)
    folded = reduce(lambda acc, part: acc + part[0].scale(part[1]), parts, cls.zero(n))
    assert combined == folded
    assert hash(combined) == hash(folded)
    assert combined.terms == reference_sum(parts)
    assert [x.terms for x, _ in parts] == snapshots


@kernel_settings
@given(combination_parts("element"))
def test_combine_element(case):
    check_combine(Element, *case)


@kernel_settings
@given(combination_parts("base"))
def test_combine_base_element(case):
    check_combine(BaseElement, *case)


@kernel_settings
@given(combination_parts("gwa"))
def test_combine_gwa_element(case):
    check_combine(GwaElement, *case)


@kernel_settings
@given(elements(3), elements(3))
def test_subtraction_and_negation(a, b):
    assert a - b == a + (-b)
    assert (a - a).is_zero()
    assert a.scale(0) == Element.zero(3)


def test_combine_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        Element.combine(3, [(Element.identity(2), 1)])
    with pytest.raises(ValueError):
        Element.identity(3) + Element.identity(2)


SYSTEM_PARAMS = Parameters.of(3, [2, 3, 5], [7, 11, 13], [1, 0, 4])


@kernel_settings
@given(elements(3, max_len=5), elements(3, max_len=5), factors)
def test_normal_form_is_linear(a, b, c):
    sys_ = build_system(PRESET_QDU, SYSTEM_PARAMS)
    assert normal_form(sys_, a.scale(c) + b) == normal_form(sys_, a).scale(c) + normal_form(sys_, b)


@kernel_settings
@given(st.integers(1, 4).flatmap(elements))
def test_text_roundtrip(a):
    assert parse_element(format_element(a), a.n) == a


# D = 6: the coded memos hold numerators over powers of 6.
RATIONAL_PARAMS = Parameters.of(3, [2, Fraction(1, 2), 5], [7, Fraction(-3, 2), 13],
                                [1, 2, Fraction(1, 3)])


def coded_snapshot(memo):
    """Each (e, combination) entry of a coded memo, with its dict and a copy of it."""
    return {key: (e, comb, dict(comb)) for key, (e, comb) in memo.items()}


@kernel_settings
@given(st.sampled_from([SYSTEM_PARAMS, RATIONAL_PARAMS]), paths(3, max_len=5),
       elements(3, max_len=5))
def test_normal_form_leaves_memo_values_unchanged(params, p, q):
    sys_ = build_system(PRESET_QDU, params)
    first = normal_form(sys_, Element.from_path(p))
    snapshot = dict(first.terms)
    tables = _tables(sys_)
    coded = coded_snapshot(tables.memo)
    handed_out = [first.terms]
    for c in (3, 1):
        handed_out.append(normal_form(sys_, Element.from_path(p).scale(c) + q).terms)
        assert first.terms == snapshot
        assert normal_form(sys_, Element.from_path(p)) == first
    for key, (e, comb, copy) in coded.items():
        assert tables.memo[key][0] == e and tables.memo[key][1] is comb and comb == copy
    held = {id(comb) for _, comb in tables.memo.values()}
    assert not any(id(terms) in held for terms in handed_out)


@kernel_settings
@given(elements(3), elements(3), elements(3))
def test_normal_form_of_products_is_associative(a, b, c):
    sys_ = build_system(PRESET_QDU, SYSTEM_PARAMS)
    nf = lambda x: normal_form(sys_, x)
    whole = nf(a * b * c)
    assert nf(nf(a * b) * c) == whole
    assert nf(a * nf(b * c)) == whole


@kernel_settings
@given(elements(3, max_len=8))
def test_normal_form_words_have_the_normal_shape(a):
    for p in normal_form(build_system(PRESET_QDU, SYSTEM_PARAMS), a).terms:
        shape(names(p))


def test_long_word_reduces_at_constant_call_depth():
    # Each d of d^600 u is reduced against the u in turn; a kernel whose
    # call depth grew with the word would raise RecursionError here.
    limit = sys.getrecursionlimit()
    sys_ = build_system(PRESET_QDU, Parameters.of(1, [2], [3], [5]))
    nf = normal_form(sys_, Element.from_path(path_from_word(1, 0, "d" * 600 + "u")))
    assert nf
    for p in nf.terms:
        shape(names(p))
    assert sys.getrecursionlimit() == limit


nonzero_rationals = rationals.filter(bool)


@st.composite
def gwa_params_and_element(draw):
    """Parameters with every beta_i nonzero (alpha_i = 0 and gamma != 0 occur)
    and an element of degree at most 6."""
    n = draw(st.integers(1, 4))
    vector = lambda values: draw(st.lists(values, min_size=n, max_size=n))
    params = Parameters.of(n, vector(rationals), vector(nonzero_rationals), vector(rationals))
    return params, draw(elements(n, max_len=6))


@kernel_settings
@given(gwa_params_and_element())
def test_theta_prime_inverts_theta(case):
    # theta(a) is the oracle's, and theta_prime(theta(a)) the oracle's normal form of a.
    params, a = case
    image = theta(params, a)
    t = oracle_of(params)
    assert as_oracle(image) == t.theta(as_terms(a))
    assert as_terms(theta_prime(params, image)) == oracle_nf(t.reducer, a)
