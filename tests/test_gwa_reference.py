"""Differential test of sigma^m through cached generator images.

The reference is the step-by-step shift that the per-parameter image table
replaced, kept here verbatim (``_substitute``, ``sigma``, ``sigma_inverse``,
and ``sigma_power``, ``_cross_factor`` and ``gwa_multiply`` under a
``reference_`` prefix): it applies sigma or sigma^-1 to the whole element
|m| times and recomputes every cross factor.
The fast path shares one table per parameter set across calls, so the
draws below hit both fresh and already-filled tables.  The table steps
its generator images from m -+ 1 by sigma's definition, so the grid test
below also compares every step with the substitution above.

``reference_base_product`` is the pairwise product of ``BaseElement`` that
the per-vertex grouping replaced, kept verbatim: it visits every pair of
terms and skips pairs at different vertices.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverdu.core import Parameters
from quiverdu.gwa import BaseElement, GwaElement, _shift_table, gwa_multiply, sigma_power
from test_gwa import x_total


def _substitute(n: int, b: BaseElement, image_of) -> BaseElement:
    """Extend e_v, x_v, y_v -> image_of(v) multiplicatively and linearly."""
    parts = []
    for (v, a, bexp), c in b.terms.items():
        image, xs, ys = image_of(v)
        for _ in range(a):
            image = image * xs
        for _ in range(bexp):
            image = image * ys
        parts.append((image, c))
    return BaseElement.combine(n, parts)


def sigma(params: Parameters, b: BaseElement) -> BaseElement:
    """The shift substitution extended multiplicatively to R."""
    n = params.n

    def image_of(v):
        w = (v + 1) % n
        ys = BaseElement(n, {(w, 0, 1): params.alpha[v], (w, 1, 0): params.beta[v],
                             (w, 0, 0): params.gamma[v]})
        return BaseElement.e(n, w), BaseElement.y(n, w), ys
    return _substitute(n, b, image_of)


def sigma_inverse(params: Parameters, b: BaseElement) -> BaseElement:
    if not params.beta_all_nonzero():
        raise ValueError("sigma is not invertible: some beta_i = 0")
    n = params.n

    def image_of(v):
        w = (v - 1) % n
        # sigma(y_w) = alpha_w y_v + beta_w x_v + gamma_w e_v  =>  invert for x_v
        inv = 1 / params.beta[w]
        xs = BaseElement(n, {(w, 0, 1): inv, (w, 1, 0): -params.alpha[w] * inv,
                             (w, 0, 0): -params.gamma[w] * inv})
        return BaseElement.e(n, w), xs, BaseElement.x(n, w)
    return _substitute(n, b, image_of)


def reference_sigma_power(params: Parameters, b: BaseElement, m: int) -> BaseElement:
    step = sigma if m >= 0 else sigma_inverse
    for _ in range(abs(m)):
        b = step(params, b)
    return b


def reference_cross_factor(params: Parameters, m1: int, m2: int) -> BaseElement:
    """Coefficient from contracting X^{m1} X^{m2} into X^{m1+m2}."""
    n = params.n
    out = BaseElement.one(n)
    while m1 > 0 and m2 < 0:
        out = out * reference_sigma_power(params, x_total(n), m1)
        m1 -= 1
        m2 += 1
    while m1 < 0 and m2 > 0:
        out = out * reference_sigma_power(params, x_total(n), m1 + 1)
        m1 += 1
        m2 -= 1
    return out


def reference_base_product(self: BaseElement, other: BaseElement) -> BaseElement:
    # Componentwise per vertex: e_i are orthogonal idempotents.
    sums: dict[tuple[int, int, int], Fraction] = {}
    for (v, a, b), c in self.terms.items():
        for (w, a2, b2), c2 in other.terms.items():
            if v != w:
                continue
            key = (v, a + a2, b + b2)
            old = sums.get(key)
            sums[key] = c * c2 if old is None else old + c * c2
    return BaseElement._from_sums(self.n, sums)


def reference_gwa_multiply(params: Parameters, a: GwaElement, b: GwaElement) -> GwaElement:
    if not params.beta_all_nonzero():
        raise ValueError("GWA arithmetic requires all beta_i nonzero")
    n = params.n
    parts = []
    for m1, r in a.terms.items():
        for m2, s in b.terms.items():
            coeff = r * reference_sigma_power(params, s, m1) * reference_cross_factor(params, m1, m2)
            parts.append((GwaElement(n, {m1 + m2: coeff}), 1))
    return GwaElement.combine(n, parts)


# Zero is drawn often for alpha and gamma, next to integral and
# non-integral nonzero values; beta_i stays nonzero so sigma is invertible.
VALUES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3, 4)]
SCALARS = st.sampled_from(VALUES)
NONZERO = st.sampled_from(VALUES[1:])


@st.composite
def parameters(draw, beta=NONZERO):
    n = draw(st.integers(1, 4))
    vec = lambda s: st.lists(s, min_size=n, max_size=n)
    return Parameters.of(n, draw(vec(SCALARS)), draw(vec(beta)), draw(vec(SCALARS)))


def base_elements(n, max_size=4):
    """Elements of R of degree <= 4."""
    monomials = st.tuples(st.integers(0, n - 1), st.integers(0, 4), st.integers(0, 4)).filter(
        lambda t: t[1] + t[2] <= 4)
    return st.dictionaries(monomials, NONZERO, max_size=max_size).map(lambda t: BaseElement(n, t))


def gwa_elements(n):
    return st.dictionaries(st.integers(-3, 3), base_elements(n, max_size=2),
                           max_size=3).map(lambda t: GwaElement(n, {m: r for m, r in t.items() if r}))


@st.composite
def sigma_cases(draw, beta=NONZERO, powers=st.integers(-5, 5)):
    params = draw(parameters(beta))
    return params, draw(base_elements(params.n)), draw(powers)


@st.composite
def product_cases(draw):
    params = draw(parameters())
    return params, draw(gwa_elements(params.n)), draw(gwa_elements(params.n))


@settings(max_examples=200, deadline=None)
@given(sigma_cases())
@example((Parameters.of(3, [0, 2, 1], [Fraction(-1, 2), 1, Fraction(3, 4)], [1, 0, -1]),
          BaseElement(3, {(0, 2, 2): 1, (1, 0, 3): Fraction(3, 4), (2, 0, 0): -1}), -5))
def test_sigma_power_matches_stepwise_reference(case):
    params, b, m = case
    assert sigma_power(params, b, m) == reference_sigma_power(params, b, m)


@settings(max_examples=60, deadline=None)
@given(sigma_cases(beta=SCALARS, powers=st.integers(0, 5)))
def test_sigma_power_matches_reference_without_inverse(case):
    # sigma^m for m >= 0 needs no inverse, so beta_i = 0 is allowed here.
    params, b, m = case
    assert sigma_power(params, b, m) == reference_sigma_power(params, b, m)


@settings(max_examples=60, deadline=None)
@given(parameters(), st.integers(-5, 5), st.integers(-5, 5))
def test_cross_factor_matches_reference(params, m1, m2):
    assert _shift_table(params).cross(m1, m2) == reference_cross_factor(params, m1, m2)


@settings(max_examples=120, deadline=None)
@given(product_cases())
def test_gwa_multiply_matches_reference(case):
    params, a, b = case
    assert gwa_multiply(params, a, b) == reference_gwa_multiply(params, a, b)


@pytest.mark.parametrize("n", range(1, 7))
def test_sigma_power_matches_reference_on_a_grid(n):
    rng = random.Random(n)
    params = Parameters.of(n, [rng.choice(VALUES) for _ in range(n)],
                           [rng.choice(VALUES[1:]) for _ in range(n)],
                           [rng.choice(VALUES) for _ in range(n)])
    _shift_table.cache_clear()
    elements = [BaseElement.e(n, n - 1), BaseElement.x(n, 0), BaseElement.y(n, n - 1),
                BaseElement(n, {(0, 2, 1): Fraction(3, 4), (n - 1, 0, 2): -1}),
                BaseElement(n, {(v, 1, 1): v + 1 for v in range(n)}),
                BaseElement(n, {(n // 2, 0, 0): 2, (n // 2, 3, 0): Fraction(-1, 2)})]
    for m in (6, -6, *range(-5, 6)):
        for b in elements:
            assert sigma_power(params, b, m) == reference_sigma_power(params, b, m), (m, b)


@st.composite
def base_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(base_elements(n, max_size=6)), draw(base_elements(n, max_size=6))


@settings(max_examples=300, deadline=None)
@given(base_pairs())
@example((BaseElement(3, {(0, 1, 0): 2, (1, 0, 2): Fraction(-1, 2), (1, 1, 1): 3}),
          BaseElement(3, {(1, 2, 0): Fraction(3, 4), (1, 0, 0): -1, (2, 0, 1): 5})))
@example((BaseElement(2, {(0, 1, 1): 1}), BaseElement(2, {(1, 0, 0): 1})))
def test_base_product_matches_pairwise_reference(case):
    # Vertices on one side only contribute nothing; the second example has
    # no common vertex at all, so its product is zero.
    a, b = case
    product = a * b
    assert product == reference_base_product(a, b)
    assert list(product.terms) == list(reference_base_product(a, b).terms)
    assert b * a == reference_base_product(b, a)
