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

``reference_theta`` is ``theta`` as it was before it kept a coded
accumulator: one public ``gwa_multiply`` per generator, each coding both
operands and decoding the result to ``Fraction``s.

``FractionShiftTable``, ``fraction_gwa_multiply``,
``reference_random_corner_element`` and ``reference_pwd_probe_gwa`` are
the ``Fraction`` shift table, product, corner draw and probe that the
int-coded kernel replaced, kept verbatim up to their names and to one
change they share with the kernel: a corner with no X-degree within the
bound draws None, and the probe skips that trial as untested and counts
the tested ones.  They are the
reference for key order as well as for values: the stepwise references
above agree in value but build their terms in another order.

``full_product_pwd_probe_gwa`` is the coded probe as it was before it
tested the product of the top X-degree parts first, kept verbatim up to
its name and the same skip and count: it takes the full product in every
tested trial.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverdu import cli, gwa
from quiverdu.core import Element, Parameters, path_from_word
from quiverdu.gwa import (BaseElement, GwaElement, GwaPwdReport, _coded_multiply, _decode_gwa,
                          _gwa_table, _random_corner_element, _shift_table, gwa_multiply,
                          pwd_probe_gwa, sigma_power, theta)
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


# ---------------------------------------------------------------------------
# The Fraction kernel that the int-coded one replaced (verbatim up to names)
# ---------------------------------------------------------------------------

class FractionShiftTable:
    """sigma^m for one parameter set: the images of x_v and y_v for each m
    used, the monomial images built from them and the cross factors."""

    def __init__(self, params: Parameters):
        self.params = params
        self.invertible = params.beta_all_nonzero()
        n = params.n
        self._images = {0: tuple((BaseElement.x(n, v), BaseElement.y(n, v)) for v in range(n))}
        self._monomials: dict[tuple[int, int, int, int], BaseElement] = {}
        self._cross: dict[tuple[int, int], BaseElement] = {}

    def images(self, m: int) -> tuple[tuple[BaseElement, BaseElement], ...]:
        """(sigma^m(x_v), sigma^m(y_v)) for every vertex v."""
        if m < 0 and not self.invertible:
            raise ValueError("sigma is not invertible: some beta_i = 0")
        sign = 1 if m > 0 else -1
        k = m
        while k not in self._images:
            k -= sign
        while k != m:
            self._images[k + sign] = self._step(k, sign)
            k += sign
        return self._images[m]

    def _step(self, m: int, sign: int) -> tuple[tuple[BaseElement, BaseElement], ...]:
        """The images at m + sign from those at m, by sigma's definition:
        sigma^{m+1} = sigma^m o sigma and sigma^{m-1} = sigma^m o sigma^-1."""
        p, n, prev = self.params, self.params.n, self._images[m]
        out = []
        for v in range(n):
            if sign > 0:
                # sigma(x_v) = y_{v+1}, sigma(y_v) = alpha_v y_{v+1} + beta_v x_{v+1} + gamma_v e_{v+1}
                xs, ys = prev[(v + 1) % n]
                out.append((ys, BaseElement.combine(n, [(ys, p.alpha[v]), (xs, p.beta[v]),
                                                       (BaseElement.e(n, v + 1 + m), p.gamma[v])])))
            else:
                # sigma^-1(y_v) = x_w and beta_w sigma^-1(x_v) = y_w - alpha_w x_w - gamma_w e_w, w = v - 1
                w = (v - 1) % n
                xs, ys = prev[w]
                inv = 1 / p.beta[w]
                out.append((BaseElement.combine(n, [(ys, inv), (xs, -p.alpha[w] * inv),
                                                    (BaseElement.e(n, w + m), -p.gamma[w] * inv)]),
                            xs))
        return tuple(out)

    def monomial(self, m: int, v: int, a: int, b: int) -> BaseElement:
        """sigma^m(x_v^a y_v^b e_v)."""
        key = (m, v, a, b)
        image = self._monomials.get(key)
        if image is None:
            if a:
                image = self.monomial(m, v, a - 1, b) * self.images(m)[v][0]
            elif b:
                image = self.monomial(m, v, 0, b - 1) * self.images(m)[v][1]
            else:
                image = BaseElement.e(self.params.n, v + m)
            self._monomials[key] = image
        return image

    def apply(self, b: BaseElement, m: int) -> BaseElement:
        if m == 0:
            return b
        self.images(m)  # refuses m < 0 without sigma^-1, also for b = 0
        return BaseElement.combine(self.params.n, [(self.monomial(m, v, x, y), c)
                                                   for (v, x, y), c in b.terms.items()])

    def cross(self, m1: int, m2: int) -> BaseElement:
        """Coefficient from contracting X^{m1} X^{m2} into X^{m1+m2}."""
        key = (m1, m2)
        out = self._cross.get(key)
        if out is None:
            if m1 > 0 > m2:
                out = self._x_total(m1) * self.cross(m1 - 1, m2 + 1)
            elif m1 < 0 < m2:
                out = self._x_total(m1 + 1) * self.cross(m1 + 1, m2 - 1)
            else:
                out = BaseElement.one(self.params.n)
            self._cross[key] = out
        return out

    def _x_total(self, m: int) -> BaseElement:
        """sigma^m(x), x = sum_v x_v."""
        return BaseElement.combine(self.params.n, [(xs, 1) for xs, _ in self.images(m)])


@lru_cache(maxsize=16)
def fraction_table(params: Parameters) -> FractionShiftTable:
    return FractionShiftTable(params)


def fraction_gwa_multiply(params: Parameters, a: GwaElement, b: GwaElement) -> GwaElement:
    if not params.beta_all_nonzero():
        raise ValueError("GWA arithmetic requires all beta_i nonzero")
    n = params.n
    table = fraction_table(params)
    parts = []
    for m1, r in a.terms.items():
        for m2, s in b.terms.items():
            coeff = r * table.apply(s, m1) * table.cross(m1, m2)
            parts.append((GwaElement(n, {m1 + m2: coeff}), 1))
    return GwaElement.combine(n, parts)


def reference_random_corner_element(params: Parameters, i: int, k: int, rng: random.Random,
                                    degree_bound: int) -> GwaElement | None:
    """Nonzero random element of e_i T e_k with bounded degrees."""
    n = params.n
    terms: dict[int, BaseElement] = {}
    residue = (i - k) % n
    choices = [m for m in range(-degree_bound, degree_bound + 1) if m % n == residue]
    for m in rng.sample(choices, k=min(len(choices), rng.randint(1, 2))):
        poly: dict[tuple[int, int, int], Fraction] = {}
        for _ in range(rng.randint(1, 2)):
            a = rng.randint(0, max(0, degree_bound - 1))
            b = rng.randint(0, max(0, degree_bound - 1 - a))
            c = Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 3))
            poly[(i, a, b)] = poly.get((i, a, b), Fraction(0)) + c
        base = BaseElement(n, poly)
        if base:
            terms[m] = base
    if not choices:
        return None
    if not terms:
        terms[residue if residue <= degree_bound else residue - n] = BaseElement.e(n, i)
    return GwaElement(n, terms)


def reference_pwd_probe_gwa(params: Parameters, degree_bound: int = 3, trials: int = 200,
                            seed: int = 0) -> GwaPwdReport:
    """Sample sandwiched products in T and assert none vanishes.

    Also asserts the top X-degree of a product is the sum of the top
    X-degrees of the factors.
    """
    rng = random.Random(seed)
    failures = []
    tested = 0
    for t in range(trials):
        i, k, j = (rng.randrange(params.n) for _ in range(3))
        a = reference_random_corner_element(params, i, k, rng, degree_bound)
        b = reference_random_corner_element(params, k, j, rng, degree_bound)
        if a is None or b is None:
            continue
        tested += 1
        prod = fraction_gwa_multiply(params, a, b)
        if prod.is_zero():
            failures.append((t, "zero product", str(a), str(b)))
        elif prod.top_x_degree() != a.top_x_degree() + b.top_x_degree():
            failures.append((t, "top degree dropped", str(a), str(b)))
    return GwaPwdReport(trials, tested, seed, failures)


# ---------------------------------------------------------------------------
# Int-coded kernel against the Fraction kernel: values and key order
# ---------------------------------------------------------------------------

def assert_same_terms(x, ref):
    """Equal values, and the same key order in every term map."""
    assert x == ref
    assert list(x.terms) == list(ref.terms)
    if isinstance(x, GwaElement):
        for m, r in x.terms.items():
            assert list(r.terms) == list(ref.terms[m].terms), m


def decode_corner(n: int, coded: dict) -> GwaElement:
    """A coded draw {m: (den, numerators)} as a GwaElement, zeros kept."""
    for den, nums in coded.values():
        assert den > 0 and nums and all(nums.values())
    return GwaElement._from_sums(n, {m: BaseElement._from_sums(n, {k: Fraction(c, den)
                                                                   for k, c in nums.items()})
                                     for m, (den, nums) in coded.items()})


# Denominators up to 7 and numerators other than +-1, so 1/beta has
# denominators; gamma is drawn as the zero vector or entrywise.
RATIONALS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))
WIDE = st.one_of(st.just(Fraction(0)), RATIONALS)


@st.composite
def wide_parameters(draw):
    n = draw(st.integers(1, 4))
    vec = lambda s: st.lists(s, min_size=n, max_size=n)
    gamma = draw(st.one_of(st.just([0] * n), vec(WIDE)))
    return Parameters.of(n, draw(vec(WIDE)), draw(vec(RATIONALS)), gamma)


def wide_base_elements(n, max_size=4):
    monomials = st.tuples(st.integers(0, n - 1), st.integers(0, 3), st.integers(0, 3)).filter(
        lambda t: t[1] + t[2] <= 3)
    return st.dictionaries(monomials, RATIONALS, max_size=max_size).map(lambda t: BaseElement(n, t))


def wide_gwa_elements(n):
    return st.dictionaries(st.integers(-3, 3), wide_base_elements(n, max_size=3),
                           max_size=3).map(lambda t: GwaElement(n, {m: r for m, r in t.items() if r}))


@st.composite
def wide_sigma_cases(draw):
    params = draw(wide_parameters())
    return params, draw(wide_base_elements(params.n)), draw(st.integers(-5, 5))


@settings(max_examples=150, deadline=None)
@given(wide_sigma_cases())
@example((Parameters.of(2, [Fraction(2, 7), 0], [Fraction(-3, 5), Fraction(9, 4)], [0, 0]),
          BaseElement(2, {(0, 2, 1): Fraction(5, 7), (1, 0, 3): -3, (0, 0, 0): 1}), -4))
def test_coded_sigma_power_matches_fraction_table(case):
    params, b, m = case
    assert_same_terms(sigma_power(params, b, m), fraction_table(params).apply(b, m))
    assert sigma_power(params, b, m) == reference_sigma_power(params, b, m)


@settings(max_examples=80, deadline=None)
@given(wide_parameters(), st.integers(-5, 5), st.integers(-5, 5))
def test_coded_cross_matches_fraction_table(params, m1, m2):
    cross = _shift_table(params).cross(m1, m2)
    assert_same_terms(cross, fraction_table(params).cross(m1, m2))
    assert cross == reference_cross_factor(params, m1, m2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coded_gwa_multiply_matches_fraction_product(data):
    params = data.draw(wide_parameters())
    a, b = data.draw(wide_gwa_elements(params.n)), data.draw(wide_gwa_elements(params.n))
    product = gwa_multiply(params, a, b)
    assert_same_terms(product, fraction_gwa_multiply(params, a, b))
    assert product == reference_gwa_multiply(params, a, b)


def test_coded_gwa_multiply_strips_cancelled_sums_in_place():
    # n = 1, alpha = gamma = 0, beta = 1: sigma swaps x and y.  The parts at
    # X^0 are x y + e, then -x y (from X^-1 * X^1), then x y (from X^1 *
    # X^-1).  The Fraction sum strips x y when it cancels, so x y comes back
    # after e; a sum that kept the zero would leave it first.
    n = 1
    params = Parameters.of(n, [0], [1], [0])
    e = BaseElement.e(n, 0)
    a = GwaElement(n, {0: e, -1: e, 1: e})
    b = GwaElement(n, {0: BaseElement(n, {(0, 1, 1): 1, (0, 0, 0): 1}),
                       1: -BaseElement.x(n, 0), -1: BaseElement.y(n, 0)})
    product = gwa_multiply(params, a, b)
    assert list(product.terms[0].terms) == [(0, 0, 0), (0, 1, 1)]
    assert_same_terms(product, fraction_gwa_multiply(params, a, b))


def test_coded_gwa_multiply_sums_parts_over_different_denominators():
    # The parts at X^0 are x/3 and, from X^1 * X^-1, y/5: the sum must
    # bring x/3 to the common denominator 15 before adding y/5.
    n = 1
    params = Parameters.of(n, [Fraction(1, 2)], [Fraction(3, 2)], [Fraction(-2, 7)])
    e = BaseElement.e(n, 0)
    a = GwaElement(n, {0: e, 1: e})
    b = GwaElement(n, {0: BaseElement.x(n, 0).scale(Fraction(1, 3)), -1: e.scale(Fraction(1, 5))})
    product = gwa_multiply(params, a, b)
    assert product.terms[0] == BaseElement(n, {(0, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(1, 5)})
    assert_same_terms(product, fraction_gwa_multiply(params, a, b))


@pytest.mark.parametrize("n", range(1, 7))
def test_coded_corner_draw_matches_reference(n):
    params = Parameters.of(n, [1] * n, [2] * n, [0] * n)
    for degree_bound in range(1, 6):
        for seed in range(8):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(6):
                i, k = rng.randrange(n), rng.randrange(n)
                ref_rng.randrange(n), ref_rng.randrange(n)
                coded = gwa._random_corner_element(params, i, k, rng, degree_bound)
                ref = reference_random_corner_element(params, i, k, ref_rng, degree_bound)
                assert (coded is None) == (ref is None)
                if coded is not None:
                    assert_same_terms(decode_corner(n, coded), ref)
                assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("params", [
    Parameters.of(1, [Fraction(1, 2)], [Fraction(-3, 7)], [2]),
    Parameters.of(3, [2, Fraction(1, 2), 5], [7, Fraction(-3, 2), 13], [1, 2, Fraction(1, 3)]),
    Parameters.of(4, [0] * 4, [-1] * 4, [0] * 4),
])
def test_coded_probe_matches_fraction_probe(params):
    for degree_bound in (1, 3, 4):
        got = pwd_probe_gwa(params, degree_bound=degree_bound, trials=60, seed=degree_bound)
        assert got == reference_pwd_probe_gwa(params, degree_bound=degree_bound, trials=60,
                                              seed=degree_bound)


# ---------------------------------------------------------------------------
# A broken cross factor must show as a failing probe
# ---------------------------------------------------------------------------

# theta multiplies by X^{+-1} only, so a broken cross(3, -2) is seen by the
# probe alone, never by the relation and round-trip checks.
BROKEN = (3, -2)
GENERIC3 = {"n": 3, "alpha": ["2", "1/2", "5"], "beta": ["7", "-3/2", "13"],
            "gamma": ["1", "2", "1/3"]}


@pytest.fixture
def broken_cross(monkeypatch):
    """cross(3, -2) = 0 in both kernels, with every shift table rebuilt."""
    coded, fraction = gwa._ShiftTable.coded_cross, FractionShiftTable.cross

    def coded_cross(self, m1, m2):
        return (1, {}, {}) if (m1, m2) == BROKEN else coded(self, m1, m2)

    def fraction_cross(self, m1, m2):
        return BaseElement.zero(self.params.n) if (m1, m2) == BROKEN else fraction(self, m1, m2)

    monkeypatch.setattr(gwa._ShiftTable, "coded_cross", coded_cross)
    monkeypatch.setattr(FractionShiftTable, "cross", fraction_cross)
    _shift_table.cache_clear()
    fraction_table.cache_clear()
    yield
    _shift_table.cache_clear()
    fraction_table.cache_clear()


def test_probe_reports_a_broken_cross_factor(broken_cross):
    params = Parameters.of(3, GENERIC3["alpha"], GENERIC3["beta"], GENERIC3["gamma"])
    report = pwd_probe_gwa(params, trials=200, seed=4)
    assert not report.ok and report.failures
    assert {kind for _, kind, _, _ in report.failures} <= {"zero product", "top degree dropped"}
    # Same trials, kinds and printed factors as the Fraction probe with the
    # same broken factor; the printed factors are the reference draws.
    assert report == reference_pwd_probe_gwa(params, trials=200, seed=4)
    rng = random.Random(4)
    drawn = []
    for _ in range(200):
        i, k, j = (rng.randrange(3) for _ in range(3))
        a = reference_random_corner_element(params, i, k, rng, 3)
        drawn.append((str(a), str(reference_random_corner_element(params, k, j, rng, 3))))
    assert all(drawn[t] == (sa, sb) for t, _, sa, sb in report.failures)


def test_verify_gwa_fails_on_a_broken_cross_factor(broken_cross, tmp_path, capsys):
    cfg = tmp_path / "generic3.json"
    cfg.write_text(json.dumps(GENERIC3), encoding="utf-8")
    code = cli.main(["verify", "gwa", str(cfg), "--json"])
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert code == 1
    assert findings["relations_killed"] and findings["roundtrip_base"]
    assert findings["pwd"]["failures"] > 0


# ---------------------------------------------------------------------------
# The top parts first against the full product in every trial
# ---------------------------------------------------------------------------

def full_product_pwd_probe_gwa(params: Parameters, degree_bound: int = 3, trials: int = 200,
                               seed: int = 0) -> GwaPwdReport:
    """Sample sandwiched products in T and assert none vanishes.

    Also asserts the top X-degree of a product is the sum of the top
    X-degrees of the factors.  Factors and products stay coded; a failing
    trial's factors are decoded to print them.
    """
    table = _gwa_table(params)
    rng = random.Random(seed)
    failures = []
    tested = 0
    for t in range(trials):
        i, k, j = (rng.randrange(params.n) for _ in range(3))
        a = _random_corner_element(params, i, k, rng, degree_bound)
        b = _random_corner_element(params, k, j, rng, degree_bound)
        if a is None or b is None:
            continue
        tested += 1
        top = max((m for m, (_, nums) in _coded_multiply(table, a, b).items() if nums),
                  default=None)
        if top is None:
            kind = "zero product"
        elif top != max(a) + max(b):
            kind = "top degree dropped"
        else:
            continue
        failures.append((t, kind, str(_decode_gwa(params.n, a)), str(_decode_gwa(params.n, b))))
    return GwaPwdReport(trials, tested, seed, failures)


PROBE_PARAMS = [
    Parameters.of(1, [Fraction(1, 2)], [Fraction(-3, 7)], [2]),
    Parameters.of(3, [2, Fraction(1, 2), 5], [7, Fraction(-3, 2), 13], [1, 2, Fraction(1, 3)]),
    Parameters.of(4, [0] * 4, [-1] * 4, [0] * 4),
]


@pytest.mark.parametrize("params", PROBE_PARAMS)
def test_top_parts_first_matches_full_product_probe(params):
    for degree_bound in (1, 2, 3, 5):
        for seed in (0, 7):
            got = pwd_probe_gwa(params, degree_bound=degree_bound, trials=80, seed=seed)
            assert got.ok
            assert got == full_product_pwd_probe_gwa(params, degree_bound=degree_bound,
                                                     trials=80, seed=seed)


@pytest.fixture
def opposite_crosses_vanish(monkeypatch):
    """cross(m1, m2) = 0 whenever m1 and m2 have opposite signs, tables rebuilt."""
    genuine = gwa._ShiftTable.coded_cross
    monkeypatch.setattr(gwa._ShiftTable, "coded_cross",
                        lambda self, m1, m2: (1, {}, {}) if m1 * m2 < 0 else genuine(self, m1, m2))
    _shift_table.cache_clear()
    yield
    _shift_table.cache_clear()


@pytest.mark.parametrize("params", PROBE_PARAMS)
def test_top_parts_first_classifies_failures_as_full_product(params, opposite_crosses_vanish):
    # A top pair of opposite signs vanishes: the trial fails, as a zero
    # product when every pair has opposite signs and as a dropped top
    # degree when a lower pair survives.
    kinds = set()
    for degree_bound in (1, 2, 3, 4):
        got = pwd_probe_gwa(params, degree_bound=degree_bound, trials=100, seed=degree_bound)
        assert got == full_product_pwd_probe_gwa(params, degree_bound=degree_bound, trials=100,
                                                 seed=degree_bound)
        kinds.update(kind for _, kind, _, _ in got.failures)
    assert kinds == {"zero product", "top degree dropped"}


# ---------------------------------------------------------------------------
# theta with a coded accumulator against one gwa_multiply per generator
# ---------------------------------------------------------------------------

def reference_theta(params: Parameters, a: Element) -> GwaElement:
    """u_i -> X_i^-, d_i -> X_i^+, extended multiplicatively and linearly."""
    if not params.beta_all_nonzero():
        raise ValueError("theta requires all beta_i nonzero")
    n = params.n
    parts = []
    for p, c in a.terms.items():
        acc = GwaElement.from_base(BaseElement.e(n, p.source))
        for arrow in p.arrows:
            img = GwaElement.x_minus(n, arrow.index) if arrow.family == "u" else GwaElement.x_plus(n, arrow.index)
            acc = gwa_multiply(params, acc, img)
        parts.append((acc, c))
    return GwaElement.combine(n, parts)


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
        for a in (Element(n, terms), *(rule.as_relation() for rule in
                                        gwa.build_system(gwa.PRESET_QDU, params).rules)):
            assert_same_terms(theta(params, a), reference_theta(params, a))


def test_coded_theta_refuses_zero_beta():
    params = Parameters.of(2, [1, 1], [0, 1], [0, 0])
    with pytest.raises(ValueError, match="theta requires"):
        theta(params, Element.from_path(path_from_word(2, 0, "u")))
