import random
from fractions import Fraction

import pytest

from quiverdu.core import (
    Element,
    Parameters,
    Path,
    add_into,
    adjacency_matrix,
    down,
    format_element,
    multiply,
    parse_element,
    path_from_arrows,
    path_from_word,
    reduced,
    trivial_path,
    up,
)


def rand_element(n, rng, max_len=3, nterms=3):
    terms = {}
    for _ in range(nterms):
        src = rng.randrange(n)
        word = "".join(rng.choice("ud") for _ in range(rng.randrange(max_len + 1)))
        p = path_from_word(n, src, word)
        terms[p] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Element(n, terms)


def test_arrow_endpoints():
    n = 3
    assert up(0, n).source(n) == 0 and up(0, n).target(n) == 1
    assert down(0, n).source(n) == 1 and down(0, n).target(n) == 0
    assert down(2, n).source(n) == 0 and down(2, n).target(n) == 2


def test_path_composability_enforced():
    n = 3
    with pytest.raises(ValueError):
        Path(n, 0, (up(1, n),))
    with pytest.raises(ValueError):
        Path(n, 0, (up(0, n), up(0, n)))


def test_compose_identity_and_mismatch():
    n = 3
    e0 = Element.from_path(trivial_path(n, 0))
    u0 = Element.from_path(path_from_arrows(n, (up(0, n),)))
    assert e0 * u0 == u0
    assert (u0 * e0).is_zero()  # u_0 ends at vertex 1


def test_compose_d0_d2_for_n3():
    n = 3
    d0 = path_from_arrows(n, (down(0, n),))
    d2 = path_from_arrows(n, (down(2, n),))
    prod = Element.from_path(d0) * Element.from_path(d2)
    (p,) = prod.terms
    assert p.source == 1 and p.target == 2 and p.length == 2


def test_multiply_examples():
    n = 3
    u0 = Element.from_path(path_from_arrows(n, (up(0, n),)))
    d2 = Element.from_path(path_from_arrows(n, (down(2, n),)))
    e1 = Element.from_path(trivial_path(n, 1))
    assert (u0 + d2) * e1 == u0  # only u_0 ends at vertex 1
    assert Element.identity(n) * d2 == d2
    u1 = Element.from_path(path_from_arrows(n, (up(1, n),)))
    prod = (u0.scale(2)) * (u1.scale(3))
    assert prod == Element.from_path(path_from_word(n, 0, "uu"), 6)


def test_multiply_mismatched_n():
    with pytest.raises(ValueError):
        multiply(Element.identity(2), Element.identity(3))


def test_multiply_associative_and_distributive():
    rng = random.Random(7)
    n = 3
    for _ in range(25):
        a, b, c = (rand_element(n, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_identity_element():
    rng = random.Random(3)
    for n in (1, 2, 5):
        one = Element.identity(n)
        a = rand_element(n, rng)
        assert one * a == a and a * one == a


def test_product_endpoints():
    rng = random.Random(11)
    n = 4
    a, b = rand_element(n, rng), rand_element(n, rng)
    sources = {p.source for p in a.terms}
    targets = {q.target for q in b.terms}
    for r in (a * b).terms:
        assert r.source in sources and r.target in targets


def homogeneous_components(a):
    """Split an element by (length, source, target); the element is their sum."""
    parts = {}
    for p, c in a.terms.items():
        parts.setdefault((p.length, p.source, p.target), {})[p] = c
    return {key: Element(a.n, t) for key, t in parts.items()}


def test_homogeneous_decomposition_is_direct_sum():
    rng = random.Random(5)
    a = rand_element(3, rng, max_len=4, nterms=6)
    parts = homogeneous_components(a)
    total = Element.zero(3)
    for (length, src, tgt), comp in parts.items():
        for p in comp.terms:
            assert (p.length, p.source, p.target) == (length, src, tgt)
        total = total + comp
    assert total == a


def test_scalar_exactness():
    rng = random.Random(1)
    for _ in range(50):
        a = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        assert a * (1 / a) == 1


def test_adjacency_matrix():
    assert adjacency_matrix(1) == [[2]]
    assert adjacency_matrix(2) == [[0, 2], [2, 0]]
    assert adjacency_matrix(3) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    m = adjacency_matrix(5)
    assert all(m[i][j] == m[j][i] for i in range(5) for j in range(5))
    with pytest.raises(ValueError):
        adjacency_matrix(0)


def test_parameters_validation():
    with pytest.raises(ValueError):
        Parameters.of(3, [1, 2], [1, 1, 1], [0, 0, 0])
    p = Parameters.of(2, ["1/2", 0], [1, "3"], [0, 0])
    assert p.alpha == (Fraction(1, 2), Fraction(0))
    assert p.beta == (Fraction(1), Fraction(3))


def test_element_text_roundtrip():
    rng = random.Random(9)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            a = rand_element(n, rng, max_len=4, nterms=4)
            assert parse_element(format_element(a), n) == a
    assert parse_element("0", 3).is_zero()
    assert format_element(Element.zero(3)) == "0"


def test_element_text_examples():
    n = 3
    assert parse_element("1 @2", n) == Element.from_path(trivial_path(n, 2))
    a = parse_element("3/2 * u0.d0 + -1 @1", n)
    assert a.terms[path_from_word(n, 0, "ud")] == Fraction(3, 2)
    assert a.terms[trivial_path(n, 1)] == Fraction(-1)
    with pytest.raises(ValueError):
        parse_element("1/0 * u0", n)
    with pytest.raises(ValueError):
        parse_element("2", n)  # trivial term needs @v
    with pytest.raises(ValueError):
        parse_element("1 * u9", 3)
    with pytest.raises(ValueError):
        parse_element("1 * u0 @2", 3)  # annotation disagrees with arrows
    assert parse_element("1 * u0 @0", 3) == parse_element("1 * u0", 3)


def test_zero_coefficients_stripped():
    n = 2
    p = path_from_word(n, 0, "u")
    a = Element(n, {p: Fraction(0)})
    assert a.is_zero()
    b = Element.from_path(p) - Element.from_path(p)
    assert b.is_zero() and b == Element.zero(n)


# ---------------------------------------------------------------------------
# The int-coded form (den, {key: int})
# ---------------------------------------------------------------------------


def test_coded_round_trip_keeps_values_and_key_order():
    rng = random.Random(11)
    for n in (1, 2, 3, 5):
        for _ in range(40):
            a = rand_element(n, rng, max_len=4, nterms=rng.randint(0, 6))
            den, nums = a.coded()
            assert all(den % c.denominator == 0 for c in a.terms.values())
            assert all(type(c) is int and c for c in nums.values())
            assert list(nums) == list(a.terms)
            back = Element.from_coded(n, den, nums)
            assert back == a and list(back.terms) == list(a.terms)
            assert all(type(c) is Fraction for c in back.terms.values())


def test_coded_denominator_is_the_lcm():
    p, q, r = (path_from_word(3, 0, w) for w in ("u", "uu", "ud"))
    a = Element(3, {p: Fraction(1, 4), q: Fraction(5, 6), r: 2})
    assert a.coded() == (12, {p: 3, q: 10, r: 24})


def test_coded_zero_and_integral_values_are_over_one():
    assert Element.zero(3).coded() == (1, {})
    assert Element.from_coded(3, 1, {}) == Element.zero(3)
    assert Element.from_coded(3, 7, {}) == Element.zero(3)
    p, q = path_from_word(2, 0, "ud"), trivial_path(2, 1)
    a = Element(2, {p: 3, q: -2})
    assert a.coded() == (1, {p: 3, q: -2})
    back = Element.from_coded(2, 1, {p: 3, q: -2})
    assert back == a and all(type(c) is Fraction for c in back.terms.values())


def test_from_coded_drops_zeros_and_reduces_each_coefficient():
    p, q, r = (path_from_word(3, 1, w) for w in ("u", "d", "du"))
    x = Element.from_coded(3, 6, {p: 0, q: 4, r: -3})
    assert list(x.terms) == [q, r]
    assert x.terms == {q: Fraction(2, 3), r: Fraction(-1, 2)}
    assert Element.from_coded(3, 1, {p: 0, q: 0}).is_zero()


def test_add_into_lifts_only_when_the_denominator_does_not_divide():
    acc = [6, {"a": 1}]
    out = acc[1]
    add_into(acc, 3, {"b": 1})  # 3 divides 6: nothing is lifted
    assert acc == [6, {"a": 1, "b": 2}] and acc[1] is out
    add_into(acc, 1, {"a": 2}, p=-1)
    assert acc == [6, {"a": -11, "b": 2}]
    add_into(acc, 4, {"c": 1})  # lcm(6, 4) = 12, not 24
    assert acc == [12, {"a": -22, "b": 4, "c": 3}] and acc[1] is out
    add_into(acc, 8, {"a": 1}, p=3)  # lcm(12, 8) = 24
    assert acc == [24, {"a": -35, "b": 8, "c": 6}]


def test_add_into_without_strip_keeps_a_zero_sum_in_place():
    acc = [1, {"a": 1, "b": 1}]
    add_into(acc, 1, {"a": -1})
    assert list(acc[1].items()) == [("a", 0), ("b", 1)]
    add_into(acc, 2, {"a": 1, "c": 1})
    assert list(acc[1].items()) == [("a", 1), ("b", 2), ("c", 1)] and acc[0] == 2


def test_add_into_with_strip_deletes_a_zero_sum_and_re_appends_it():
    acc = [1, {"a": 1, "b": 1}]
    add_into(acc, 1, {"a": -1}, strip=True)
    assert list(acc[1].items()) == [("b", 1)]
    add_into(acc, 2, {"a": 1, "c": 1}, strip=True)
    assert list(acc[1].items()) == [("b", 2), ("a", 1), ("c", 1)] and acc[0] == 2


def test_add_into_matches_combination_sums():
    # strip=False is Combination.combine; strip=True is a chain of + .
    rng = random.Random(12)
    for n in (1, 2, 3):
        for _ in range(60):
            parts = [(rand_element(n, rng, max_len=2, nterms=rng.randint(0, 4)),
                      rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(rng.randint(1, 5))]
            for strip in (False, True):
                acc = [1, {}]
                for x, p in parts:
                    add_into(acc, *x.coded(), p, strip=strip)
                got = Element.from_coded(n, *acc)
                if strip:
                    ref = Element.zero(n)
                    for x, p in parts:
                        ref = ref + x.scale(p)
                    assert acc[1] == {k: v for k, v in acc[1].items() if v}
                else:
                    ref = Element.combine(n, parts)
                assert got == ref and list(got.terms) == list(ref.terms)


def test_reduced_divides_out_the_common_factor():
    assert reduced(12, {"a": 4, "b": -8}) == (3, {"a": 1, "b": -2})
    assert reduced(12, {"a": 4, "b": 6}) == (6, {"a": 2, "b": 3})
    nums = {"a": 3, "b": -2}
    den, same = reduced(5, nums)
    assert den == 5 and same is nums
    assert reduced(4, {}) == (1, {})
    assert reduced(1, {"a": 7}) == (1, {"a": 7})
