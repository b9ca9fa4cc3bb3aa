import itertools
import random
from fractions import Fraction

import pytest

from quiverdu import rewrite
from quiverdu.core import Element, Parameters, canonical_path_key, path_from_word, trivial_path
from quiverdu.rewrite import (
    PRESET_PREPROJECTIVE,
    PRESET_QDU,
    ReductionSystem,
    RewriteRule,
    _pack_word,
    _word_bits,
    basis_from,
    build_system,
    certify_confluence_over_parameters,
    check_confluence,
    dimension_matrices,
    dimension_matrix,
    ensure_confluent,
    enumerate_basis,
    normal_form,
    coded_shape,
    normal_shapes,
    term_order_greater,
)
from quiverdu.skewgroup import GRADED_DOWN_UP
import oracle
from oracle import shape


def rand_params(n, rng, nonzero_beta=True):
    rand = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    rand_nz = lambda: Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
    return Parameters.of(
        n,
        [rand() for _ in range(n)],
        [(rand_nz() if nonzero_beta else rand()) for _ in range(n)],
        [rand() for _ in range(n)],
    )


def rand_element(n, rng, max_len=4, nterms=3):
    terms = {}
    for _ in range(nterms):
        src = rng.randrange(n)
        word = "".join(rng.choice("ud") for _ in range(rng.randrange(max_len + 1)))
        terms[path_from_word(n, src, word)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Element(n, terms)


def test_term_order():
    n = 3
    duu = path_from_word(n, 0, "duu")  # d_2 u_2 u_0
    udu = path_from_word(n, 0, "udu")
    assert term_order_greater(duu, udu)
    assert not term_order_greater(udu, duu)
    short = path_from_word(n, 0, "u")
    assert term_order_greater(udu, short)


def test_qdu_rule_shapes():
    params = Parameters.of(3, [2, 3, 5], [7, 11, 13], [1, 0, 4])
    sys = build_system(PRESET_QDU, params)
    assert len(sys.rules) == 6
    lhs_words = {str(r.lhs) for r in sys.rules}
    # i = 0 instances of the two families
    assert "d2.u2.u0" in lhs_words
    assert "d0.d2.u2" in lhs_words
    rule = next(r for r in sys.rules if str(r.lhs) == "d0.d2.u2")
    rhs = {str(p): c for p, c in rule.rhs.terms.items()}
    assert rhs == {"d0.u0.d0": Fraction(2), "u1.d1.d0": Fraction(7), "d0": Fraction(1)}


def test_preprojective_rules():
    sys = build_system(PRESET_PREPROJECTIVE, n=3)
    assert len(sys.rules) == 3
    rule = next(r for r in sys.rules if str(r.lhs) == "d0.u0")
    assert {str(p): c for p, c in rule.rhs.terms.items()} == {"u1.d1": Fraction(1)}


def test_graded_down_up_rules():
    sys = build_system(PRESET_QDU, GRADED_DOWN_UP)
    shapes = {str(r.lhs): {str(p): c for p, c in r.rhs.terms.items()} for r in sys.rules}
    assert shapes == {
        "d0.u0.u0": {"u0.u0.d0": Fraction(-1)},
        "d0.d0.u0": {"u0.d0.d0": Fraction(-1)},
    }


def test_normal_form_applies_relation():
    params = Parameters.of(3, [2, 3, 5], [7, 11, 13], [1, 0, 4])
    sys = build_system(PRESET_QDU, params)
    a = Element.from_path(path_from_word(3, 1, "ddu"))  # d_0 d_2 u_2
    nf = normal_form(sys, a)
    expected = {"d0.u0.d0": Fraction(2), "u1.d1.d0": Fraction(7), "d0": Fraction(1)}
    assert {str(p): c for p, c in nf.terms.items()} == expected


def test_normal_form_fixed_point():
    params = Parameters.of(3, [1, 1, 1], [2, 2, 2], [0, 0, 0])
    sys = build_system(PRESET_QDU, params)
    a = Element.from_path(path_from_word(3, 0, "uud"))
    assert normal_form(sys, a) == a


def test_normal_form_idempotent_and_linear():
    rng = random.Random(17)
    params = rand_params(3, rng)
    sys = build_system(PRESET_QDU, params)
    for _ in range(15):
        a, b = rand_element(3, rng), rand_element(3, rng)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        nfa = normal_form(sys, a)
        assert normal_form(sys, nfa) == nfa
        assert normal_form(sys, a.scale(c) + b) == nfa.scale(c) + normal_form(sys, b)


def test_normal_form_grading():
    rng = random.Random(23)
    n = 3
    graded = build_system(PRESET_QDU, rand_params(n, rng).__class__.of(
        n, [1, 2, 3], [4, 5, 6], [0, 0, 0]))
    p = path_from_word(n, 1, "dduud")
    nf = normal_form(graded, Element.from_path(p))
    for q in nf.terms:
        assert (q.length, q.source, q.target) == (p.length, p.source, p.target)
    filtered = build_system(PRESET_QDU, Parameters.of(n, [1, 2, 3], [4, 5, 6], [1, 1, 1]))
    nf2 = normal_form(filtered, Element.from_path(p))
    for q in nf2.terms:
        assert q.length <= p.length
        assert (q.source, q.target) == (p.source, p.target)


def test_normal_form_compatible_with_multiplication():
    rng = random.Random(29)
    params = rand_params(3, rng)
    sys = build_system(PRESET_QDU, params)
    ensure_confluent(sys)
    for _ in range(10):
        a, b = rand_element(3, rng), rand_element(3, rng)
        assert normal_form(sys, a * b) == normal_form(sys, normal_form(sys, a) * normal_form(sys, b))


def test_confluence_qdu_overlap_count():
    rng = random.Random(31)
    for n in (1, 2, 3, 4):
        report = check_confluence(build_system(PRESET_QDU, rand_params(n, rng)))
        assert report.confluent
        assert len(report.overlaps) == n


def test_confluence_both_orders_agree():
    # d_1 d_0 u_0 u_1 reduces the same way via either rule first.
    params = Parameters.of(3, [1, 2, 3], [4, 5, 6], [7, 8, 9])
    sys = build_system(PRESET_QDU, params)
    w = Element.from_path(path_from_word(3, 2, "dduu"))  # d_1 d_0 u_0 u_1
    nf = normal_form(sys, w)
    report = check_confluence(sys)
    assert report.confluent
    assert normal_form(sys, w) == nf


def test_confluence_preprojective_no_overlaps():
    report = check_confluence(build_system(PRESET_PREPROJECTIVE, n=3))
    assert report.confluent and len(report.overlaps) == 0


def test_confluence_graded_single_overlap():
    sys = build_system(PRESET_QDU, GRADED_DOWN_UP)
    report = check_confluence(sys)
    assert report.confluent and len(report.overlaps) == 1
    word = report.overlaps[0].word
    assert str(word) == "d0.d0.u0.u0"
    # both routes end at u^2 d^2
    nf = normal_form(sys, Element.from_path(word))
    assert {str(p): c for p, c in nf.terms.items()} == {"u0.u0.d0.d0": Fraction(1)}


def test_checker_detects_non_confluence():
    # A deliberately broken system: d0.d0 -> u0.u0 and d0.u0 -> 0 overlap in
    # d0.d0.u0, whose two reductions differ by u0.u0.u0.
    from quiverdu.rewrite import RewriteRule

    n = 1
    r1 = RewriteRule(path_from_word(n, 0, "dd"), Element.from_path(path_from_word(n, 0, "uu")))
    r2 = RewriteRule(path_from_word(n, 0, "du"), Element.zero(n))
    sys = ReductionSystem(n, (r1, r2), "custom")
    report = check_confluence(sys)
    assert not report.confluent
    bad = [o for o in report.overlaps if not o.resolves]
    assert bad
    assert {str(p) for o in bad for p in o.difference.terms} <= {"u0.u0.u0", "u0.u0.d0"}
    with pytest.raises(ValueError, match="not confluent"):
        ensure_confluent(sys)
    assert not sys.verified


def test_check_confluence_decodes_only_unresolved_differences(monkeypatch):
    decoded = []
    from_coded = Element.from_coded.__func__

    def counting(cls, n, den, nums):
        decoded.append(dict(nums))
        return from_coded(cls, n, den, nums)

    monkeypatch.setattr(Element, "from_coded", classmethod(counting))
    params = Parameters.of(3, [2, 3, 5], [7, 11, 13], [1, 0, 4])
    report = check_confluence(ReductionSystem(3, None, PRESET_QDU, params, rewrite._qdu_specs(params)))
    assert report.confluent and len(report.overlaps) == 3 and decoded == []
    # alpha_0 + 1 in the first rule only: the two overlaps that reduce by
    # rule 0 no longer resolve (test_perturbed_rule_leaves_an_overlap_unresolved),
    # and only their differences are decoded.
    first, *rest = build_system(PRESET_QDU, params).rules
    (word, c), *others = first.rhs.terms.items()
    perturbed = RewriteRule(first.lhs, Element(3, {word: c + 1, **dict(others)}))
    report = check_confluence(ReductionSystem(3, (perturbed, *rest), "custom"))
    bad = [o for o in report.overlaps if not o.resolves]
    assert [(o.left_rule, o.right_rule) for o in bad] == [(1, 0), (5, 4)]
    assert len(report.overlaps) == 3
    assert [{p for p, c in nums.items() if c} for nums in decoded] == [set(o.difference.terms) for o in bad]


def test_grid_certificate_small():
    cert = certify_confluence_over_parameters(2, random_trials=2, seed=5)
    assert cert.all_resolved
    assert cert.instances == 27 + 2


def test_is_zero_in_quotient():
    params = Parameters.of(3, [2, 3, 5], [7, 11, 13], [1, 0, 4])
    shared = build_system(PRESET_QDU, params)
    # A private system: the shared one may have been verified already.
    sys = ReductionSystem(shared.n, shared.rules, shared.preset, shared.params)
    rel = next(r for r in sys.rules if str(r.lhs) == "d0.d2.u2").as_relation()
    assert not sys.verified
    assert ensure_confluent(sys) is sys and sys.verified
    assert normal_form(sys, rel).is_zero()
    u0 = Element.from_path(path_from_word(3, 0, "u"))
    assert not normal_form(sys, u0).is_zero()


def test_beta_zero_zero_divisor():
    # (d_2 u_2 - a_0 u_0 d_0 - g_0 e_0) u_0 = 0 when beta_0 = 0
    params = Parameters.of(3, [2, 3, 5], [0, 11, 13], [1, 0, 4])
    sys = ensure_confluent(build_system(PRESET_QDU, params))
    a = (
        Element.from_path(path_from_word(3, 0, "du"))
        - Element.from_path(path_from_word(3, 0, "ud"), params.alpha[0])
        - Element.from_path(trivial_path(3, 0), params.gamma[0])
    )
    u0 = Element.from_path(path_from_word(3, 0, "u"))
    assert normal_form(sys, a * u0).is_zero()


def test_enumerate_basis_counts():
    params = Parameters.of(3, [1, 1, 1], [1, 1, 1], [0, 0, 0])
    sys = build_system(PRESET_QDU, params)
    assert len(enumerate_basis(sys, 0)) == 3
    assert len(enumerate_basis(sys, 2)) == 12
    assert len(enumerate_basis(sys, 3)) == 18


def test_enumerate_basis_matches_brute_force():
    # Every u/d letter word from every source, kept when no rule's leading
    # word occurs in it as a factor.
    systems = [build_system(PRESET_QDU, GRADED_DOWN_UP)]
    for n in (1, 2, 3):
        systems.append(build_system(PRESET_QDU, Parameters.of(n, [1] * n, [2] * n, [3] * n)))
        systems.append(build_system(PRESET_PREPROJECTIVE, n=n))
    for sys in systems:
        lhs_words = [r.lhs.arrows for r in sys.rules]
        for k in range(7):
            brute = []
            for src in range(sys.n):
                for word in itertools.product("ud", repeat=k):
                    p = path_from_word(sys.n, src, "".join(word))
                    if not any(p.arrows[i:i + len(f)] == f
                               for f in lhs_words for i in range(k - len(f) + 1)):
                        brute.append(p)
            assert enumerate_basis(sys, k) == sorted(brute, key=canonical_path_key)


def test_basis_from_is_enumerate_basis_at_one_source():
    systems = [build_system(PRESET_QDU, GRADED_DOWN_UP), build_system(PRESET_PREPROJECTIVE, n=3)]
    for n in (1, 2, 3, 4):
        systems.append(build_system(PRESET_QDU, Parameters.of(n, [1] * n, [2] * n, [3] * n)))
    for sys in systems:
        tables = rewrite._tables(sys)
        for v in range(sys.n):
            by_degree = basis_from(sys, v, 7)
            assert len(by_degree) == 8
            for k, words in enumerate(by_degree):
                assert [tables.path(v, w) for w in words] == [p for p in enumerate_basis(sys, k)
                                                              if p.source == v]
        assert basis_from(sys, 0, 0) == [[1]] and tables.path(0, 1) == trivial_path(sys.n, 0)
        assert basis_from(sys, 0, -1) == []


def test_dimension_matrix_examples():
    params = Parameters.of(3, [1, 2, 3], [4, 5, 6], [0, 0, 0])
    sys = build_system(PRESET_QDU, params)
    assert dimension_matrix(sys, 0) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert dimension_matrix(sys, 2) == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert sum(sum(row) for row in dimension_matrix(sys, 3)) == 18


def test_dimension_matrix_parameter_independent():
    rng = random.Random(37)
    n, k = 3, 6
    mats = set()
    for _ in range(4):
        sys = build_system(PRESET_QDU, rand_params(n, rng, nonzero_beta=False))
        mats.add(tuple(map(tuple, dimension_matrix(sys, k))))
    assert len(mats) == 1


def test_dimension_matrix_agrees_with_enumeration():
    qdu = build_system(PRESET_QDU, Parameters.of(3, [1, 2, 3], [4, 5, 6], [7, 8, 9]))
    for sys in (build_system(PRESET_PREPROJECTIVE, n=3), build_system(PRESET_QDU, GRADED_DOWN_UP), qdu):
        mats = dimension_matrices(sys, 5)
        assert len(mats) == 6
        for k in range(6):
            paths = enumerate_basis(sys, k)
            counts = [[0] * sys.n for _ in range(sys.n)]
            for p in paths:
                counts[p.source][p.target] += 1
            assert mats[k] == dimension_matrix(sys, k) == counts
    with pytest.raises(ValueError):
        dimension_matrices(qdu, -1)


def test_build_system_shares_one_system_per_key():
    params = Parameters.of(3, [1, 2, 3], [4, 5, 6], [7, 8, 9])
    same = Parameters.of(3, ["1", "2", "3"], [4, 5, 6], [7, 8, 9])
    qdu = build_system(PRESET_QDU, params)
    assert build_system(PRESET_QDU, same) is qdu
    assert build_system(PRESET_QDU, params, n=3) is qdu
    assert build_system(PRESET_QDU, Parameters.of(3, [1, 2, 3], [4, 5, 6], [7, 8, 0])) is not qdu
    pre = build_system(PRESET_PREPROJECTIVE, n=3)
    assert build_system(PRESET_PREPROJECTIVE, params) is pre
    assert build_system(PRESET_PREPROJECTIVE, params, n=3) is pre
    assert build_system(PRESET_PREPROJECTIVE, n=4) is not pre
    graded = build_system(PRESET_QDU, GRADED_DOWN_UP)
    assert build_system(PRESET_QDU, GRADED_DOWN_UP) is graded
    assert graded is build_system(PRESET_QDU, graded.params)


def reference_closed_shape_matrix(n, degree):
    """The enumeration of every shape u^a (du)^j d^c that the closed count replaced (verbatim)."""
    offsets = [0] * n
    for a, _, c in normal_shapes(degree):
        offsets[(a - c) % n] += 1
    return [[offsets[(j - i) % n] for j in range(n)] for i in range(n)]


def test_closed_shape_count_matches_enumeration():
    for n in range(1, 13):
        for degree in range(61):
            assert rewrite._closed_shape_matrix(n, degree) == reference_closed_shape_matrix(n, degree), \
                (n, degree)


def params_with_zeros(n, rng):
    """Random alpha, beta and gamma with a zero entry in each vector (all zero at n = 1)."""
    vec = lambda: [rng.choice([0, 1, -2, Fraction(3, 5)]) for _ in range(n)]
    alpha, beta, gamma = vec(), vec(), vec()
    for v in (alpha, beta, gamma):
        v[rng.randrange(n)] = 0
    return Parameters.of(n, alpha, beta, gamma)


def oracle_listing(sys, max_degree):
    """``oracle.normal_words`` from every source of ``sys``'s preset and parameters: the words
    packed as the kernel packs them, by source and degree, and their counts by degree, source
    and target."""
    n, bits = sys.n, _word_bits(sys.n)
    if sys.preset == PRESET_PREPROJECTIVE:
        relations = oracle.preprojective_relations(n)
    else:
        relations = oracle.qdu_relations(n, sys.params.alpha, sys.params.beta, sys.params.gamma)
    rules = oracle.oriented(relations, n)
    words, counts = [], [[[0] * n for _ in range(n)] for _ in range(max_degree + 1)]
    for v in range(n):
        by_degree = oracle.normal_words(rules, n, v, max_degree)
        packed = {(): 1}  # a word's prefix is a normal word of one degree less, packed before it
        counts[0][v][v] = 1
        for k in range(1, max_degree + 1):
            for w in by_degree[k]:
                packed[w] = (packed[w[:-1]] << bits) | oracle.code(w[-1], n)
                counts[k][v][oracle.arrow_ends(w[-1], n)[1]] += 1
        words.append([[packed[w] for w in names] for names in by_degree])
    return words, counts


@pytest.mark.parametrize("n", range(1, 13))
def test_basis_from_and_dimension_matrices_are_the_oracle_words_to_degree_20(n):
    # The words spelled from the shape, in order, and the closed count,
    # against the words with no leading word as a factor, listed by the
    # oracle from the paper's relations.
    rng = random.Random(40 + n)
    for sys in (build_system(PRESET_QDU, params_with_zeros(n, rng)), build_system(PRESET_PREPROJECTIVE, n=n)):
        words, counts = oracle_listing(sys, 20)
        assert [basis_from(sys, v, 20) for v in range(n)] == words, (n, sys.preset)
        assert dimension_matrices(sys, 20) == counts, (n, sys.preset)


def leading_codes(n, source, letters):
    """The arrow codes of the path from ``source`` with these letters, read from core's Path."""
    return tuple(rewrite._arrow_rank(a, n) for a in path_from_word(n, source, letters).arrows)


def qdu_specs(n=3):
    return list(rewrite._qdu_specs(Parameters.of(n, [1] * n, [2] * n, [3] * n)))


def refused(specs, preset=PRESET_QDU, n=3):
    """The AssertionError message of ``check_leading_words`` on these specs."""
    sys = ReductionSystem(n, None, preset, specs=tuple(specs))
    with pytest.raises(AssertionError) as exc:
        rewrite.check_leading_words(sys)
    with pytest.raises(AssertionError):
        dimension_matrices(sys, 2)
    return str(exc.value)


def test_leading_word_check_accepts_the_presets():
    for n in range(1, 13):
        rng = random.Random(n)
        for sys in (build_system(PRESET_QDU, params_with_zeros(n, rng)), build_system(PRESET_PREPROJECTIVE, n=n)):
            rewrite.check_leading_words(sys)
            assert sorted((s, leading_codes(n, s, w)) for s in range(n)
                          for w in rewrite._LETTER_PATTERNS[sys.preset]) == sorted((s, l) for s, l, _ in sys.specs)


@pytest.mark.parametrize("index, letters", [(0, "udu"), (0, "uud"), (1, "dud"), (4, "udd"), (5, "dud")])
def test_leading_word_check_refuses_permuted_letters(index, letters):
    specs = qdu_specs()
    source, _, rhs = specs[index]
    specs[index] = (source, leading_codes(3, source, letters), rhs)
    assert refused(specs) == f"leading word ({source}, {letters!r}) is extra to the quiver-down-up letter patterns"


def test_leading_word_check_refuses_a_missing_or_added_rule():
    specs = qdu_specs()
    assert refused(specs[:3] + specs[4:]) == \
        "leading word (2, 'ddu') is missing from the quiver-down-up letter patterns"
    extra = (0, leading_codes(3, 0, "uu"), ())
    assert refused(specs + [extra]) == "leading word (0, 'uu') is extra to the quiver-down-up letter patterns"
    # The same leading word twice (another rhs) is one more than the patterns allow.
    twice = (specs[2][0], specs[2][1], ((specs[2][1][:1], Fraction(1)),))
    assert refused(specs + [twice]) == "leading word (1, 'duu') is extra to the quiver-down-up letter patterns"
    pre = list(build_system(PRESET_PREPROJECTIVE, n=3).specs)
    assert refused(pre[1:], PRESET_PREPROJECTIVE) == \
        "leading word (1, 'du') is missing from the preprojective letter patterns"


def test_leading_word_check_refuses_a_word_from_another_source():
    # d_2 u_2 u_0 read from vertex 1: the letters are duu, but not a path from 1.
    specs = qdu_specs()
    source, lhs, rhs = specs[0]
    specs[0] = (1, lhs, rhs)
    assert refused(specs) == "leading word (1, 'duu') is extra to the quiver-down-up letter patterns"


def test_leading_word_check_refuses_qdu_specs_labelled_preprojective():
    for n in (1, 2, 3, 7):
        message = refused(qdu_specs(n), PRESET_PREPROJECTIVE, n)
        assert message == "leading word (0, 'duu') is extra to the preprojective letter patterns"
    pre = build_system(PRESET_PREPROJECTIVE, n=3).specs
    assert refused(pre, PRESET_QDU) == "leading word (1, 'du') is extra to the quiver-down-up letter patterns"


def test_dimension_matrices_needs_a_letter_pattern():
    qdu = build_system(PRESET_QDU, Parameters.of(3, [1, 2, 3], [4, 5, 6], [7, 8, 9]))
    custom = ReductionSystem(3, qdu.rules, "custom")
    with pytest.raises(ValueError, match="no leading-word letter pattern for preset 'custom'"):
        dimension_matrices(custom, 4)
    # The same rules under the preset's name are counted.
    assert dimension_matrices(ReductionSystem(3, qdu.rules, PRESET_QDU), 4) == dimension_matrices(qdu, 4)


def test_listing_the_basis_needs_a_letter_pattern():
    qdu = build_system(PRESET_QDU, Parameters.of(3, [1, 2, 3], [4, 5, 6], [7, 8, 9]))
    custom = ReductionSystem(3, qdu.rules, "custom")
    for listing in (lambda: enumerate_basis(custom, 2), lambda: basis_from(custom, 0, 2)):
        with pytest.raises(ValueError, match="no leading-word letter pattern for preset 'custom'"):
            listing()
    assert enumerate_basis(ReductionSystem(3, qdu.rules, PRESET_QDU), 2) == enumerate_basis(qdu, 2)


# ---------------------------------------------------------------------------
# Rule coefficients without ``denominator``: the int-coded kernel runs on
# them with D = 1 and passes them through unchanged, so the overlaps of the
# quiver down-up rules resolve as polynomial identities in the parameters.
# ---------------------------------------------------------------------------


class Poly:
    """A sparse polynomial with int coefficients in named variables.

    ``terms`` maps a monomial, a sorted tuple of (variable, exponent), to
    a nonzero int.  Ints mix in as constants.  Only ``+``, ``*`` and the
    zero test exist: no division, no gcd and no ``denominator``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def var(cls, name) -> "Poly":
        return cls({((name, 1),): 1})

    @staticmethod
    def lift(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        if type(x) is not int:
            raise TypeError(f"no polynomial for {x!r}")
        return Poly({(): x})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in Poly.lift(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in Poly.lift(other).terms.items():
                exps = dict(m1)
                for v, k in m2:
                    exps[v] = exps.get(v, 0) + k
                m = tuple(sorted(exps.items()))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)


def symbolic_params(n: int) -> Parameters:
    """(alpha, beta, gamma) as n independent variables each, through ``Parameters`` itself."""
    return Parameters(n, *(tuple(Poly.var((name, i)) for i in range(n)) for name in "abg"))


def symbolic_system(n: int, specs=None) -> ReductionSystem:
    """A private quiver down-up system over ``symbolic_params(n)``, or with the given specs."""
    params = symbolic_params(n)
    return ReductionSystem(n, None, PRESET_QDU, params, specs or rewrite._qdu_specs(params))


def unresolved_overlaps(sys_: ReductionSystem) -> list:
    """The overlaps of ``sys_`` whose difference is not zero, resolved as
    ``check_confluence`` does, without decoding: found on the rules read
    back as tuples, and each word reduced packed by the kernel."""
    n, tables = sys_.n, rewrite._tables(sys_)
    assert tables.denominator == 1 and tables.rule_exp == 0
    codes = lambda word: rewrite._unpack_word(word, tables.bits)
    rules = [(codes(lhs), tuple((codes(r), c) for r, c in rhs)) for lhs, rhs in tables.rules]
    found, unresolved = 0, []
    for i, (a1, rhs1) in enumerate(rules):
        for j, (a2, rhs2) in enumerate(rules):
            for k in range(1, min(len(a1), len(a2))):
                if a1[len(a1) - k:] != a2[:k]:
                    continue
                found += 1
                diff, e = {}, 0
                sides = ((((), rhs1, a2[k:]), 1), ((a1[:-k], rhs2, ()), -1))
                for (prefix, rhs, suffix), sign in sides:
                    for r, c in rhs:
                        pe, part = rewrite._normal_word(tables, _pack_word(prefix + r + suffix, tables.bits))
                        e = rewrite._add_scaled(diff, e, part, pe, sign * c, 1)
                assert e == 0
                if any(diff.values()):
                    unresolved.append((i, j))
    numeric = check_confluence(build_system(PRESET_QDU, Parameters.of(n, [1] * n, [2] * n, [3] * n)))
    assert found == len(numeric.overlaps) > 0
    return unresolved


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_overlaps_resolve_over_polynomial_coefficients(n):
    sys_ = symbolic_system(n)
    assert all(isinstance(c, Poly) for _, _, rhs in sys_.specs for _, c in rhs)
    assert not hasattr(sys_.specs[0][2][0][1], "denominator")
    assert unresolved_overlaps(sys_) == []
    # check_confluence zero-tests each difference before decoding it, so it
    # certifies the polynomial system too.
    assert check_confluence(sys_).confluent


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_perturbed_rule_leaves_an_overlap_unresolved(n):
    # alpha_0 + eps in the first rule only: the rules no longer come from
    # one parameter vector, and the overlaps that reduce by rule 0 see it.
    specs = list(rewrite._qdu_specs(symbolic_params(n)))
    source, lhs, ((first, c), *rest) = specs[0]
    specs[0] = (source, lhs, ((first, c + Poly.var(("eps", 0))), *rest))
    expected = [(1, 0)] + ([(2 * n - 1, 2 * n - 2)] if n > 1 else [])
    sys_ = symbolic_system(n, tuple(specs))
    assert unresolved_overlaps(sys_) == expected
    # check_confluence reports them too, each difference kept as
    # {word: nonzero polynomial}, since no Element holds a Poly.
    bad = [o for o in check_confluence(sys_).overlaps if not o.resolves]
    assert [(o.left_rule, o.right_rule) for o in bad] == expected
    for o in bad:
        assert o.difference and all(type(w) is int and isinstance(c, Poly) and c
                                    for w, c in o.difference.items())


def test_coded_shape_matches_the_letter_parser():
    # Every u/d word up to length 8, each letter coded as a random arrow
    # code of its family (below n for d): the shape, or ValueError, agrees
    # with the oracle's letter reader.
    rng = random.Random(5)
    for n in (1, 2, 5):
        for length in range(9):
            for letters in itertools.product("ud", repeat=length):
                codes = (n + rng.randrange(n) if x == "u" else rng.randrange(n) for x in letters)
                word = _pack_word(codes, _word_bits(n))
                try:
                    expected = shape(letters)
                except ValueError:
                    with pytest.raises(ValueError):
                        coded_shape(n, word)
                else:
                    assert coded_shape(n, word) == expected


def test_coded_shape_reads_basis_paths_as_normal_shape():
    from test_oracle import names  # here, since test_oracle imports this module
    sys_ = ensure_confluent(build_system(PRESET_QDU, rand_params(3, random.Random(8))))
    tables = rewrite._tables(sys_)
    for p in enumerate_basis(sys_, 7):
        assert coded_shape(3, tables.encode(p)) == shape(names(p))
