"""The rewriting kernel against ``oracle``, which reduces from the definitions.

``oracle`` writes the relations as the paper states them and reduces by
left multiplication, where ``rewrite`` multiplies on the right; a confluent
system has one normal form, so both must agree term by term.  Covered:
the decoded rules of both presets, normal forms of random elements on
random parameters (zero entries, gamma != 0, denominators up to 10007,
words up to degree 14) and in confluent systems beyond the presets, the
overlap ambiguities of ``check_confluence``, and the oracle's own
independence from the package.  ``oracle.Gwa`` is checked here on the
paper's identities alone (X^- X^+ = x, X^+ X^- = sigma(x), sigma^-1 the
inverse of sigma, theta and theta' inverse on generators, theta killing
every relation, associativity) and on values worked by hand;
``test_gwa_reference.py`` compares the package's GWA kernel with it.
"""

import ast
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from quiverdu import rewrite
from quiverdu.core import Element, Parameters, path_from_word
from quiverdu.cyclotomic import CycScalar
from quiverdu.rewrite import (
    PRESET_PREPROJECTIVE,
    PRESET_QDU,
    ReductionSystem,
    RewriteRule,
    _arrow_rank,
    _preprojective_system,
    _qdu_specs,
    _RuleTables,
    _tables,
    _unpack_word,
    build_system,
    certify_confluence_over_parameters,
    check_confluence,
    normal_form,
)
from quiverdu.skewgroup import GRADED_DOWN_UP
from test_rewrite import symbolic_params

TESTS = Path(__file__).parent


def test_oracle_imports_nothing_from_the_package_or_the_tests():
    tree = ast.parse((TESTS / "oracle.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    test_modules = {p.stem for p in TESTS.glob("*.py")}
    assert imported and not any(name.split(".")[0] in test_modules | {"quiverdu"} for name in imported)
    assert all(node.level == 0 for node in ast.walk(tree) if isinstance(node, ast.ImportFrom))


# ---------------------------------------------------------------------------
# The oracle on known answers
# ---------------------------------------------------------------------------

def test_oracle_on_the_graded_down_up_algebra():
    # n = 1, alpha = gamma = 0, beta = -1: d^2 u = -u d^2 and d u^2 = -u^2 d.
    reducer = oracle.Reducer(oracle.oriented(oracle.qdu_relations(1, [0], [-1], [0]), 1))
    d, u = "d0", "u0"
    assert reducer.normal_form((d, d, u)) == {(u, d, d): -1}
    assert reducer.normal_form((d, u, u)) == {(u, u, d): -1}
    assert reducer.normal_form((d, d, u, u)) == {(u, u, d, d): 1}
    assert reducer.normal_form((u, d, u, d)) == {(u, d, u, d): 1}
    assert oracle.shape((u, d, u, d, d)) == (1, 1, 2) and oracle.shape(()) == (0, 0, 0)
    for word in ((d, u, u), (d, d, u), (u, d, d, u)):
        with pytest.raises(ValueError):
            oracle.shape(word)
    with pytest.raises(ValueError, match="not the largest"):
        oracle.oriented([((u, d), {(d, u): 1})], 1)


def test_oracle_elimination_over_fractions_and_cyclotomics():
    assert oracle.rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert oracle.rank([]) == 0 and oracle.rank([{}]) == 0 and oracle.rank([{"x": 0}]) == 0
    assert oracle.in_span([{0: 1, 1: 1}, {1: 1, 2: 1}], {0: 1, 1: 2, 2: 1})
    assert not oracle.in_span([{0: 1, 1: 1}, {1: 1, 2: 1}], {0: 1, 2: 1})
    assert oracle.spans_equal([{0: 1}, {1: 1}], [{0: 1, 1: 1}, {0: 1, 1: -1}])
    n = 3
    z, one, zero = CycScalar.zeta_power(n, 1), CycScalar.one(n), CycScalar.zero(n)
    # The second row is zeta times the first.
    assert oracle.rank([{0: one, 1: z}, {0: z, 1: z * z}], zero) == 1
    assert oracle.rank([{0: one, 1: zero}, {0: zero, 1: z}], zero) == 2
    assert oracle.in_span([{0: one, 1: z}], {0: z, 1: z * z}, zero)


def gwa_cases():
    """One oracle T per n = 1..4: random alpha and gamma (zeros among them), random nonzero beta."""
    rng = random.Random(3300)
    entry = lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
    for n in range(1, 5):
        beta = [Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 3, 7))) for _ in range(n)]
        yield oracle.Gwa(n, [entry() * rng.randint(0, 1) for _ in range(n)], beta,
                         [entry() * rng.randint(0, 1) for _ in range(n)])


@pytest.mark.parametrize("t", gwa_cases(), ids=lambda t: f"n{t.n}")
def test_oracle_gwa_identities(t):
    n = t.n
    one = t.combine((t.e(v), 1) for v in range(n))
    x_minus, x_plus = {-1: one}, {1: one}
    assert t.times(x_minus, x_plus) == {0: t.x_total()}
    assert t.times(x_plus, x_minus) == {0: t.sigma(t.x_total())}
    for v in range(n):
        for g in (t.e(v), t.x(v), t.y(v)):
            assert t.sigma(t.sigma(g, -1)) == g and t.sigma(t.sigma(g), -1) == g
            assert t.times(x_plus, {0: g}) == t.times({0: t.sigma(g)}, x_plus)
        for arrow, source in ((oracle.u(v, n), v), (oracle.d(v, n), (v + 1) % n)):
            assert t.theta_prime(t.theta({(source, (arrow,)): 1})) == {(source, (arrow,)): 1}
        for g in ({0: t.x(v)}, {0: t.y(v)}, {-1: t.e(v)}, {1: t.e(v + 1)}):  # x_v, y_v, X_v^-, X_v^+
            assert t.theta(t.theta_prime(g)) == g
    # theta is well defined on H: every relation maps to zero.
    for left, right in oracle.qdu_relations(n, t.alpha, t.beta, t.gamma):
        source = (int(left[0][1:]) + (left[0][0] == "d")) % n  # u_k leaves k, d_k leaves k + 1
        relation = {(source, left): 1, **{(source, w): -c for w, c in right.items()}}
        assert t.theta({(source, left): 1}) and t.theta(relation) == {}


def test_oracle_gwa_on_known_values():
    # n = 2, alpha = (2, 0), beta = (3, -1), gamma = (1/2, 5).
    t = oracle.Gwa(2, [2, 0], [3, -1], [Fraction(1, 2), 5])
    assert t.sigma(t.y(0)) == {(1, 0, 1): 2, (1, 1, 0): 3, (1, 0, 0): Fraction(1, 2)}
    assert t.sigma(t.x(1)) == {(0, 0, 1): 1} and t.sigma(t.e(1)) == {(0, 0, 0): 1}
    # sigma^-1(x_1) = (y_0 - 2 x_0 - 1/2 e_0) / 3
    assert t.sigma(t.x(1), -1) == {(0, 0, 1): Fraction(1, 3), (0, 1, 0): Fraction(-2, 3),
                                   (0, 0, 0): Fraction(-1, 6)}
    # X_0^+ X_0^- = e_1 X^+ e_0 X^- = y_1, and X^+ y_0 = sigma(y_0) X^+.
    assert t.times({1: t.e(1)}, {-1: t.e(0)}) == {0: t.y(1)}
    assert t.times({1: t.e(1)}, {0: t.y(0)}) == {1: t.sigma(t.y(0))}
    # (X^+)^2 (X^-)^2 = sigma(sigma(x)) sigma(x), at n = 1 with beta = 1: sigma swaps x and y.
    s = oracle.Gwa(1, [0], [1], [0])
    assert s.times({2: s.e(0)}, {-2: s.e(0)}) == {0: {(0, 1, 1): 1}}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_oracle_gwa_product_is_associative(data):
    t = data.draw(st.sampled_from(list(gwa_cases())))
    n = t.n
    monomials = st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.integers(0, 2))
    base = st.dictionaries(monomials, st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
                           min_size=1, max_size=2)
    a, b, c = (data.draw(st.dictionaries(st.integers(-2, 2), base, max_size=2)) for _ in range(3))
    assert t.times(t.times(a, b), c) == t.times(a, t.times(b, c))


# ---------------------------------------------------------------------------
# Translation between the package and the oracle
# ---------------------------------------------------------------------------

def names(path) -> tuple:
    """The arrow names of a Path, as the oracle writes a word."""
    return tuple(str(a) for a in path.arrows)


def packed(n: int, word: tuple) -> int:
    """The packed word of arrow names: d_k has code k and u_k code n + k, their places in the order."""
    return rewrite._pack_word([oracle.code(name, n) for name in word], rewrite._word_bits(n))


def word_names(n: int, word: int) -> tuple:
    """The arrow names of a packed word: code k < n is d_k, code n + k is u_k."""
    return tuple(f"d{k}" if k < n else f"u{k - n}" for k in _unpack_word(word, rewrite._word_bits(n)))


def oracle_rules(sys_: ReductionSystem) -> dict:
    n, params = sys_.n, sys_.params
    if sys_.preset == PRESET_PREPROJECTIVE:
        return oracle.oriented(oracle.preprojective_relations(n), n)
    return oracle.oriented(oracle.qdu_relations(n, params.alpha, params.beta, params.gamma), n)


def reducer_of(sys_: ReductionSystem) -> oracle.Reducer:
    return oracle.Reducer(oracle_rules(sys_))


def oracle_nf(reducer: oracle.Reducer, a: Element) -> dict:
    """NF(a) as {(source, word): Fraction}."""
    out: dict = {}
    for p, c in a.terms.items():
        for w, cw in reducer.normal_form(names(p)).items():
            key = (p.source, w)
            out[key] = out.get(key, 0) + c * cw
    return {k: Fraction(c) for k, c in out.items() if c}


def as_terms(a: Element) -> dict:
    return {(p.source, names(p)): c for p, c in a.terms.items()}


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def decoded_rules(sys_: ReductionSystem) -> dict:
    return {names(r.lhs): {names(q): c for q, c in r.rhs.terms.items()} for r in sys_.rules}


DENOMINATORS = (1, 2, 3, 7, 10007)


def random_params(rng: random.Random, n: int, zero_share: float = 0.25, denominators=DENOMINATORS,
                  nonzero_gamma: bool = False) -> Parameters:
    """Entries k/q, k in -9..9 nonzero and q drawn from ``denominators`` (1 if there are none),
    each zero with probability ``zero_share``; with ``nonzero_gamma``, a zero gamma gets one
    entry +-1/q."""
    over = lambda: rng.choice(denominators) if denominators else 1
    entry = lambda: Fraction(0) if rng.random() < zero_share else Fraction(rng.randint(-9, 9) or 1, over())
    alpha, beta, gamma = ([entry() for _ in range(n)] for _ in range(3))
    if nonzero_gamma and not any(gamma):
        gamma[rng.randrange(n)] = Fraction(rng.choice((-1, 1)), over())
    return Parameters.of(n, alpha, beta, gamma)


def param_cases(n: int):
    rng = random.Random(1000 + n)
    yield Parameters.of(n, [0] * n, [0] * n, [0] * n)
    yield Parameters.of(n, [1] * n, [0] * n, [2] * n)
    yield Parameters.of(n, [0] * n, [-1] * n, [0] * n)
    for zero_share in (0.0, 0.3, 0.6):
        for _ in range(8):
            yield random_params(rng, n, zero_share, (1, 2, 3, 4))


def assert_rules_are_the_relations(sys_: ReductionSystem) -> None:
    """Decoded rules, sources and int tables against the oracle's oriented relations."""
    want_rules = oracle_rules(sys_)
    assert decoded_rules(sys_) == want_rules
    assert [names(r.lhs) for r in sys_.rules] == list(want_rules)  # the paper's order
    tables, n = _tables(sys_), sys_.n
    D = lcm(*(Fraction(c).denominator for rhs in want_rules.values() for c in rhs.values()))
    assert (tables.denominator, tables.rule_exp) == (D, int(D != 1))
    assert [(word_names(n, lhs), {word_names(n, r): c for r, c in rhs}) for lhs, rhs in tables.rules] == \
        [(lhs, {w: D * c for w, c in rhs.items()}) for lhs, rhs in want_rules.items()]
    # A leading word starts where its first arrow does: u_k at k, d_k at k + 1.
    assert tables.sources == tuple((int(w[0][1:]) + (w[0][0] == "d")) % n for w in want_rules)
    assert all(type(c) is Fraction for r in sys_.rules for c in r.rhs.terms.values())


@pytest.mark.parametrize("n", range(1, 13))
def test_rules_are_the_papers_relations(n):
    for params in param_cases(n):
        # A private system: the decoded rules are read before the tables exist.
        assert_rules_are_the_relations(ReductionSystem(n, None, PRESET_QDU, params, _qdu_specs(params)))


@pytest.mark.parametrize("n", range(1, 13))
def test_preprojective_rules_are_the_relations(n):
    assert_rules_are_the_relations(_preprojective_system.__wrapped__(n))


def test_graded_system_rules_are_the_relations():
    assert_rules_are_the_relations(build_system(PRESET_QDU, GRADED_DOWN_UP))


def test_zero_entries_are_dropped():
    params = Parameters.of(2, [0, 3], [5, 0], [0, 0])
    assert [len(rhs) for _, _, rhs in _qdu_specs(params)] == [1, 1, 1, 1]
    assert_rules_are_the_relations(ReductionSystem(2, None, PRESET_QDU, params, _qdu_specs(params)))


def test_tables_refuse_what_rewrite_rule_refuses():
    # lhs d_2 u_2 u_0 from vertex 0 (to 1), and u_0 d_0 from 0 (to 0).
    n = 3
    code = lambda p: tuple(_arrow_rank(a, n) for a in p.arrows)
    cases = [
        ("duu", path_from_word(n, 1, "udu"), "wrong source/target"),  # another source
        ("duu", path_from_word(n, 0, "ud"), "wrong source/target"),   # another target
        ("ud", path_from_word(n, 0, "du"), "not oriented"),           # same length, larger
        ("ud", path_from_word(n, 0, "ud"), "not oriented"),           # the lhs itself
        ("ud", path_from_word(n, 0, "udud"), "not oriented"),         # longer
    ]
    for lhs_word, q, message in cases:
        lhs = path_from_word(n, 0, lhs_word)
        with pytest.raises(ValueError, match=message):
            RewriteRule(lhs, Element.from_path(q))
        with pytest.raises(ValueError, match=message):
            _RuleTables(n, ((0, code(lhs), ((code(q), Fraction(1)),)),))
        if message == "not oriented":  # the oracle refuses the same orientations
            with pytest.raises(ValueError, match="not the largest"):
                oracle.oriented([(names(lhs), {names(q): 1})], n)
    # A leading word that is no path from its source is refused, rhs or not.
    for rhs in ((), ((code(path_from_word(n, 0, "u")), 1),)):
        with pytest.raises(ValueError, match="lhs is not a path"):
            _RuleTables(n, ((1, code(path_from_word(n, 0, "duu")), rhs),))
    # An rhs word that is oriented and has the lhs's ends is accepted.
    lhs, q = path_from_word(n, 0, "duu"), path_from_word(n, 0, "uud")
    RewriteRule(lhs, Element.from_path(q))
    tables = _RuleTables(n, ((0, code(lhs), ((code(q), 1),)),))
    assert [(word_names(n, w), [(word_names(n, r), c) for r, c in rhs]) for w, rhs in tables.rules] == \
        [(names(lhs), [(names(q), 1)])]


@pytest.mark.parametrize("n", range(1, 5))
def test_rules_are_the_relations_over_polynomials(n):
    params = symbolic_params(n)
    value = lambda c: tuple(sorted(c.terms.items()))
    to_names = lambda codes: word_names(n, rewrite._pack_word(codes, rewrite._word_bits(n)))
    got = [(to_names(lhs), {to_names(r): value(c) for r, c in rhs}) for _, lhs, rhs in _qdu_specs(params)]
    want = oracle.oriented(oracle.qdu_relations(n, params.alpha, params.beta, params.gamma), n)
    assert got == [(lhs, {w: value(c) for w, c in rhs.items()}) for lhs, rhs in want.items()]


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

# Zero is drawn often, so beta_i = 0 and gamma = 0 both occur, next to
# integral and non-integral nonzero values.
SCALARS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                           Fraction(-1, 2), Fraction(3, 4)])


@st.composite
def cases(draw):
    """(system, element) over both presets, n = 1..4, and the graded down-up system."""
    preset = draw(st.sampled_from([PRESET_QDU, PRESET_PREPROJECTIVE, GRADED_DOWN_UP]))
    if preset is GRADED_DOWN_UP:
        n, sys_ = 1, build_system(PRESET_QDU, GRADED_DOWN_UP)
    else:
        n = draw(st.integers(1, 4))
        vec = st.lists(SCALARS, min_size=n, max_size=n)
        params = Parameters.of(n, draw(vec), draw(vec), draw(vec)) if preset == PRESET_QDU else None
        sys_ = build_system(preset, params, n=n)
    paths = st.builds(lambda v, word: path_from_word(n, v, word), st.integers(0, n - 1), st.text("ud", max_size=7))
    coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return sys_, Element(n, draw(st.dictionaries(paths, coeffs, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(cases())
@example((build_system(PRESET_QDU, Parameters.of(3, [2, 3, 5], [7, 0, 13], [1, 0, 4])),
          Element.from_path(path_from_word(3, 1, "ddddduu"))))
@example((build_system(PRESET_QDU, Parameters.of(2, [1, -1], [0, 0], [Fraction(3, 2), 1])),
          Element.from_path(path_from_word(2, 0, "dddudu"))))
def test_normal_form_matches_the_oracle(case):
    sys_, a = case
    assert as_terms(normal_form(sys_, a)) == oracle_nf(reducer_of(sys_), a)


def random_element(rng: random.Random, n: int) -> Element:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 1 / 3:  # d^a u^b, the deepest rewriting of its degree
            a = rng.randint(0, 14)
            word = "d" * a + "u" * rng.randint(0, 14 - a)
        else:
            word = "".join(rng.choice("ud") for _ in range(rng.randint(0, 14)))
        coeff = Fraction(rng.randint(-9, 9) or 1, rng.choice(DENOMINATORS + (4, 21)))
        terms[path_from_word(n, rng.randrange(n), word)] = coeff
    return Element(n, terms)


DRAWS_PER_N = 64


@pytest.mark.parametrize("n", range(1, 6))
def test_normal_form_matches_the_oracle_to_degree_14(n):
    # Entries with denominators up to 10007 (integral in every eighth draw),
    # a quarter of them zero, gamma != 0: the overlaps of each system, and
    # the normal forms of two random elements.
    rng = random.Random(15_000 + n)
    for draw in range(DRAWS_PER_N):
        params = random_params(rng, n, 0.25, () if draw % 8 == 0 else DENOMINATORS, nonzero_gamma=True)
        sys_ = ReductionSystem(n, None, PRESET_QDU, params, _qdu_specs(params))
        reducer = assert_overlaps_resolve(sys_)
        for _ in range(2):
            a = random_element(rng, n)
            got = normal_form(sys_, a)
            assert as_terms(got) == oracle_nf(reducer, a), (params, a)
            assert all(type(c) is Fraction for c in got.terms.values())


def custom_relations(n: int, rules: list) -> list:
    """(lhs path, rhs Element) of each (source, lhs word, {rhs word: coefficient}) of ``rules``."""
    return [(path_from_word(n, v, lhs), Element(n, {path_from_word(n, v, w): Fraction(c) for w, c in rhs.items()}))
            for v, lhs, rhs in rules]


# Confluent systems that are neither preset, with rational coefficients
# (D != 1): an inclusion ambiguity that resolves (d(du) -> r du -> r^2 u
# agrees with ddu -> r^2 u); du -> c ud + r e_v at each vertex, with the
# constant term absent at one vertex and a denominator 10007 at another;
# and uu -> u/2 at n = 1, whose leading word is all u (each code 2^b - 1),
# so the one-arrow word u packs to the suffix mask of uu and only the
# length guard keeps it from being rewritten.
CUSTOM_SYSTEMS = {
    "u-squared": (1, [(0, "uu", {"u": "1/2"})]),
    "inclusion": (1, [(0, "ddu", {"u": "1/4"}), (0, "du", {"u": "-1/2"})]),
    "weyl": (1, [(0, "du", {"ud": "2/3", "": "-1/2"})]),
    "weyl-three-vertices": (3, [(0, "du", {"ud": "2/3", "": "-1/2"}), (1, "du", {"ud": -1}),
                                (2, "du", {"ud": "5/7", "": "3/10007"})]),
}


@pytest.mark.parametrize("name", list(CUSTOM_SYSTEMS))
def test_normal_form_matches_the_oracle_beyond_the_presets(name):
    n, rules = CUSTOM_SYSTEMS[name]
    pairs = custom_relations(n, rules)
    sys_ = ReductionSystem(n, tuple(RewriteRule(lhs, rhs) for lhs, rhs in pairs), "custom")
    assert check_confluence(sys_).confluent
    assert _tables(sys_).denominator != 1
    # The oracle orients the same relations on its own.
    reducer = oracle.Reducer(oracle.oriented([(names(lhs), {names(q): c for q, c in rhs.terms.items()})
                                              for lhs, rhs in pairs], n))
    rng = random.Random(15_200 + n)
    for _ in range(40):
        a = random_element(rng, n)
        got = normal_form(sys_, a)
        assert as_terms(got) == oracle_nf(reducer, a), a
        assert all(type(c) is Fraction for c in got.terms.values())


# ---------------------------------------------------------------------------
# Overlap ambiguities
# ---------------------------------------------------------------------------

def definition_overlaps(rules: list) -> list:
    """(word, i, j) of each overlap: a proper suffix of leading word i equal to a proper
    prefix of leading word j, then leading word j inside a longer leading word i."""
    out = []
    for i, a1 in enumerate(rules):
        for j, a2 in enumerate(rules):
            out += [(a1 + a2[k:], i, j) for k in range(1, min(len(a1), len(a2))) if a1[-k:] == a2[:k]]
            if i != j and len(a2) < len(a1):
                out += [(a1, i, j) for pos in range(len(a1) - len(a2) + 1) if a1[pos:pos + len(a2)] == a2]
    return out


def assert_overlaps_resolve(sys_: ReductionSystem) -> oracle.Reducer:
    """The overlaps of ``check_confluence`` against the definition, each resolving, and the
    normal forms of their words against the oracle; returns the oracle's reducer."""
    report = check_confluence(sys_)
    assert [(names(o.word), o.left_rule, o.right_rule) for o in report.overlaps] == \
        definition_overlaps([names(r.lhs) for r in sys_.rules])
    assert report.confluent and all(o.difference == Element.zero(sys_.n) for o in report.overlaps)
    reducer = reducer_of(sys_)
    for o in report.overlaps:
        word = Element.from_path(o.word)
        assert as_terms(normal_form(sys_, word)) == oracle_nf(reducer, word)
    return reducer


def test_confluence_grid_overlaps_match_the_definitions(monkeypatch):
    instances = []
    original = rewrite.check_confluence

    def recording(sys_):
        instances.append(sys_.params)
        return original(sys_)

    monkeypatch.setattr(rewrite, "check_confluence", recording)
    certify_confluence_over_parameters(n=2)
    monkeypatch.undo()
    assert len(instances) == 27 + 5
    for params in instances:
        assert_overlaps_resolve(ReductionSystem(2, None, PRESET_QDU, params, _qdu_specs(params)))


@pytest.mark.parametrize("n", range(1, 6))
def test_overlaps_match_the_definitions(n):
    # Random QDU systems: test_normal_form_matches_the_oracle_to_degree_14.
    assert_overlaps_resolve(_preprojective_system.__wrapped__(n))
    assert_overlaps_resolve(build_system(PRESET_QDU, GRADED_DOWN_UP))


def test_an_inclusion_ambiguity_that_does_not_resolve():
    # One vertex, leading word du inside ddu: ddu -> c e_0 one way, and
    # d(du) -> d(r u) = r du -> r^2 u the other.
    n = 1
    e0, u, ddu, du = (path_from_word(n, 0, w) for w in ("", "u", "ddu", "du"))
    for c, r in ((Fraction(2), Fraction(1)), (Fraction(2, 3), Fraction(-1, 2))):
        rules = (RewriteRule(ddu, Element.from_path(e0, c)), RewriteRule(du, Element.from_path(u, r)))
        report = check_confluence(ReductionSystem(n, rules, "custom"))
        assert [(names(o.word), o.left_rule, o.right_rule) for o in report.overlaps] == \
            definition_overlaps([names(ddu), names(du)]) == [(("d0", "d0", "u0"), 0, 1)]
        assert report.overlaps[0].difference == Element(n, {e0: c, u: -r * r})
        assert not report.confluent
