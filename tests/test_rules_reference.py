"""Differential test of the rule builders.

``rewrite`` builds the quiver down-up and preprojective rules straight
into int-coded specs (``_qdu_specs``) and decodes ``ReductionSystem.rules``
only when a caller reads it.  The references are the ``Path``-level
builders this replaced, kept verbatim in ``replaced_code``
(``_qdu_rules``, ``preprojective_system``), and the builder before them,
kept here as ``reference_qdu_rules``: it summed three single-path
Elements with ``+``.  The decoded rules must equal the references' (same
Paths, same term order, same Fractions), and the tables built from the
specs must equal those that ``replaced_code.rule_tables`` builds from the
reference rules, for n = 1..12 with random zero entries and for
polynomial coefficients at n = 1..4.
"""

import random
from fractions import Fraction

import pytest

from quiverdu.core import Element, Parameters, down, path_from_arrows, path_from_word, up
from quiverdu.rewrite import (
    PRESET_QDU,
    ReductionSystem,
    RewriteRule,
    _preprojective_system,
    _qdu_specs,
    _arrow_rank,
    _RuleTables,
    _tables,
    build_system,
)
from quiverdu.skewgroup import GRADED_DOWN_UP
from replaced_code import _qdu_rules, preprojective_system, rule_tables, tuple_tables
from test_rewrite import symbolic_params


def reference_qdu_rules(params: Parameters) -> tuple[RewriteRule, ...]:
    n = params.n
    rules = []
    for i in range(n):
        a, b, g = params.alpha[i], params.beta[i], params.gamma[i]
        u_i, u_i1 = up(i, n), up(i + 1, n)
        d_i, d_i1 = down(i, n), down(i + 1, n)
        u_prev, d_prev = up(i - 1, n), down(i - 1, n)
        # d_{i-1} u_{i-1} u_i -> a u_i d_i u_i + b u_i u_{i+1} d_{i+1} + g u_i
        lhs1 = path_from_arrows(n, (d_prev, u_prev, u_i))
        rhs1 = (
            Element.from_path(path_from_arrows(n, (u_i, d_i, u_i)), a)
            + Element.from_path(path_from_arrows(n, (u_i, u_i1, d_i1)), b)
            + Element.from_path(path_from_arrows(n, (u_i,)), g)
        )
        # d_i d_{i-1} u_{i-1} -> a d_i u_i d_i + b u_{i+1} d_{i+1} d_i + g d_i
        lhs2 = path_from_arrows(n, (d_i, d_prev, u_prev))
        rhs2 = (
            Element.from_path(path_from_arrows(n, (d_i, u_i, d_i)), a)
            + Element.from_path(path_from_arrows(n, (u_i1, d_i1, d_i)), b)
            + Element.from_path(path_from_arrows(n, (d_i,)), g)
        )
        rules.append(RewriteRule(lhs1, rhs1))
        rules.append(RewriteRule(lhs2, rhs2))
    return tuple(rules)


def random_params(rng: random.Random, n: int, zero_share: float) -> Parameters:
    def entry():
        if rng.random() < zero_share:
            return 0
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    return Parameters.of(n, *([entry() for _ in range(n)] for _ in range(3)))


def param_cases(n: int):
    rng = random.Random(1000 + n)
    yield Parameters.of(n, [0] * n, [0] * n, [0] * n)
    yield Parameters.of(n, [1] * n, [0] * n, [2] * n)
    yield Parameters.of(n, [0] * n, [-1] * n, [0] * n)
    for zero_share in (0.0, 0.3, 0.6):
        for _ in range(8):
            yield random_params(rng, n, zero_share)


def assert_same_tables(sys_: ReductionSystem, reference: ReductionSystem) -> None:
    tables = _tables(sys_)
    rules, by_last, denominator, rule_exp = rule_tables(reference)
    packed_rules, packed_by_last = tuple_tables(tables)
    assert packed_rules == rules
    assert list(packed_by_last.items()) == list(by_last.items())
    assert (tables.denominator, tables.rule_exp) == (denominator, rule_exp)
    assert tables.sources == tuple(r.lhs.source for r in reference.rules)


def assert_same_rules(params: Parameters, summed: bool = True) -> None:
    # A private system: the decoded rules are read before the tables exist.
    sys_ = ReductionSystem(params.n, None, PRESET_QDU, params, _qdu_specs(params))
    expected = _qdu_rules(params)
    assert sys_.rules == expected
    if summed:
        assert expected == reference_qdu_rules(params)
    for rule, ref in zip(sys_.rules, expected, strict=True):
        assert list(rule.rhs.terms.items()) == list(ref.rhs.terms.items())
        assert all(type(c) is type(r) for c, r in zip(rule.rhs.terms.values(), ref.rhs.terms.values()))
    assert_same_tables(sys_, ReductionSystem(params.n, expected, PRESET_QDU, params))


@pytest.mark.parametrize("n", range(1, 13))
def test_rules_match_the_path_builders(n):
    for params in param_cases(n):
        assert_same_rules(params)


@pytest.mark.parametrize("n", range(1, 5))
def test_rules_match_the_path_builder_over_polynomials(n):
    assert_same_rules(symbolic_params(n), summed=False)


@pytest.mark.parametrize("n", range(1, 13))
def test_preprojective_rules_match_the_path_builder(n):
    sys_, reference = _preprojective_system.__wrapped__(n), preprojective_system(n)
    assert sys_.rules == reference.rules
    assert all(type(c) is Fraction for rule in sys_.rules for c in rule.rhs.terms.values())
    assert_same_tables(sys_, reference)


def test_zero_entries_are_dropped():
    params = Parameters.of(2, [0, 3], [5, 0], [0, 0])
    assert [len(rhs) for _, _, rhs in _qdu_specs(params)] == [1, 1, 1, 1]
    assert_same_rules(params)


def test_graded_system_rules_match():
    sys_ = build_system(PRESET_QDU, GRADED_DOWN_UP)
    assert sys_.rules == reference_qdu_rules(sys_.params)


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
    # A leading word that is no path from its source is refused, rhs or not.
    for rhs in ((), ((code(path_from_word(n, 0, "u")), 1),)):
        with pytest.raises(ValueError, match="lhs is not a path"):
            _RuleTables(n, ((1, code(path_from_word(n, 0, "duu")), rhs),))
    # An rhs word that is oriented and has the lhs's ends is accepted.
    lhs, q = path_from_word(n, 0, "duu"), path_from_word(n, 0, "uud")
    RewriteRule(lhs, Element.from_path(q))
    tables = _RuleTables(n, ((0, code(lhs), ((code(q), 1),)),))
    assert tuple_tables(tables)[0] == ((code(lhs), ((code(q), 1),)),)
