"""Differential test of the quiver down-up rule builder.

``rewrite._qdu_rules`` builds each rule's right-hand side as one term map.
The reference is the builder it replaced, kept here verbatim as
``reference_qdu_rules``: it sums three single-path Elements with ``+``.
Both must give equal rule tuples, and the int-coded rule tables built from
them must be equal too, term order included, for n = 1..6 on random
parameters and on vectors with zero entries.
"""

import random
from fractions import Fraction

import pytest

from quiverdu.core import Element, Parameters, down, path_from_arrows, up
from quiverdu.rewrite import PRESET_QDU, ReductionSystem, RewriteRule, _qdu_rules, _tables, build_system
from quiverdu.skewgroup import GRADED_DOWN_UP


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


def assert_same_rules(params: Parameters) -> None:
    got, expected = _qdu_rules(params), reference_qdu_rules(params)
    assert got == expected
    for rule, ref in zip(got, expected):
        assert list(rule.rhs.terms.items()) == list(ref.rhs.terms.items())
        assert all(type(c) is Fraction for c in rule.rhs.terms.values())
    tables = _tables(ReductionSystem(params.n, got, PRESET_QDU, params))
    reference = _tables(ReductionSystem(params.n, expected, PRESET_QDU, params))
    assert tables.rules == reference.rules
    assert tables.by_last == reference.by_last


@pytest.mark.parametrize("n", range(1, 7))
def test_rules_match_the_summed_builder(n):
    for params in param_cases(n):
        assert_same_rules(params)


def test_zero_entries_are_dropped():
    params = Parameters.of(2, [0, 3], [5, 0], [0, 0])
    rules = _qdu_rules(params)
    assert [len(r.rhs.terms) for r in rules] == [1, 1, 1, 1]
    assert_same_rules(params)


def test_graded_system_rules_match():
    sys_ = build_system(PRESET_QDU, GRADED_DOWN_UP)
    assert sys_.rules == reference_qdu_rules(sys_.params)
