"""Differential test of the integer normal-form kernel.

``rewrite`` keeps every combination as int numerators over a power of the
system's denominator D (the lcm of the rule coefficients' denominators).
The reference is the kernel it replaced, which carried ``Fraction``
coefficients, kept here verbatim: the rule coercion of ``_RuleTables``
(as ``ReferenceTables``), ``_add_scaled``, ``_times_word``,
``_reduce_end``, ``_normal_word``, ``normal_form_path``, ``normal_form``
and the overlap loop of ``check_confluence``.  Both must give the same
terms in the same order, and the same overlap differences, on seeded
parameter vectors whose entries have denominators 1, 2, 3, 7 and 10007
(zero entries and gamma != 0 included) and on elements with mixed
coefficient denominators and words up to degree 14.
"""

import random
from fractions import Fraction

import pytest

from quiverdu.core import Element, Parameters, Path, down, path_from_word, up
from quiverdu.rewrite import (
    PRESET_QDU,
    ReductionSystem,
    RewriteRule,
    _arrow_rank,
    _qdu_specs,
    check_confluence,
    normal_form,
)


class ReferenceTables:
    """The rule tables of the Fraction kernel: integral coefficients as ints, the rest as Fractions."""

    def __init__(self, sys: ReductionSystem):
        n = self.n = sys.n
        self.arrows = tuple(down(i, n) for i in range(n)) + tuple(up(i, n) for i in range(n))
        rules, by_last = [], {}
        for rule in sys.rules:
            lhs = self.encode(rule.lhs)
            rhs = tuple((self.encode(q), c.numerator if c.denominator == 1 else c)
                        for q, c in rule.rhs.terms.items())
            rules.append((lhs, rhs))
            by_last.setdefault(lhs[-1], []).append((lhs, len(lhs), rhs))
        self.rules, self.by_last = tuple(rules), by_last
        self.memo: dict = {}
        self.nf_cache: dict = {}

    def encode(self, path: Path) -> tuple:
        return tuple(_arrow_rank(a, self.n) for a in path.arrows)

    def path(self, source: int, word: tuple) -> Path:
        return Path(self.n, source, tuple(self.arrows[k] for k in word))

    def element(self, source: int, comb: dict) -> Element:
        return Element._from_sums(self.n, {self.path(source, w): Fraction(c)
                                           for w, c in comb.items() if c})


def _add_scaled(out: dict, part: dict, c) -> None:
    """out += c * part, on combinations (zero sums are left in)."""
    for v, cv in part.items():
        old = out.get(v)
        out[v] = c * cv if old is None else old + c * cv


def _times_word(by_last: dict, memo: dict, comb: dict, word: tuple):
    for a in word:
        out: dict = {}
        for w, c in comb.items():
            wa = w + (a,)
            nf = memo.get(wa)
            if nf is None:
                for rule in by_last.get(a, ()):
                    if wa[-rule[1]:] == rule[0]:
                        nf = yield wa, rule
                        break
                else:
                    old = out.get(wa)
                    out[wa] = c if old is None else old + c
                    continue
            _add_scaled(out, nf, c)
        comb = {v: c for v, c in out.items() if c}
    return comb


def _reduce_end(by_last: dict, memo: dict, wa: tuple, rule: tuple):
    _, k, rhs = rule
    prefix = {wa[:-k]: 1}
    out: dict = {}
    for r, c in rhs:
        _add_scaled(out, (yield from _times_word(by_last, memo, prefix, r)), c)
    nf = {v: cv for v, cv in out.items() if cv}
    memo[wa] = nf
    return nf


def _normal_word(tables: ReferenceTables, word: tuple) -> dict:
    by_last, memo = tables.by_last, tables.memo
    stack = [_times_word(by_last, memo, {(): 1}, word)]
    sent = None
    while True:
        try:
            wa, rule = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            sent = done.value
        else:
            stack.append(_reduce_end(by_last, memo, wa, rule))
            sent = None


def reference_normal_form_path(tables: ReferenceTables, path: Path) -> Element:
    cached = tables.nf_cache.get(path)
    if cached is not None:
        return cached
    result = tables.element(path.source, _normal_word(tables, tables.encode(path)))
    tables.nf_cache[path] = result
    return result


def reference_normal_form(tables: ReferenceTables, a: Element) -> Element:
    return Element.combine(tables.n, ((reference_normal_form_path(tables, p), c)
                                      for p, c in a.terms.items()))


def reference_overlaps(sys: ReductionSystem, tables: ReferenceTables) -> list:
    """(word, i, j, difference) of every overlap, in ``check_confluence`` order."""
    overlaps = []

    def resolve(i, j, word, left, right):
        diff: dict = {}
        for (prefix, rhs, suffix), sign in ((left, 1), (right, -1)):
            for r, c in rhs:
                _add_scaled(diff, _normal_word(tables, prefix + r + suffix), sign * c)
        source = sys.rules[i].lhs.source
        overlaps.append((tables.path(source, word), i, j, tables.element(source, diff)))

    rules = tables.rules
    for i, (a1, rhs1) in enumerate(rules):
        for j, (a2, rhs2) in enumerate(rules):
            for k in range(1, min(len(a1), len(a2))):
                if a1[len(a1) - k:] == a2[:k]:
                    resolve(i, j, a1 + a2[k:], ((), rhs1, a2[k:]), (a1[:len(a1) - k], rhs2, ()))
            if i != j and len(a2) < len(a1):
                for pos in range(len(a1) - len(a2) + 1):
                    if a1[pos:pos + len(a2)] == a2:
                        resolve(i, j, a1, ((), rhs1, ()), (a1[:pos], rhs2, a1[pos + len(a2):]))
    return overlaps


DENOMINATORS = (1, 2, 3, 7, 10007)
DRAWS_PER_N = 64


def random_params(rng: random.Random, n: int, integral: bool) -> Parameters:
    def entry():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9) or 1, 1 if integral else rng.choice(DENOMINATORS))
    alpha, beta, gamma = ([entry() for _ in range(n)] for _ in range(3))
    if not any(gamma):
        gamma[rng.randrange(n)] = Fraction(rng.choice((-1, 1)), 1 if integral else rng.choice(DENOMINATORS))
    return Parameters.of(n, alpha, beta, gamma)


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


def private_system(params: Parameters) -> ReductionSystem:
    return ReductionSystem(params.n, None, PRESET_QDU, params, _qdu_specs(params))


@pytest.mark.parametrize("n", range(1, 6))
def test_int_kernel_matches_fraction_kernel(n):
    rng = random.Random(15_000 + n)
    for draw in range(DRAWS_PER_N):
        params = random_params(rng, n, integral=draw % 8 == 0)
        sys_ = private_system(params)
        ref = ReferenceTables(sys_)
        got = [(o.word, o.left_rule, o.right_rule, list(o.difference.terms.items()))
               for o in check_confluence(sys_).overlaps]
        want = [(w, i, j, list(d.terms.items())) for w, i, j, d in reference_overlaps(sys_, ref)]
        assert got == want, (params, draw)
        for _ in range(2):
            a = random_element(rng, n)
            new, old = normal_form(sys_, a), reference_normal_form(ref, a)
            assert list(new.terms.items()) == list(old.terms.items()), (params, a)
            assert all(type(c) is Fraction for c in new.terms.values())


def test_int_kernel_matches_fraction_kernel_beyond_qdu():
    # A one-vertex system with rational coefficients whose leading word du
    # sits inside ddu: its ambiguity is an inclusion, one side reduces to
    # the trivial path, and D = 6.
    n = 1
    e0, u, ddu, du = (path_from_word(n, 0, w) for w in ("", "u", "ddu", "du"))
    rules = (RewriteRule(ddu, Element.from_path(e0, Fraction(2, 3))),
             RewriteRule(du, Element.from_path(u, Fraction(-1, 2))))
    sys_ = ReductionSystem(n, rules, "custom")
    ref = ReferenceTables(sys_)
    got = [(o.word, o.left_rule, o.right_rule, list(o.difference.terms.items()))
           for o in check_confluence(sys_).overlaps]
    assert got == [(w, i, j, list(d.terms.items())) for w, i, j, d in reference_overlaps(sys_, ref)]
    rng = random.Random(15_006)
    for _ in range(40):
        a = random_element(rng, n)
        assert list(normal_form(sys_, a).terms.items()) == \
            list(reference_normal_form(ref, a).terms.items())
