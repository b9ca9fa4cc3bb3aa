"""Oriented reduction systems, normal forms, confluence, and graded bases.

Two presets are supported: the quiver down-up relations for a parameter
triple, and the preprojective relations d_i u_i -> u_{i+1} d_{i+1}.  The
graded down-up algebra (d^2u -> -ud^2, du^2 -> -u^2d) is the quiver
down-up algebra at n = 1 with alpha = gamma = 0 and beta = -1.

Rules are oriented by the degree-lex order whose arrow ranking is
d_0 > d_1 > ... > d_{n-1} > u_0 > ... > u_{n-1}, read left to right.
Every preset is confluent; ``check_confluence`` certifies this on an
instance by resolving all overlap ambiguities.

``build_system`` returns one shared system per preset and parameter set
(module-level ``lru_cache``s), so every caller reads one normal-form memo
and one confluence verdict.  A preset is built straight into rule specs
on tuples of arrow codes (an arrow coded by its rank), and its
``RewriteRule``s are decoded only when ``rules`` is read.  One set of
rule tables per system (``_RuleTables``) serves normal forms and overlap
resolution.  There a word is one int, its codes packed behind a
sentinel bit (``_pack_word``), and Paths and Elements are built from
words only for results.  Inside the kernel a combination is int
numerators over a power D^e of the system's denominator, summed by
``_add_scaled``, so the hot loop takes no gcd.  The kernel's doors
(``_normal_times``, ``_normal_word`` and ``_normal_sum``) take and return
``core``'s int-coded form ``(den, combination)``, den = den_in * D^e.
Every normal form of a sum, NF(sum of c * x·w) for a normal x, goes
through ``_normal_sum``: it reduces x·w one arrow of w at a time
(NF(a·b) = NF(NF(a)·b)), so no product is built as paths.
``normal_form`` codes its input once (``_RuleTables.row``) and decodes its
result once (``Element.from_coded``).

The dimension matrices need no rule tables: ``dimension_matrices`` checks
the leading words' letters on the specs in O(n) and reads every degree
from the normal-word shape (its docstring states the shape lemma), and
``basis_from`` spells the normal words from that shape.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .core import (
    Arrow,
    Element,
    Parameters,
    Path,
    add_into,
    down,
    up,
)

PRESET_QDU = "quiver-down-up"
PRESET_PREPROJECTIVE = "preprojective"


def _arrow_rank(a: Arrow, n: int) -> int:
    # d_0 is the largest arrow; smaller rank = larger in the term order.
    return a.index if a.family == "d" else n + a.index


def term_order_greater(p: Path, q: Path) -> bool:
    """Whether p > q in the rewriting term order (degree first, then lex)."""
    if p.length != q.length:
        return p.length > q.length
    pk = tuple(_arrow_rank(a, p.n) for a in p.arrows)
    qk = tuple(_arrow_rank(a, q.n) for a in q.arrows)
    return pk < qk


@dataclass(frozen=True)
class RewriteRule:
    """lhs is a single path (the leading word); rhs is strictly smaller."""

    lhs: Path
    rhs: Element

    def __post_init__(self) -> None:
        for p in self.rhs.terms:
            if p.source != self.lhs.source or p.target != self.lhs.target:
                raise ValueError("rule rhs term has wrong source/target")
            if not term_order_greater(self.lhs, p):
                raise ValueError("rule is not oriented by the term order")


class ReductionSystem:
    """Rules as specs ``(source, lhs, ((rhs word, coefficient), ...))``, words as tuples of codes.

    ``RewriteRule``s passed in are encoded; the presets pass specs instead,
    and ``rules`` is then decoded from them on first read.
    """

    def __init__(self, n: int, rules: tuple[RewriteRule, ...] | None, preset: str,
                 params: Parameters | None = None, specs: tuple | None = None):
        self.n, self.preset, self.params = n, preset, params
        self._rules = None if rules is None else tuple(rules)
        code = lambda p: tuple(_arrow_rank(a, n) for a in p.arrows)
        self.specs = specs if rules is None else tuple(
            (r.lhs.source, code(r.lhs), tuple((code(q), c) for q, c in r.rhs.terms.items()))
            for r in rules)
        self._verified, self._tables = False, None

    @property
    def verified(self) -> bool:
        return self._verified

    @property
    def rules(self) -> tuple[RewriteRule, ...]:
        if self._rules is None:
            tables = _tables(self)
            path = lambda s, w: tables.path(s, _pack_word(w, tables.bits))
            self._rules = tuple(
                RewriteRule(path(s, lhs), Element._from_sums(self.n, {path(s, w): c for w, c in rhs}))
                for s, lhs, rhs in self.specs)
        return self._rules


def build_system(preset: str, params: Parameters | None = None, n: int | None = None) -> ReductionSystem:
    """The one shared reduction system of a preset (and parameters or n)."""
    if preset == PRESET_QDU:
        if params is None:
            raise ValueError("quiver-down-up preset needs parameters")
        return _qdu_system(params)
    if preset == PRESET_PREPROJECTIVE:
        if n is None:
            n = params.n if params is not None else None
        if n is None or n < 1:
            raise ValueError("preprojective preset needs n >= 1")
        return _preprojective_system(n)
    raise ValueError(f"unknown preset {preset!r}")


def _qdu_specs(params: Parameters) -> tuple:
    """The quiver down-up rules as specs (d_k coded k, u_k coded n + k), zero terms dropped."""
    n = params.n
    nonzero = lambda *terms: tuple(t for t in terms if t[1])
    specs = []
    for i in range(n):
        a, b, g = params.alpha[i], params.beta[i], params.gamma[i]
        h, j = (i - 1) % n, (i + 1) % n
        uh, ui, uj = n + h, n + i, n + j
        # d_{i-1} u_{i-1} u_i -> a u_i d_i u_i + b u_i u_{i+1} d_{i+1} + g u_i, from i
        specs.append((i, (h, uh, ui), nonzero(((ui, i, ui), a), ((ui, uj, j), b), ((ui,), g))))
        # d_i d_{i-1} u_{i-1} -> a d_i u_i d_i + b u_{i+1} d_{i+1} d_i + g d_i, from i + 1
        specs.append((j, (i, h, uh), nonzero(((i, ui, i), a), ((uj, j, i), b), ((i,), g))))
    return tuple(specs)


@lru_cache(maxsize=16)
def _qdu_system(params: Parameters) -> ReductionSystem:
    return ReductionSystem(params.n, None, PRESET_QDU, params, _qdu_specs(params))


@lru_cache(maxsize=16)
def _preprojective_system(n: int) -> ReductionSystem:
    specs = tuple(((i + 1) % n, (i, n + i), (((n + (i + 1) % n, (i + 1) % n), Fraction(1)),))
                  for i in range(n))  # d_i u_i -> u_{i+1} d_{i+1}, from i + 1
    return ReductionSystem(n, None, PRESET_PREPROJECTIVE, specs=specs)


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

class _RuleTables:
    """A system's rules on int-coded words, built from its specs, and its product memo.

    An arrow's code is its ``_arrow_rank``.  A word is one int: the
    sentinel 1, then ``bits`` bits per code, so the empty word is 1,
    appending a is ``(w << bits) | a``, k arrows take bit length
    k * bits + 1, and words of one length compare as their codes do.  A
    combination maps words from one vertex to nonzero int numerators over
    a power D^e (passed as e) of the lcm D of the rule coefficients'
    denominators, each rhs coefficient c stored as D*c (``rule_exp`` = 1).
    D = 1 when every coefficient is integral, and also for coefficients
    without ``denominator``, kept as given: with every exponent 0 the
    kernel takes no gcd, and they need only ``+``, ``*`` and a zero test.
    The specs are checked as ``RewriteRule`` checks rules.  ``rules``
    holds each as ``(lhs, rhs terms)``, ``sources`` its source; ``by_last``
    maps an arrow code to the rules whose leading word ends with it, as
    ``(M, L, k * bits, rhs terms)`` for k arrows, M = 2^(k * bits) - 1 and
    L = lhs & M: wa ends with it iff ``wa & M == L and wa > M`` (at least
    k arrows).  ``memo`` maps each reducible w·a, w normal, to its normal
    form ``(e, combination)``; ``paths`` maps ``(source, word)`` to its
    ``Path``, built once without walking its arrows again, and ``words``
    maps it back.
    ``row``, ``decode`` and ``relation_rows`` code rows keyed by (source, word).
    """

    __slots__ = ("n", "bits", "arrows", "denominator", "rule_exp", "rules", "sources", "by_last",
                 "memo", "paths", "words")

    def __init__(self, n: int, specs: tuple):
        self.n = n
        b = self.bits = _word_bits(n)
        self.arrows = tuple(down(i, n) for i in range(n)) + tuple(up(i, n) for i in range(n))
        coeffs = [c for _, _, rhs in specs for _, c in rhs]
        if all(hasattr(c, "denominator") for c in coeffs):
            D = lcm(*(c.denominator for c in coeffs))
            scale = lambda c: c.numerator * (D // c.denominator)
        else:
            D, scale = 1, lambda c: c
        self.denominator, self.rule_exp = D, int(D != 1)
        self.memo, self.paths, self.words = {}, {}, {}
        ends = [(a.source(n), a.target(n)) for a in self.arrows]

        def end(at, word):  # the vertex word ends at from at; None if its arrows do not compose
            for k in word:
                at = ends[k][1] if ends[k][0] == at else None
            return at

        rules, by_last = [], {}
        for source, lhs, rhs in specs:
            target = end(source, lhs)
            if target is None:
                raise ValueError("rule lhs is not a path from its source")
            for r, _ in rhs:
                if end(source, r) != target:
                    raise ValueError("rule rhs term has wrong source/target")
                if (len(r), lhs) >= (len(lhs), r):  # degree-lex: longer, or smaller codes, is larger
                    raise ValueError("rule is not oriented by the term order")
            rhs = tuple((_pack_word(r, b), scale(c)) for r, c in rhs)
            word, k = _pack_word(lhs, b), len(lhs) * b
            rules.append((word, rhs))
            by_last.setdefault(lhs[-1], []).append(((1 << k) - 1, word ^ (1 << k), k, rhs))
        self.rules, self.by_last = tuple(rules), by_last
        self.sources = tuple(source for source, _, _ in specs)

    def encode(self, path: Path) -> int:
        word = self.words.get(path)
        if word is None:
            word = _pack_word((_arrow_rank(a, self.n) for a in path.arrows), self.bits)
        return word

    def path(self, source: int, word: int) -> Path:
        key = (source, word)
        p = self.paths.get(key)
        if p is None:
            arrows = tuple(self.arrows[k] for k in _unpack_word(word, self.bits))
            p = self.paths[key] = Path._trusted(self.n, source, arrows, self.target(source, word))
            self.words[p] = word
        return p

    def target(self, source: int, word: int) -> int:
        """The vertex where ``word`` from ``source`` ends."""
        return source if word == 1 else self.arrows[word & ((1 << self.bits) - 1)].target(self.n)

    def element(self, source: int, den: int, comb: dict) -> Element:
        """The Element of a combination of words from ``source`` over ``den``."""
        return Element.from_coded(self.n, den, {self.path(source, w): c for w, c in comb.items()})

    def decode(self, den: int, row: dict) -> Element:
        """The Element of a row ``{(source, word): coefficient}`` over ``den``."""
        return Element.from_coded(self.n, den, {self.path(s, w): c for (s, w), c in row.items()})

    def row(self, a: Element) -> tuple[int, dict]:
        """``(den, row)``: ``a`` as an int row ``{(source, word): numerator}`` over den."""
        den, nums = a.coded()
        return den, {(p.source, self.encode(p)): c for p, c in nums.items()}

    def relation_rows(self) -> list[dict]:
        """Each rule's relation lhs - rhs, times D, as a row ``{(source, word): int}``."""
        return [{(s, lhs): self.denominator, **{(s, r): -c for r, c in rhs}}
                for s, (lhs, rhs) in zip(self.sources, self.rules)]


def _word_bits(n: int) -> int:
    """Bits per arrow code in a word over n vertices: the codes are 0, ..., 2n - 1."""
    return max(1, (2 * n - 1).bit_length())


def _pack_word(codes, bits: int) -> int:
    """The word of a sequence of arrow codes: the sentinel 1, then ``bits`` bits per code."""
    word = 1
    for a in codes:
        word = (word << bits) | a
    return word


def _unpack_word(word: int, bits: int) -> tuple[int, ...]:
    """The arrow codes of a word, first to last (``_pack_word``'s inverse)."""
    mask = (1 << bits) - 1
    return tuple((word >> s) & mask for s in range(word.bit_length() - 1 - bits, -1, -bits))


def _suffix(word: int, k: int, bits: int) -> int:
    """The word of the last k arrows of ``word`` (which has at least k)."""
    return (word & ((1 << k * bits) - 1)) | (1 << k * bits)


def _concat(x: int, y: int) -> int:
    """The word x followed by y."""
    k = y.bit_length() - 1
    return (x << k) | (y ^ (1 << k))


def _tables(sys: ReductionSystem) -> _RuleTables:
    if sys._tables is None:
        sys._tables = _RuleTables(sys.n, sys.specs)
    return sys._tables


@lru_cache(maxsize=16)
def _codec(n: int) -> _RuleTables:
    """Tables without rules over n vertices: they code words as every system over n does."""
    return _RuleTables(n, ())


def _add_scaled(out: dict, oe: int, part: dict, pe: int, c, D: int) -> int:
    """out/D^oe += c * part/D^pe, on combinations; returns out's new exponent.

    The larger exponent wins: ``out`` is multiplied through in place when
    ``part``'s is larger, ``c`` is scaled otherwise; zero sums are left in.
    """
    if pe != oe:
        if pe > oe:
            lift = D ** (pe - oe)
            for v in out:
                out[v] *= lift
            oe = pe
        else:
            c *= D ** (oe - pe)
    for v, cv in part.items():
        old = out.get(v)
        out[v] = c * cv if old is None else old + c * cv
    return oe


def _times_word(tables: _RuleTables, comb: dict, e: int, word: int):
    """Generator returning the normal form ``(e, combination)`` of ``comb``/D^e times ``word``.

    ``comb`` is normal.  One arrow at a time: a product w·a of a normal
    word can only be reducible at a leading word that ends with a, so one
    masked suffix test per rule ending in a decides it; if none ends in a,
    the combination is only re-keyed.  A reducible product missing from
    the memo is yielded as ``(w·a, rule)``, and its normal form sent back.
    """
    by_last, memo, D, b = tables.by_last, tables.memo, tables.denominator, tables.bits
    mask = (1 << b) - 1
    for shift in range(word.bit_length() - 1 - b, -1, -b):  # word's codes, first to last
        a = (word >> shift) & mask
        rules = by_last.get(a)
        if rules is None:
            comb = {(w << b) | a: c for w, c in comb.items()}
            continue
        out: dict = {}
        oe = e
        for w, c in comb.items():
            wa = (w << b) | a
            hit = memo.get(wa)
            if hit is None:
                for rule in rules:
                    if wa & rule[0] == rule[1] and wa > rule[0]:
                        hit = yield wa, rule
                        break
                else:
                    if oe != e:
                        c *= D ** (oe - e)
                    old = out.get(wa)
                    out[wa] = c if old is None else old + c
                    continue
            oe = _add_scaled(out, oe, hit[1], e + hit[0], c, D)
        comb = {v: c for v, c in out.items() if c}
        e = oe
    return e, comb


def _reduce_end(tables: _RuleTables, wa: int, rule: tuple):
    """Generator returning the normal form of wa, reducible only at its end, by ``rule``: the
    normal prefix before the lhs times each rhs word, divided by D while D divides it all."""
    _, _, shift, rhs = rule
    D, rule_exp = tables.denominator, tables.rule_exp
    prefix = {wa >> shift: 1}
    out: dict = {}
    e = 0
    for r, c in rhs:
        pe, part = yield from _times_word(tables, prefix, 0, r)
        e = _add_scaled(out, e, part, pe + rule_exp, c, D)
    nf = {v: cv for v, cv in out.items() if cv}
    while e and all(cv % D == 0 for cv in nf.values()):
        nf = {v: cv // D for v, cv in nf.items()}
        e -= 1
    tables.memo[wa] = entry = (e, nf)
    return entry


def _normal_times(tables: _RuleTables, x: tuple[int, dict], word: int) -> tuple[int, dict]:
    """Normal form of the normal coded ``x`` = (den, comb) times an int-coded word, as
    ``(den * D^e, combination)``, D^e the power of D that the kernel's combination is over.

    Each pending reduction is a generator on an explicit stack, so the
    call depth stays constant; each waits only on smaller words in the
    term order, so never on itself.  ``x`` is only read.
    """
    den, comb = x
    stack = [_times_word(tables, comb, 0, word)]
    sent = None
    while True:
        try:
            wa, rule = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            if not stack:
                e, comb = done.value
                return den * tables.denominator ** e, comb
            sent = done.value
        else:
            stack.append(_reduce_end(tables, wa, rule))
            sent = None


def _normal_word(tables: _RuleTables, word: int) -> tuple[int, dict]:
    """Normal form ``(den, combination)`` of an int-coded word."""
    return _normal_times(tables, (1, {1: 1}), word)


def _normal_sum(tables: _RuleTables, terms, x: tuple[int, dict] = (1, {1: 1})) -> tuple[int, dict]:
    """Normal form ``(den, combination)`` of the sum of c * x·word over ``terms``' (word, c).

    ``x`` is coded and normal, the empty word by default, and ends where
    every word starts.  NF(x·w) = NF(NF(x)·w), so each x·word is reduced
    one arrow of the word at a time from the right (``_normal_times``;
    Bergman's diamond lemma makes the result the normal form), and the
    parts are summed by ``core.add_into``; zero sums are left in.
    """
    acc = [1, {}]
    for word, c in terms:
        add_into(acc, *_normal_times(tables, x, word), c)
    return tuple(acc)


def normal_form(sys: ReductionSystem, a: Element) -> Element:
    """Reduce every term until no leading word occurs as a factor.

    Each replacement is strictly smaller in the term order.  The input is
    coded once (``_RuleTables.row``), each source's words are summed by
    ``_normal_sum``, and the sums are added over the lcm of their
    denominators and decoded at once.
    """
    if a.n != sys.n:
        raise ValueError("element over wrong quiver size")
    tables = _tables(sys)
    L, row = tables.row(a)
    by_source: dict = {}
    for (source, word), c in row.items():
        by_source.setdefault(source, []).append((word, c))
    acc = [1, {}]
    for source, terms in by_source.items():
        den, comb = _normal_sum(tables, terms)
        add_into(acc, den, {(source, w): c for w, c in comb.items()})
    return tables.decode(L * acc[0], acc[1])


# ---------------------------------------------------------------------------
# Confluence via overlap ambiguities
# ---------------------------------------------------------------------------

@dataclass
class Overlap:
    word: Path
    left_rule: int
    right_rule: int
    difference: Element | dict  # {word: numerator} on coefficients without ``denominator``

    @property
    def resolves(self) -> bool:
        return not self.difference


@dataclass
class ConfluenceReport:
    n: int
    preset: str
    overlaps: list[Overlap]

    @property
    def confluent(self) -> bool:
        return all(o.resolves for o in self.overlaps)


def check_confluence(sys: ReductionSystem) -> ConfluenceReport:
    """Resolve every overlap ambiguity both ways and report the differences.

    An overlap is a proper suffix of one leading word equal to a proper
    prefix of another; both one-step reductions of the superposed word are
    taken to normal form and compared.  Inclusion ambiguities cannot occur
    here (all leading words of a preset have equal length and are distinct)
    but are checked for anyway.  Each reduction is prefix·rhs word·suffix
    on int-coded words.  A difference is decoded only if it is nonzero and
    its coefficients have a ``denominator``; else it stays coded.
    """
    tables = _tables(sys)
    b, D = tables.bits, tables.denominator
    overlaps: list[Overlap] = []

    def resolve(i, j, word, left, right):
        # left and right are (prefix, rhs terms, suffix) one-step reductions of word.
        den, diff = _normal_sum(tables, (
            (_concat(_concat(prefix, r), suffix), sign * c)
            for (prefix, rhs, suffix), sign in ((left, 1), (right, -1))
            for r, c in rhs))
        source = tables.sources[i]
        difference = {w: c for w, c in diff.items() if c}
        if all(hasattr(c, "denominator") for c in difference.values()):
            # Each rhs coefficient c is stored as D * c: the sum is over den * D.
            difference = tables.element(source, den * D, difference) if difference else Element.zero(sys.n)
        overlaps.append(Overlap(tables.path(source, word), i, j, difference))

    rules = tables.rules
    for i, (a1, rhs1) in enumerate(rules):
        m1 = (a1.bit_length() - 1) // b
        for j, (a2, rhs2) in enumerate(rules):
            m2 = (a2.bit_length() - 1) // b
            for k in range(1, min(m1, m2)):
                if _suffix(a1, k, b) == a2 >> (m2 - k) * b:
                    tail = _suffix(a2, m2 - k, b)
                    resolve(i, j, _concat(a1, tail), (1, rhs1, tail), (a1 >> k * b, rhs2, 1))
            if i != j and m2 < m1:
                for pos in range(m1 - m2 + 1):
                    if _suffix(a1 >> (m1 - m2 - pos) * b, m2, b) == a2:
                        resolve(i, j, a1, (1, rhs1, 1),
                                (a1 >> (m1 - pos) * b, rhs2, _suffix(a1, m1 - m2 - pos, b)))
    report = ConfluenceReport(sys.n, sys.preset, overlaps)
    if report.confluent:
        sys._verified = True
    return report


def ensure_confluent(sys: ReductionSystem) -> ReductionSystem:
    if not sys.verified:
        report = check_confluence(sys)
        if not report.confluent:
            raise ValueError("reduction system is not confluent")
    return sys


@dataclass
class GridCertificate:
    n: int
    instances: int
    overlaps_per_instance: int
    all_resolved: bool
    failures: list


def certify_confluence_over_parameters(n: int, random_trials: int = 5, seed: int = 0) -> GridCertificate:
    """Confluence over the parameter space for fixed n.

    The overlap differences are polynomial identities of coordinatewise
    degree <= 2 in (alpha, beta, gamma), so a deterministic grid of three
    distinct values per parameter certifies the constant-vector slice; a
    seeded randomized sweep (which always includes a beta-zero, gamma
    nonzero instance) supplements it.
    """
    grid = [Fraction(0), Fraction(1), Fraction(-1, 2)]
    vectors = [([a] * n, [b] * n, [g] * n) for a in grid for b in grid for g in grid]
    rng = random.Random(seed)
    rand = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    for t in range(random_trials):
        alpha, beta, gamma = ([rand() for _ in range(n)] for _ in range(3))
        if t == 0:
            beta[0], gamma[0] = Fraction(0), Fraction(3, 2)
        vectors.append((alpha, beta, gamma))
    failures = []
    for vector in vectors:
        params = Parameters.of(n, *vector)
        report = check_confluence(build_system(PRESET_QDU, params))
        if not report.confluent:
            failures.append((params, report))
    # Every instance has the same leading words, so the same overlaps.
    return GridCertificate(n, len(vectors), len(report.overlaps), not failures, failures)


# ---------------------------------------------------------------------------
# Graded basis enumeration and dimension counting
# ---------------------------------------------------------------------------

def enumerate_basis(sys: ReductionSystem, degree: int) -> list[Path]:
    """All degree-k paths containing no leading word as a factor.

    The words of degree k alone (``_speller``), source by source, in
    ``canonical_path_key`` order; Paths are built only for the result.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    spell = _speller(sys, degree)  # the letter check, before the rule tables check orientation
    tables = _tables(sys)
    return [tables.path(v, w) for v in range(sys.n) for w in spell(v, degree)]


def basis_from(sys: ReductionSystem, source: int, max_degree: int) -> list[list[int]]:
    """The int-coded normal words from ``source`` of each degree 0, ..., ``max_degree`` (``_speller``)."""
    spell = _speller(sys, max_degree)
    return [spell(source, k) for k in range(max_degree + 1)]


def _speller(sys: ReductionSystem, top: int):
    """``spell(source, k)``: the int-coded normal words of degree k <= ``top`` from ``source``.

    Once ``check_leading_words`` has passed (ValueError for a ``"custom"``
    system), the normal words are the shapes u^a (du)^j d^c (preprojective:
    u^a d^c) of the shape lemma of ``dimension_matrices``.  Each vertex's
    runs u^a, (du)^j and d^c are packed once (from w, d_{w-1} u_{w-1} comes
    back to w, and d^c ends at w - c).  A word from i is u^a from i, shifted
    once per a, or'd with (du)^j shifted past d^c and with d^c, both from
    i + a.  With u before d, a descends, then j, in ``canonical_path_key`` order.
    """
    check_leading_words(sys)
    n, b = sys.n, _word_bits(sys.n)
    ups, dus, downs = [[1] for _ in range(n)], [[0] for _ in range(n)], [[0] for _ in range(n)]
    for v in range(n):
        for k in range(top):
            ups[v].append((ups[v][-1] << b) | (n + (v + k) % n))
            dus[v].append((dus[v][-1] << 2 * b) | ((v - 1) % n << b) | (n + (v - 1) % n))
            downs[v].append((downs[v][-1] << b) | (v - k - 1) % n)
    pairs = sys.preset == PRESET_QDU

    def spell(source: int, k: int) -> list[int]:
        words = []
        for a in range(k, -1, -1):
            m, w = k - a, (source + a) % n
            head, du_run, down_run = ups[source][a] << m * b, dus[w], downs[w]
            for j in range(m // 2 if pairs else 0, -1, -1):
                c = m - 2 * j
                words.append(head | (du_run[j] << c * b) | down_run[c])
        return words
    return spell


def dimension_matrices(sys: ReductionSystem, max_degree: int) -> list[list[list[int]]]:
    """[H_0, ..., H_max_degree], (H_k)_{ij} = number of normal degree-k paths from i to j.

    Counted from the leading words' letters, with no word walked:

    - (a) **Leading words** (``check_leading_words``, O(n) on ``sys.specs``):
      the leading words of the quiver down-up preset are one ``duu`` and
      one ``ddu`` from every vertex, and those of the preprojective preset
      one ``du`` from every vertex, read as (source, letters).
    - (b) **Shape lemma.** Each vertex has one u arrow and one d arrow
      out, so a path is fixed by its source and its letters, and a word is
      normal exactly when its letters avoid the patterns.  The strings
      that avoid ``duu`` and ``ddu`` are u^a (du)^j d^c: after the first
      d, a ``dd`` allows only d's, and a ``du`` must be followed by d or
      end the word.  The strings that avoid ``du`` are u^a d^c.  Both
      words end at i + a - c from i, so H_k is ``_closed_shape_matrix``
      or ``_closed_preprojective_matrix`` at degree k.

    A system with no letter pattern (a ``"custom"`` one) raises
    ValueError; specs whose leading words break (a) raise AssertionError.
    ``basis_from`` spells the words that (b) counts.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    check_leading_words(sys)
    count = _closed_shape_matrix if sys.preset == PRESET_QDU else _closed_preprojective_matrix
    return [count(sys.n, k) for k in range(max_degree + 1)]


def dimension_matrix(sys: ReductionSystem, degree: int) -> list[list[int]]:
    """(H_k)_{ij} = number of normal degree-k paths from i to j (``dimension_matrices``)."""
    return dimension_matrices(sys, degree)[degree]


# ---------------------------------------------------------------------------
# The normal-word shape u^a (du)^j d^c of the down-up presets
# ---------------------------------------------------------------------------

def normal_shapes(degree: int) -> list[tuple[int, int, int]]:
    """Every (a, j, c) with a + 2j + c = degree, in increasing order."""
    return [(a, j, degree - a - 2 * j)
            for a in range(degree + 1) for j in range((degree - a) // 2 + 1)]


# The leading words of each preset as letter strings from every vertex.
_LETTER_PATTERNS = {PRESET_QDU: ("duu", "ddu"), PRESET_PREPROJECTIVE: ("du",)}


def _path_codes(n: int, source: int, letters: str) -> tuple[int, ...]:
    """The arrow codes of the one path from ``source`` with these letters.

    ``core.path_from_word`` on codes, with no Path built: from vertex v,
    u_v (code n + v) goes to v + 1 and d_{v-1} (code v - 1) to v - 1.
    """
    codes, v = [], source
    for letter in letters:
        if letter == "u":
            codes.append(n + v)
            v = (v + 1) % n
        else:
            v = (v - 1) % n
            codes.append(v)
    return tuple(codes)


def check_leading_words(sys: ReductionSystem) -> None:
    """Step (a) of ``dimension_matrices``: the leading words are exactly the preset's patterns.

    Compares the (source, leading word) of every spec, with multiplicity,
    against the one path per vertex and pattern, in O(n).  ValueError for
    a preset with no letter pattern; AssertionError naming the offending
    (source, letters) when a leading word is missing, extra or another.
    """
    patterns = _LETTER_PATTERNS.get(sys.preset)
    if patterns is None:
        raise ValueError(f"no leading-word letter pattern for preset {sys.preset!r}")
    n = sys.n
    expected = {(v, _path_codes(n, v, p)) for v in range(n) for p in patterns}
    found = [(source, tuple(lhs)) for source, lhs, _ in sys.specs]
    if len(found) == len(expected) and set(found) == expected:  # so no word repeats
        return
    expected, found = Counter(expected), Counter(found)
    for offending, what in ((found - expected, "is extra to"), (expected - found, "is missing from")):
        if offending:
            source, lhs = next(iter(offending))
            letters = "".join("d" if x < n else "u" for x in lhs)
            raise AssertionError(f"leading word ({source}, {letters!r}) {what} the "
                                 f"{sys.preset} letter patterns")


_SHAPE = re.compile(r"(u*)((?:du)*)(d*)")


def coded_shape(n: int, word: int) -> tuple[int, int, int]:
    """The (a, j, c) of a normal int-coded word u^a (du)^j d^c; ValueError otherwise.

    An arrow code below n is a d, any other a u (``_arrow_rank``).
    """
    letters = "".join(["d" if x < n else "u" for x in _unpack_word(word, _word_bits(n))])
    match = _SHAPE.fullmatch(letters)
    if match is None:
        raise ValueError(f"not a normal word: {letters}")
    return len(match[1]), len(match[2]) // 2, len(match[3])


def _closed_shape_matrix(n: int, degree: int) -> list[list[int]]:
    # From source i the normal word u^a (du)^j d^c ends at i + a - c, so
    # the matrix is circulant: row i is the offset counts shifted by i.
    # The shapes with a - c = d have a + c = s for each s = |d|, |d| + 2,
    # ..., degree, so d = degree mod 2 and there are (degree - |d|)/2 + 1.
    return _circulant(n, ((d, (degree - abs(d)) // 2 + 1) for d in range(-degree, degree + 1, 2)))


def _closed_preprojective_matrix(n: int, degree: int) -> list[list[int]]:
    # u^a d^c with a + c = degree ends at i + a - c: one word per offset
    # d = degree, degree - 2, ..., -degree.
    return _circulant(n, ((d, 1) for d in range(-degree, degree + 1, 2)))


def _circulant(n: int, counts) -> list[list[int]]:
    """The n x n matrix whose (i, j) entry sums the counts of the offsets d = j - i mod n."""
    offsets = [0] * n
    for d, count in counts:
        offsets[d % n] += count
    return [offsets[n - i:] + offsets[:n - i] for i in range(n)]
