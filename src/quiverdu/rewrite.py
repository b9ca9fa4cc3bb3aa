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
(module-level ``lru_cache``s), so every caller reads one normal-form memo,
one confluence verdict and one forbidden-factor automaton.  One set of
int-coded rule tables per system (``_RuleTables``, an arrow coded by its
rank) serves normal forms, overlap resolution, basis enumeration and the
automaton, which is built on first use; Paths and Elements are built from
int words only for results.  Inside the kernel a combination is int
numerators over a power D^e of the system's denominator, summed by
``_add_scaled``; inputs are encoded with ``Combination.coded`` and results
decoded with ``Element.from_coded`` (``core``'s int-coded form).
``normal_product`` takes a product to normal form by multiplying the left
factor's normal form by the right factor's words, so the product's paths
are never built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .core import (
    Arrow,
    Element,
    Parameters,
    Path,
    canonical_path_key,
    down,
    path_from_arrows,
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

    def as_relation(self) -> Element:
        return Element.from_path(self.lhs) - self.rhs


@dataclass
class ReductionSystem:
    n: int
    rules: tuple[RewriteRule, ...]
    preset: str
    params: Parameters | None = None
    _verified: bool = field(default=False, repr=False)
    _tables: _RuleTables | None = field(default=None, repr=False, compare=False)

    @property
    def verified(self) -> bool:
        return self._verified

    def relation_elements(self) -> list[Element]:
        return [r.as_relation() for r in self.rules]


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


def _qdu_rules(params: Parameters) -> tuple[RewriteRule, ...]:
    n = params.n
    rules = []
    for i in range(n):
        a, b, g = params.alpha[i], params.beta[i], params.gamma[i]
        u_i, u_i1 = up(i, n), up(i + 1, n)
        d_i, d_i1 = down(i, n), down(i + 1, n)
        u_prev, d_prev = up(i - 1, n), down(i - 1, n)
        # The three rhs paths are distinct, so each rhs is one term map
        # (``_from_sums`` drops the zero coefficients).
        # d_{i-1} u_{i-1} u_i -> a u_i d_i u_i + b u_i u_{i+1} d_{i+1} + g u_i
        lhs1 = path_from_arrows(n, (d_prev, u_prev, u_i))
        rhs1 = Element._from_sums(n, {
            path_from_arrows(n, (u_i, d_i, u_i)): a,
            path_from_arrows(n, (u_i, u_i1, d_i1)): b,
            path_from_arrows(n, (u_i,)): g,
        })
        # d_i d_{i-1} u_{i-1} -> a d_i u_i d_i + b u_{i+1} d_{i+1} d_i + g d_i
        lhs2 = path_from_arrows(n, (d_i, d_prev, u_prev))
        rhs2 = Element._from_sums(n, {
            path_from_arrows(n, (d_i, u_i, d_i)): a,
            path_from_arrows(n, (u_i1, d_i1, d_i)): b,
            path_from_arrows(n, (d_i,)): g,
        })
        rules.append(RewriteRule(lhs1, rhs1))
        rules.append(RewriteRule(lhs2, rhs2))
    return tuple(rules)


@lru_cache(maxsize=16)
def _qdu_system(params: Parameters) -> ReductionSystem:
    return ReductionSystem(params.n, _qdu_rules(params), PRESET_QDU, params)


@lru_cache(maxsize=16)
def _preprojective_system(n: int) -> ReductionSystem:
    rules = []
    for i in range(n):
        lhs = path_from_arrows(n, (down(i, n), up(i, n)))
        rhs = Element.from_path(path_from_arrows(n, (up(i + 1, n), down(i + 1, n))))
        rules.append(RewriteRule(lhs, rhs))
    return ReductionSystem(n, tuple(rules), PRESET_PREPROJECTIVE)


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

class _RuleTables:
    """A system's rules on int-coded words, and its product memos.

    A word is a tuple of arrow codes, an arrow's code being its
    ``_arrow_rank``; a combination is a dict word -> nonzero numerator
    whose words all start at one vertex (a word may be empty), read over
    one power D^e of the system's denominator D and passed with its
    exponent e.  D is the lcm of the denominators of the rule
    coefficients, so each right-hand-side coefficient c is stored as the
    int D*c (exponent ``rule_exp`` = 1) and the kernel never builds a
    Fraction.  D = 1 when every coefficient is integral, and also for a
    coefficient type without ``denominator``, whose values are then kept
    as given; every exponent is then 0, and the kernel takes no gcd, so
    such values need only ``+``, ``*`` and a zero test.  ``rules`` holds
    each rule as ``(lhs, rhs terms)`` in rule order; ``by_last`` maps an
    arrow code to the rules whose leading word ends with it, as ``(lhs,
    len(lhs), rhs terms)``.  ``memo`` maps ``w + (a,)`` to its normal form ``(e,
    combination)`` for each normal word w whose product with the arrow a
    is reducible; a nonempty word determines its source.  ``nf`` maps a
    ``Path`` to its normal form ``(e, {Path: numerator})``.  ``paths``
    maps ``(source, word)`` to its decoded ``Path``, so each word is
    decoded and validated once and every result shares one ``Path`` per
    word; ``words`` maps each decoded ``Path`` back to its word.  The
    automaton is built on first use.
    """

    __slots__ = ("n", "arrows", "denominator", "rule_exp", "rules", "by_last", "memo", "nf",
                 "paths", "words", "_automaton")

    def __init__(self, sys: ReductionSystem):
        n = self.n = sys.n
        self.arrows = tuple(down(i, n) for i in range(n)) + tuple(up(i, n) for i in range(n))
        coeffs = [c for rule in sys.rules for c in rule.rhs.terms.values()]
        if all(hasattr(c, "denominator") for c in coeffs):
            D = lcm(*(c.denominator for c in coeffs))
            scale = lambda c: c.numerator * (D // c.denominator)
        else:
            D, scale = 1, lambda c: c
        self.denominator, self.rule_exp = D, int(D != 1)
        self.memo: dict = {}
        self.nf: dict = {}
        self.paths: dict = {}
        self.words: dict = {}
        self._automaton = None
        rules, by_last = [], {}
        for rule in sys.rules:
            lhs = self.encode(rule.lhs)
            rhs = tuple((self.encode(q), scale(c)) for q, c in rule.rhs.terms.items())
            rules.append((lhs, rhs))
            by_last.setdefault(lhs[-1], []).append((lhs, len(lhs), rhs))
        self.rules, self.by_last = tuple(rules), by_last

    def automaton(self):
        """The forbidden-factor automaton (``_build_automaton``), built once."""
        if self._automaton is None:
            self._automaton = _build_automaton(self)
        return self._automaton

    def encode(self, path: Path) -> tuple:
        word = self.words.get(path)
        if word is None:
            word = tuple(_arrow_rank(a, self.n) for a in path.arrows)
        return word

    def path(self, source: int, word: tuple) -> Path:
        key = (source, word)
        p = self.paths.get(key)
        if p is None:
            p = self.paths[key] = Path(self.n, source, tuple(self.arrows[k] for k in word))
            self.words[p] = word
        return p

    def element(self, source: int, den: int, comb: dict) -> Element:
        """The Element of a combination of words from ``source`` over ``den``."""
        return Element.from_coded(self.n, den, {self.path(source, w): c for w, c in comb.items()})


def _tables(sys: ReductionSystem) -> _RuleTables:
    if sys._tables is None:
        sys._tables = _RuleTables(sys)
    return sys._tables


def _add_scaled(out: dict, oe: int, part: dict, pe: int, c, D: int) -> int:
    """out/D^oe += c * part/D^pe, on combinations; returns out's new exponent.

    The larger exponent wins: ``out`` is multiplied through in place when
    ``part``'s is larger, ``c`` is scaled otherwise, so no term moves and
    zero sums are left in.
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


def _times_word(tables: _RuleTables, comb: dict, e: int, word: tuple):
    """Generator returning the normal form ``(e, combination)`` of ``comb``/D^e times ``word``.

    ``comb`` is normal.  One arrow at a time: a product w·a of a normal
    word can only be reducible at a leading word that ends with a, so one
    suffix comparison per rule ending in a decides it.  A reducible
    product missing from the memo is yielded as ``(w + (a,), rule)``, and
    its normal form is sent back.
    """
    by_last, memo, D = tables.by_last, tables.memo, tables.denominator
    for a in word:
        out: dict = {}
        oe = e
        for w, c in comb.items():
            wa = w + (a,)
            hit = memo.get(wa)
            if hit is None:
                for rule in by_last.get(a, ()):
                    if wa[-rule[1]:] == rule[0]:
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


def _reduce_end(tables: _RuleTables, wa: tuple, rule: tuple):
    """Generator returning the normal form of wa, reducible only at its end, by ``rule``.

    The prefix before the lhs is normal, so it is multiplied by each rhs
    word in turn.  D is divided out of the result while it divides every
    numerator, and the result goes into the memo.
    """
    _, k, rhs = rule
    D, rule_exp = tables.denominator, tables.rule_exp
    prefix = {wa[:-k]: 1}
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


def _normal_times(tables: _RuleTables, comb: dict, e: int, word: tuple) -> tuple[int, dict]:
    """Normal form ``(e, combination)`` of the normal ``comb``/D^e times an int-coded word.

    Each pending reduction is a generator on an explicit stack, so the
    Python call depth stays constant however long the word is.  Every
    reduction a generator waits on is of a smaller word in the term
    order, so the stack never waits on itself.  ``comb`` is only read.
    """
    stack = [_times_word(tables, comb, e, word)]
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
            stack.append(_reduce_end(tables, wa, rule))
            sent = None


def _normal_word(tables: _RuleTables, word: tuple) -> tuple[int, dict]:
    """Normal form ``(e, combination)`` of an int-coded word."""
    return _normal_times(tables, {(): 1}, 0, word)


def _path_nf(tables: _RuleTables, path: Path) -> tuple[int, dict]:
    """Normal form ``(e, {Path: numerator})`` of a path, memoized per system.

    The path is built up from its source one arrow at a time, keeping the
    product normal (right multiplication on normal words).
    """
    hit = tables.nf.get(path)
    if hit is None:
        e, comb = _normal_word(tables, tables.encode(path))
        hit = tables.nf[path] = (e, {tables.path(path.source, w): c for w, c in comb.items()})
    return hit


def _coded_nf(tables: _RuleTables, a: Element) -> tuple[int, int, dict]:
    """``(L, e, {Path: numerator})``: the normal form of ``a`` over L * D^e.

    L is the lcm of ``a``'s denominators; zero sums are left in.
    """
    D = tables.denominator
    L, nums = a.coded()
    sums: dict = {}
    e = 0
    for p, c in nums.items():
        pe, part = _path_nf(tables, p)
        e = _add_scaled(sums, e, part, pe, c, D)
    return L, e, sums


def normal_form(sys: ReductionSystem, a: Element) -> Element:
    """Reduce every term until no leading word occurs as a factor.

    Terminates because each replacement is strictly smaller in the term
    order; the result is linear in the input.  The terms' normal forms
    are summed in ints over L * D^e, L the lcm of the input's
    denominators, and decoded once.
    """
    if a.n != sys.n:
        raise ValueError("element over wrong quiver size")
    tables = _tables(sys)
    L, e, sums = _coded_nf(tables, a)
    return Element.from_coded(sys.n, L * tables.denominator ** e, sums)


def normal_product(sys: ReductionSystem, a: Element, b: Element) -> Element:
    """NF(a·b), equal to ``normal_form(sys, a * b)``, without building a·b.

    NF(a·b) = NF(NF(a)·b), and a normal word times one arrow is normal
    except at a leading word ending in that arrow, so NF(a)·q for a
    word q of ``b`` is reduced one arrow of q at a time from the right
    (``_times_word``; Bergman's diamond lemma makes the result the
    normal form, whatever order the reductions take).  The prefix that
    NF(a) contributes is never re-read and no product path is built.
    ``a``'s terms go through the per-path memo, so ``a`` need not be
    normal.  NF(a) is grouped by source and target, each group is
    multiplied by the words of ``b`` that start at its target, and the
    parts are summed per source in ints over L_a * L_b * D^e and decoded
    once.
    """
    if a.n != sys.n or b.n != sys.n:
        raise ValueError("element over wrong quiver size")
    tables = _tables(sys)
    D = tables.denominator
    La, ea, left = _coded_nf(tables, a)
    groups: dict = {}
    for p, c in left.items():
        if c:
            groups.setdefault((p.source, p.target), {})[tables.encode(p)] = c
    Lb, nums = b.coded()
    right: dict = {}
    for q, c in nums.items():
        right.setdefault(q.source, []).append((tables.encode(q), c))
    out: dict = {}
    for (source, target), comb in groups.items():
        for word, c in right.get(target, ()):
            pe, part = _normal_times(tables, comb, ea, word)
            acc = out.setdefault(source, [0, {}])
            acc[0] = _add_scaled(acc[1], acc[0], part, pe, c, D)
    return Element.combine(sys.n, ((tables.element(source, La * Lb * D ** e, sums), 1)
                                   for source, (e, sums) in out.items()))


def is_zero_in_quotient(sys: ReductionSystem, a: Element) -> bool:
    """Membership test via normal forms; requires a verified system."""
    if not sys.verified:
        raise ValueError("reduction system has not been verified confluent")
    return normal_form(sys, a).is_zero()


# ---------------------------------------------------------------------------
# Confluence via overlap ambiguities
# ---------------------------------------------------------------------------

@dataclass
class Overlap:
    word: Path
    left_rule: int
    right_rule: int
    difference: Element

    @property
    def resolves(self) -> bool:
        return self.difference.is_zero()


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
    but are checked for anyway.  Each reduction is ``prefix + rhs word +
    suffix`` on int-coded words; Paths are built only for the report.
    """
    tables = _tables(sys)
    overlaps: list[Overlap] = []

    def resolve(i, j, word, left, right):
        # left and right are (prefix, rhs terms, suffix) one-step reductions of word.
        diff: dict = {}
        e = 0
        for (prefix, rhs, suffix), sign in ((left, 1), (right, -1)):
            for r, c in rhs:
                pe, part = _normal_word(tables, prefix + r + suffix)
                e = _add_scaled(diff, e, part, pe + tables.rule_exp, sign * c, tables.denominator)
        source = sys.rules[i].lhs.source
        overlaps.append(Overlap(tables.path(source, word), i, j,
                                tables.element(source, tables.denominator ** e, diff)))

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
    grid_values = [Fraction(0), Fraction(1), Fraction(-1, 2)]
    failures = []
    count = 0
    per_instance = None
    for a in grid_values:
        for b in grid_values:
            for g in grid_values:
                params = Parameters.of(n, [a] * n, [b] * n, [g] * n)
                report = check_confluence(build_system(PRESET_QDU, params))
                count += 1
                per_instance = len(report.overlaps)
                if not report.confluent:
                    failures.append((params, report))
    rng = random.Random(seed)
    rand = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    for t in range(random_trials):
        alpha = [rand() for _ in range(n)]
        beta = [rand() for _ in range(n)]
        gamma = [rand() for _ in range(n)]
        if t == 0:
            beta[0] = Fraction(0)
            gamma[0] = Fraction(3, 2)
        params = Parameters.of(n, alpha, beta, gamma)
        report = check_confluence(build_system(PRESET_QDU, params))
        count += 1
        if not report.confluent:
            failures.append((params, report))
    return GridCertificate(n, count, per_instance or 0, not failures, failures)


# ---------------------------------------------------------------------------
# Graded basis enumeration and dimension counting
# ---------------------------------------------------------------------------

def enumerate_basis(sys: ReductionSystem, degree: int) -> list[Path]:
    """All degree-k paths containing no leading word as a factor.

    Walks the forbidden-factor automaton on int-coded words; Paths are
    built only for the result.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    tables = _tables(sys)
    transitions, _ = tables.automaton()
    layer = [(v, v, ()) for v in range(sys.n)]
    for _ in range(degree):
        layer = [(v, tid, w + (a,)) for v, sid, w in layer for a, tid in transitions[sid]]
    return sorted((tables.path(v, w) for v, _, w in layer), key=canonical_path_key)


def basis_from(sys: ReductionSystem, source: int, max_degree: int) -> list[list[Path]]:
    """The normal paths from ``source`` of each degree 0, ..., ``max_degree``.

    One automaton walk serves every degree; entry k lists the paths of
    ``enumerate_basis(sys, k)`` that start at ``source``, in the same order.
    """
    tables = _tables(sys)
    transitions, _ = tables.automaton()
    layer = [(source, ())]  # state v < n is vertex v with no live suffix
    by_degree = []
    for k in range(max_degree + 1):
        if k:
            layer = [(tid, w + (a,)) for sid, w in layer for a, tid in transitions[sid]]
        by_degree.append(sorted((tables.path(source, w) for _, w in layer), key=canonical_path_key))
    return by_degree


def _build_automaton(tables: _RuleTables):
    """Forbidden-factor automaton: states are (vertex, live suffix).

    The live suffix is the longest suffix of the word read so far that is
    a proper prefix of a leading word; state v < n is (v, ()).  An arrow
    is refused where it completes a leading word, by the kernel's suffix
    test.  Returns each state's (arrow code, next state) pairs and vertex.
    """
    n = tables.n
    forbidden = [lhs for lhs, _ in tables.rules]
    live = max(map(len, forbidden), default=1) - 1
    prefixes = {f[:k] for f in forbidden for k in range(1, len(f))}
    keys = [(v, ()) for v in range(n)]
    states = {key: sid for sid, key in enumerate(keys)}
    transitions: list[list[tuple[int, int]]] = []
    for v, suf in keys:  # keys grows while it is walked
        outs = []
        for a in (n + v, (v - 1) % n):  # the codes of u_v and d_{v-1}
            w = suf + (a,)
            if any(w[-k:] == lhs for lhs, k, _ in tables.by_last.get(a, ())):
                continue
            new_suf = next((w[-k:] for k in range(min(len(w), live), 0, -1)
                            if w[-k:] in prefixes), ())
            key = (tables.arrows[a].target(n), new_suf)
            if key not in states:
                states[key] = len(keys)
                keys.append(key)
            outs.append((a, states[key]))
        transitions.append(outs)
    return transitions, [v for v, _ in keys]


def dimension_matrices(sys: ReductionSystem, max_degree: int) -> list[list[list[int]]]:
    """[H_0, ..., H_max_degree], (H_k)_{ij} = number of normal degree-k paths from i to j.

    One transfer-matrix walk on the forbidden-factor automaton counts
    every degree; the down-up presets are independently cross-checked
    against the closed normal-word shape u^a (du)^j d^c at each degree.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    n = sys.n
    transitions, vertex_of = _tables(sys).automaton()
    # counts[i][s]: normal paths of the current degree from vertex i to state s.
    counts = [[int(s == i) for s in range(len(transitions))] for i in range(n)]
    matrices = []
    for k in range(max_degree + 1):
        if k:
            steps = [[0] * len(transitions) for _ in range(n)]
            for vec, nxt in zip(counts, steps):
                for sid, cnt in enumerate(vec):
                    for _, tid in transitions[sid]:
                        nxt[tid] += cnt
            counts = steps
        matrix = [[0] * n for _ in range(n)]
        for row, vec in zip(matrix, counts):
            for sid, cnt in enumerate(vec):
                row[vertex_of[sid]] += cnt
        if sys.preset == PRESET_QDU and matrix != _closed_shape_matrix(n, k):
            raise AssertionError(
                f"automaton count disagrees with closed normal-word shape at degree {k}")
        matrices.append(matrix)
    return matrices


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


def normal_shape(path: Path) -> tuple[int, int, int]:
    """The (a, j, c) of a normal word u^a (du)^j d^c; ValueError otherwise."""
    return word_shape("".join(arrow.family for arrow in path.arrows))


def word_shape(word: str) -> tuple[int, int, int]:
    """The (a, j, c) of a normal word given by its letters 'u' and 'd'."""
    a = len(word) - len(word.lstrip("u"))
    j = 0
    pos = a
    while word[pos:pos + 2] == "du":
        j += 1
        pos += 2
    c = len(word) - pos
    if word[pos:] != "d" * c:
        raise ValueError(f"not a normal word: {word}")
    return a, j, c


def _closed_shape_matrix(n: int, degree: int) -> list[list[int]]:
    # From source i the normal word u^a (du)^j d^c ends at i + a - c, so
    # the matrix is circulant: row i is the offset counts shifted by i.
    # The shapes with a - c = d have a + c = s for each s = |d|, |d| + 2,
    # ..., degree, so d = degree mod 2 and there are (degree - |d|)/2 + 1.
    offsets = [0] * n
    for d in range(-degree, degree + 1, 2):
        offsets[d % n] += (degree - abs(d)) // 2 + 1
    return [[offsets[(j - i) % n] for j in range(n)] for i in range(n)]
