"""Package code that was replaced, kept verbatim as differential references.

``RowSpace`` and ``spans_equal`` are the elimination of ``linalg`` before
it went fraction-free over the ints: over any field-like scalar type
(``Fraction`` and ``CycScalar`` rows alike), with every pivot row scaled
by the reciprocal of its leading entry.  ``normal_shape`` and
``word_shape`` are the parsers of the normal-word shape u^a (du)^j d^c on
``Path``s and on letter strings, which ``rewrite.coded_shape`` replaced
on int-coded words.  ``_qdu_rules`` and ``preprojective_system`` are the
rule builders of ``rewrite`` before the presets were built straight into
int-coded specs: they build every rule as ``Path``s and ``Element``s, which
``ReductionSystem`` then encodes.  ``rule_tables`` is the table builder of
``rewrite._RuleTables`` that read those decoded rules.  ``_times_word``,
``_reduce_end``, ``_normal_times`` and ``coded_shape`` are the normal-form
kernel and the shape reader on tuple words, before words were packed into
ints; ``TupleTables`` holds what that kernel read of ``_RuleTables``, and
``tuple_tables`` reads packed tables back in tuple form.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from quiverdu.core import Element, Parameters, Path, down, path_from_arrows, up
from quiverdu.rewrite import (
    _SHAPE,
    PRESET_PREPROJECTIVE,
    ReductionSystem,
    RewriteRule,
    _add_scaled,
    _arrow_rank,
    _RuleTables,
    _unpack_word,
)


class RowSpace:
    """Incremental echelon span of sparse rows with exact arithmetic.

    Pivots are kept in insertion order, and each pivot row is zero at the
    pivot keys of the rows before it, so one pass over the pivots in that
    order reduces a row.  ``width`` counts the columns the pivot rows reach.
    """

    def __init__(self) -> None:
        self.pivots: list[tuple[object, dict]] = []  # (pivot key, normalized row)
        self._columns: set = set()

    @property
    def width(self) -> int:
        return len(self._columns)

    def residual(self, row: Mapping) -> dict:
        out = {k: c for k, c in row.items() if c}
        for key, pivot_row in self.pivots:
            c = out.get(key)
            if c:
                for k, p in pivot_row.items():
                    if k in out:
                        v = out[k] - c * p
                        if v:
                            out[k] = v
                        else:
                            del out[k]
                    else:
                        out[k] = -(c * p)
        return out

    def add(self, row: Mapping) -> bool:
        """Insert the row; returns True if it enlarged the span."""
        out = self.residual(row)
        if not out:
            return False
        key, lead = next(iter(out.items()))
        if type(lead) is int or lead != 1:
            inv = Fraction(1) / lead  # one inverse per pivot, then products
            out = {k: c * inv for k, c in out.items()}
        self.pivots.append((key, out))
        self._columns.update(out)
        return True

    def contains(self, row: Mapping) -> bool:
        return not self.residual(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def spans_equal(rows_a: list[Mapping], rows_b: list[Mapping]) -> bool:
    sa, sb = RowSpace(), RowSpace()
    for r in rows_a:
        sa.add(r)
    for r in rows_b:
        sb.add(r)
    return sa.rank == sb.rank and all(sa.contains(r) for r in rows_b)


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


def preprojective_system(n: int) -> ReductionSystem:
    rules = []
    for i in range(n):
        lhs = path_from_arrows(n, (down(i, n), up(i, n)))
        rhs = Element.from_path(path_from_arrows(n, (up(i + 1, n), down(i + 1, n))))
        rules.append(RewriteRule(lhs, rhs))
    return ReductionSystem(n, tuple(rules), PRESET_PREPROJECTIVE)


def rule_tables(sys: ReductionSystem) -> tuple:
    """``(rules, by_last, denominator, rule_exp)`` as ``_RuleTables`` built them from ``sys.rules``."""
    n = sys.n
    encode = lambda path: tuple(_arrow_rank(a, n) for a in path.arrows)
    coeffs = [c for rule in sys.rules for c in rule.rhs.terms.values()]
    if all(hasattr(c, "denominator") for c in coeffs):
        D = lcm(*(c.denominator for c in coeffs))
        scale = lambda c: c.numerator * (D // c.denominator)
    else:
        D, scale = 1, lambda c: c
    rules, by_last = [], {}
    for rule in sys.rules:
        lhs = encode(rule.lhs)
        rhs = tuple((encode(q), scale(c)) for q, c in rule.rhs.terms.items())
        rules.append((lhs, rhs))
        by_last.setdefault(lhs[-1], []).append((lhs, len(lhs), rhs))
    return tuple(rules), by_last, D, int(D != 1)


def tuple_tables(tables: _RuleTables) -> tuple:
    """``(rules, by_last)`` of packed tables with every word read back as a tuple of codes."""
    b = tables.bits
    terms = lambda rhs: tuple((_unpack_word(r, b), c) for r, c in rhs)
    rules = tuple((_unpack_word(lhs, b), terms(rhs)) for lhs, rhs in tables.rules)
    by_last = {a: [(_unpack_word(L | (M + 1), b), k // b, terms(rhs)) for M, L, k, rhs in entries]
               for a, entries in tables.by_last.items()}
    return rules, by_last


class TupleTables:
    """What the tuple kernel read of ``_RuleTables``: ``rule_tables``' fields and an empty memo.

    Built from a system, or, with ``tables=``, from packed tables read back by ``tuple_tables``.
    """

    def __init__(self, sys: ReductionSystem | None = None, tables: _RuleTables | None = None):
        if tables is None:
            self.rules, self.by_last, self.denominator, self.rule_exp = rule_tables(sys)
        else:
            self.rules, self.by_last = tuple_tables(tables)
            self.denominator, self.rule_exp = tables.denominator, tables.rule_exp
        self.memo: dict = {}


def _times_word(tables: TupleTables, comb: dict, e: int, word: tuple):
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


def _reduce_end(tables: TupleTables, wa: tuple, rule: tuple):
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


def _normal_times(tables: TupleTables, comb: dict, e: int, word: tuple) -> tuple[int, dict]:
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


def coded_shape(n: int, word: tuple) -> tuple[int, int, int]:
    """The (a, j, c) of a normal int-coded word u^a (du)^j d^c; ValueError otherwise.

    An arrow code below n is a d, any other a u (``_arrow_rank``).
    """
    match = _SHAPE.fullmatch("".join("d" if x < n else "u" for x in word))
    if match is None:
        raise ValueError(f"not a normal word: {word}")
    return len(match[1]), len(match[2]) // 2, len(match[3])
