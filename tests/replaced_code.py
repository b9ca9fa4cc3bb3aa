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
``rewrite._RuleTables`` that read those decoded rules.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from quiverdu.core import Element, Parameters, Path, down, path_from_arrows, up
from quiverdu.rewrite import PRESET_PREPROJECTIVE, ReductionSystem, RewriteRule, _arrow_rank


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
