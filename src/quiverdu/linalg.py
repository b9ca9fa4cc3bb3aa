"""Exact Gaussian elimination on sparse rational rows, fraction-free over the ints.

A row is a mapping from column key to an int or a ``Fraction``; an absent
key means zero, so ``Element.terms`` and other term maps are rows as they
stand.  Column keys need only be hashable.  A row is cleared to ints at
entry, by the lcm of its denominators, so every entry inside the
elimination is an int and no division is taken: a row is reduced by a
pivot row p as r <- (lead/g) r - (c/g) p, with c its entry at p's key and
g = gcd(c, lead), a nonzero multiple of the reduction over Q (Bareiss,
integer-preserving elimination).  A new pivot row is divided by its
content and stored with a positive lead.  Callers in ``src/`` pass
coded numerators (``Element.coded()`` or the rewriting kernel's
combinations), for which clearing is a no-op.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd, lcm


def _cleared(row: Mapping) -> dict:
    """The row's nonzero entries, times the lcm of their denominators, as ints."""
    out = {k: c for k, c in row.items() if c}
    if all(type(c) is int for c in out.values()):
        return out
    den = lcm(*(c.denominator for c in out.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in out.items()}


class RowSpace:
    """Incremental echelon span of sparse rational rows, kept as primitive int rows.

    Pivots are kept in insertion order, and each pivot row is zero at the
    pivot keys of the rows before it, so one pass over the pivots in that
    order reduces a row.  ``width`` counts the columns the pivot rows reach.
    """

    def __init__(self) -> None:
        self.pivots: list[tuple[object, dict]] = []  # (pivot key, primitive int row)
        self._columns: set = set()

    @property
    def width(self) -> int:
        """Kept with no ``src/`` caller: perfbench's tracer reads it (``perfbench/spans.py``)."""
        return len(self._columns)

    def residual(self, row: Mapping) -> dict:
        """A nonzero int multiple of the row reduced by every pivot; {} iff in the span."""
        out = _cleared(row)
        for key, pivot_row in self.pivots:
            c = out.get(key)
            if c:
                lead = pivot_row[key]
                g = gcd(c, lead)
                if g != lead:
                    scale = lead // g
                    out = {k: scale * v for k, v in out.items()}
                c //= g
                for k, p in pivot_row.items():
                    v = out.get(k, 0) - c * p  # nonzero where out has no k
                    if v:
                        out[k] = v
                    else:
                        del out[k]
        return out

    def add(self, row: Mapping) -> bool:
        """Insert the row; returns True if it enlarged the span."""
        out = self.residual(row)
        if not out:
            return False
        key, lead = next(iter(out.items()))
        content = gcd(*out.values())
        if lead < 0:
            content = -content
        if content != 1:
            out = {k: c // content for k, c in out.items()}
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
