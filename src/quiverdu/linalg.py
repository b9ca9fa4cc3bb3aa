"""Exact Gaussian elimination on sparse rows over any field-like scalar type.

A row is a mapping from column key to scalar; an absent key means zero,
so ``Element.terms`` and other term maps are rows as they stand.  Column
keys need only be hashable.  Scalars must support +, -, unary -, *,
truthiness (nonzero test) and ``Fraction(1) / x``.  Every caller in
``src/`` passes Fraction rows; no caller there passes ``CycScalar`` rows
any more, since the skew-group corners are counted by weight class, but
the elimination still accepts them.  A pivot row is scaled by the
reciprocal of its leading entry, so that entry is exactly 1; a row that
already leads with a non-int 1 is kept as it is, and an int row yields
Fractions, never floats.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction


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
