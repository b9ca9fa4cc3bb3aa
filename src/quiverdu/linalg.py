"""Exact Gaussian elimination over any field-like scalar type.

Scalars must support +, -, *, equality, truthiness (nonzero test) and
``Fraction(1) / x``.  Used with Fraction and with cyclotomic scalars.  A
pivot row is scaled by the reciprocal of its leading entry, so that entry
is exactly 1; an int row yields Fractions, never floats.
"""

from __future__ import annotations

from fractions import Fraction


class RowSpace:
    """Incremental row-echelon span with exact arithmetic."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: list[tuple[int, list]] = []  # (pivot column, normalized row)

    def residual(self, vec: list) -> list:
        row = list(vec)
        for col, pivot_row in self.pivots:
            c = row[col]
            if c:
                for j in range(col, self.width):
                    row[j] = row[j] - c * pivot_row[j]
        return row

    def add(self, vec: list) -> bool:
        """Insert the vector; returns True if it enlarged the span."""
        row = self.residual(vec)
        for col in range(self.width):
            if row[col]:
                inv = Fraction(1) / row[col]  # one inverse per pivot, then products
                normalized = [x * inv if x else x for x in row]
                self.pivots.append((col, normalized))
                self.pivots.sort(key=lambda t: t[0])
                return True
        return False

    def contains(self, vec: list) -> bool:
        return not any(self.residual(vec))

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(rows: list[list]) -> int:
    if not rows:
        return 0
    space = RowSpace(len(rows[0]))
    for r in rows:
        space.add(r)
    return space.rank


def in_span(rows: list[list], target: list) -> bool:
    space = RowSpace(len(target))
    for r in rows:
        space.add(r)
    return space.contains(target)


def spans_equal(rows_a: list[list], rows_b: list[list]) -> bool:
    if not rows_a and not rows_b:
        return True
    width = len(rows_a[0]) if rows_a else len(rows_b[0])
    sa, sb = RowSpace(width), RowSpace(width)
    for r in rows_a:
        sa.add(r)
    for r in rows_b:
        sb.add(r)
    if sa.rank != sb.rank:
        return False
    return all(sa.contains(r) for r in rows_b)
