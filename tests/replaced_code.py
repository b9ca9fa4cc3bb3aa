"""Package code that was replaced, kept verbatim as differential references.

``RowSpace`` and ``spans_equal`` are the elimination of ``linalg`` before
it went fraction-free over the ints: over any field-like scalar type
(``Fraction`` and ``CycScalar`` rows alike), with every pivot row scaled
by the reciprocal of its leading entry.  ``normal_shape`` and
``word_shape`` are the parsers of the normal-word shape u^a (du)^j d^c on
``Path``s and on letter strings, which ``rewrite.coded_shape`` replaced
on int-coded words.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from quiverdu.core import Path


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
