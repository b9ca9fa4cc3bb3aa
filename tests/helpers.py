"""Decoded forms of coded ``src/`` maps that only the tests read.

``oracle.py`` imports nothing from ``quiverdu``, so helpers that call into
the package live here.
"""

from quiverdu.core import Element
from quiverdu.rewrite import RewriteRule, _codec
from quiverdu.structure import DiagonalMapSpec


def relation(rule: RewriteRule) -> Element:
    """The defining relation lhs - rhs that a rewrite rule orients."""
    return Element.from_path(rule.lhs) - rule.rhs


def apply_map(spec: DiagonalMapSpec, a: Element) -> Element:
    """The diagonal map applied to an element, through its coded ``map_row``."""
    den, row = _codec(spec.n).row(a)
    L, image = spec.map_row(row)
    return _codec(spec.n).decode(den * L, image)
