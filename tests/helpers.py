"""Decoded forms of coded ``src/`` maps that only the tests read.

``oracle.py`` imports nothing from ``quiverdu``, so helpers that call into
the package live here.
"""

from quiverdu.core import Arrow, Element
from quiverdu.rewrite import RewriteRule, _arrow_rank, _codec
from quiverdu.structure import DiagonalMapSpec, _cyclic_derivatives


def relation(rule: RewriteRule) -> Element:
    """The defining relation lhs - rhs that a rewrite rule orients."""
    return Element.from_path(rule.lhs) - rule.rhs


def apply_map(spec: DiagonalMapSpec, a: Element) -> Element:
    """The diagonal map applied to an element, through its coded ``map_row``."""
    den, row = _codec(spec.n).row(a)
    L, image = spec.map_row(row)
    return _codec(spec.n).decode(den * L, image)


def cyclic_derivative(omega: Element, a: Arrow) -> Element:
    """Delete a leading arrow equal to ``a``; zero on other terms."""
    den, row = _codec(omega.n).row(omega)
    return _codec(omega.n).decode(den, _cyclic_derivatives(omega.n, row).get(_arrow_rank(a, omega.n), {}))
