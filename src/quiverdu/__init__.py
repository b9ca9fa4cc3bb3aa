"""Verification and decision toolkit for quiver down-up algebras."""

from .core import (
    Arrow,
    Element,
    Parameters,
    Path,
    Scalar,
    adjacency_matrix,
    down,
    format_element,
    multiply,
    parse_element,
    path_from_arrows,
    path_from_word,
    trivial_path,
    up,
)
from .rewrite import (
    ReductionSystem,
    RewriteRule,
    build_system,
    check_confluence,
    dimension_matrix,
    enumerate_basis,
    ensure_confluent,
    normal_form,
)

__version__ = "0.1.0"
