"""Differential test of the one-elimination chain check.

The reference is the loop that ``noetherian_chain_check`` replaced, kept
here verbatim but for its dense elimination, now the oracle's ``in_span``:
at each s it eliminates every spanning row found so far together with
U^{s+1} g from scratch, and it tests the annihilation
with g_with_one, where the identity stands in for e_i.  The new check adds
each product, int-coded, to one sparse ``RowSpace`` kept across s; both
must give the same ``ChainReport``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quiverdu.core import Element, Parameters, path_from_word, trivial_path
from quiverdu.rewrite import (
    PRESET_QDU,
    build_system,
    enumerate_basis,
    ensure_confluent,
    is_zero_in_quotient,
    normal_form,
)
from quiverdu.structure import (
    ChainReport,
    _zero_divisor,
    noetherian_chain_check,
    up_cycle_path,
)
from oracle import in_span, shape
from test_oracle import names
from test_structure import x_path


def reference_noetherian_chain_check(params: Parameters, i: int | None = None, s_max: int = 3,
                                     degree_bound: int | None = None) -> ChainReport:
    """Certify the strictly ascending chain of right ideals when beta_i = 0.

    With U the full up-cycle at i and g = alpha_i u_i d_i + gamma_i e_i
    - d_{i-1} u_{i-1}, the ideals I_s = sum_{m<=s} U^m g A satisfy
    I_s != I_{s+1}: U^{s+1} g is not in the degree-bounded span of the
    normal forms of U^m g b over basis monomials b.  Also checks the
    annihilation U g u_m = 0 for every vertex m and the support pattern
    of the spanning products (u-runs are mn or mn+1).
    """
    n = params.n
    if i is None:
        i = next((k for k in range(n) if params.beta[k] == 0), None)
        if i is None:
            raise ValueError("no beta_i = 0; the chain construction requires one")
    if params.beta[i] != 0:
        raise ValueError(f"beta_{i} must be zero")
    target_degree = (s_max + 1) * n + 2
    if degree_bound is None:
        degree_bound = target_degree
    if degree_bound < target_degree:
        raise ValueError("degree bound too small for the requested s_max")
    sys = ensure_confluent(build_system(PRESET_QDU, params))
    u_cycle = Element.from_path(up_cycle_path(n, i))
    g = -_zero_divisor(params, i)
    g_with_one = (
        Element.from_path(path_from_word(n, i, "ud"), params.alpha[i])
        + Element.identity(n).scale(params.gamma[i])
        - Element.from_path(x_path(n, i - 1))
    )
    annihilation_ok = all(
        is_zero_in_quotient(sys, u_cycle * g_with_one * Element.from_path(path_from_word(n, m, "u")))
        for m in range(n)
    )
    generators = []
    acc = Element.from_path(trivial_path(n, i))
    for _ in range(s_max + 1):
        acc = acc * u_cycle
        generators.append(normal_form(sys, acc * g))

    basis_by_degree = {k: [p for p in enumerate_basis(sys, k) if p.source == i]
                       for k in range(degree_bound + 1)}
    support_ok = True
    strict = []
    span_rows: list[Element] = []
    for s in range(1, s_max + 1):
        m = s
        g_m = generators[m - 1]
        max_b = degree_bound - m * n - 2
        for k in range(max_b + 1):
            for b in basis_by_degree[k]:
                product = normal_form(sys, g_m * Element.from_path(b))
                if product.is_zero():
                    continue
                for p in product.terms:
                    a_run, j_pairs, c_run = shape(names(p))
                    if a_run == m * n:
                        if params.gamma[i] == 0 and j_pairs == 0:
                            support_ok = False
                    elif a_run == m * n + 1:
                        if c_run == 0:
                            support_ok = False
                    else:
                        support_ok = False
                span_rows.append(product)
        strict.append((s, not in_span([e.terms for e in span_rows], generators[s].terms)))
    return ChainReport(i, s_max, str(g), str(up_cycle_path(n, i)), annihilation_ok,
                       strict, support_ok)


CONFIGS = [
    # n = 3, beta_0 = 0, alpha and gamma nonzero
    (Parameters.of(3, [1, 1, 1], [0, 2, 3], [1, 1, 1]), None, (1, 2, 5)),
    # n = 3, beta_1 = 0, gamma = 0: the support pattern needs a du pair
    (Parameters.of(3, [2, Fraction(-1, 2), 1], [3, 0, -1], [0, 0, 0]), 1, (1, 3, 4)),
    # n = 4, beta_2 = 0, non-integral parameters and alpha_2 = 0
    (Parameters.of(4, [1, -1, 0, Fraction(3, 4)], [2, Fraction(-1, 2), 0, 1],
                   [Fraction(1, 2), 0, 1, -1]), None, (2, 5)),
    # n = 4, beta_0 = 0, gamma = 0
    (Parameters.of(4, [1, 2, 1, 1], [0, 1, -1, 2], [0, 0, 0, 0]), 0, (1, 4)),
]


@pytest.mark.parametrize("params, i, s_values", CONFIGS)
def test_chain_report_matches_reference(params, i, s_values):
    for s_max in s_values:
        new = noetherian_chain_check(params, i=i, s_max=s_max)
        ref = reference_noetherian_chain_check(params, i=i, s_max=s_max)
        # Equal dataclasses: strict inclusions, support pattern, annihilation.
        assert new == ref


def test_chain_report_matches_reference_with_wider_degree_bound():
    params = Parameters.of(3, [1, 1, 1], [0, 2, 3], [1, 1, 1])
    for s_max, bound in ((1, 9), (2, 12)):
        new = noetherian_chain_check(params, s_max=s_max, degree_bound=bound)
        assert new == reference_noetherian_chain_check(params, s_max=s_max, degree_bound=bound)


N4_CONFIGS = [
    # n = 4 at the s_max = 2 of the CLI: degree bound 14, basis to degree 8
    (Parameters.of(4, [2, Fraction(1, 2), 5, -1], [7, 0, 13, 2], [1, 2, Fraction(1, 3), -1]), 2, None),
    # the same with a degree bound two above the target
    (Parameters.of(4, [2, Fraction(1, 2), 5, -1], [7, 0, 13, 2], [1, 2, Fraction(1, 3), -1]), 2, 16),
    # n = 4, beta_3 = 0, gamma = 0, integral
    (Parameters.of(4, [1, 0, -2, 1], [1, 3, -1, 0], [0, 0, 0, 0]), 2, None),
]


@pytest.mark.parametrize("params, s_max, bound", N4_CONFIGS)
def test_chain_report_matches_reference_at_n4(params, s_max, bound, monkeypatch):
    # The reference enumerates the basis up to the degree bound; the check
    # walks it once from vertex i and stops at the bound less n + 2, the
    # largest degree a span reads.
    from quiverdu import structure
    walks = []
    basis_from_ = structure.basis_from
    monkeypatch.setattr(structure, "basis_from",
                        lambda sys_, v, k: walks.append((v, k)) or basis_from_(sys_, v, k))
    new = noetherian_chain_check(params, s_max=s_max, degree_bound=bound)
    bound = (s_max + 1) * 4 + 2 if bound is None else bound
    assert walks == [(new.vertex, bound - 4 - 2)]
    assert new == reference_noetherian_chain_check(params, s_max=s_max, degree_bound=bound)
    assert new.ok


def test_up_cycle_times_generator_ignores_the_identity():
    """U g_with_one == U g term for term: U ends at i, where 1 acts as e_i."""
    rng = random.Random(17)
    for n in range(1, 6):
        for _ in range(3):
            params = Parameters.of(n, *([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                         for _ in range(n)] for _ in range(3)))
            for i in range(n):
                u_cycle = Element.from_path(up_cycle_path(n, i))
                g_with_one = (
                    Element.from_path(path_from_word(n, i, "ud"), params.alpha[i])
                    + Element.identity(n).scale(params.gamma[i])
                    - Element.from_path(x_path(n, i - 1))
                )
                assert u_cycle * g_with_one == u_cycle * -_zero_divisor(params, i)
