"""Differential tests of the freeness and chain witnesses.

``property_report`` reads the freeness of k[u_i d_i, d_{i-1} u_{i-1}]
from theta (``gwa.theta_checks``) in every degree, and
``noetherian_chain_check`` takes its spanning products on int-coded
words and eliminates in the fraction-free int ``linalg.RowSpace``.  The
loops they replaced, which took every product as an ``Element`` and
eliminated in ``Fraction``s, are kept here as ``reference_property_report``
(the freeness monomials x^a y^b to degree 4) and
``reference_noetherian_chain_check``, each product now by its definition,
``normal_form(sys, a * b)``, with the oracle's dense elimination and shape
reader; both must give the same reports."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quiverdu import linalg
from quiverdu.core import Element, Parameters, path_from_word, trivial_path
from quiverdu.rewrite import PRESET_QDU, _tables, basis_from, build_system, ensure_confluent, normal_form
from quiverdu.structure import (
    ChainReport,
    PropertyReport,
    _zero_divisor,
    balanced_twist_weights,
    build_superpotential,
    check_derivation_quotient,
    check_diagonal_map,
    derived_nakayama,
    noetherian_chain_check,
    property_report,
    up_cycle_path,
)
from oracle import in_span, rank, shape
from test_oracle import names


# The degree to which the references certify freeness by elimination;
# ``property_report`` reads freeness in every degree from theta.
SUBALGEBRA_DEGREE = 4


def reference_property_report(params: Parameters) -> PropertyReport:
    """Flags follow the beta criterion; every flag is backed by a witness.

    With all beta_i nonzero the subalgebra k[u_i d_i, d_{i-1} u_{i-1}] is
    certified free up to degree ``SUBALGEBRA_DEGREE``; with a zero beta_i the
    zero-divisor pair and the algebraic dependence are certified instead.
    """
    n = params.n
    sys = ensure_confluent(build_system(PRESET_QDU, params))
    flag = params.beta_all_nonzero()
    witnesses: list[dict] = []
    checks = True
    if flag:
        for i in range(n):
            gen_x = Element.from_path(path_from_word(n, i, "ud"))        # u_i d_i
            gen_y = Element.from_path(path_from_word(n, i, "du"))        # d_{i-1} u_{i-1}
            monomials = []
            x_power = Element.from_path(trivial_path(n, i))
            for a in range(SUBALGEBRA_DEGREE + 1):
                if a:
                    x_power = normal_form(sys, x_power * gen_x)
                monomials.append(x_power)
                for _ in range(SUBALGEBRA_DEGREE - a):
                    monomials.append(normal_form(sys, monomials[-1] * gen_y))
            independent = rank([m.terms for m in monomials]) == len(monomials)
            checks = checks and independent
            witnesses.append({"vertex": i, "kind": "free-subalgebra", "ok": independent})
    else:
        for i in range(n):
            if params.beta[i] != 0:
                continue
            a = _zero_divisor(params, i)
            b = Element.from_path(path_from_word(n, i, "u"))
            d_i = Element.from_path(path_from_word(n, (i + 1) % n, "d"))
            left_zero = normal_form(sys, a * b).is_zero()
            right_zero = normal_form(sys, d_i * a).is_zero()
            dependence = normal_form(sys, a * Element.from_path(path_from_word(n, i, "ud"))).is_zero()
            checks = checks and left_zero and right_zero and dependence
            witnesses.append({
                "vertex": i,
                "kind": "zero-divisor",
                "left": str(a),
                "right": str(b),
                "product_zero": left_zero,
                "mirror_zero": right_zero,
                "dependence_zero": dependence,
            })
    return PropertyReport(flag, flag, flag, flag, witnesses, checks)


def reference_noetherian_chain_check(params: Parameters, i: int | None = None, s_max: int = 3,
                                     degree_bound: int | None = None) -> ChainReport:
    """Certify the strictly ascending chain of right ideals when beta_i = 0.

    With U the full up-cycle at i and g = alpha_i u_i d_i + gamma_i e_i
    - d_{i-1} u_{i-1}, the ideals I_s = sum_{m<=s} U^m g A satisfy
    I_s != I_{s+1}: U^{s+1} g is not in the degree-bounded span of the
    normal forms of U^m g b over basis monomials b from i.  The span for
    U^m g takes b up to degree ``degree_bound`` - mn - 2, so the basis is
    enumerated up to ``degree_bound`` - n - 2 only (the bound at m = 1).
    Also checks the annihilation U g u_m = 0 for every vertex m and the
    support pattern of the spanning products (u-runs are mn or mn+1).
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
    u_g = normal_form(sys, u_cycle * g)
    annihilation_ok = all(
        normal_form(sys, u_g * Element.from_path(path_from_word(n, m, "u"))).is_zero()
        for m in range(n)
    )
    generators = []
    acc = Element.from_path(trivial_path(n, i))
    for _ in range(s_max + 1):
        acc = normal_form(sys, acc * u_cycle)
        generators.append(normal_form(sys, acc * g))

    basis_by_degree = [[_tables(sys).path(i, w) for w in words]
                       for words in basis_from(sys, i, degree_bound - n - 2)]
    support_ok = True
    # One elimination kept across s: I_s grows from I_{s-1}, so each
    # spanning product is added once.
    rows = []
    strict = []
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
                rows.append(product.terms)
        strict.append((s, not in_span(rows, generators[s].terms)))
    return ChainReport(i, s_max, str(g), str(up_cycle_path(n, i)), annihilation_ok,
                       strict, support_ok)


def draw_params(rng, n, zero_beta, zero_gamma):
    """Random rational parameters; beta_i = 0 at the vertices in ``zero_beta``."""
    def value(nonzero):
        while True:
            x = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            if x or not nonzero:
                return x
    alpha = [value(False) for _ in range(n)]
    beta = [0 if k in zero_beta else value(True) for k in range(n)]
    gamma = [0] * n if zero_gamma else [value(True) for _ in range(n)]
    return Parameters.of(n, alpha, beta, gamma)


REGIMES = [(zero_beta, zero_gamma) for zero_beta in (False, True) for zero_gamma in (False, True)]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("zero_beta, zero_gamma", REGIMES)
def test_property_report_matches_the_element_loop(n, zero_beta, zero_gamma):
    # With beta != 0 the witness read from theta must give the verdict of the
    # degree-4 elimination; with a zero beta_i the zero-divisor witnesses.
    rng = random.Random(31 * n + 2 * zero_beta + zero_gamma)
    for _ in range(3):
        zeros = {rng.randrange(n)} if zero_beta else set()
        params = draw_params(rng, n, zeros, zero_gamma)
        assert property_report(params) == reference_property_report(params)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("zero_gamma", [False, True])
def test_chain_report_matches_the_element_loop(n, zero_gamma):
    rng = random.Random(53 * n + zero_gamma)
    i = rng.randrange(n)
    params = draw_params(rng, n, {i}, zero_gamma)
    for s_max in (1, 2, 3):
        new = noetherian_chain_check(params, s_max=s_max)
        assert new == reference_noetherian_chain_check(params, s_max=s_max)
        assert new.vertex == i


def test_the_witnesses_eliminate_with_no_fraction(monkeypatch):
    # Every row the two witnesses and the two relation-span checks add or
    # test is int-coded, so clearing it is a no-op, and no Fraction is built
    # inside RowSpace.residual or RowSpace.add.
    inside = []
    genuine_new = Fraction.__new__

    def guarded_new(cls, *args, **kwargs):
        if inside:
            raise AssertionError("Fraction built inside the elimination")
        return genuine_new(cls, *args, **kwargs)

    def guard(method):
        def run(self, row):
            assert all(type(c) is int for c in row.values())
            inside.append(method.__name__)
            try:
                return method(self, row)
            finally:
                inside.pop()
        return run

    rows_seen = []
    genuine_residual = linalg.RowSpace.residual
    monkeypatch.setattr(linalg.RowSpace, "residual",
                        guard(lambda self, row: rows_seen.append(row) or genuine_residual(self, row)))
    monkeypatch.setattr(linalg.RowSpace, "add", guard(linalg.RowSpace.add))
    monkeypatch.setattr(Fraction, "__new__", guarded_new)
    nonzero = Parameters.of(3, [2, Fraction(1, 2), 5], [7, Fraction(-3, 2), 13], [1, 2, Fraction(1, 3)])
    beta0 = Parameters.of(3, [1, 1, 1], [0, 2, 3], [1, 1, 1])
    assert property_report(nonzero).checks_passed
    assert property_report(beta0).checks_passed
    assert noetherian_chain_check(beta0, s_max=3).ok
    with pytest.raises(ValueError):
        noetherian_chain_check(nonzero)  # the chain needs some beta_i = 0
    graded = Parameters.of(3, [2, Fraction(1, 2), 5], [7, Fraction(-3, 2), 13], [0, 0, 0])
    omega = build_superpotential(graded, balanced_twist_weights(graded)).omega
    assert check_derivation_quotient(omega, graded)
    assert check_diagonal_map(derived_nakayama(graded), graded, graded).ok
    assert rows_seen
