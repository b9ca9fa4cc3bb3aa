"""Differential tests of the chain and freeness witnesses against the oracle.

``noetherian_chain_check`` takes its spanning products on int-coded words
and eliminates in the fraction-free int ``linalg.RowSpace``;
``property_report`` reads the freeness of k[u_i d_i, d_{i-1} u_{i-1}] from
theta (``gwa.theta_checks``) in every degree.  ``oracle.chain`` and
``oracle.property_witnesses`` compute both from the definitions, with the
oracle's normal forms, normal words and dense elimination, and share no
code with the package: the chain's strict inclusions, support pattern and
annihilation, the degree-4 freeness elimination and the zero-divisor
products must agree with the reports."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracle
from quiverdu import linalg, structure
from quiverdu.core import Element, Parameters
from quiverdu.structure import (
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
from test_oracle import names


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


def vectors(params: Parameters) -> tuple:
    return params.n, params.alpha, params.beta, params.gamma


def chain_cases():
    """(params, i, s_max, degree_bound); i None picks the first beta_i = 0."""
    cases = []
    for params, i, s_values in [
        # n = 3, beta_0 = 0, alpha and gamma nonzero
        (Parameters.of(3, [1, 1, 1], [0, 2, 3], [1, 1, 1]), None, (1, 2, 5)),
        # n = 3, beta_1 = 0, gamma = 0: the support pattern needs a du pair
        (Parameters.of(3, [2, Fraction(-1, 2), 1], [3, 0, -1], [0, 0, 0]), 1, (1, 3, 4)),
        # n = 4, beta_2 = 0, non-integral parameters and alpha_2 = 0
        (Parameters.of(4, [1, -1, 0, Fraction(3, 4)], [2, Fraction(-1, 2), 0, 1],
                       [Fraction(1, 2), 0, 1, -1]), None, (2, 5)),
        # n = 4, beta_0 = 0, gamma = 0
        (Parameters.of(4, [1, 2, 1, 1], [0, 1, -1, 2], [0, 0, 0, 0]), 0, (1, 4)),
    ]:
        cases += [(params, i, s_max, None) for s_max in s_values]
    # degree bounds above the target
    cases += [(Parameters.of(3, [1, 1, 1], [0, 2, 3], [1, 1, 1]), None, s_max, bound)
              for s_max, bound in ((1, 9), (2, 12))]
    # n = 4 at the s_max = 2 of the CLI, once with a bound two above the target
    generic4 = Parameters.of(4, [2, Fraction(1, 2), 5, -1], [7, 0, 13, 2], [1, 2, Fraction(1, 3), -1])
    cases += [(generic4, None, 2, None), (generic4, None, 2, 16),
              (Parameters.of(4, [1, 0, -2, 1], [1, 3, -1, 0], [0, 0, 0, 0]), None, 2, None)]
    # random rational parameters, n = 1..5, with and without gamma
    for n in range(1, 6):
        for zero_gamma in (False, True):
            rng = random.Random(53 * n + zero_gamma)
            i = rng.randrange(n)
            params = draw_params(rng, n, {i}, zero_gamma)
            cases += [(params, i, s_max, None) for s_max in (1, 2, 3)]
    return cases


@pytest.mark.parametrize("params, i, s_max, bound", chain_cases())
def test_chain_report_matches_the_oracle(params, i, s_max, bound, monkeypatch):
    # The check walks the basis once, from vertex i to the bound less n + 2,
    # the largest degree a span reads.
    walks = []
    basis_from = structure.basis_from
    monkeypatch.setattr(structure, "basis_from", lambda sys_, v, k: walks.append((v, k)) or basis_from(sys_, v, k))
    report = noetherian_chain_check(params, i=i, s_max=s_max, degree_bound=bound)
    n, vertex = params.n, next(k for k in range(params.n) if params.beta[k] == 0) if i is None else i
    bound = (s_max + 1) * n + 2 if bound is None else bound
    assert (report.vertex, report.s_max, walks) == (vertex, s_max, [(vertex, bound - n - 2)])
    expected = oracle.chain(*vectors(params), vertex, s_max, bound)
    assert (report.annihilation_ok, report.strict_inclusions, report.support_pattern_ok) == expected
    assert report.ok


def test_chain_report_names_its_generator_and_up_cycle():
    report = noetherian_chain_check(Parameters.of(3, [2, 1, 1], [1, 0, 3], [0, Fraction(1, 2), 0]), s_max=1)
    assert (report.generator, report.up_cycle) == ("1/2 @1 + 1 * u1.d1 + -1 * d0.u0", "u1.u2.u0")


def test_up_cycle_times_generator_is_the_definition():
    # U g as paths, before any reduction: U's words followed by g's.
    rng = random.Random(17)
    for n in range(1, 6):
        for _ in range(3):
            params = Parameters.of(n, *([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                         for _ in range(n)] for _ in range(3)))
            for i in range(n):
                u_g = Element.from_path(up_cycle_path(n, i)) * -_zero_divisor(params, i)
                g = oracle.chain_generator(n, params.alpha, params.gamma, i)
                assert {names(p): c for p, c in u_g.terms.items()} == {oracle.up_cycle(n, i) + w: c
                                                                        for w, c in g.items()}


def assert_property_report_matches_the_oracle(params: Parameters) -> None:
    """The report's witnesses are the oracle's, its flags "every beta_i nonzero", and it passes
    exactly when every witness holds; a zero-divisor witness names a_i and u_i."""
    report = property_report(params)
    witnesses = oracle.property_witnesses(*vectors(params))
    assert [{k: v for k, v in w.items() if k not in ("left", "right")} for w in report.witnesses] == witnesses
    assert report.checks_passed is all(v for w in witnesses for v in w.values() if type(v) is bool)
    flags = (report.beta_nonzero, report.noetherian, report.pwd, report.polynomial_subalgebra)
    assert flags == (all(params.beta),) * 4
    for w in report.witnesses:
        if w["kind"] == "zero-divisor":
            assert (w["left"], w["right"]) == (str(_zero_divisor(params, w["vertex"])), f"1 * u{w['vertex']}")


REGIMES = [(zero_beta, zero_gamma) for zero_beta in (False, True) for zero_gamma in (False, True)]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("zero_beta, zero_gamma", REGIMES)
def test_property_report_matches_the_oracle(n, zero_beta, zero_gamma):
    # With beta != 0 the witness read from theta must give the verdict of the
    # oracle's degree-4 elimination; with a zero beta_i the zero-divisor products.
    rng = random.Random(31 * n + 2 * zero_beta + zero_gamma)
    for _ in range(3):
        zeros = {rng.randrange(n)} if zero_beta else set()
        params = draw_params(rng, n, zeros, zero_gamma)
        assert_property_report_matches_the_oracle(params)


def test_the_witnesses_eliminate_with_no_fraction(monkeypatch):
    # Every row the chain and the two relation-span checks add or test is
    # int-coded, so clearing it is a no-op, and no Fraction is built inside
    # RowSpace.residual or RowSpace.add.  The freeness witness reads theta
    # and eliminates nothing.
    inside, calls = [], []
    genuine_new = Fraction.__new__

    def guarded_new(cls, *args, **kwargs):
        if inside:
            raise AssertionError("Fraction built inside the elimination")
        return genuine_new(cls, *args, **kwargs)

    def guard(method):
        def run(self, row):
            assert all(type(c) is int for c in row.values())
            inside.append(method.__name__)
            calls.append(method.__name__)
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
    assert property_report(nonzero).checks_passed and not calls
    assert property_report(beta0).checks_passed
    assert noetherian_chain_check(beta0, s_max=3).ok
    with pytest.raises(ValueError):
        noetherian_chain_check(nonzero)  # the chain needs some beta_i = 0
    graded = Parameters.of(3, [2, Fraction(1, 2), 5], [7, Fraction(-3, 2), 13], [0, 0, 0])
    omega = build_superpotential(graded, balanced_twist_weights(graded)).omega
    assert check_derivation_quotient(omega, graded)
    assert check_diagonal_map(derived_nakayama(graded), graded, graded).ok
    assert rows_seen
