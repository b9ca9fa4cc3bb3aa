"""Differential test of the residual Hilbert-series check.

The reference is the series layer that ``closed_form_check`` replaced,
kept here verbatim: ``MatrixPoly``, ``MatrixSeries``, ``invert_series``
with its nonnegativity guard, ``qdu_series``, ``preprojective_series``,
``total_series`` and ``mat_sub``, and the old check and factorization
identity under a ``reference_`` prefix.  It inverts D(t) = I - Mt + Mt^3
- It^4 (or I - Mt + It^2) and compares the series with the automaton
counts.  The new check computes the residual E_k = sum_j D_j H_{k-j} and
inverts nothing; with one automaton count perturbed, both must give the
same ``ClosedFormReport``, ``first_mismatch`` included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from quiverdu import hilbert, rewrite
from quiverdu.core import Parameters, adjacency_matrix
from quiverdu.hilbert import (
    PREPROJECTIVE_TOTAL_NOTE,
    ClosedFormReport,
    closed_form_check,
    factorization_identity,
    mat_add,
    mat_identity,
    mat_mul,
    mat_scale,
    mat_total,
    mat_zero,
    preprojective_total_formula,
    qdu_total_formula,
)
from quiverdu.rewrite import (
    PRESET_PREPROJECTIVE,
    PRESET_QDU,
    build_system,
    dimension_matrices,
)

Matrix = list[list[int]]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


@dataclass
class MatrixPoly:
    """Finite map degree -> integer matrix; zero matrices are not stored."""

    n: int
    coeffs: dict[int, Matrix]

    def __post_init__(self) -> None:
        self.coeffs = {k: m for k, m in self.coeffs.items() if any(any(row) for row in m)}
        if any(k < 0 for k in self.coeffs):
            raise ValueError("polynomial degrees must be nonnegative")

    def coeff(self, k: int) -> Matrix:
        return self.coeffs.get(k, mat_zero(self.n))

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, MatrixPoly) and self.n == other.n and self.coeffs == other.coeffs

    def scalar_poly_mul(self, scalar_coeffs: dict[int, int]) -> "MatrixPoly":
        out: dict[int, Matrix] = {}
        for i, a in self.coeffs.items():
            for j, c in scalar_coeffs.items():
                k = i + j
                out[k] = mat_add(out.get(k, mat_zero(self.n)), mat_scale(c, a))
        return MatrixPoly(self.n, out)


@dataclass
class MatrixSeries:
    n: int
    order: int
    coeffs: list[Matrix]

    def coeff(self, k: int) -> Matrix:
        if not 0 <= k <= self.order:
            raise ValueError("degree beyond truncation order")
        return self.coeffs[k]


def invert_series(p: MatrixPoly, order: int, require_nonnegative: bool = True) -> MatrixSeries:
    """The unique series h with p*h = I up to the given order.

    Uses the recurrence H_k = -sum_{j>=1} p_j H_{k-j}.  The constant term
    of p must be the identity.  The closed forms handled here all have
    nonnegative coefficients (they count paths); by default this is
    checked and violations raise.
    """
    ident = mat_identity(p.n)
    if p.coeff(0) != ident:
        raise ValueError("constant term must be the identity matrix")
    coeffs = [ident]
    for k in range(1, order + 1):
        acc = mat_zero(p.n)
        for j in range(1, min(k, p.degree) + 1):
            acc = mat_add(acc, mat_mul(p.coeff(j), coeffs[k - j]))
        hk = mat_scale(-1, acc)
        if require_nonnegative and any(x < 0 for row in hk for x in row):
            raise ValueError(f"negative series coefficient at degree {k}")
        coeffs.append(hk)
    return MatrixSeries(p.n, order, coeffs)


def qdu_denominator(n: int) -> MatrixPoly:
    m = adjacency_matrix(n)
    ident = mat_identity(n)
    return MatrixPoly(n, {0: ident, 1: mat_scale(-1, m), 3: m, 4: mat_scale(-1, ident)})


def preprojective_denominator(n: int) -> MatrixPoly:
    m = adjacency_matrix(n)
    ident = mat_identity(n)
    return MatrixPoly(n, {0: ident, 1: mat_scale(-1, m), 2: ident})


def qdu_series(n: int, order: int) -> MatrixSeries:
    return invert_series(qdu_denominator(n), order)


def preprojective_series(n: int, order: int) -> MatrixSeries:
    return invert_series(preprojective_denominator(n), order)


def total_series(ms: MatrixSeries) -> list[int]:
    return [mat_total(ms.coeff(k)) for k in range(ms.order + 1)]


def reference_closed_form_check(params: Parameters, max_degree: int,
                                preset: str = PRESET_QDU) -> ClosedFormReport:
    """Enumerated dimension matrices versus the closed-form series.

    The enumeration is the ground truth; the series is the claim under
    test.  Totals are compared against the scalar closed forms as well.
    """
    n = params.n
    if preset == PRESET_QDU:
        sys = build_system(PRESET_QDU, params)
        series = qdu_series(n, max_degree)
        total_formula = qdu_total_formula
        note = None
    elif preset == PRESET_PREPROJECTIVE:
        sys = build_system(PRESET_PREPROJECTIVE, n=n)
        series = preprojective_series(n, max_degree)
        total_formula = preprojective_total_formula
        note = PREPROJECTIVE_TOTAL_NOTE
    else:
        raise ValueError(f"closed forms are defined for qdu/preprojective, not {preset!r}")
    matrices = dimension_matrices(sys, max_degree)
    totals = [mat_total(got) for got in matrices]
    first_mismatch = next(((k, i, j, series.coeff(k)[i][j], got[i][j])
                           for k, got in enumerate(matrices)
                           for i in range(n) for j in range(n)
                           if got[i][j] != series.coeff(k)[i][j]), None)
    totals_match = all(totals[k] == total_formula(n, k) for k in range(max_degree + 1))
    return ClosedFormReport(
        preset, n, max_degree, first_mismatch is None, first_mismatch, totals, totals_match, note
    )


def reference_factorization_identity(n: int) -> bool:
    """(1-t^4)I - (t-t^3)M == (1-t^2)(I - Mt + It^2), coefficient by coefficient."""
    if n < 1:
        raise ValueError("n must be positive")
    return qdu_denominator(n) == preprojective_denominator(n).scalar_poly_mul({0: 1, 2: -1})


def _cases():
    """(n, preset, max_degree, perturbation): n = 1..8, both presets, K <= 14.

    A perturbation (k, i, j, delta) adds delta to one automaton count;
    None leaves the counts as enumerated.
    """
    rng = random.Random(11)
    for n in range(1, 9):
        for preset in (PRESET_QDU, PRESET_PREPROJECTIVE):
            for case in range(12):
                max_degree = rng.randint(0, 14)
                perturbation = None
                if case:
                    perturbation = (rng.randint(0, max_degree), rng.randrange(n),
                                    rng.randrange(n), rng.choice([-2, -1, 1, 3]))
                yield n, preset, max_degree, perturbation


@pytest.mark.parametrize("n, preset, max_degree, perturbation", list(_cases()))
def test_closed_form_check_matches_inversion_reference(monkeypatch, n, preset, max_degree,
                                                       perturbation):
    def perturbed(sys, degree):
        matrices = rewrite.dimension_matrices(sys, degree)
        if perturbation is not None:
            k, i, j, delta = perturbation
            matrices[k][i][j] += delta
        return matrices

    monkeypatch.setattr(hilbert, "dimension_matrices", perturbed)
    monkeypatch.setitem(globals(), "dimension_matrices", perturbed)
    params = Parameters.of(n, [1] * n, [2] * n, [0] * n)
    report = closed_form_check(params, max_degree, preset=preset)
    assert report == reference_closed_form_check(params, max_degree, preset=preset)
    assert report.matrices_match == (perturbation is None)


def test_factorization_identity_matches_reference():
    for n in range(1, 9):
        assert factorization_identity(n) is reference_factorization_identity(n) is True
