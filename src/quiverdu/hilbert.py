"""Matrix-valued Hilbert series: the closed-form check and the totals.

The claim under test is that the dimension matrices H_k are the
coefficients of D(t)^{-1}, with D(t) = I - Mt + Mt^3 - It^4 for the quiver
down-up quotient and D(t) = I - Mt + It^2 for the preprojective quotient;
M is the adjacency matrix of the doubled n-cycle.  A denominator is a plain
map degree -> integer matrix (arbitrary precision).  Since D_0 = I, the
truncated inverse is unique, so "H = D^{-1} through degree K" says exactly
that the residual E_k = sum_j D_j H_{k-j} is I at k = 0 and 0 for
k = 1..K.  ``closed_form_check`` computes E_k from the counted matrices;
no series is inverted.  The counts are ``rewrite.dimension_matrices``:
the normal-word shape read from the leading words' letters (its steps (a)
and (b)), with no word walked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Parameters, adjacency_matrix
from .rewrite import (
    PRESET_PREPROJECTIVE,
    PRESET_QDU,
    build_system,
    dimension_matrices,
)

Matrix = list[list[int]]
Denominator = dict[int, Matrix]


def mat_identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_zero(n: int) -> Matrix:
    return [[0] * n for _ in range(n)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c: int, a: Matrix) -> Matrix:
    return [[c * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    out = mat_zero(n)
    for i in range(n):
        for k in range(n):
            aik = a[i][k]
            if aik:
                for j in range(n):
                    out[i][j] += aik * b[k][j]
    return out


def mat_total(a: Matrix) -> int:
    return sum(sum(row) for row in a)


def qdu_denominator(n: int) -> Denominator:
    m = adjacency_matrix(n)
    ident = mat_identity(n)
    return {0: ident, 1: mat_scale(-1, m), 3: m, 4: mat_scale(-1, ident)}


def preprojective_denominator(n: int) -> Denominator:
    m = adjacency_matrix(n)
    ident = mat_identity(n)
    return {0: ident, 1: mat_scale(-1, m), 2: ident}


def qdu_total_formula(n: int, k: int) -> int:
    # Coefficientwise expansion of n (1-t)^{-2} (1-t^2)^{-1}.
    return n * ((k + 2) ** 2 // 4)


def preprojective_total_formula(n: int, k: int) -> int:
    # Coefficientwise expansion of n (1-t)^{-2}, established by enumeration.
    return n * (k + 1)


PREPROJECTIVE_TOTAL_NOTE = (
    "preprojective totals are n*(k+1) per degree, i.e. the series "
    "n(1-t)^{-2}; direct enumeration of normal words is authoritative here."
)


@dataclass
class ClosedFormReport:
    preset: str
    n: int
    max_degree: int
    matrices_match: bool
    first_mismatch: tuple | None
    totals: list[int]
    totals_match: bool
    note: str | None

    @property
    def ok(self) -> bool:
        return self.matrices_match and self.totals_match


def closed_form_check(params: Parameters, max_degree: int, preset: str = PRESET_QDU) -> ClosedFormReport:
    """Counted dimension matrices versus the closed-form series.

    The counts are the ground truth: ``dimension_matrices`` checks the
    system's leading words against the preset's letter patterns and reads
    every degree from the normal-word shape, so no word is listed.
    The series D(t)^{-1} is the claim under test.  The check stops at the
    first k where R = E_k - [k=0] I is nonzero.  Below k the matrices
    agree with the series, so R is H_k minus the series coefficient, and
    ``first_mismatch`` is (k, i, j, expected, got) at the first nonzero
    entry of R.  Totals are compared against the scalar closed forms as
    well.
    """
    n = params.n
    if preset == PRESET_QDU:
        sys = build_system(PRESET_QDU, params)
        denominator = qdu_denominator(n)
        total_formula = qdu_total_formula
        note = None
    elif preset == PRESET_PREPROJECTIVE:
        sys = build_system(PRESET_PREPROJECTIVE, n=n)
        denominator = preprojective_denominator(n)
        total_formula = preprojective_total_formula
        note = PREPROJECTIVE_TOTAL_NOTE
    else:
        raise ValueError(f"closed forms are defined for qdu/preprojective, not {preset!r}")
    matrices = dimension_matrices(sys, max_degree)
    totals = [mat_total(got) for got in matrices]
    first_mismatch = None
    for k, got in enumerate(matrices):
        residual = mat_scale(-1, mat_identity(n)) if k == 0 else mat_zero(n)
        for j, d in denominator.items():
            if j <= k:
                residual = mat_add(residual, mat_mul(d, matrices[k - j]))
        first_mismatch = next(((k, i, j, got[i][j] - residual[i][j], got[i][j])
                               for i in range(n) for j in range(n) if residual[i][j]), None)
        if first_mismatch is not None:
            break
    totals_match = all(totals[k] == total_formula(n, k) for k in range(max_degree + 1))
    return ClosedFormReport(
        preset, n, max_degree, first_mismatch is None, first_mismatch, totals, totals_match, note
    )


def factorization_identity(n: int) -> bool:
    """(1-t^4)I - (t-t^3)M == (1-t^2)(I - Mt + It^2), coefficient by coefficient."""
    if n < 1:
        raise ValueError("n must be positive")
    qdu, pre = qdu_denominator(n), preprojective_denominator(n)
    zero = mat_zero(n)
    # Coefficient k of (1 - t^2) P is P_k - P_{k-2}.
    return all(qdu.get(k, zero) == mat_add(pre.get(k, zero), mat_scale(-1, pre.get(k - 2, zero)))
               for k in range(max(max(qdu), max(pre) + 2) + 1))
