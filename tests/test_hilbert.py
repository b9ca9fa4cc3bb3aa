import pytest

from quiverdu import hilbert
from quiverdu.core import Parameters, adjacency_matrix
from quiverdu.hilbert import (
    closed_form_check,
    factorization_identity,
    mat_identity,
    mat_mul,
    mat_scale,
    preprojective_total_formula,
    qdu_total_formula,
)
from quiverdu.rewrite import PRESET_PREPROJECTIVE
from test_hilbert_reference import (  # the series inverter the residual check replaced
    MatrixPoly,
    invert_series,
    mat_sub,
    preprojective_series,
    qdu_series,
    total_series,
)


def test_invert_series_qdu_coefficients():
    n = 3
    m = adjacency_matrix(n)
    ident = mat_identity(n)
    s = qdu_series(n, 4)
    m2 = mat_mul(m, m)
    m3 = mat_mul(m2, m)
    m4 = mat_mul(m3, m)
    assert s.coeff(0) == ident
    assert s.coeff(1) == m
    assert s.coeff(2) == m2
    assert s.coeff(3) == mat_sub(m3, m)
    assert s.coeff(4) == mat_sub(mat_sub(m4, mat_scale(2, m2)), mat_scale(-1, ident))


def test_invert_identity_poly():
    n = 2
    s = invert_series(MatrixPoly(n, {0: mat_identity(n)}), 3)
    assert s.coeff(0) == mat_identity(n)
    for k in (1, 2, 3):
        assert s.coeff(k) == [[0, 0], [0, 0]]


def test_invert_series_preprojective_degree2():
    n = 3
    s = preprojective_series(n, 2)
    m = adjacency_matrix(n)
    assert s.coeff(2) == mat_sub(mat_mul(m, m), mat_identity(n))


def test_invert_series_requires_identity_constant():
    n = 2
    with pytest.raises(ValueError):
        invert_series(MatrixPoly(n, {0: [[2, 0], [0, 1]]}), 2)


def test_invert_series_nonnegativity_guard():
    n = 2
    m = adjacency_matrix(n)
    plus = MatrixPoly(n, {0: mat_identity(n), 1: m})  # inverse alternates sign
    with pytest.raises(ValueError, match="negative"):
        invert_series(plus, 3)
    s = invert_series(plus, 3, require_nonnegative=False)
    assert s.coeff(1) == mat_scale(-1, m)


def test_truncation_consistency():
    s8 = qdu_series(3, 8)
    s5 = qdu_series(3, 5)
    assert s8.coeffs[:6] == s5.coeffs


def test_symmetry_and_nonnegativity():
    for n in (1, 2, 3, 5):
        s = qdu_series(n, 8)
        for k in range(9):
            h = s.coeff(k)
            assert all(h[i][j] == h[j][i] for i in range(n) for j in range(n))
            assert all(x >= 0 for row in h for x in row)


def test_total_series_qdu():
    totals = total_series(qdu_series(3, 5))
    assert totals == [3, 6, 12, 18, 27, 36]
    assert totals == [qdu_total_formula(3, k) for k in range(6)]
    n1 = total_series(qdu_series(1, 8))
    assert n1 == [1, 2, 4, 6, 9, 12, 16, 20, 25]


def test_total_series_preprojective():
    totals = total_series(preprojective_series(2, 5))
    assert totals == [2, 4, 6, 8, 10, 12]
    assert totals == [preprojective_total_formula(2, k) for k in range(6)]


def test_closed_form_check_qdu():
    for n in (1, 3):
        params = Parameters.of(n, [1] * n, [2] * n, [0] * n)
        report = closed_form_check(params, 8)
        assert report.ok and report.first_mismatch is None


def test_closed_form_check_preprojective():
    for n in (2, 3, 4):
        params = Parameters.of(n, [0] * n, [1] * n, [0] * n)
        report = closed_form_check(params, 6, preset=PRESET_PREPROJECTIVE)
        assert report.ok
        assert report.totals == [n * (k + 1) for k in range(7)]
        assert report.note is not None


def test_factorization_identity():
    for n in range(1, 7):
        assert factorization_identity(n)


def _flip_t3_coefficient(monkeypatch):
    """Mutate D(t) = I - Mt + Mt^3 - It^4 into I - Mt - Mt^3 - It^4."""
    original = hilbert.qdu_denominator

    def flipped(n):
        denominator = original(n)
        denominator[3] = mat_scale(-1, denominator[3])
        return denominator
    monkeypatch.setattr(hilbert, "qdu_denominator", flipped)


@pytest.mark.parametrize("n", [1, 3, 7, 12])
def test_flipped_t3_coefficient_fails_closed_form_check_at_degree_3(monkeypatch, n):
    _flip_t3_coefficient(monkeypatch)
    report = closed_form_check(Parameters.of(n, [1] * n, [2] * n, [0] * n), 6)
    assert not report.ok and not report.matrices_match and report.totals_match
    k, i, j, expected, got = report.first_mismatch
    # The flipped series has M^3 + M at degree 3 where the counts give M^3 - M.
    m = adjacency_matrix(n)
    assert k == 3
    assert (i, j) == next((a, b) for a in range(n) for b in range(n) if m[a][b])
    assert expected - got == 2 * m[i][j]


def test_flipped_t3_coefficient_fails_factorization_identity(monkeypatch):
    _flip_t3_coefficient(monkeypatch)
    for n in range(1, 7):
        assert not factorization_identity(n)
