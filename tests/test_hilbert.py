"""The Hilbert-series check against the oracle.

``oracle.normal_word_counts`` counts the normal words by source, target
and degree, and ``oracle.inverse_series`` expands D(t)^-1 with its own
integer matrices; neither imports the package.  ``closed_form_check``
computes the residual sum_j D_j H_{k-j} of the leading-word counts and
inverts nothing, so with one count perturbed it must still report the
first entry where the counts leave the series.
"""

import functools
import random

import pytest

import oracle
from quiverdu import hilbert, rewrite
from quiverdu.core import Parameters, adjacency_matrix
from quiverdu.hilbert import (
    closed_form_check,
    factorization_identity,
    mat_scale,
    preprojective_total_formula,
    qdu_total_formula,
)
from quiverdu.rewrite import PRESET_PREPROJECTIVE, PRESET_QDU, build_system

EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
M3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]  # the doubled 3-cycle


def series(n: int, order: int, preset: str = "qdu") -> list:
    return oracle.inverse_series(oracle.denominator(n, preset), order)


def totals(matrices: list) -> list[int]:
    return [sum(map(sum, m)) for m in matrices]


def test_oracle_series_qdu_coefficients():
    # I, M, M^2, M^3 - M, M^4 - 2M^2 + I at n = 3.
    assert oracle.denominator(3, "qdu")[3] == M3
    assert series(3, 4) == [EYE3, M3, [[2, 1, 1], [1, 2, 1], [1, 1, 2]], [[2] * 3] * 3, [[3] * 3] * 3]


def test_oracle_series_of_the_identity():
    assert oracle.inverse_series({0: [[1, 0], [0, 1]]}, 3)[1:] == [[[0, 0], [0, 0]]] * 3


def test_oracle_series_preprojective_degree2():
    assert series(3, 2, "preprojective")[2] == [[1, 1, 1]] * 3  # M^2 - I


def test_truncation_consistency():
    assert series(3, 8)[:6] == series(3, 5)


def test_symmetry_and_nonnegativity():
    for n in (1, 2, 3, 5):
        for h in series(n, 8):
            assert all(h[i][j] == h[j][i] >= 0 for i in range(n) for j in range(n))


def test_total_series_qdu():
    assert totals(series(3, 5)) == [3, 6, 12, 18, 27, 36] == [qdu_total_formula(3, k) for k in range(6)]
    assert totals(series(1, 8)) == [1, 2, 4, 6, 9, 12, 16, 20, 25]


def test_total_series_preprojective():
    assert totals(series(2, 5, "preprojective")) == [2, 4, 6, 8, 10, 12]
    assert totals(series(2, 5, "preprojective")) == [preprojective_total_formula(2, k) for k in range(6)]


def test_oracle_counts_normal_words():
    # n = 1, qdu: u^a (du)^j d^c, 1, 2, 4, 6, 9 words; preprojective u^a d^c, k + 1 words.
    qdu = oracle.oriented(oracle.qdu_relations(1, [1], [2], [0]), 1)
    assert [m[0][0] for m in oracle.normal_word_counts(qdu, 1, 4)] == [1, 2, 4, 6, 9]
    pre = oracle.oriented(oracle.preprojective_relations(1), 1)
    assert [m[0][0] for m in oracle.normal_word_counts(pre, 1, 4)] == [1, 2, 3, 4, 5]
    assert oracle.normal_words(pre, 1, 0, 2)[2] == [("u0", "u0"), ("u0", "d0"), ("d0", "d0")]


def _cases():
    """(n, preset, max_degree, perturbation): n = 1..8, both presets, K <= 14.

    A perturbation (k, i, j, delta) adds delta to one of the oracle's counts;
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


@functools.lru_cache(maxsize=None)
def oracle_counts(n: int, preset: str) -> tuple:
    """The oracle's normal-word counts to degree 14, the largest a case draws, as tuples."""
    relations = oracle.qdu_relations(n, [1] * n, [2] * n, [0] * n) if preset == PRESET_QDU \
        else oracle.preprojective_relations(n)
    return tuple(tuple(map(tuple, m)) for m in oracle.normal_word_counts(oracle.oriented(relations, n), n, 14))


@pytest.mark.parametrize("n, preset, max_degree, perturbation", list(_cases()))
def test_closed_form_check_matches_the_oracle(monkeypatch, n, preset, max_degree, perturbation):
    params = Parameters.of(n, [1] * n, [2] * n, [0] * n)
    counts = [[list(row) for row in m] for m in oracle_counts(n, preset)[:max_degree + 1]]
    system = build_system(preset, params) if preset == PRESET_QDU else build_system(preset, n=n)
    assert rewrite.dimension_matrices(system, max_degree) == counts
    if perturbation is not None:
        k, i, j, delta = perturbation
        counts[k][i][j] += delta
    monkeypatch.setattr(hilbert, "dimension_matrices", lambda sys_, degree: counts)
    expected = series(n, max_degree, "qdu" if preset == PRESET_QDU else "preprojective")
    first_mismatch = next(((k, i, j, expected[k][i][j], got[i][j]) for k, got in enumerate(counts)
                           for i in range(n) for j in range(n) if got[i][j] != expected[k][i][j]), None)
    report = closed_form_check(params, max_degree, preset=preset)
    assert (report.preset, report.n, report.max_degree) == (preset, n, max_degree)
    assert (report.matrices_match, report.first_mismatch) == (first_mismatch is None, first_mismatch)
    assert report.totals == totals(counts)
    assert report.totals_match == (totals(counts) == totals(expected))
    assert report.matrices_match == (perturbation is None)
    assert (report.note is None) == (preset == PRESET_QDU)


def test_factorization_identity_matches_the_oracle():
    # D_qdu = (1 - t^2) D_pre, so the qdu counts are the preprojective ones times 1/(1 - t^2).
    for n in range(1, 9):
        assert factorization_identity(n)
        qdu = oracle.normal_word_counts(oracle.oriented(oracle.qdu_relations(n, [1] * n, [2] * n, [0] * n), n), n, 8)
        pre = oracle.normal_word_counts(oracle.oriented(oracle.preprojective_relations(n), n), n, 8)
        for k in range(9):
            below = qdu[k - 2] if k >= 2 else [[0] * n for _ in range(n)]
            assert [[a - b for a, b in zip(r, s)] for r, s in zip(qdu[k], below)] == pre[k], (n, k)


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
