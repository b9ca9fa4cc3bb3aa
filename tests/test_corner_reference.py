"""Differential and mutation tests of the corner rows of the skew-group check.

The reference is the corner loop that ``corner_dimensions`` replaced,
kept here verbatim: it spans f_i B_k f_j with every triple product
f_i (m # g^t) f_j.  The new code spans with t = 0 only, which is sound
because g^t f_j = zeta^{-tj} f_j, and writes each row in closed form,
f_i (m # 1) f_j = delta_{a j} m # f_j with a = i + w(m), after checking
the left factor f_i (m # 1) = m # f_a.  A labelling of the idempotents
that breaks the absorption identity, a weight of the wrong sign and a
left factor taken with the wrong idempotent must each be caught.

``build_idempotents`` checks orthogonality by a cyclic convolution of
coefficient vectors; the smash-product loop it replaced is kept here
verbatim as ``reference_orthogonality``.
"""

import json
from fractions import Fraction

import pytest

from quiverdu import skewgroup
from quiverdu.cli import main
from quiverdu.cyclotomic import CycScalar
from quiverdu.core import Parameters
from quiverdu.rewrite import PRESET_QDU, build_system, dimension_matrices
from quiverdu.skewgroup import (
    IdempotentSet,
    SmashElement,
    build_idempotents,
    check_group_absorption,
    corner_dimensions,
    monomial_weight,
    smash_multiply,
)
from test_linalg import RowSpace  # the dense elimination the corner loop ran on
from test_skewgroup import monomials_of_degree


def reference_corner_dimensions(n, k, idem):
    """dim f_i B_k f_j spanned by every f_i (m # g^t) f_j (verbatim loop)."""
    dims = [[0] * n for _ in range(n)]
    monomials = monomials_of_degree(k)
    coords = {(m, j): pos for pos, (m, j) in enumerate(
        ((m, j) for m in monomials for j in range(n)))}
    for i in range(n):
        for jv in range(n):
            space = RowSpace(len(coords))
            rank_count = 0
            for m in monomials:
                for t in range(n):
                    prod = idem[i] * SmashElement.monomial(n, m, t) * idem[jv]
                    if prod.is_zero():
                        continue
                    row = [CycScalar.zero(n)] * len(coords)
                    for key, c in prod.terms.items():
                        row[coords[key]] = c
                    if space.add(row):
                        rank_count += 1
            dims[i][jv] = rank_count
    return dims


def reference_orthogonality(n, fs):
    """The smash-product check that the cyclic convolution replaced (verbatim loop)."""
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            prod = smash_multiply(f, g)
            expected = f if i == j else SmashElement.zero(n)
            if prod != expected:
                raise AssertionError(f"idempotent orthogonality failed at ({i},{j})")


def test_idempotents_pass_the_smash_product_check():
    for n in range(2, 13):
        idem = build_idempotents(n)
        reference_orthogonality(n, idem.idempotents)
        for i, f in enumerate(idem.idempotents):
            assert f.terms == {((0, 0, 0), a): CycScalar.zeta_power(n, i * a) * Fraction(1, n)
                               for a in range(n)}


def test_orthogonality_check_reads_the_built_idempotents(monkeypatch):
    # Every f_i built with zeta^(ia + 1) / n instead of zeta^(ia) / n.
    genuine = CycScalar.zeta_power
    monkeypatch.setattr(CycScalar, "zeta_power", classmethod(lambda cls, n, e: genuine(n, e + 1)))
    with pytest.raises(AssertionError, match=r"orthogonality failed at \(0,0\)"):
        build_idempotents(3)


def rotated(idem: IdempotentSet) -> IdempotentSet:
    """f_{j+1} under the label j: still orthogonal and complete."""
    fs = idem.idempotents
    return IdempotentSet(idem.n, fs[1:] + fs[:1])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_corner_ranks_match_reference(n):
    idem = build_idempotents(n)
    for k in range(4 if n <= 5 else 3):
        assert corner_dimensions(n, k, idem) == reference_corner_dimensions(n, k, idem), k


def test_group_absorption_holds():
    for n in range(2, 13):
        check_group_absorption(n, build_idempotents(n))


def test_tampered_idempotents_fail_absorption():
    for n in (2, 3, 5):
        idem = rotated(build_idempotents(n))
        for i, f in enumerate(idem.idempotents):  # the tamper keeps f_i f_j = delta_ij f_i
            for j, g in enumerate(idem.idempotents):
                assert f * g == (f if i == j else SmashElement.zero(n))
        with pytest.raises(AssertionError, match="at t=1, j=0"):
            check_group_absorption(n, idem)


def test_tampered_idempotents_give_fail_exit_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 3, "alpha": ["0"] * 3, "beta": ["-1"] * 3,
                                "gamma": ["0"] * 3}), encoding="utf-8")
    genuine = skewgroup.build_idempotents
    monkeypatch.setattr(skewgroup, "build_idempotents", lambda n: rotated(genuine(n)))
    code = main(["verify", "skewgroup", str(path), "--max-degree", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["findings"] == {"internal_check_failed": "g^t f_j != zeta^(-tj) f_j at t=1, j=0"}


def weight_class_counts(n, k):
    """#{m of degree k : w(m) = j - i mod n} for every corner (i, j), no smash product."""
    counts = [[0] * n for _ in range(n)]
    for m in monomials_of_degree(k):
        for i in range(n):
            counts[i][(i + monomial_weight(m)) % n] += 1
    return counts


def test_corner_rank_is_weight_class_count():
    for n in range(2, 13):
        idem = build_idempotents(n)
        matched = Parameters.of(n, [0] * n, [-1] * n, [0] * n)
        expected = dimension_matrices(build_system(PRESET_QDU, matched), 6)
        for k in range(7):
            counts = weight_class_counts(n, k)
            assert corner_dimensions(n, k, idem) == counts, (n, k)
            assert [list(row) for row in expected[k]] == counts, (n, k)


def flip_weight_sign(monkeypatch):
    """The corner code reads w(m) = #d - #u; the smash product keeps the true action."""
    monkeypatch.setattr(skewgroup, "monomial_weight", lambda m: m[2] - m[0])


def shift_left_factors(monkeypatch, n):
    """f_{i+1} (m # 1) in place of f_i (m # 1), for every single m # 1 on the right."""
    fs = [skewgroup._encode(f) for f in build_idempotents(n).idempotents]
    genuine = skewgroup._coded_product

    def mutated(n_, a, b):
        if a in fs and len(b[1]) == 1 and next(iter(b[1]))[1] == 0:
            a = fs[(fs.index(a) + 1) % n]
        return genuine(n_, a, b)

    monkeypatch.setattr(skewgroup, "_coded_product", mutated)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_wrong_weight_sign_fails_left_factor_check(n, monkeypatch):
    idem = build_idempotents(n)
    flip_weight_sign(monkeypatch)
    assert corner_dimensions(n, 0, idem) == [[int(i == j) for j in range(n)] for i in range(n)]
    with pytest.raises(AssertionError, match=r"at i=0, m=\(0, 0, 1\)"):
        corner_dimensions(n, 1, idem)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_shifted_left_factor_fails_check(n, monkeypatch):
    idem = build_idempotents(n)
    shift_left_factors(monkeypatch, n)
    with pytest.raises(AssertionError, match=r"at i=0, m=\(0, 0, 0\)"):
        corner_dimensions(n, 0, idem)


def zeta_shift_off_by_one(monkeypatch):
    """v x^(e+1) in place of v x^e for every rotation e != 0 mod n."""
    genuine = skewgroup._rotate
    monkeypatch.setattr(skewgroup, "_rotate", lambda v, e, n: genuine(v, e + 1, n) if e % n else v)


def zeta_shift_off_by_one_in_products_only(monkeypatch):
    """The same, with the absorption check (which also shifts) skipped."""
    zeta_shift_off_by_one(monkeypatch)
    monkeypatch.setattr(skewgroup, "check_group_absorption", lambda n, idem: None)


@pytest.mark.parametrize("mutate, message", [
    (zeta_shift_off_by_one, "g^t f_j != zeta^(-tj) f_j at t=1, j=1"),
    (zeta_shift_off_by_one_in_products_only,
     "f_i (m # 1) != m # f_(i+w(m)) at i=0, m=(0, 0, 1)"),
    (flip_weight_sign, "f_i (m # 1) != m # f_(i+w(m)) at i=0, m=(0, 0, 1)"),
    (lambda mp: shift_left_factors(mp, 3), "f_i (m # 1) != m # f_(i+w(m)) at i=0, m=(0, 0, 0)"),
], ids=["zeta-shift", "zeta-shift-in-products", "weight-sign", "left-factor"])
def test_corrupted_corner_rows_give_fail_exit_1(mutate, message, tmp_path, capsys, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 3, "alpha": ["0"] * 3, "beta": ["-1"] * 3,
                                "gamma": ["0"] * 3}), encoding="utf-8")
    mutate(monkeypatch)
    code = main(["verify", "skewgroup", str(path), "--max-degree", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["findings"] == {"internal_check_failed": message}
