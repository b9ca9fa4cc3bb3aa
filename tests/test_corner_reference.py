"""Differential test of the corner spanning set of the skew-group check.

The reference is the corner loop that ``corner_dimensions`` replaced,
kept here verbatim: it spans f_i B_k f_j with every triple product
f_i (m # g^t) f_j.  The new code spans with t = 0 only, which is sound
because g^t f_j = zeta^{-tj} f_j; a labelling of the idempotents that
breaks that identity must be caught.
"""

import json

import pytest

from quiverdu import skewgroup
from quiverdu.cli import main
from quiverdu.cyclotomic import CycScalar
from quiverdu.linalg import RowSpace
from quiverdu.skewgroup import (
    IdempotentSet,
    SmashElement,
    build_idempotents,
    check_group_absorption,
    corner_dimensions,
    monomials_of_degree,
)


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


def rotated(idem: IdempotentSet) -> IdempotentSet:
    """f_{j+1} under the label j: still orthogonal and complete."""
    fs = idem.idempotents
    return IdempotentSet(idem.n, fs[1:] + fs[:1])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_corner_ranks_match_reference(n):
    idem = build_idempotents(n)
    for k in range(4):
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
