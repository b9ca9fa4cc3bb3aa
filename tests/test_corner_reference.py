"""Differential and mutation tests of the corner rows of the skew-group check.

The reference is the corner loop that ``corner_dimensions`` replaced,
kept here verbatim: it spans f_i B_k f_j with every triple product
f_i (m # g^t) f_j.  The new code spans with t = 0 only, which is sound
because g^t f_j = zeta^{-tj} f_j, and writes each row in closed form,
f_i (m # 1) f_j = delta_{a j} m # f_j with a = i + w(m), after checking
the left factor f_i (m # 1) = m # f_a.  A labelling of the idempotents
that breaks the absorption identity, a weight of the wrong sign and a
left factor taken with the wrong idempotent must each be caught.

``build_idempotents`` builds each f_i once, coded with one power of x per
group element (``_one_power_idempotent``), and checks orthogonality and
completeness on that set; the smash-product loop of an earlier check is
kept here verbatim as ``reference_orthogonality``.  The idempotent
mutants act on that builder, so every check downstream reads them.

``verify_quotient_match`` counts no corner: the count lemma of
``skewgroup``'s docstring gives every degree from the three hypotheses that
``_check_generators`` checks.  The enumeration it replaced, the degree-k
monomials counted by weight class, is kept here as ``corner_dimensions``
and ``weight_class_counts`` (``skewgroup.corner_dimensions`` and
``_weight_class_counts``, moved verbatim up to the degree-free generator
check), and must equal ``rewrite._closed_shape_matrix`` and the oracle's
normal-word count of H(0, -1, 0).  The path that count replaced, one
coded smash product per (i, m) and a ``RowSpace`` rank over ``CycScalar``
rows, is kept here as ``rank_corner_dimensions``
(verbatim up to the elimination over any field-like scalar, now the
oracle's dense ``rank`` since ``linalg`` takes rational rows only, the flat coded keys
(monomial, group exponent, power of x), and canonical forms taken through
``test_skewgroup``'s ``decode`` and ``encode``), and the caps built from
canonical idempotent forms as ``canonical_coded_caps``.  The triple
products of ``reference_corner_dimensions`` and ``reference_orthogonality``
are read decoded, as plain {(monomial, group exponent): CycScalar} dicts.  The
count's checked hypotheses (the left-factor identity on the generators,
w = #u - #d, weight-homogeneous rules of R) and the check that the map is
onto must each be able to fail.
"""

import json
from fractions import Fraction

import pytest

from quiverdu import linalg, rewrite, skewgroup
from quiverdu.cli import main
from quiverdu.cyclotomic import CycScalar
from quiverdu.core import add_into, path_from_word
from quiverdu.rewrite import PRESET_QDU, _closed_shape_matrix, build_system, normal_shapes
from quiverdu.skewgroup import (
    _UNIT,
    GRADED_DOWN_UP,
    _agree,
    _check_generators,
    _coded_product,
    _grouped,
    _monomial,
    build_idempotents,
    check_group_absorption,
    monomial_weight,
)
from oracle import normal_word_counts, oriented, qdu_relations, rank
from test_skewgroup import (
    decode,
    decoded_idempotents,
    encode,
    monomial,
    monomials_of_degree,
    smash_product,
)


def reference_corner_dimensions(n, k, fs):
    """dim f_i B_k f_j spanned by every f_i (m # g^t) f_j (verbatim loop).

    ``fs`` are the coded f_i, read decoded.
    """
    idem = [decode(n, f) for f in fs]
    dims = [[0] * n for _ in range(n)]
    monomials = monomials_of_degree(k)
    for i in range(n):
        for jv in range(n):
            rows = [smash_product(n, idem[i], monomial(n, m, t), idem[jv]) for m in monomials for t in range(n)]
            dims[i][jv] = rank(rows, CycScalar.zero(n))
    return dims


def reference_orthogonality(n, fs):
    """The smash-product check that the cyclic convolution replaced (verbatim loop)."""
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            prod = smash_product(n, f, g)
            expected = f if i == j else {}
            if prod != expected:
                raise AssertionError(f"idempotent orthogonality failed at ({i},{j})")


def test_idempotents_pass_the_smash_product_check():
    for n in range(2, 13):
        fs = decoded_idempotents(n)
        reference_orthogonality(n, fs)
        for i, f in enumerate(fs):
            assert f == {((0, 0, 0), a): CycScalar.zeta_power(n, i * a) * Fraction(1, n)
                               for a in range(n)}


def tamper_idempotents(monkeypatch, tamper):
    """Build every f_i as ``tamper(n, i, f_i)`` on its coded form."""
    genuine = skewgroup._one_power_idempotent
    monkeypatch.setattr(skewgroup, "_one_power_idempotent",
                        lambda n, i: tamper(n, i, genuine(n, i)))


def f2_rewritten(n, i, f):
    """f_2 plus (1 + x + ... + x^(n-1)) # 1 / n: the same value, another coded form."""
    if i != 2:
        return f
    den, terms = f
    out = dict(terms)
    for k in range(n):
        out[(_UNIT, 0, k)] = out.get((_UNIT, 0, k), 0) + 1
    return den, out


def shift_exponents(monkeypatch, where=lambda i, t: True):
    """f_i built with x^(it + 1) / n in place of x^(it) / n at each g^t with ``where(i, t)``."""
    tamper_idempotents(monkeypatch, lambda n, i, f: (f[0], {
        (m, t, (k + where(i, t)) % n): c for (m, t, k), c in f[1].items()}))


def test_orthogonality_check_reads_the_built_idempotents(monkeypatch):
    shift_exponents(monkeypatch)
    with pytest.raises(AssertionError, match=r"orthogonality failed at \(0,0\)"):
        build_idempotents(3)


@pytest.mark.parametrize("i, t", [(i, t) for i in range(4) for t in range(4)])
def test_orthogonality_is_checked_at_every_group_exponent(i, t, monkeypatch):
    shift_exponents(monkeypatch, lambda i_, t_: (i_, t_) == (i, t))
    with pytest.raises(AssertionError, match="orthogonality failed"):
        build_idempotents(4)


def test_completeness_check_reads_the_built_idempotents(monkeypatch):
    # f_(n-1) built as 0: 0 is orthogonal to every f_i and to itself.
    tamper_idempotents(monkeypatch, lambda n, i, f: f if i < n - 1 else (1, {}))
    with pytest.raises(AssertionError, match="idempotents do not sum to the identity"):
        build_idempotents(3)


def rotate_idempotents(monkeypatch):
    """f_{j+1} built under the label j: still orthogonal and complete."""
    genuine = skewgroup._one_power_idempotent
    monkeypatch.setattr(skewgroup, "_one_power_idempotent", lambda n, i: genuine(n, (i + 1) % n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_corner_ranks_match_reference(n):
    fs = build_idempotents(n)
    for k in range(4 if n <= 5 else 3):
        assert corner_dimensions(n, k, fs) == reference_corner_dimensions(n, k, fs), k


def test_group_absorption_holds():
    for n in range(2, 13):
        check_group_absorption(n, build_idempotents(n))


def test_tampered_idempotents_fail_absorption(monkeypatch):
    rotate_idempotents(monkeypatch)
    for n in (2, 3, 5):
        fs = build_idempotents(n)  # the tamper keeps f_i f_j = delta_ij f_i and completeness
        decoded = [decode(n, f) for f in fs]
        for i, f in enumerate(decoded):
            for j, g in enumerate(decoded):
                assert smash_product(n, f, g) == (f if i == j else {})
        with pytest.raises(AssertionError, match="at t=1, j=0"):
            check_group_absorption(n, fs)


def test_tampered_idempotents_give_fail_exit_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 3, "alpha": ["0"] * 3, "beta": ["-1"] * 3,
                                "gamma": ["0"] * 3}), encoding="utf-8")
    rotate_idempotents(monkeypatch)
    code = main(["verify", "skewgroup", str(path), "--max-degree", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["findings"] == {"internal_check_failed": "g^t f_j != zeta^(-tj) f_j at t=1, j=0"}


def weight_class_counts(n: int, k: int) -> list[list[int]]:
    """#{m of degree k : w(m) = j - i mod n} for every (i, j); w is checked against #u - #d."""
    by_weight = [0] * n
    for m in normal_shapes(k):
        w = skewgroup.monomial_weight(m)
        if w != skewgroup._word_weight(skewgroup._monomial_word(m)):
            raise AssertionError(f"monomial_weight(m) != #u - #d at m={m}")
        by_weight[w % n] += 1
    return [[by_weight[(j - i) % n] for j in range(n)] for i in range(n)]


def corner_dimensions(n: int, k: int, fs: list) -> list[list[int]]:
    """dim f_i B_k f_j for every corner (i, j), enumerated: the degree-k monomials by weight class.

    The count lemma's hypotheses are checked first (``_check_generators``),
    then each degree-k monomial m adds one row to corner (i, i + w(m)).
    """
    _check_generators(n, fs)
    return weight_class_counts(n, k)


def matched_counts(n: int, max_degree: int) -> list[list[list[int]]]:
    """The oracle's normal-word count of H(0, -1, 0) by source, target and degree."""
    return normal_word_counts(oriented(qdu_relations(n, [0] * n, [-1] * n, [0] * n), n), n, max_degree)


def test_corner_rank_is_weight_class_count():
    # The count lemma, enumerated: both sides count the shapes
    # u^a (du)^b d^c of degree k with a - c = j - i mod n.
    for n in range(2, 13):
        idem = build_idempotents(n)
        expected = matched_counts(n, 12)
        for k in range(13):
            counts = weight_class_counts(n, k)
            assert corner_dimensions(n, k, idem) == counts, (n, k)
            assert counts == _closed_shape_matrix(n, k) == expected[k], (n, k)


def flip_weight_sign(monkeypatch):
    """The corner code reads w(m) = #d - #u; the smash product keeps the true action."""
    monkeypatch.setattr(skewgroup, "monomial_weight", lambda m: m[2] - m[0])


def shift_left_factors(monkeypatch, n):
    """f_{i+1} (m # 1) in place of f_i (m # 1), for every single m # 1 on the right."""
    fs = build_idempotents(n)
    genuine = skewgroup._coded_product

    def mutated(n_, a, b):
        if a in fs and len(b[1]) == 1 and next(iter(b[1]))[1] == 0:
            a = fs[(fs.index(a) + 1) % n]
        return genuine(n_, a, b)

    monkeypatch.setattr(skewgroup, "_coded_product", mutated)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_wrong_weight_sign_fails_left_factor_check(n, monkeypatch):
    # The generators d and u are checked whatever degree is asked for.
    idem = build_idempotents(n)
    flip_weight_sign(monkeypatch)
    for k in (0, 1):
        with pytest.raises(AssertionError, match=r"at i=0, m=\(0, 0, 1\)"):
            corner_dimensions(n, k, idem)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_shifted_left_factor_fails_check(n, monkeypatch):
    idem = build_idempotents(n)
    shift_left_factors(monkeypatch, n)
    with pytest.raises(AssertionError, match=r"at i=0, m=\(0, 0, 0\)"):
        corner_dimensions(n, 0, idem)


def zeta_shift_off_by_one(monkeypatch):
    """x^(e+1) in place of x^e for every action term e = j1 (a2 - c2) != 0 mod n.

    Each pair of terms is multiplied by the genuine product, and its
    result moved up one power of x where g^j1 acts on m2 by x^e, e != 0.
    """
    genuine = skewgroup._coded_product

    def shifted(n, a, b):
        acc = [1, {}]
        for (m1, j1, k1), c1 in a[1].items():
            for (m2, j2, k2), c2 in b[1].items():
                e = j1 * (m2[0] - m2[2]) % n
                _, part = genuine(n, (1, {(m1, j1, k1): c1}), (1, {(m2, j2, k2): c2}))
                add_into(acc, 1, {(m, j, (k + bool(e)) % n): c for (m, j, k), c in part.items()})
        return a[0] * b[0], acc[1]

    monkeypatch.setattr(skewgroup, "_coded_product", shifted)


def zeta_shift_off_by_one_in_products_only(monkeypatch):
    """The same, with the absorption check skipped."""
    zeta_shift_off_by_one(monkeypatch)
    monkeypatch.setattr(skewgroup, "check_group_absorption", lambda n, idem: None)


@pytest.mark.parametrize("mutate, message", [
    (zeta_shift_off_by_one, "f_i (m # 1) != m # f_(i+w(m)) at i=0, m=(0, 0, 1)"),
    (zeta_shift_off_by_one_in_products_only,
     "f_i (m # 1) != m # f_(i+w(m)) at i=0, m=(0, 0, 1)"),
    (flip_weight_sign, "f_i (m # 1) != m # f_(i+w(m)) at i=0, m=(0, 0, 1)"),
    (lambda mp: shift_left_factors(mp, 3), "f_i (m # 1) != m # f_(i+w(m)) at i=0, m=(0, 0, 0)"),
    (shift_exponents, "idempotent orthogonality failed at (0,0)"),
    (lambda mp: tamper_idempotents(mp, lambda n, i, f: f if i < n - 1 else (1, {})),
     "idempotents do not sum to the identity"),
    (lambda mp: tamper_idempotents(mp, f2_rewritten), "phi_1(f_k) != f_(k+1) at k=1"),
], ids=["zeta-shift", "zeta-shift-in-products", "weight-sign", "left-factor",
        "tampered-exponent", "zero-idempotent", "f2-rewritten"])
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


# ---------------------------------------------------------------------------
# The weight-class count against the elimination it replaced
# ---------------------------------------------------------------------------

def rank_corner_dimensions(n: int, k: int, idem: list) -> list[list[int]]:
    """dim f_i B_k f_j for every corner (i, j), by exact rank over Q(zeta_n).

    Corner (i, j) is spanned by f_i (m # 1) f_j over the degree-k
    monomials m (``check_group_absorption``).  Since g^t (m # 1) =
    zeta^{t w(m)} (m # g^t) with w = ``monomial_weight``, the left factor
    is f_i (m # 1) = m # f_a with a = i + w(m) mod n, where m # f_a stands
    for sum_t (zeta^{at} / n) (m # g^t).  Orthogonality f_a f_j =
    delta_{aj} f_j (``build_idempotents``) then gives
    f_i (m # 1) f_j = delta_{aj} m # f_j: each m adds one row, to corner
    (i, a) only.  The left factor is formed by the coded smash product
    once per (i, m) and compared exactly with m # f_a; a mismatch raises
    AssertionError.  Rows of distinct m have disjoint support (their keys
    carry m), so each corner's rank is its number of rows; the ranks are
    still taken by elimination.
    """
    fs = [encode(decode(n, f)) for f in idem]
    # The row of m # f_a scaled by f_a's coded denominator, a nonzero
    # scale that keeps the rank.
    coded_rows = [[(t, CycScalar.from_power_counts(n, v)) for (_, t), v in _grouped(f).items()]
                  for _, f in fs]
    monomials = normal_shapes(k)
    dims = []
    for i in range(n):
        rows = [[] for _ in range(n)]
        for m in monomials:
            left = _coded_product(n, fs[i], _monomial(m))
            a = (i + monomial_weight(m)) % n
            den, f = fs[a]
            if not _agree(n, left, (den, {(m, t, e): c for (_, t, e), c in f.items()})):
                raise AssertionError(f"f_i (m # 1) != m # f_(i+w(m)) at i={i}, m={m}")
            rows[a].append({(m, t): c for t, c in coded_rows[a]})
        dims.append([rank(corner, CycScalar.zero(n)) for corner in rows])
    return dims


def canonical_coded_caps(n, idem):
    """Coded U_i = f_i (u#1) and D_i = (d#1) f_i; whether the other forms agree."""
    fs = [encode(decode(n, f)) for f in idem]
    u, d = _monomial((1, 0, 0)), _monomial((0, 0, 1))
    us, ds = [], []
    agree = True
    for i in range(n):
        f, f_next = fs[i], fs[(i + 1) % n]
        u_left = _coded_product(n, f, u)
        d_left = _coded_product(n, d, f)
        agree = (agree and _agree(n, u_left, _coded_product(n, u, f_next))
                 and _agree(n, d_left, _coded_product(n, f_next, d)))
        us.append(u_left)
        ds.append(d_left)
    return us, ds, agree


@pytest.mark.parametrize("n", range(2, 13))
def test_weight_count_equals_elimination_ranks(n):
    idem = build_idempotents(n)
    for k in range(13):
        assert corner_dimensions(n, k, idem) == rank_corner_dimensions(n, k, idem), k


def test_count_takes_no_product_per_monomial(monkeypatch):
    # Three generator checks at vertex 0, whatever n is: the twist carries
    # them to every vertex.  The whole check takes n + 14 products at any
    # degree bound, since no degree is counted.
    calls = []
    genuine = skewgroup._coded_product
    monkeypatch.setattr(skewgroup, "_coded_product",
                        lambda *args: calls.append(args) or genuine(*args))
    for n in (2, 4, 12):
        idem = build_idempotents(n)
        calls.clear()
        _check_generators(n, idem)
        assert len(calls) == 3, n
        for max_degree in (0, 1, 12, 30):
            calls.clear()
            assert skewgroup.verify_quotient_match(n, max_degree=max_degree).ok
            assert len(calls) == n + 14, (n, max_degree)


def test_verify_makes_no_rank_computation(monkeypatch):
    def refuse(*args):
        raise AssertionError("RowSpace used")

    monkeypatch.setattr(linalg.RowSpace, "add", refuse)
    for n in (2, 5, 12):
        assert skewgroup.verify_quotient_match(n, max_degree=6).ok


def weight_u_plus_d(monkeypatch):
    """w(m) = #u + #d of m's word in place of #u - #d."""
    monkeypatch.setattr(skewgroup, "monomial_weight", lambda m: m[0] + 2 * m[1] + m[2])


@pytest.mark.parametrize("n, message", [
    (2, r"monomial_weight\(m\) != #u - #d at m=\(0, 0, 1\)"),
    (3, r"f_i \(m # 1\) != m # f_\(i\+w\(m\)\) at i=0, m=\(0, 0, 1\)"),
])
def test_weight_u_plus_d_fails(n, message, monkeypatch):
    # At n = 2, +1 = -1 mod n, so the left factors agree and only the
    # exact comparison with #u - #d on the shapes of degree at most 2 sees
    # the wrong weight, whatever degree is asked for.
    idem = build_idempotents(n)
    weight_u_plus_d(monkeypatch)
    for k in (0, 1):
        with pytest.raises(AssertionError, match=message):
            corner_dimensions(n, k, idem)


def test_weight_u_plus_d_gives_fail_exit_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 2, "alpha": ["0"] * 2, "beta": ["-1"] * 2,
                                "gamma": ["0"] * 2}), encoding="utf-8")
    weight_u_plus_d(monkeypatch)
    code = main(["verify", "skewgroup", str(path), "--max-degree", "2", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["findings"] == {
        "internal_check_failed": "monomial_weight(m) != #u - #d at m=(0, 0, 1)"}


@pytest.fixture
def fresh_r_products():
    """R-monomial products computed afresh before and after a test that swaps R's rules."""
    skewgroup.r_monomial_product.cache_clear()
    yield
    skewgroup.r_monomial_product.cache_clear()


def r_with_extra_term(word: str):
    """R's rule tables with ``word`` added to the rhs of d u u -> -u u d."""
    sys = build_system(PRESET_QDU, GRADED_DOWN_UP)
    (source, lhs, rhs), second = sys.specs
    assert "".join(a.family for a in sys.rules[0].lhs.arrows) == "duu"
    extra = rewrite._unpack_word(rewrite._tables(sys).encode(path_from_word(1, 0, word)), 1)
    return rewrite._RuleTables(1, ((source, lhs, rhs + ((extra, Fraction(1)),)), second))


def test_rule_with_a_term_of_another_weight_is_refused(fresh_r_products, monkeypatch):
    idem = build_idempotents(3)
    expected = corner_dimensions(3, 2, idem)
    # u has the weight of duu (a gamma term): still weight-homogeneous.
    same = r_with_extra_term("u")
    monkeypatch.setattr(skewgroup, "_r_tables", lambda: same)
    assert corner_dimensions(3, 2, idem) == expected
    other = r_with_extra_term("d")
    monkeypatch.setattr(skewgroup, "_r_tables", lambda: other)
    with pytest.raises(AssertionError, match="R rule duu has the rhs term d of another weight"):
        corner_dimensions(3, 0, idem)


def test_rule_of_another_weight_gives_fail_exit_1(fresh_r_products, tmp_path, capsys,
                                                  monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 3, "alpha": ["0"] * 3, "beta": ["-1"] * 3,
                                "gamma": ["0"] * 3}), encoding="utf-8")
    tables = r_with_extra_term("d")
    monkeypatch.setattr(skewgroup, "_r_tables", lambda: tables)
    code = main(["verify", "skewgroup", str(path), "--max-degree", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["findings"] == {
        "internal_check_failed": "R rule duu has the rhs term d of another weight"}


# ---------------------------------------------------------------------------
# Caps from one-power idempotents, and the map onto B
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_one_power_caps_agree_with_canonical_caps(n):
    idem = build_idempotents(n)
    us, ds, agree = skewgroup._coded_caps(n, idem)
    ref_us, ref_ds, ref_agree = canonical_coded_caps(n, idem)
    assert agree is ref_agree is True
    for got, ref in zip(us + ds, ref_us + ref_ds, strict=True):
        assert _agree(n, got, ref)
        # One power of x per (monomial, group exponent), against up to
        # phi(n) from canonical forms.
        assert len({key[:2] for key in got[1]}) == len(got[1])


def double_first_idempotent(monkeypatch):
    """f_0 built as 2 f_0: g^t (2 f_0) = 2 f_0 still, so absorption holds."""
    tamper_idempotents(monkeypatch, lambda n, i, f: f if i else (
        f[0], {key: 2 * c for key, c in f[1].items()}))


def test_doubled_idempotent_fails_orthogonality(monkeypatch):
    for n in (2, 3, 7):
        genuine = build_idempotents(n)
        doubled = [(n, {key: 2 * c for key, c in genuine[0][1].items()})] + genuine[1:]
        check_group_absorption(n, doubled)
    double_first_idempotent(monkeypatch)
    for n in (2, 3, 7):
        with pytest.raises(AssertionError, match=r"orthogonality failed at \(0,0\)"):
            build_idempotents(n)


def test_doubled_idempotent_gives_fail_exit_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 3, "alpha": ["0"] * 3, "beta": ["-1"] * 3,
                                "gamma": ["0"] * 3}), encoding="utf-8")
    double_first_idempotent(monkeypatch)
    code = main(["verify", "skewgroup", str(path), "--max-degree", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["findings"] == {"internal_check_failed": "idempotent orthogonality failed at (0,0)"}


@pytest.mark.parametrize("n", range(2, 13))
def test_caps_sum_to_the_generators(n):
    us, ds, _ = skewgroup._coded_caps(n, build_idempotents(n))
    assert _agree(n, skewgroup._coded_sum(us), _monomial((1, 0, 0)))
    assert _agree(n, skewgroup._coded_sum(ds), _monomial((0, 0, 1)))
    assert not _agree(n, skewgroup._coded_sum(us[1:]), _monomial((1, 0, 0)))


def test_one_cap_left_out_gives_fail_exit_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 3, "alpha": ["0"] * 3, "beta": ["-1"] * 3,
                                "gamma": ["0"] * 3}), encoding="utf-8")
    genuine = skewgroup._coded_sum

    def without_last_cap(xs):
        # Sums of caps only: the idempotents, summed in the group algebra
        # for the completeness check, keep every summand.
        caps = any(m != _UNIT for _, terms in xs for (m, _, _) in terms)
        return genuine(xs[:-1] if caps else xs)

    monkeypatch.setattr(skewgroup, "_coded_sum", without_last_cap)
    code = main(["verify", "skewgroup", str(path), "--max-degree", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["findings"] == {
        "internal_check_failed": "the map is not onto: sum of caps != u#1"}
