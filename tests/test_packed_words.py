"""Packed int words, and the kernel on them against the oracle.

``rewrite`` codes a word as one int: the sentinel 1, then ``bits`` bits per
arrow code (``_pack_word``).  These tests cover the packing itself (round
trip, length, same-length order and the masked suffix test with its length
guard, past 64 bits too), and compare the kernel on packed words with
``oracle``: normal forms, every memo entry, and the chain and freeness
reports with the oracle in place of the kernel.  The corner pools of
normal words read from ``basis_from``'s coded words are pinned to the
pools built from sorted Paths before.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from quiverdu import rewrite, skewgroup, structure
from quiverdu.cli import main
from quiverdu.core import (Element, Parameters, canonical_path_key, path_from_word,
                           trivial_path)
from quiverdu.rewrite import (
    PRESET_PREPROJECTIVE,
    PRESET_QDU,
    ReductionSystem,
    _normal_word,
    _pack_word,
    _qdu_specs,
    _tables,
    _unpack_word,
    _word_bits,
    basis_from,
    build_system,
    normal_form,
    normal_shapes,
)
from quiverdu.skewgroup import GRADED_DOWN_UP
from quiverdu.structure import noetherian_chain_check
import oracle
from test_golden_json import CONFIGS
from test_oracle import packed, random_params, reducer_of, word_names
from test_rewrite import Poly, symbolic_params, symbolic_system

BITS = {1: 1, 2: 2, 3: 3, 12: 5, 40: 7}


def random_codes(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(2 * n) for _ in range(length))


@pytest.mark.parametrize("n", sorted(BITS))
def test_round_trip_length_and_order(n):
    b = _word_bits(n)
    assert b == BITS[n]
    rng = random.Random(30_000 + n)
    assert _pack_word((), b) == 1 and _unpack_word(1, b) == ()
    for length in range(65):
        words = []
        for _ in range(6):
            codes = random_codes(rng, n, length)
            word = _pack_word(codes, b)
            assert _unpack_word(word, b) == codes
            assert (word.bit_length() - 1) // b == length
            assert word.bit_length() == length * b + 1
            words.append((word, codes))
        # Among words of one length the numeric order is the lexicographic one.
        for (w1, c1), (w2, c2) in itertools.combinations(words, 2):
            assert (w1 < w2) == (c1 < c2) and (w1 == w2) == (c1 == c2)
    assert max(_pack_word(random_codes(rng, n, 64), b) for _ in range(3)).bit_length() > 64


@pytest.mark.parametrize("n", sorted(BITS))
def test_suffix_test_is_the_tuple_suffix_comparison(n):
    # Every by_last entry of the QDU tables against random words w·a, some
    # ending in the leading word and some shorter than it: the masked test
    # with its length guard agrees with the tuple comparison.
    params = Parameters.of(n, [1] * n, [2] * n, [3] * n)
    tables = _tables(ReductionSystem(n, None, PRESET_QDU, params, _qdu_specs(params)))
    b = tables.bits
    rng = random.Random(30_100 + n)
    hits = 0
    for a, entries in tables.by_last.items():
        for M, L, k, _ in entries:
            lhs = _unpack_word(L | (M + 1), b)
            assert lhs[-1] == a and k == len(lhs) * b
            for length in range(65):
                codes = random_codes(rng, n, length) + (a,)
                if rng.random() < 0.5 and len(codes) >= len(lhs):
                    codes = codes[:len(codes) - len(lhs)] + lhs
                wa = _pack_word(codes, b)
                ends = codes[len(codes) - len(lhs):] == lhs and len(codes) >= len(lhs)
                assert (wa & M == L and wa > M) == ends, (codes, lhs)
                hits += ends
    assert hits > 0


def test_length_guard_keeps_a_short_normal_word():
    # At n = 2, d_0 u_0 (codes 0, 2; 0b1_00_10 = 18) has the low bits of
    # the leading word d_1 d_0 u_0 (codes 1, 0, 2; low bits 0b01_00_10 = 18),
    # but is one arrow shorter and normal: without the guard the kernel
    # would rewrite it.
    params = Parameters.of(2, [1, 2], [3, 5], [7, 11])
    sys_ = ReductionSystem(2, None, PRESET_QDU, params, _qdu_specs(params))
    tables = _tables(sys_)
    word = _pack_word((0, 2), 2)
    (M, L, _, _), = [entry for entry in tables.by_last[2] if entry[1] == 18]
    assert word == 18 and word & M == L and not word > M
    assert _normal_word(tables, word) == (0, {word: 1})
    path = path_from_word(2, 1, "du")
    assert normal_form(sys_, Element.from_path(path)) == Element.from_path(path)
    assert not tables.memo


# ---------------------------------------------------------------------------
# The kernel against the oracle
# ---------------------------------------------------------------------------

def letter_codes(n: int, source: int, letters) -> tuple[int, ...]:
    """The codes of the path from ``source`` spelled by u/d letters: u_v is n + v, d_{v-1} is v - 1."""
    codes, at = [], source
    for x in letters:
        if x == "u":
            codes.append(n + at)
            at = (at + 1) % n
        else:
            at = (at - 1) % n
            codes.append(at)
    return tuple(codes)


def random_path_codes(rng: random.Random, n: int, source: int, length: int) -> tuple[int, ...]:
    return letter_codes(n, source, rng.choices("ud", k=length))


def oracle_value(c):
    """A coefficient as the oracle and the kernel can both give it: a ``Poly``'s terms, or a Fraction
    for a constant."""
    if isinstance(c, Poly) and set(c.terms) - {()}:
        return tuple(sorted(c.terms.items()))
    return Fraction(c.terms.get((), 0) if isinstance(c, Poly) else c)


def kernel_terms(tables, e: int, comb: dict) -> dict:
    """A kernel combination over D^e as {arrow names: coefficient}."""
    D, n = tables.denominator, tables.n
    return {word_names(n, w): oracle_value(c if D == 1 else Fraction(c, D ** e)) for w, c in comb.items()}


def oracle_terms(reducer, word: tuple) -> dict:
    return {w: oracle_value(c) for w, c in reducer.normal_form(word).items()}


def assert_kernel_matches_oracle(sys_: ReductionSystem, rng: random.Random, words: int = 40,
                                 max_len: int = 9) -> None:
    """Normal forms of random paths, and of normal forms times random paths, against
    the oracle; then every memo entry, which must be the normal form of its word."""
    n, tables, reducer = sys_.n, _tables(sys_), reducer_of(sys_)
    b = tables.bits
    to_names = lambda codes: word_names(n, _pack_word(codes, b))
    for _ in range(words):
        source = rng.randrange(n)
        codes = random_path_codes(rng, n, source, rng.randrange(max_len + 1))
        e, comb = rewrite._normal_times(tables, {1: 1}, 0, _pack_word(codes, b))
        assert kernel_terms(tables, e, comb) == oracle_terms(reducer, to_names(codes)), codes
        # The normal form times a path from where the first path ends.
        target = tables.target(source, _pack_word(codes, b))
        more = random_path_codes(rng, n, target, rng.randrange(1, 5))
        got = rewrite._normal_times(tables, comb, e, _pack_word(more, b))
        assert kernel_terms(tables, *got) == oracle_terms(reducer, to_names(codes + more)), (codes, more)
    assert tables.memo
    for word, (e, comb) in tables.memo.items():
        assert kernel_terms(tables, e, comb) == oracle_terms(reducer, word_names(n, word)), word


@pytest.mark.parametrize("n", range(1, 7))
def test_kernel_matches_the_oracle_on_rational_parameters(n):
    rng = random.Random(30_200 + n)
    denominators = []
    for _ in range(4):
        params = random_params(rng, n, 0.25, (1, 2, 3, 7))
        sys_ = ReductionSystem(n, None, PRESET_QDU, params, _qdu_specs(params))
        assert_kernel_matches_oracle(sys_, rng)
        denominators.append(_tables(sys_).denominator)
    assert any(D != 1 for D in denominators)


@pytest.mark.parametrize("n", range(1, 5))
def test_kernel_matches_the_oracle_over_polynomials(n):
    # All-Poly coefficients, then beta = 1 as ints beside Poly alpha and
    # gamma: ints mix in as constants, and the tables take all as given.
    params = symbolic_params(n)
    mixed = Parameters(n, params.alpha, (1,) * n, params.gamma)
    for sys_ in (symbolic_system(n), ReductionSystem(n, None, PRESET_QDU, mixed, _qdu_specs(mixed))):
        assert _tables(sys_).denominator == 1
        assert_kernel_matches_oracle(sys_, random.Random(30_300 + n), words=15, max_len=7)


@pytest.mark.parametrize("n", range(1, 7))
def test_kernel_matches_the_oracle_on_preprojective_rules(n):
    sys_ = rewrite._preprojective_system.__wrapped__(n)
    assert sys_.preset == PRESET_PREPROJECTIVE
    assert_kernel_matches_oracle(sys_, random.Random(30_400 + n))


def test_kernel_matches_the_oracle_on_the_skew_group_ring():
    # R = the graded down-up algebra: n = 1, one bit per code, so skewgroup
    # reads a word's letters off its binary digits and packs each normal
    # shape u^a (du)^b d^c straight from its exponents.
    sys_ = ReductionSystem(1, None, PRESET_QDU, GRADED_DOWN_UP, _qdu_specs(GRADED_DOWN_UP))
    assert _tables(sys_).bits == 1
    for length in range(9):
        for letters in itertools.product("du", repeat=length):
            word = "".join(letters)
            assert skewgroup._letters(_pack_word(letter_codes(1, 0, word), 1)) == word
        for m in normal_shapes(length):
            word = "u" * m[0] + "du" * m[1] + "d" * m[2]
            assert skewgroup._packed(m) == _pack_word(letter_codes(1, 0, word), 1), m
    assert_kernel_matches_oracle(sys_, random.Random(30_500), words=60, max_len=12)


def via_oracle(monkeypatch) -> None:
    """Route ``structure``'s products through the oracle, on the rules of the tables it passes."""
    reducers: dict = {}  # tables -> the oracle's reducer for their rules

    def normal_times(tables, comb, e, word):
        n, D = tables.n, tables.denominator
        reducer = reducers.get(tables)
        if reducer is None:
            reducer = reducers[tables] = oracle.Reducer({
                word_names(n, lhs): {word_names(n, r): Fraction(c, D) for r, c in rhs} for lhs, rhs in tables.rules})
        out: dict = {}
        for w, c in comb.items():
            for v, cv in reducer.normal_form(word_names(n, w) + word_names(n, word)).items():
                out[v] = out.get(v, 0) + Fraction(c, D ** e) * cv
        pe = 0
        while any((c * D ** pe).denominator != 1 for c in out.values()):
            pe += 1
        return pe, {packed(n, v): int(c * D ** pe) for v, c in out.items() if c}

    monkeypatch.setattr(structure, "_normal_times", normal_times)


def report_regimes(n: int) -> list[Parameters]:
    """beta_0 = 0, with gamma = 0 and gamma != 0; alpha_0 = 0."""
    alpha = [Fraction(0)] + [Fraction(2 * i + 1, i + 2) for i in range(1, n)]
    beta = [Fraction(0)] + [Fraction(-3, i + 1) if i % 2 else Fraction(i + 2) for i in range(1, n)]
    gamma = [Fraction(i + 1, 3) for i in range(n)]
    return [Parameters.of(n, alpha, beta, g) for g in ([0] * n, gamma)]


@pytest.mark.parametrize("n", range(1, 5))
def test_reports_match_the_oracle(n, monkeypatch):
    # The chain's spanning products, taken by the oracle.  With every beta_i
    # nonzero the freeness witness reads theta and takes no product, so
    # test_int_elimination_reference.py checks it against the oracle instead.
    for params in report_regimes(n):
        want = noetherian_chain_check(params, s_max=2)
        with monkeypatch.context() as m:
            via_oracle(m)
            assert noetherian_chain_check(params, s_max=2) == want, params


# ---------------------------------------------------------------------------
# Corner pools of normal words, built without Paths
# ---------------------------------------------------------------------------

def path_basis(sys_: ReductionSystem, v: int, degree: int) -> list[list[int]]:
    """``basis_from`` as it was: the normal paths from v of each degree up to ``degree`` (a
    brute force over all paths against the specs' leading words), sorted by
    ``canonical_path_key``, here encoded."""
    n, tables = sys_.n, _tables(sys_)
    forbidden = [lhs for _, lhs, _ in sys_.specs]
    by_degree = []
    for k in range(degree + 1):
        paths = []
        for letters in itertools.product("ud", repeat=k):
            codes = letter_codes(n, v, letters)
            if not any(codes[i:i + len(f)] == f for f in forbidden for i in range(k)):
                paths.append(tables.path(v, _pack_word(codes, tables.bits)))
        by_degree.append([tables.encode(p) for p in sorted(paths, key=canonical_path_key)])
    return by_degree


def path_pools(sys_: ReductionSystem, degree: int) -> dict:
    """The pools as they were built: from ``path_basis``, keyed by each Path's target."""
    tables, pools = _tables(sys_), {}
    for v in range(sys_.n):
        for words in path_basis(sys_, v, degree):
            for w in words:
                pools.setdefault((v, tables.path(v, w).target), []).append(w)
    return pools


def coded_pools(sys_: ReductionSystem, degree: int) -> dict:
    """The normal words by (source, target), read from ``basis_from``'s coded words."""
    tables, pools = _tables(sys_), {}
    for v in range(sys_.n):
        for words in basis_from(sys_, v, degree):
            for w in words:
                pools.setdefault((v, tables.target(v, w)), []).append(w)
    return pools


@pytest.mark.parametrize("n", range(1, 9))
def test_pools_equal_the_path_built_pools(n):
    params = Parameters.of(n, [1] * n, [Fraction(-3, 2)] * n, [2] * n)
    sys_ = build_system(PRESET_QDU, params)
    for degree in range(7):
        assert coded_pools(sys_, degree) == path_pools(sys_, degree), degree
    assert basis_from(sys_, 0, 0) == [[1]] and _tables(sys_).path(0, 1) == trivial_path(n, 0)


# ---------------------------------------------------------------------------
# No tuple word is left in the kernel's tables
# ---------------------------------------------------------------------------

def test_kernel_tables_hold_int_words_after_cli_commands(tmp_path):
    n, alpha, beta, gamma = CONFIGS["gamma"]
    cfg = tmp_path / "gamma.json"
    cfg.write_text(json.dumps({"n": n, "alpha": alpha, "beta": beta, "gamma": gamma}), encoding="utf-8")
    rewrite._qdu_system.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["nf", str(cfg), "1 * d2.d1.d0.u0.u1.u2", "--json"]) == 0
        assert main(["verify", "pwd", str(cfg), "--trials", "15", "--max-degree", "3", "--json"]) == 0
        assert main(["report", str(cfg), "--trials", "10", "--json"]) == 0
    params = Parameters.of(n, alpha, beta, gamma)
    for sys_ in (build_system(PRESET_QDU, params),):
        tables = _tables(sys_)
        assert tables.memo and tables.paths
        for word, (e, comb) in tables.memo.items():
            assert type(word) is int and type(e) is int and all(type(w) is int for w in comb)
        assert all(type(s) is int and type(w) is int for s, w in tables.paths)
        assert all(type(w) is int for w in tables.words.values())
        assert all(type(lhs) is int and all(type(r) is int for r, _ in rhs) for lhs, rhs in tables.rules)


@pytest.mark.parametrize("n", range(1, 7))
def test_decoded_paths_equal_validated_paths(n):
    # _RuleTables.path builds a kernel word's Path without walking its arrows
    # again; it must equal the Path the validating constructor builds from the
    # same codes, with the same hash and target, for every normal word.
    from quiverdu.core import Path, down, up

    sys_ = build_system(PRESET_QDU, Parameters.of(n, [1] * n, [2] * n, [1] * n))
    tables = _tables(sys_)
    for v in range(n):
        for words in basis_from(sys_, v, 6):
            for w in words:
                decoded = tables.path(v, w)
                codes = _unpack_word(w, _word_bits(n))
                checked = Path(n, v, tuple(down(k, n) if k < n else up(k - n, n) for k in codes))
                assert decoded == checked and hash(decoded) == hash(checked)
                assert decoded.target == checked.target == tables.target(v, w)
