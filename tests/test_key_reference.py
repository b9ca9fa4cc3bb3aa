"""Differential tests of the quiver key types and the shared decoded paths.

``Arrow`` and ``Path`` compute their hash once, at construction, and
``Parameters`` on its first ``__hash__``; it must equal the tuple hash
that the generated dataclass ``__hash__`` gave: ``hash((family, index))``,
``hash((n, source, arrows))`` and ``hash((n, alpha, beta, gamma))``.
``Path`` validates with inline integer arithmetic; it must accept exactly
the paths of ``oracle.path_target``, an arrow sequence in which each arrow
starts where the previous one ended, with the oracle's target, and its
messages are pinned on a table.  Each reduction system decodes a word to
one ``Path`` that every result shares.
"""

import itertools
import random
from fractions import Fraction

import pytest

import oracle
from quiverdu.core import DOWN, UP, Arrow, Element, Parameters, Path, path_from_word
from quiverdu.rewrite import (PRESET_QDU, ReductionSystem, _pack_word, _qdu_specs, _tables, _word_bits,
                              build_system, normal_form)


@pytest.mark.parametrize("n", range(0, 6))
def test_path_validation_matches_the_oracle(n):
    # Indices up to n, so an arrow outside the quiver is reached; sources one
    # past either end, so a vertex outside it is too.
    arrows = [Arrow(family, i) for family in (UP, DOWN) for i in range(n + 1)]
    checked = 0
    for source in range(-1, n + 1):
        for length in range(4):
            for word in itertools.product(arrows, repeat=length):
                target = oracle.path_target(n, source, tuple(str(a) for a in word))
                try:
                    path = Path(n, source, word)
                except ValueError:
                    assert target is None, (n, source, word)
                else:
                    assert path.target == target, (n, source, word)
                    checked += 1
    assert checked > 0 or n == 0


@pytest.mark.parametrize("n, source, arrows, message", [
    (0, 0, (), "n must be positive"),
    (3, 3, (), "source vertex out of range"),
    (3, -1, (), "source vertex out of range"),
    (3, 0, (Arrow(UP, 0), Arrow(UP, 3)), "arrow u3 out of range for n=3"),
    (3, 0, (Arrow(DOWN, 0), Arrow(UP, 3)), "arrows do not compose at vertex 0: d0"),
    (3, 0, (Arrow(UP, 0), Arrow(UP, 2)), "arrows do not compose at vertex 1: u2"),
    (2, 0, (Arrow(UP, 0), Arrow(DOWN, 1)), "arrows do not compose at vertex 1: d1"),
])
def test_path_messages(n, source, arrows, message):
    with pytest.raises(ValueError) as raised:
        Path(n, source, arrows)
    assert str(raised.value) == message


def random_path(rng, n):
    word = "".join(rng.choice("ud") for _ in range(rng.randrange(7)))
    return path_from_word(n, rng.randrange(n), word)


def random_parameters(rng, n):
    vec = lambda: [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    return Parameters.of(n, vec(), vec(), vec())


def test_hash_values_equal_the_old_tuple_hashes():
    rng = random.Random(12)
    for _ in range(400):
        n = rng.randint(1, 6)
        p = random_path(rng, n)
        assert hash(p) == hash((p.n, p.source, p.arrows))
        for a in p.arrows:
            assert hash(a) == hash((a.family, a.index))
        params = random_parameters(rng, n)
        assert hash(params) == hash((params.n, params.alpha, params.beta, params.gamma))


def test_equal_fields_mean_equal_objects():
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(1, 5)
        p, q = random_path(rng, n), random_path(rng, rng.randint(1, 5))
        twin = Path(p.n, p.source, tuple(Arrow(a.family, a.index) for a in p.arrows))
        assert twin == p and hash(twin) == hash(p) and {p: 1}[twin] == 1
        same = (p.n, p.source, p.arrows) == (q.n, q.source, q.arrows)
        assert (p == q) is same and (p != q) is not same
        a, b = Arrow(rng.choice("ud"), rng.randrange(4)), Arrow(rng.choice("ud"), rng.randrange(4))
        assert (a == b) is ((a.family, a.index) == (b.family, b.index))
        assert (a != b) is not (a == b)
        params = random_parameters(rng, n)
        copy = Parameters.of(n, params.alpha, params.beta, params.gamma)
        assert copy == params and hash(copy) == hash(params)
        other = random_parameters(rng, n)
        same = (params.alpha, params.beta, params.gamma) == (other.alpha, other.beta, other.gamma)
        assert (params == other) is same and (params != other) is not same
    p = path_from_word(3, 0, "ud")
    assert p != (p.n, p.source, p.arrows) and not p == (p.n, p.source, p.arrows)
    # The trivial paths of different quivers share source and arrows.
    assert Path(2, 0, ()) != Path(3, 0, ())


def test_decode_memo_returns_one_path_per_word():
    params = Parameters.of(3, [1, 2, 3], [4, 5, 6], [7, 8, 9])
    tables = _tables(ReductionSystem(3, None, PRESET_QDU, params, _qdu_specs(params)))
    word = _pack_word((3, 0, 3), _word_bits(3))  # u_0 d_0 u_0 from vertex 0; d_i is coded i, u_i n + i
    p = tables.path(0, word)
    assert tables.path(0, word) is p
    assert p == path_from_word(3, 0, "udu")
    assert tables.path(1, 1) is tables.path(1, 1) and tables.path(1, 1) != tables.path(2, 1)


def test_normal_forms_share_decoded_paths():
    params = Parameters.of(3, [1, 2, 3], [4, 5, 6], [7, 8, 9])
    sys = build_system(PRESET_QDU, params)
    first = normal_form(sys, Element.from_path(path_from_word(3, 1, "duu")))
    second = normal_form(sys, Element.from_path(path_from_word(3, 1, "dduuu")) + first)
    shared = [p for p in second.terms if p in first.terms]
    assert shared
    by_value = {p: p for p in first.terms}
    assert all(by_value[p] is p for p in shared)


class CountingScalar:
    """A scalar that counts how often any instance is hashed."""

    hashes = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, CountingScalar) and self.value == other.value

    def __hash__(self):
        CountingScalar.hashes += 1
        return hash(self.value)


def test_parameters_hash_is_computed_once_on_first_use():
    n = 4
    alpha, beta, gamma = (tuple(CountingScalar(k + 10 * j) for k in range(n)) for j in range(3))
    CountingScalar.hashes = 0
    params = Parameters(n, alpha, beta, gamma)
    assert CountingScalar.hashes == 0
    first = hash(params)
    assert CountingScalar.hashes == 3 * n
    assert hash(params) == first and {params: 1}[params] == 1
    assert CountingScalar.hashes == 3 * n
    assert first == hash((n, alpha, beta, gamma))
