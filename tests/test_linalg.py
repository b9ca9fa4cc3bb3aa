import random
from fractions import Fraction

import pytest

from quiverdu.cyclotomic import CycScalar
from quiverdu.linalg import RowSpace, in_span, rank, spans_equal


def frows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rank_basic():
    assert rank(frows([[1, 2], [2, 4]])) == 1
    assert rank(frows([[1, 0], [0, 1]])) == 2
    assert rank([]) == 0
    assert rank(frows([[0, 0, 0]])) == 0


def test_in_span():
    rows = frows([[1, 1, 0], [0, 1, 1]])
    assert in_span(rows, frows([[1, 2, 1]])[0])
    assert not in_span(rows, frows([[1, 0, 1]])[0])


def test_spans_equal():
    a = frows([[1, 0], [0, 1]])
    b = frows([[1, 1], [1, -1]])
    assert spans_equal(a, b)
    assert not spans_equal(a, frows([[1, 1]]))
    assert spans_equal([], [])


def test_rowspace_incremental():
    space = RowSpace(3)
    assert space.add(frows([[1, 2, 3]])[0])
    assert not space.add(frows([[2, 4, 6]])[0])
    assert space.add(frows([[0, 1, 0]])[0])
    assert space.rank == 2
    assert space.contains(frows([[1, 0, 3]])[0])


def test_rank_over_cyclotomics():
    n = 3
    z = CycScalar.zeta_power(n, 1)
    one = CycScalar.one(n)
    zero = CycScalar.zero(n)
    # second row is zeta times the first: rank 1
    assert rank([[one, z], [z, z * z]]) == 1
    assert rank([[one, zero], [zero, z]]) == 2
    assert in_span([[one, z]], [z, z * z])


def test_twist_invariance_needs_homogeneous():
    from quiverdu.core import Element, Parameters, path_from_word
    from quiverdu.structure import check_twist_invariance, paper_twist_weights

    params = Parameters.of(3, [0, 0, 0], [1, 1, 1], [0, 0, 0])
    weights = paper_twist_weights(params)
    mixed = Element.from_path(path_from_word(3, 0, "udud")) + Element.from_path(
        path_from_word(3, 0, "ud"))
    with pytest.raises(ValueError):
        check_twist_invariance(mixed, weights)


class ReferenceRowSpace(RowSpace):
    """RowSpace with the per-entry division it used before (verbatim add)."""

    def add(self, vec: list) -> bool:
        row = self.residual(vec)
        for col in range(self.width):
            if row[col]:
                inv = row[col]
                normalized = [x / inv for x in row]
                self.pivots.append((col, normalized))
                self.pivots.sort(key=lambda t: t[0])
                return True
        return False


def assert_unit_pivots(space, one):
    for col, row in space.pivots:
        assert row[col] == one and type(row[col]) is type(one)
        assert not any(isinstance(x, float) for x in row)
        assert not any(row[:col])


def test_pivots_lead_with_exact_one():
    rng = random.Random(97)
    for width in (1, 3, 6):
        int_rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(width + 2)]
        space = RowSpace(width)
        for r in int_rows:
            space.add(r)
        assert_unit_pivots(space, Fraction(1))
        assert space.rank == rank(frows(int_rows))
        frac_rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(width)]
                     for _ in range(width + 2)]
        space = RowSpace(width)
        for r in frac_rows:
            space.add(r)
        assert_unit_pivots(space, Fraction(1))
    for n in (3, 5, 8, 12):
        cyc_rows = [[CycScalar(n, [rng.randint(-2, 2) for _ in range(3)]) / rng.randint(1, 3)
                     for _ in range(4)] for _ in range(5)]
        space = RowSpace(4)
        for r in cyc_rows:
            space.add(r)
        assert_unit_pivots(space, CycScalar.one(n))


def test_rowspace_matches_reference_elimination():
    rng = random.Random(101)
    for _ in range(40):
        width = rng.randint(1, 5)
        rows = frows([[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(width)]
                      for _ in range(rng.randint(1, 5))])
        other = frows([[rng.choice([0, 1, -2]) for _ in range(width)]
                       for _ in range(rng.randint(1, 5))])
        new, ref = RowSpace(width), ReferenceRowSpace(width)
        for r in rows:
            assert new.add(r) == ref.add(r)
        assert new.pivots == ref.pivots
        assert rank(rows) == ref.rank
        for target in other:
            assert in_span(rows, target) == ref.contains(target)
        ref_other = ReferenceRowSpace(width)
        for r in other:
            ref_other.add(r)
        assert spans_equal(rows, other) == (
            ref.rank == ref_other.rank and all(ref.contains(r) for r in other))
