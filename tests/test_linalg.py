"""Tests of sparse exact elimination, against the oracle's dense elimination.

``linalg`` eliminates fraction-free over the ints and takes rational rows
only.  ``oracle.rank``, ``in_span`` and ``spans_equal`` are dense Gaussian
elimination over Q, written without reference to it; the differential
tests feed both the same rows, to ``linalg`` as mappings with explicit
zeros, big entries and shuffled key orders.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

import oracle
from quiverdu import linalg
from quiverdu.cyclotomic import CycScalar


def frows(rows):
    return [{j: Fraction(x) for j, x in enumerate(row)} for row in rows]


def sparse_rank(rows):
    space = linalg.RowSpace()
    for r in rows:
        space.add(r)
    return space.rank


def sparse_in_span(rows, target):
    space = linalg.RowSpace()
    for r in rows:
        space.add(r)
    return space.contains(target)


def test_rank_basic():
    assert sparse_rank(frows([[1, 2], [2, 4]])) == 1
    assert sparse_rank(frows([[1, 0], [0, 1]])) == 2
    assert sparse_rank([]) == 0
    assert sparse_rank(frows([[0, 0, 0]])) == 0
    assert sparse_rank([{}]) == 0


def test_in_span():
    rows = frows([[1, 1, 0], [0, 1, 1]])
    assert sparse_in_span(rows, frows([[1, 2, 1]])[0])
    assert not sparse_in_span(rows, frows([[1, 0, 1]])[0])


def test_spans_equal():
    a = frows([[1, 0], [0, 1]])
    b = frows([[1, 1], [1, -1]])
    assert linalg.spans_equal(a, b)
    assert not linalg.spans_equal(a, frows([[1, 1]]))
    assert linalg.spans_equal([], [])


def test_rowspace_incremental():
    space = linalg.RowSpace()
    assert space.add(frows([[1, 2, 3]])[0])
    assert not space.add(frows([[2, 4, 6]])[0])
    assert space.add(frows([[0, 1, 0]])[0])
    assert space.rank == 2
    assert space.contains(frows([[1, 0, 3]])[0])


def test_rows_with_any_hashable_keys():
    space = linalg.RowSpace()
    assert space.add({"x": 1, ("y", 2): Fraction(1, 2)})
    assert not space.add({("y", 2): 1, "x": 2, "z": 0})
    assert space.contains({"x": -2, ("y", 2): -1})
    assert not space.contains({"z": 1})
    assert space.width == 2


def test_width_counts_columns_of_pivot_rows():
    space = linalg.RowSpace()
    assert space.width == 0
    space.add({0: 1, 5: 0})
    assert space.width == 1
    space.add({0: 1, 3: 2})
    assert space.width == 2
    assert not space.add({3: 4, 0: 0})
    assert space.width == 2 and isinstance(space.width, int)


def test_twist_invariance_needs_homogeneous():
    from quiverdu.core import Element, Parameters, path_from_word
    from quiverdu.structure import check_twist_invariance, paper_twist_weights

    params = Parameters.of(3, [0, 0, 0], [1, 1, 1], [0, 0, 0])
    weights = paper_twist_weights(params)
    mixed = Element.from_path(path_from_word(3, 0, "udud")) + Element.from_path(
        path_from_word(3, 0, "ud"))
    with pytest.raises(ValueError):
        check_twist_invariance(mixed, weights)


def assert_primitive_pivots(space):
    """Each pivot row is a primitive int row with a positive lead at its key,
    zero at the keys of the pivots before it."""
    for pos, (key, row) in enumerate(space.pivots):
        assert next(iter(row)) == key and row[key] > 0
        assert all(type(c) is int and c for c in row.values())
        assert gcd(*row.values()) == 1
        assert all(earlier not in row for earlier, _ in space.pivots[:pos])


def assert_pivots_span_the_rows(space, rows):
    """The pivot rows span what the rows span, one pivot per unit of rank."""
    pivot_rows = [row for _, row in space.pivots]
    assert space.rank == oracle.rank(rows) == oracle.rank(pivot_rows)
    assert oracle.spans_equal(pivot_rows, rows)


def test_pivot_rows_are_primitive_with_a_positive_int_lead():
    rng = random.Random(97)
    for width in (1, 3, 6):
        int_rows = [{j: rng.randint(-3, 3) for j in range(width)} for _ in range(width + 2)]
        space = linalg.RowSpace()
        for r in int_rows:
            space.add(r)
        assert_primitive_pivots(space)
        assert_pivots_span_the_rows(space, int_rows)
        frac_rows = [{j: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for j in range(width)}
                     for _ in range(width + 2)]
        space = linalg.RowSpace()
        for r in frac_rows:
            space.add(r)
        assert_primitive_pivots(space)
        assert_pivots_span_the_rows(space, frac_rows)


def test_a_primitive_int_row_is_kept_as_it_is_and_others_are_cleared():
    space = linalg.RowSpace()
    row = {"a": 3, "b": -2, "c": 5}
    assert space.add(row)
    assert space.pivots[0] == ("a", row) and all(space.pivots[0][1][k] is row[k] for k in row)
    assert not space.add({"a": -6, "b": 4, "c": -10})
    space = linalg.RowSpace()
    space.add({"a": -6, "b": 4, "c": 0, "d": 10})  # content 2 and a negative lead
    assert space.pivots == [("a", {"a": 3, "b": -2, "d": -5})]
    space = linalg.RowSpace()
    space.add({"a": Fraction(-1, 2), "b": Fraction(2, 3)})  # cleared by 6, then made primitive
    assert space.pivots == [("a", {"a": 3, "b": -4})]
    assert all(type(c) is int for c in space.pivots[0][1].values())


def test_cyclotomic_rows_are_refused():
    with pytest.raises(AttributeError):
        linalg.RowSpace().add({0: CycScalar.zeta_power(5, 1), 1: CycScalar.one(5)})


def test_rowspace_matches_the_oracle():
    rng = random.Random(101)
    for _ in range(40):
        width = rng.randint(1, 5)
        rows = frows([[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(width)]
                      for _ in range(rng.randint(1, 5))])
        other = frows([[rng.choice([0, 1, -2]) for _ in range(width)]
                       for _ in range(rng.randint(1, 5))])
        new = linalg.RowSpace()
        for k, r in enumerate(rows):
            assert new.add(r) == (oracle.rank(rows[:k + 1]) > oracle.rank(rows[:k]))
        assert_pivots_span_the_rows(new, rows)
        for target in other:
            assert sparse_in_span(rows, target) == oracle.in_span(rows, target)
        assert linalg.spans_equal(rows, other) == oracle.spans_equal(rows, other)


def random_rational_rows(rng, width, count, draw):
    """Sparse rows, about half of them combinations of earlier rows."""
    rows = []
    for _ in range(count):
        if len(rows) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(rows, 2)
            ca, cb = draw(rng), draw(rng)
            row = {k: a.get(k, 0) * ca + b.get(k, 0) * cb for k in a.keys() | b.keys()}
        else:
            row = {k: draw(rng) for k in rng.sample(range(width), rng.randint(1, width))}
        keys = list(row)
        rng.shuffle(keys)
        rows.append({k: row[k] for k in keys})
    return rows


def big_int(rng):
    return rng.choice([-1, 1]) * rng.randint(1, 2 ** 80) if rng.random() < 0.3 else rng.randint(-5, 5)


def big_fraction(rng):
    return Fraction(big_int(rng), rng.choice([1, 2, 3, 7, 2 ** 70 + 1]))


@pytest.mark.parametrize("draw", [big_int, big_fraction], ids=["int", "fraction"])
def test_int_elimination_matches_the_oracle(draw):
    # Dependent rows, negative leads and entries past 2^64: every add, rank,
    # contains and spans_equal result agrees with the elimination over Q.
    rng = random.Random(2027)
    for _ in range(120):
        width = rng.randint(1, 7)
        rows = random_rational_rows(rng, width, rng.randint(1, width + 3), draw)
        targets = random_rational_rows(rng, width, 4, draw) + rows[-2:]
        new = linalg.RowSpace()
        for k, r in enumerate(rows):
            assert new.add(r) == (oracle.rank(rows[:k + 1]) > oracle.rank(rows[:k]))
            assert new.rank == oracle.rank(rows[:k + 1])
            assert new.width == len({key for _, row in new.pivots for key in row})
        assert_primitive_pivots(new)
        assert_pivots_span_the_rows(new, rows)
        for t in targets:
            assert new.contains(t) == oracle.in_span(rows, t) == (not new.residual(t))
        assert linalg.spans_equal(rows, targets) == oracle.spans_equal(rows, targets)
        assert linalg.spans_equal(targets, rows) == oracle.spans_equal(targets, rows)
        assert linalg.spans_equal(rows, rows[::-1])


# ---------------------------------------------------------------------------
# Sparse against dense elimination
# ---------------------------------------------------------------------------

def random_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_dense_rows(rng, width, count, draw, zero):
    """Rows drawn sparsely, half of them combinations of earlier rows."""
    rows = []
    for _ in range(count):
        if len(rows) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(rows, 2)
            ca, cb = draw(rng), draw(rng)
            rows.append([x * ca + y * cb for x, y in zip(a, b)])
        else:
            rows.append([draw(rng) if rng.random() < 0.6 else zero for _ in range(width)])
    return rows


def as_mapping(rng, dense, zero):
    """The dense row as a mapping: explicit zeros kept or dropped, keys shuffled."""
    items = [(j, c) for j, c in enumerate(dense) if c or rng.random() < 0.5]
    if rng.random() < 0.3:
        items.append((len(dense) + rng.randint(0, 2), zero))  # zero in a column no row uses
    rng.shuffle(items)
    return dict(items)


def assert_sparse_matches_dense(rng, width, draw):
    rows = random_dense_rows(rng, width, rng.randint(1, width + 3), draw, Fraction(0))
    targets = random_dense_rows(rng, width, 3, draw, Fraction(0))
    # combinations of the rows are in the span; the sparse check must say so
    for _ in range(2):
        a, b = rng.choice(rows), rng.choice(rows)
        ca, cb = draw(rng), draw(rng)
        targets.append([x * ca + y * cb for x, y in zip(a, b)])
    dense = lambda rs: [dict(enumerate(r)) for r in rs]
    sparse = linalg.RowSpace()
    for k, r in enumerate(rows):
        assert sparse.add(as_mapping(rng, r, 0)) == (oracle.rank(dense(rows[:k + 1])) > oracle.rank(dense(rows[:k])))
        assert sparse.rank == oracle.rank(dense(rows[:k + 1]))
        assert sparse.width <= width
    assert_primitive_pivots(sparse)
    for t in targets:
        assert sparse.contains(as_mapping(rng, t, 0)) == oracle.in_span(dense(rows), dict(enumerate(t)))
    assert linalg.spans_equal([as_mapping(rng, r, 0) for r in rows], [as_mapping(rng, t, 0) for t in targets]) \
        == oracle.spans_equal(dense(rows), dense(targets))
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert linalg.spans_equal([as_mapping(rng, r, 0) for r in rows], [as_mapping(rng, r, 0) for r in shuffled])


def test_sparse_matches_dense_over_fractions():
    rng = random.Random(2024)
    for _ in range(150):
        assert_sparse_matches_dense(rng, rng.randint(1, 7), random_fraction)
