"""Tests of sparse exact elimination, with the eliminations it replaced.

``RowSpace``, ``rank``, ``in_span`` and ``spans_equal`` below are the
dense-list elimination of the package before rows became sparse term
maps, kept verbatim as the reference; the package's sparse versions are
reached as ``linalg.RowSpace`` and ``linalg.spans_equal``.  The
differential tests feed both the same rows, as padded lists and as
mappings with explicit zeros and shuffled key orders.

``linalg`` eliminates fraction-free over the ints and takes rational rows
only.  The sparse elimination over any field-like scalar that it replaced
is ``replaced_code.RowSpace``; the cyclotomic tests run on it, and the
differential tests hold the int elimination to it on int and ``Fraction``
rows.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

import replaced_code
from quiverdu import linalg
from quiverdu.cyclotomic import CycScalar


class RowSpace:
    """Incremental row-echelon span with exact arithmetic."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: list[tuple[int, list]] = []  # (pivot column, normalized row)

    def residual(self, vec: list) -> list:
        row = list(vec)
        for col, pivot_row in self.pivots:
            c = row[col]
            if c:
                for j in range(col, self.width):
                    row[j] = row[j] - c * pivot_row[j]
        return row

    def add(self, vec: list) -> bool:
        """Insert the vector; returns True if it enlarged the span."""
        row = self.residual(vec)
        for col in range(self.width):
            if row[col]:
                inv = Fraction(1) / row[col]  # one inverse per pivot, then products
                normalized = [x * inv if x else x for x in row]
                self.pivots.append((col, normalized))
                self.pivots.sort(key=lambda t: t[0])
                return True
        return False

    def contains(self, vec: list) -> bool:
        return not any(self.residual(vec))

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(rows: list[list]) -> int:
    if not rows:
        return 0
    space = RowSpace(len(rows[0]))
    for r in rows:
        space.add(r)
    return space.rank


def in_span(rows: list[list], target: list) -> bool:
    space = RowSpace(len(target))
    for r in rows:
        space.add(r)
    return space.contains(target)


def spans_equal(rows_a: list[list], rows_b: list[list]) -> bool:
    if not rows_a and not rows_b:
        return True
    width = len(rows_a[0]) if rows_a else len(rows_b[0])
    sa, sb = RowSpace(width), RowSpace(width)
    for r in rows_a:
        sa.add(r)
    for r in rows_b:
        sb.add(r)
    if sa.rank != sb.rank:
        return False
    return all(sa.contains(r) for r in rows_b)


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


def field_rank(rows):
    space = replaced_code.RowSpace()
    for r in rows:
        space.add(r)
    return space.rank


def test_rank_over_cyclotomics():
    # On the elimination over any field-like scalar; linalg takes rational rows only.
    n = 3
    z = CycScalar.zeta_power(n, 1)
    one = CycScalar.one(n)
    zero = CycScalar.zero(n)
    # second row is zeta times the first: rank 1
    assert field_rank([{0: one, 1: z}, {0: z, 1: z * z}]) == 1
    assert field_rank([{0: one, 1: zero}, {0: zero, 1: z}]) == 2
    space = replaced_code.RowSpace()
    space.add({0: one, 1: z})
    assert space.contains({0: z, 1: z * z})


def test_twist_invariance_needs_homogeneous():
    from quiverdu.core import Element, Parameters, path_from_word
    from quiverdu.structure import check_twist_invariance, paper_twist_weights

    params = Parameters.of(3, [0, 0, 0], [1, 1, 1], [0, 0, 0])
    weights = paper_twist_weights(params)
    mixed = Element.from_path(path_from_word(3, 0, "udud")) + Element.from_path(
        path_from_word(3, 0, "ud"))
    with pytest.raises(ValueError):
        check_twist_invariance(mixed, weights)


class ReferenceRowSpace(replaced_code.RowSpace):
    """Sparse RowSpace with a division per entry in place of one inverse per pivot."""

    def add(self, row) -> bool:
        out = self.residual(row)
        if not out:
            return False
        key, lead = next(iter(out.items()))
        self.pivots.append((key, {k: c / lead for k, c in out.items()}))
        return True


def assert_primitive_pivots(space):
    """Each pivot row is a primitive int row with a positive lead at its key,
    zero at the keys of the pivots before it."""
    for pos, (key, row) in enumerate(space.pivots):
        assert next(iter(row)) == key and row[key] > 0
        assert all(type(c) is int and c for c in row.values())
        assert gcd(*row.values()) == 1
        assert all(earlier not in row for earlier, _ in space.pivots[:pos])


def assert_proportional(row, ref_row):
    """``row`` is a nonzero multiple of ``ref_row``."""
    assert row.keys() == ref_row.keys()
    key = next(iter(ref_row))
    ratio = Fraction(row[key]) / ref_row[key]
    assert all(row[k] == ratio * c for k, c in ref_row.items())


def test_pivot_rows_are_primitive_with_a_positive_int_lead():
    rng = random.Random(97)
    for width in (1, 3, 6):
        int_rows = [{j: rng.randint(-3, 3) for j in range(width)} for _ in range(width + 2)]
        space = linalg.RowSpace()
        for r in int_rows:
            space.add(r)
        assert_primitive_pivots(space)
        assert space.rank == rank([[r[j] for j in range(width)] for r in int_rows])
        frac_rows = [{j: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for j in range(width)}
                     for _ in range(width + 2)]
        space = linalg.RowSpace()
        for r in frac_rows:
            space.add(r)
        assert_primitive_pivots(space)


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


def test_rowspace_matches_reference_elimination():
    rng = random.Random(101)
    for _ in range(40):
        width = rng.randint(1, 5)
        rows = frows([[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(width)]
                      for _ in range(rng.randint(1, 5))])
        other = frows([[rng.choice([0, 1, -2]) for _ in range(width)]
                       for _ in range(rng.randint(1, 5))])
        new, ref = linalg.RowSpace(), ReferenceRowSpace()
        for r in rows:
            assert new.add(r) == ref.add(r)
        assert [key for key, _ in new.pivots] == [key for key, _ in ref.pivots]
        for (_, row), (_, ref_row) in zip(new.pivots, ref.pivots):
            assert_proportional(row, ref_row)
        assert sparse_rank(rows) == ref.rank
        for target in other:
            assert sparse_in_span(rows, target) == ref.contains(target)
        ref_other = ReferenceRowSpace()
        for r in other:
            ref_other.add(r)
        assert linalg.spans_equal(rows, other) == (
            ref.rank == ref_other.rank and all(ref.contains(r) for r in other))


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
def test_int_elimination_matches_the_field_elimination(draw):
    # Dependent rows, negative leads and entries past 2^64: every add, rank,
    # contains and spans_equal result agrees with the elimination over Q.
    rng = random.Random(2027)
    for _ in range(120):
        width = rng.randint(1, 7)
        rows = random_rational_rows(rng, width, rng.randint(1, width + 3), draw)
        targets = random_rational_rows(rng, width, 4, draw) + rows[-2:]
        new, ref = linalg.RowSpace(), replaced_code.RowSpace()
        for r in rows:
            assert new.add(r) == ref.add(r)
            assert new.rank == ref.rank and new.width == ref.width
        assert_primitive_pivots(new)
        for (key, row), (ref_key, ref_row) in zip(new.pivots, ref.pivots):
            assert key == ref_key
            assert_proportional(row, ref_row)
        for t in targets:
            assert new.contains(t) == ref.contains(t)
            assert bool(new.residual(t)) == bool(ref.residual(t))
        assert linalg.spans_equal(rows, targets) == replaced_code.spans_equal(rows, targets)
        assert linalg.spans_equal(targets, rows) == replaced_code.spans_equal(targets, rows)
        assert linalg.spans_equal(rows, rows[::-1])


# ---------------------------------------------------------------------------
# Sparse against dense elimination
# ---------------------------------------------------------------------------

def random_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_cyclotomic(n):
    def draw(rng):
        return CycScalar(n, [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]) / rng.randint(1, 3)
    return draw


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


def assert_sparse_matches_dense(rng, width, draw, zero, elimination):
    """``elimination`` is ``linalg`` or the ``replaced_code`` reference; both
    provide ``RowSpace`` and ``spans_equal``."""
    rows = random_dense_rows(rng, width, rng.randint(1, width + 3), draw, zero)
    targets = random_dense_rows(rng, width, 3, draw, zero)
    # combinations of the rows are in the span; the sparse check must say so
    for _ in range(2):
        a, b = rng.choice(rows), rng.choice(rows)
        ca, cb = draw(rng), draw(rng)
        targets.append([x * ca + y * cb for x, y in zip(a, b)])
    dense, sparse = RowSpace(width), elimination.RowSpace()
    for r in rows:
        assert sparse.add(as_mapping(rng, r, zero)) == dense.add(r)
        assert sparse.rank == dense.rank
        assert sparse.width <= width
    if elimination is linalg:
        assert_primitive_pivots(sparse)
    for t in targets:
        assert sparse.contains(as_mapping(rng, t, zero)) == dense.contains(t)
    assert elimination.spans_equal([as_mapping(rng, r, zero) for r in rows],
                                   [as_mapping(rng, t, zero) for t in targets]) == spans_equal(rows, targets)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert elimination.spans_equal([as_mapping(rng, r, zero) for r in rows],
                                   [as_mapping(rng, r, zero) for r in shuffled])


def test_sparse_matches_dense_over_fractions():
    rng = random.Random(2024)
    for _ in range(150):
        assert_sparse_matches_dense(rng, rng.randint(1, 7), random_fraction, Fraction(0), linalg)


@pytest.mark.parametrize("n", range(3, 13))
def test_sparse_matches_dense_over_cyclotomics(n):
    # On the elimination over any field-like scalar; linalg takes rational rows only.
    rng = random.Random(700 + n)
    for _ in range(12):
        assert_sparse_matches_dense(rng, rng.randint(1, 5), random_cyclotomic(n),
                                    CycScalar.zero(n), replaced_code)
