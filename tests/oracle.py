"""A test oracle for rewriting and elimination, written from the definitions.

It imports nothing from ``quiverdu`` and no test module, so a mistake in
the package cannot be copied into it; ``tests/test_oracle.py`` enforces
that.  A path is a tuple of arrow names, ``u<i>`` for u_i : i -> i+1 and
``d<i>`` for d_i : i+1 -> i, read left to right; the empty tuple is a
trivial path.  Coefficients may come from any ring with ``+``, ``*`` and a
zero test (``Fraction``, int, the tests' ``Poly``).

- ``qdu_relations`` and ``preprojective_relations`` write the defining
  relations of H(alpha, beta, gamma) and of the preprojective algebra as
  the paper states them, and ``oriented`` turns each into a rewrite rule,
  its largest word (degree first, then d_0 > ... > d_{n-1} > u_0 > ... >
  u_{n-1} from the left) going to the rest.
- ``Reducer.normal_form`` reduces by left multiplication: a path is built
  from its last arrow back to its first, and a·w with w normal can only be
  reducible at a leading word that starts with a.  The package's kernel
  multiplies on the right; by Bergman's diamond lemma both give the one
  normal form of a confluent system.
- ``shape`` reads the (a, j, c) of a normal word u^a (du)^j d^c off its
  letters.
- ``rank``, ``in_span`` and ``spans_equal`` are dense Gaussian elimination
  over any field-like scalar (``Fraction``, or the ``CycScalar`` values a
  test passes in with their ``zero``).
"""

from __future__ import annotations

import sys
from fractions import Fraction


def u(i: int, n: int) -> str:
    return f"u{i % n}"


def d(i: int, n: int) -> str:
    return f"d{i % n}"


def nonzero(terms) -> dict:
    return {w: c for w, c in terms if c}


def qdu_relations(n: int, alpha, beta, gamma) -> list[tuple[tuple, dict]]:
    """For i mod n, as (left word, {right word: coefficient}):

    d_{i-1} u_{i-1} u_i = alpha_i u_i d_i u_i + beta_i u_i u_{i+1} d_{i+1} + gamma_i u_i
    d_i d_{i-1} u_{i-1} = alpha_i d_i u_i d_i + beta_i u_{i+1} d_{i+1} d_i + gamma_i d_i
    """
    relations = []
    for i in range(n):
        a, b, g = alpha[i], beta[i], gamma[i]
        relations.append(((d(i - 1, n), u(i - 1, n), u(i, n)), nonzero([
            ((u(i, n), d(i, n), u(i, n)), a), ((u(i, n), u(i + 1, n), d(i + 1, n)), b),
            ((u(i, n),), g)])))
        relations.append(((d(i, n), d(i - 1, n), u(i - 1, n)), nonzero([
            ((d(i, n), u(i, n), d(i, n)), a), ((u(i + 1, n), d(i + 1, n), d(i, n)), b),
            ((d(i, n),), g)])))
    return relations


def preprojective_relations(n: int) -> list[tuple[tuple, dict]]:
    """d_i u_i = u_{i+1} d_{i+1} at vertex i + 1, for i mod n."""
    return [((d(i, n), u(i, n)), {(u(i + 1, n), d(i + 1, n)): Fraction(1)}) for i in range(n)]


def code(name: str, n: int) -> int:
    """An arrow's place in d_0 > ... > d_{n-1} > u_0 > ... > u_{n-1}: d_k is k, u_k is n + k."""
    return int(name[1:]) + (n if name[0] == "u" else 0)


def order_key(word: tuple, n: int) -> tuple:
    """Larger key, larger word: degree first, then the arrows' places from the left."""
    return len(word), tuple(-code(name, n) for name in word)


def oriented(relations, n: int) -> dict[tuple, dict]:
    """{leading word: right-hand side}; each relation's left word must be its largest."""
    rules = {}
    for left, right in relations:
        if any(order_key(w, n) >= order_key(left, n) for w in right):
            raise ValueError(f"{left} is not the largest word of its relation")
        rules[left] = right
    return rules


class Reducer:
    """Normal forms modulo ``rules`` ({leading word: {word: coefficient}}), by left multiplication.

    ``memo`` maps (arrow, normal word) to the normal form of their product.
    """

    def __init__(self, rules: dict[tuple, dict]):
        self.by_first: dict = {}
        for lhs, rhs in rules.items():
            self.by_first.setdefault(lhs[0], []).append((lhs, rhs))
        self.memo: dict = {}

    def normal_form(self, word: tuple) -> dict:
        """NF(word) as {word: coefficient}."""
        limit = sys.getrecursionlimit()  # each pending reduction is a Python call
        sys.setrecursionlimit(max(limit, 100_000))
        try:
            return self._times(word, {(): 1})
        finally:
            sys.setrecursionlimit(limit)

    def _times(self, word: tuple, comb: dict) -> dict:
        """NF(word · comb) for a normal comb: its arrows left-multiplied from the last."""
        for a in reversed(word):
            out: dict = {}
            for w, c in comb.items():
                for v, cv in self._left(a, w).items():
                    out[v] = out[v] + c * cv if v in out else c * cv
            comb = nonzero(out.items())
        return comb

    def _left(self, a: str, w: tuple) -> dict:
        key = (a, w)
        if key not in self.memo:
            aw = (a,) + w
            for lhs, rhs in self.by_first.get(a, ()):
                if aw[:len(lhs)] == lhs:
                    rest = aw[len(lhs):]  # normal: a suffix of w
                    out: dict = {}
                    for r, c in rhs.items():
                        for v, cv in self._times(r, {rest: 1}).items():
                            out[v] = out[v] + c * cv if v in out else c * cv
                    self.memo[key] = nonzero(out.items())
                    break
            else:
                self.memo[key] = {aw: 1}
        return self.memo[key]


def shape(word: tuple) -> tuple[int, int, int]:
    """The (a, j, c) of a word u^a (du)^j d^c; ValueError for any other word."""
    letters = "".join(name[0] for name in word)
    a = 0
    while a < len(letters) and letters[a] == "u":
        a += 1
    j = 0
    while letters[a + 2 * j:a + 2 * j + 2] == "du":
        j += 1
    c = len(letters) - a - 2 * j
    if letters[a + 2 * j:] != "d" * c:
        raise ValueError(f"not a normal word: {letters}")
    return a, j, c


def _dense(row, columns: list, zero) -> list:
    """The row's entries over ``columns``, an int read as a Fraction so that ``/`` is exact."""
    return [Fraction(c) if type(c) is int else c for c in (row.get(k, zero) for k in columns)]


def _echelon(rows: list, columns: list, zero) -> list:
    """Forward elimination of the rows over ``columns``: the pivot rows, with their pivot columns."""
    matrix = [_dense(row, columns, zero) for row in rows]
    pivots = []
    for col in range(len(columns)):
        r = len(pivots)
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        for i in range(r + 1, len(matrix)):
            if matrix[i][col]:
                f = matrix[i][col] / matrix[r][col]
                matrix[i] = [x - f * y if y else x for x, y in zip(matrix[i], matrix[r])]
        pivots.append((col, matrix[r]))
    return pivots


def rank(rows: list, zero=Fraction(0)) -> int:
    """The rank of rows given as mappings {column: scalar}, by dense Gaussian elimination."""
    return len(_echelon(rows, list(dict.fromkeys(k for row in rows for k in row)), zero))


def in_span(rows: list, target, zero=Fraction(0)) -> bool:
    """Whether ``target`` is a combination of ``rows``: it reduces to zero by their echelon form."""
    columns = list(dict.fromkeys([k for row in rows for k in row] + list(target)))
    t = _dense(target, columns, zero)
    for col, row in _echelon(rows, columns, zero):
        if t[col]:
            f = t[col] / row[col]
            t = [x - f * y if y else x for x, y in zip(t, row)]
    return not any(t)


def spans_equal(rows_a: list, rows_b: list, zero=Fraction(0)) -> bool:
    both = rank(rows_a + rows_b, zero)
    return rank(rows_a, zero) == both == rank(rows_b, zero)
