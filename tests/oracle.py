"""A test oracle for rewriting, elimination, the GWA model and the skew group algebra, from the definitions.

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
- ``path_target`` is the definition of a path: a sequence of the quiver's
  arrows in which each starts where the previous one ended.
- ``normal_words`` lists the words that contain no leading word, a basis
  of the quotient by the diamond lemma; ``normal_word_counts`` counts them
  by source, target and degree, and ``inverse_series`` expands D(t)^-1 for
  the ``denominator`` of the Hilbert series the paper states.
- ``chain`` and ``property_witnesses`` take the non-noetherian chain
  I_s = sum_{m<=s} U^m g A and the freeness or zero-divisor witnesses from
  their definitions, with ``Reducer`` and the elimination below.
- ``rank``, ``in_span`` and ``spans_equal`` are dense Gaussian elimination
  over any field-like scalar (``Fraction``, or the ``CycScalar`` values a
  test passes in with their ``zero``).
- ``Gwa`` is the generalized Weyl algebra T = R[X^+, X^-; sigma] of one
  parameter vector: R = sum_v k[x_v, y_v] e_v multiplied vertex by vertex,
  sigma and sigma^-1 substituted from their defining formulas, T's product
  taken one generator at a time from X^+- r = sigma^+-1(r) X^+-,
  X^- X^+ = x and X^+ X^- = sigma(x) alone, theta (u_i -> e_i X^-,
  d_i -> e_{i+1} X^+) on arrow-name words, and theta' (x_i -> u_i d_i,
  y_i -> d_{i-1} u_{i-1}, X^- -> sum u_i, X^+ -> sum d_i) reduced by
  ``Reducer``.
- ``smash_times`` multiplies in the skew group algebra B = R # Z_n of the graded
  down-up algebra R (``graded_down_up``: the relations at n = 1 with alpha = gamma = 0,
  beta = -1) by (r # g^i)(s # g^j) = r g^i(s) # g^(i+j), g^i(s) = x^(i(#u - #d)) s, on
  values {(R-word, j): {k: c}} with coefficients in the group algebra Q[x]/(x^n - 1);
  ``smash_sum`` adds them and ``idempotent`` writes f_i = (1/n) sum_t x^(it) # g^t.
  ``cyclotomic`` divides x^n - 1 by every Phi_e, e a proper divisor of n, and ``value``
  reduces each coefficient mod Phi_n (``residue``), the image of x -> zeta in Q(zeta_n).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache


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
        return self.times(word, {(): 1})

    def times(self, word: tuple, comb: dict) -> dict:
        """NF(word · comb) for a combination ``comb`` of normal words."""
        limit = sys.getrecursionlimit()  # each pending reduction is a Python call
        sys.setrecursionlimit(max(limit, 100_000))
        try:
            return self._times(word, comb)
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


def arrow_ends(name: str, n: int) -> tuple[int, int]:
    """(source, target) of an arrow: u_i : i -> i+1 and d_i : i+1 -> i."""
    i = int(name[1:])
    return (i, (i + 1) % n) if name[0] == "u" else ((i + 1) % n, i)


def path_target(n: int, source: int, word: tuple) -> int | None:
    """Where a path from ``source`` ends; None if ``word`` is no path of the quiver on n vertices.

    A path is a sequence of the quiver's arrows in which each starts where the previous one ended.
    """
    arrows = {f"{family}{i}" for family in "ud" for i in range(n)}
    at = source if 0 <= source < n else None
    for name in word:
        if at is None or name not in arrows or arrow_ends(name, n)[0] != at:
            return None
        at = arrow_ends(name, n)[1]
    return at


def normal_words(rules: dict, n: int, source: int, max_degree: int) -> list[list[tuple]]:
    """The normal words from ``source`` of each degree up to ``max_degree``: the paths with no
    leading word of ``rules`` as a factor.  A prefix of a normal word is normal, so each degree
    extends the last by one arrow and drops a word that ends in a leading word."""
    by_degree = [[()]]
    for _ in range(max_degree):
        longer = []
        for w in by_degree[-1]:
            at = arrow_ends(w[-1], n)[1] if w else source
            for v in (w + (u(at, n),), w + (d(at - 1, n),)):
                if not any(v[-len(lhs):] == lhs for lhs in rules):
                    longer.append(v)
        by_degree.append(longer)
    return by_degree


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


# ---------------------------------------------------------------------------
# Hilbert series: normal words counted, and D(t)^-1 expanded
# ---------------------------------------------------------------------------

def normal_word_counts(rules: dict, n: int, max_degree: int) -> list[list[list[int]]]:
    """[H_0, ..., H_max_degree], (H_k)_{ij} the number of normal words of degree k from i to j."""
    counts = [[[0] * n for _ in range(n)] for _ in range(max_degree + 1)]
    for i in range(n):
        for k, words in enumerate(normal_words(rules, n, i, max_degree)):
            for w in words:
                counts[k][i][arrow_ends(w[-1], n)[1] if w else i] += 1
    return counts


def _mat_times(a: list, b: list) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def denominator(n: int, preset: str) -> dict[int, list]:
    """{power of t: integer matrix} of D(t): I - Mt + Mt^3 - It^4 for the quiver down-up algebra
    ("qdu"), I - Mt + It^2 for the preprojective algebra, M[i][j] the number of arrows i -> j."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    m = [[0] * n for _ in range(n)]
    for name in [f"{family}{i}" for family in "ud" for i in range(n)]:
        source, target = arrow_ends(name, n)
        m[source][target] += 1
    minus_m, minus_eye = [[-x for x in row] for row in m], [[-x for x in row] for row in eye]
    return {0: eye, 1: minus_m, 3: m, 4: minus_eye} if preset == "qdu" else {0: eye, 1: minus_m, 2: eye}


def inverse_series(denominator: dict, order: int) -> list[list]:
    """[H_0, ..., H_order] of D(t)^-1 for D_0 = I: H_0 = I and H_k = -sum_{j>=1} D_j H_{k-j}."""
    series = [denominator[0]]
    for k in range(1, order + 1):
        h = [[0] * len(row) for row in denominator[0]]
        for j, dj in denominator.items():
            if 1 <= j <= k:
                h = [[x - y for x, y in zip(hr, pr)] for hr, pr in zip(h, _mat_times(dj, series[k - j]))]
        series.append(h)
    return series


# ---------------------------------------------------------------------------
# The generalized Weyl algebra T = R[X^+, X^-; sigma]
# ---------------------------------------------------------------------------

def _add(out: dict, key, c) -> None:
    out[key] = out[key] + c if key in out else c


class Gwa:
    """T over R = sum_v k[x_v, y_v] e_v for one parameter vector, from the definitions.

    An element of R is {(v, a, b): c} for the sum of c x_v^a y_v^b e_v; an
    element of T is {m: r}, r in R, for the sum of r X^m with X^m = (X^+)^m
    for m > 0 and (X^-)^{-m} for m < 0.  Zero coefficients and empty r are
    dropped.  sigma^-1 needs every beta_v nonzero.
    """

    def __init__(self, n: int, alpha, beta, gamma):
        self.n = n
        self.alpha, self.beta, self.gamma = ([Fraction(c) for c in vec] for vec in (alpha, beta, gamma))
        self.reducer = Reducer(oriented(qdu_relations(n, self.alpha, self.beta, self.gamma), n))
        self.memo: dict = {}  # (monomial, +-1) -> its image under sigma^+-1

    # R ------------------------------------------------------------------

    def e(self, v: int) -> dict:
        return {(v % self.n, 0, 0): Fraction(1)}

    def x(self, v: int) -> dict:
        return {(v % self.n, 1, 0): Fraction(1)}

    def y(self, v: int) -> dict:
        return {(v % self.n, 0, 1): Fraction(1)}

    def x_total(self) -> dict:
        """x = sum_v x_v."""
        return {(v, 1, 0): Fraction(1) for v in range(self.n)}

    def combine(self, parts) -> dict:
        """The sum of c r over the pairs (r, c), r in R."""
        out: dict = {}
        for r, c in parts:
            for k, rc in r.items():
                _add(out, k, c * rc)
        return nonzero(out.items())

    def r_times(self, r: dict, s: dict) -> dict:
        """r s in R: the e_v are orthogonal idempotents, and each k[x_v, y_v] is commutative."""
        out: dict = {}
        for (v, a, b), c in r.items():
            for (w, a2, b2), c2 in s.items():
                if v == w:
                    _add(out, (v, a + a2, b + b2), c * c2)
        return nonzero(out.items())

    def _images(self, v: int, sign: int) -> tuple[dict, dict, dict]:
        """(e_v, x_v, y_v) under sigma (sign 1) or sigma^-1 (sign -1).

        sigma: e_v -> e_{v+1}, x_v -> y_{v+1}, y_v -> alpha_v y_{v+1} + beta_v x_{v+1} + gamma_v e_{v+1}.
        Solving the last for x_{v+1} and shifting: sigma^-1 sends e_v -> e_{v-1}, y_v -> x_{v-1} and
        x_v -> (y_{v-1} - alpha_{v-1} x_{v-1} - gamma_{v-1} e_{v-1}) / beta_{v-1}.
        """
        n = self.n
        if sign > 0:
            w = (v + 1) % n
            y_image = self.combine([(self.y(w), self.alpha[v]), (self.x(w), self.beta[v]),
                                    (self.e(w), self.gamma[v])])
            return self.e(w), self.y(w), y_image
        w = (v - 1) % n
        if not self.beta[w]:
            raise ValueError("sigma is not invertible: some beta_v = 0")
        inv = 1 / self.beta[w]
        x_image = self.combine([(self.y(w), inv), (self.x(w), -self.alpha[w] * inv),
                                (self.e(w), -self.gamma[w] * inv)])
        return self.e(w), x_image, self.x(w)

    def _substituted(self, monomial: tuple, sign: int) -> dict:
        """sigma^sign(x_v^a y_v^b e_v) = sigma^sign(e_v) sigma^sign(x_v)^a sigma^sign(y_v)^b, memoized."""
        key = (monomial, sign)
        if key not in self.memo:
            v, a, b = monomial
            e_image, x_image, y_image = self._images(v, sign)
            image = e_image
            for factor in [x_image] * a + [y_image] * b:
                image = self.r_times(image, factor)
            self.memo[key] = image
        return self.memo[key]

    def sigma(self, r: dict, m: int = 1) -> dict:
        """sigma^m(r): |m| substitutions of the images of e_v, x_v and y_v into each monomial."""
        for _ in range(abs(m)):
            r = self.combine((self._substituted(k, 1 if m > 0 else -1), c) for k, c in r.items())
        return r

    # T ------------------------------------------------------------------

    def t_sum(self, parts) -> dict:
        """The sum of c t over the pairs (t, c), t in T."""
        out: dict = {}
        for t, c in parts:
            for m, r in t.items():
                at = out.setdefault(m, {})
                for k, rc in r.items():
                    _add(at, k, c * rc)
        return {m: p for m, r in out.items() if (p := nonzero(r.items()))}

    def times_base(self, t: dict, s: dict) -> dict:
        """t s for s in R: X^+- s = sigma^+-1(s) X^+-, so r X^m s = r sigma^m(s) X^m."""
        return {m: p for m, r in t.items() if (p := self.r_times(r, self.sigma(s, m)))}

    def times_generator(self, t: dict, sign: int) -> dict:
        """t X^+ (sign 1) or t X^- (sign -1), one term r X^m at a time.

        Where m and sign agree (or m = 0) the powers add.  Otherwise one X^-+ meets the
        generator: for m < 0, X^m X^+ = (X^-)^{-m-1} x = sigma^{m+1}(x) X^{m+1} by X^- X^+ = x;
        for m > 0, X^m X^- = (X^+)^{m-1} sigma(x) = sigma^{m-1}(sigma(x)) X^{m-1} by X^+ X^- = sigma(x).
        """
        parts = []
        for m, r in t.items():
            if m * sign >= 0:
                parts.append(({m + sign: r}, 1))
            elif m < 0:
                parts.append(({m + 1: self.r_times(r, self.sigma(self.x_total(), m + 1))}, 1))
            else:
                parts.append(({m - 1: self.r_times(r, self.sigma(self.sigma(self.x_total()), m - 1))}, 1))
        return self.t_sum(parts)

    def times(self, a: dict, b: dict) -> dict:
        """a b in T: each term s X^k of b multiplies a as s, then as |k| generators, one at a time."""
        parts = []
        for k, s in b.items():
            t = self.times_base(a, s)
            for _ in range(abs(k)):
                t = self.times_generator(t, 1 if k > 0 else -1)
            parts.append((t, 1))
        return self.t_sum(parts)

    # theta and theta' ----------------------------------------------------

    def theta_word(self, source: int, word: tuple) -> dict:
        """theta of a path from ``source``: e_source times the images u_i -> e_i X^-, d_i -> e_{i+1} X^+."""
        t = {0: self.e(source)}
        for name in word:
            i = int(name[1:])
            t = self.times(t, {-1: self.e(i)} if name[0] == "u" else {1: self.e(i + 1)})
        return t

    def theta(self, a: dict) -> dict:
        """theta of {(source, word): c}, linearly."""
        return self.t_sum((self.theta_word(source, word), c) for (source, word), c in a.items())

    def theta_prime(self, t: dict) -> dict:
        """theta'(t) as {(source, normal word): c}: x_v -> u_v d_v, y_v -> d_{v-1} u_{v-1},
        X^- -> sum_i u_i and X^+ -> sum_i d_i, each image reduced by ``reducer``.

        The image of x_v^a y_v^b e_v is a loop at v; after it, of sum_i u_i only u_at leaves the
        vertex ``at`` reached, and of sum_i d_i only d_{at-1}, so each term of t is one path.
        """
        n, out = self.n, {}
        for m, r in t.items():
            for (v, a, b), c in r.items():
                word, at = (u(v, n), d(v, n)) * a + (d(v - 1, n), u(v - 1, n)) * b, v
                for _ in range(abs(m)):
                    word += (u(at, n),) if m < 0 else (d(at - 1, n),)
                    at = at + 1 if m < 0 else at - 1
                for w, cw in self.reducer.normal_form(word).items():
                    _add(out, (v, w), c * cw)
        return nonzero(out.items())


# ---------------------------------------------------------------------------
# The non-noetherian chain and the property witnesses
# ---------------------------------------------------------------------------

def _times(reducer: Reducer, left: tuple, comb: dict, right: tuple = ()) -> dict:
    """NF(left · comb · right) for a combination ``comb`` of words and a normal word ``right``."""
    out: dict = {}
    for w, c in comb.items():
        for v, cv in reducer.times(left + w, {right: 1}).items():
            _add(out, v, c * cv)
    return nonzero(out.items())


def up_cycle(n: int, i: int) -> tuple:
    """U = u_i u_{i+1} ... u_{i-1}, the up-cycle at i."""
    return tuple(u(i + k, n) for k in range(n))


def chain_generator(n: int, alpha, gamma, i: int) -> dict:
    """g = alpha_i u_i d_i + gamma_i e_i - d_{i-1} u_{i-1}."""
    return nonzero([((u(i, n), d(i, n)), alpha[i]), ((), gamma[i]), ((d(i - 1, n), u(i - 1, n)), -1)])


def chain(n: int, alpha, beta, gamma, i: int, s_max: int, degree_bound: int | None = None):
    """(annihilation, [(s, strict)], support) of the chain I_s = sum_{m<=s} U^m g A at a vertex i
    with beta_i = 0, U the up-cycle and g the generator above:

    - annihilation: NF(U g u_i) = 0;
    - strict, for s = 1..s_max: NF(U^{s+1} g) is not in the span of the NF(U^m g b), m <= s, b a
      normal word from i of degree at most ``degree_bound`` - mn - 2 (default (s_max + 1)n + 2);
    - support: every word u^a (du)^j d^c of those products has a = mn and, if gamma_i = 0, j > 0,
      or a = mn + 1 and c > 0.
    """
    rules = oriented(qdu_relations(n, alpha, beta, gamma), n)
    reducer = Reducer(rules)
    bound = (s_max + 1) * n + 2 if degree_bound is None else degree_bound
    up, g = up_cycle(n, i), chain_generator(n, alpha, gamma, i)
    annihilation = not _times(reducer, up, g, (u(i, n),))
    # products[b] = NF(U^s g b) = NF(U NF(U^(s-1) g b)), for the b that I_s reads
    products = {b: _times(reducer, (), g, b) for words in normal_words(rules, n, i, bound - n - 2) for b in words}
    rows, strict, support = [], [], True
    for s in range(1, s_max + 1):
        products = {b: reducer.times(up, p) for b, p in products.items() if len(b) <= bound - s * n - 2}
        for product in products.values():
            for w in product:
                a, j, c = shape(w)
                support = support and (a == s * n and (j > 0 or gamma[i] != 0) or a == s * n + 1 and c > 0)
            if product:
                rows.append(product)
        strict.append((s, not in_span(rows, _times(reducer, up * (s + 1), g))))
    return annihilation, strict, support


def property_witnesses(n: int, alpha, beta, gamma, degree: int = 4) -> list[dict]:
    """With every beta_i nonzero, at each vertex i: whether the monomials (u_i d_i)^a (d_{i-1} u_{i-1})^b,
    a + b <= ``degree``, have independent normal forms.  Otherwise, at each i with beta_i = 0 and
    a_i = d_{i-1} u_{i-1} - alpha_i u_i d_i - gamma_i e_i: whether a_i u_i, d_i a_i and a_i u_i d_i
    reduce to 0 (a_i = -g, with g the chain's generator)."""
    reducer = Reducer(oriented(qdu_relations(n, alpha, beta, gamma), n))
    witnesses = []
    for i in range(n):
        x, y = (u(i, n), d(i, n)), (d(i - 1, n), u(i - 1, n))
        if all(beta[k] != 0 for k in range(n)):
            monomials = [reducer.normal_form(x * a + y * b) for a in range(degree + 1) for b in range(degree + 1 - a)]
            witnesses.append({"vertex": i, "kind": "free-subalgebra", "ok": rank(monomials) == len(monomials)})
        elif beta[i] == 0:
            a_i = {w: -c for w, c in chain_generator(n, alpha, gamma, i).items()}
            witnesses.append({"vertex": i, "kind": "zero-divisor",
                              "product_zero": not _times(reducer, (), a_i, (u(i, n),)),
                              "mirror_zero": not _times(reducer, (d(i, n),), a_i),
                              "dependence_zero": not _times(reducer, (), a_i, x)})
    return witnesses


# ---------------------------------------------------------------------------
# The skew group algebra B = R # Z_n
# ---------------------------------------------------------------------------

def _divmod(a: list, b: list) -> tuple[list, list]:
    """(q, r) with a = q b + r and deg r < deg b; coefficients low to high, b's last one nonzero.
    The remainder has len(b) - 1 entries when len(a) >= len(b) - 1."""
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        c = quo[shift] = rem[shift + len(b) - 1] / b[-1]
        if c:
            for k, y in enumerate(b):
                if y:
                    rem[shift + k] -= c * y
    return quo, rem[:len(b) - 1]


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[Fraction, ...]:
    """Phi_n, low to high: x^n - 1 divided by Phi_e for every proper divisor e of n."""
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for e in range(1, n):
        if n % e == 0:
            poly, rest = _divmod(poly, list(cyclotomic(e)))
            if any(rest):
                raise ArithmeticError(f"Phi_{e} does not divide x^{n} - 1")
    return tuple(poly)


def residue(n: int, counts: dict) -> tuple[Fraction, ...]:
    """The remainder of sum_k counts[k] x^k on division by Phi_n: phi(n) coefficients, low to high."""
    phi = cyclotomic(n)
    poly = [Fraction(0)] * max(len(phi), max(counts, default=0) + 1)
    for k, c in counts.items():
        poly[k] += c
    return tuple(_divmod(poly, list(phi))[1])


@lru_cache(maxsize=None)
def graded_down_up() -> Reducer:
    """R = k<u, d | d^2 u + u d^2, d u^2 + u^2 d>: the relations at n = 1, alpha = gamma = 0, beta = -1."""
    return Reducer(oriented(qdu_relations(1, [0], [-1], [0]), 1))


def _clean(values: dict) -> dict:
    return {key: kept for key, counts in values.items() if (kept := nonzero(counts.items()))}


def smash_sum(xs) -> dict:
    """The sum of values of B, exactly, in the group algebra Q[x]/(x^n - 1)."""
    out: dict = {}
    for x in xs:
        for key, counts in x.items():
            acc = out.setdefault(key, {})
            for k, c in counts.items():
                _add(acc, k, c)
    return _clean(out)


def smash_times(n: int, a: dict, b: dict) -> dict:
    """The product of B's values {(R-word, j): {k: c}}, each the sum of c x^k (word # g^j).

    (r # g^i)(s # g^j) = r g^i(s) # g^(i+j), with g(u) = x u and g(d) = x^-1 d, so
    g^i(s) = x^(i(#u - #d)) s for a word s; r s is reduced in R, and x^n = 1.  Nothing is
    reduced mod Phi_n.
    """
    reducer = graded_down_up()
    out: dict = {}
    for (r, i), left in a.items():
        for (s, j), right in b.items():
            weight = sum(1 if name[0] == "u" else -1 for name in s)
            for w, q in reducer.normal_form(r + s).items():
                acc = out.setdefault((w, (i + j) % n), {})
                for k1, c1 in left.items():
                    qc1, k1 = q * c1, k1 + i * weight
                    for k2, c2 in right.items():
                        _add(acc, (k1 + k2) % n, qc1 * c2)
    return _clean(out)


def idempotent(n: int, i: int) -> dict:
    """f_i = (1/n) sum_t x^(it) # g^t."""
    return {((), t): {i * t % n: Fraction(1, n)} for t in range(n)}


def value(n: int, a: dict) -> dict:
    """a over Q(zeta_n), the image of x -> zeta: each (word, j) coefficient reduced mod Phi_n,
    the zeros dropped.  Two values of B are equal over Q(zeta_n) exactly when their forms are."""
    return {key: rem for key, counts in a.items() if any(rem := residue(n, counts))}
