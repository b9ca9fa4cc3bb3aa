"""The graded down-up algebra smashed with a cyclic group, over cyclotomics.

R = k<u, d | d^2u + ud^2, du^2 + u^2d>, the quiver down-up algebra at
n = 1 with alpha = gamma = 0 and beta = -1 (``GRADED_DOWN_UP``), has normal
monomial basis u^a (du)^b d^c; the generator g of Z_n acts by
g(u) = zeta u, g(d) = zeta^{-1} d, so g scales a monomial by
zeta^(#u - #d).  The smash product multiplies by
(r # g^i)(s # g^j) = r g^i(s) # g^{i+j}.

The orthogonal idempotents f_i = (1/n) sum_j zeta^{ij} # g^j decompose
the identity; the capped generators U_i = f_i (u#1) and
D_i = (d#1) f_i satisfy the quiver down-up relations with alpha = 0,
gamma = 0 and beta identically -1, and the corner dimensions
dim f_i B f_j match the quiver down-up dimension matrices degreewise.

A smash element has one form here, coded for the group algebra
Q[x]/(x^n - 1): one positive int denominator and a map
{(monomial, j, k): int}, k mod n, read as the sum of c x^k (m # g^j)
over that denominator.  The action of g^j1 on u^a (du)^b d^c adds
j1 (a - c) to the exponent, so a term pair (m1, j1, k1), (m2, j2, k2)
lands at k1 + k2 + j1 (a2 - c2) mod n, times the int coefficients of
``r_monomial_product``; sums go through ``core.add_into``.  The map
x -> zeta is a ring map, so every product is the image of the one over
Q(zeta_n).  Its kernel (Phi_n) is not zero, since 1 + x + ... + x^(n-1)
maps to 0, so coded values are grouped by (monomial, j) and reduced by
``cyclotomic.power_residue`` wherever one is compared or tested for zero
(``_agree``); nothing is ever decoded into ``CycScalar``s.  The f_i are
built once per check in this form, one power of x per group element
(``build_idempotents``), and every later check reads that list.

The corner dimensions are counted, not eliminated (I. Reiten,
C. Riedtmann, *Skew group algebras in the representation theory of
Artin algebras*, J. Algebra 1985): dim f_i B_k f_j is the number of
degree-k monomials m with i + w(m) = j mod n, w = ``monomial_weight``.
The count rests on three finite checks, each an AssertionError when it
fails (``corner_dimensions``): f_i (m # 1) = m # f_(i+w(m)) for every i
and m in {1, d, u}, by the coded product; w(m) = #u - #d of m's word for
every monomial counted; and both rules of R are weight-homogeneous, so g
acts by algebra automorphisms and the generator identity extends to
every m.  ``verify_quotient_match`` also checks that u_i -> U_i,
d_i -> D_i, e_i -> f_i is onto (sum_i U_i = u#1, sum_i D_i = d#1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import Parameters, add_into
from .cyclotomic import power_residue
from .rewrite import (
    PRESET_QDU,
    _normal_times,
    _tables,
    build_system,
    dimension_matrices,
    ensure_confluent,
    normal_shapes,
    word_shape,
)

GRADED_DOWN_UP = Parameters.of(1, [0], [-1], [0])

# R-monomials in normal form: (a, b, c) stands for u^a (du)^b d^c.
RMonomial = tuple[int, int, int]
_UNIT: RMonomial = (0, 0, 0)


def monomial_weight(m: RMonomial) -> int:
    """#u - #d, the character weight of the cyclic action."""
    a, _, c = m
    return a - c


def _monomial_word(m: RMonomial) -> str:
    a, b, c = m
    return "u" * a + "du" * b + "d" * c


def _word_weight(word: str) -> int:
    """#u - #d of a word, counted from its letters."""
    return word.count("u") - word.count("d")


# R's rewriting kernel runs on int-coded words; at n = 1 the arrow code
# (``rewrite._arrow_rank``) of d is 0 and that of u is 1.
def _codes(word: str) -> tuple[int, ...]:
    return tuple(int(x == "u") for x in word)


def _letters(codes: tuple[int, ...]) -> str:
    return "".join("du"[x] for x in codes)


def _r_tables():
    return _tables(ensure_confluent(build_system(PRESET_QDU, GRADED_DOWN_UP)))


@lru_cache(maxsize=None)
def r_monomial_product(m1: RMonomial, m2: RMonomial) -> tuple[tuple[RMonomial, int], ...]:
    """Normal-form expansion of the product of two R-monomials.

    Every u^a (du)^b d^c is a normal word, so a product with the unit
    monomial is the other factor, with no rewriting.  Otherwise m1's
    int-coded word is multiplied by m2's in the rewriting kernel
    (``_normal_times``), and no ``Element`` or ``Path`` is built.  R's
    rules have coefficients +-1, so the kernel's denominator is 1 and
    every coefficient is an int; AssertionError otherwise.
    """
    if m1 == _UNIT:
        return ((m2, 1),)
    if m2 == _UNIT:
        return ((m1, 1),)
    e, comb = _normal_times(_r_tables(), {_codes(_monomial_word(m1)): 1}, 0,
                            _codes(_monomial_word(m2)))
    if e or not all(type(c) is int for c in comb.values()):
        raise AssertionError(f"R-monomial product {m1} * {m2} has a non-int coefficient")
    return tuple(sorted((word_shape(_letters(w)), c) for w, c in comb.items()))


# A coded smash element: (den, {(monomial, j, k): int}), the sum of
# c x^k (m # g^j) over den.
Coded = tuple[int, dict]


def _grouped(terms: dict) -> dict:
    """The nonzero numerators by (monomial, group exponent): {(m, j): {k: int}}."""
    groups: dict = {}
    for (m, j, k), c in terms.items():
        if c:
            groups.setdefault((m, j), {})[k] = c
    return groups


def _monomial(m: RMonomial, j: int = 0) -> Coded:
    return 1, {(m, j, 0): 1}


def _coded_product(n: int, a: Coded, b: Coded) -> Coded:
    """The smash product on coded elements; nothing is reduced mod Phi_n."""
    (da, ta), (db, tb) = a, b
    right = list(tb.items())
    out: dict = {}
    for (m1, j1, k1), c1 in ta.items():
        for (m2, j2, k2), c2 in right:
            # g^j1 scales u^a (du)^b d^c by x^(j1 (a - c)), read here from the
            # definition of the action and not through ``monomial_weight``, so
            # the left-factor check of ``corner_dimensions`` compares two
            # independent computations of the weight.
            j, k, c = (j1 + j2) % n, (k1 + k2 + j1 * (m2[0] - m2[2])) % n, c1 * c2
            for m, q in r_monomial_product(m1, m2):
                key = (m, j, k)
                out[key] = out.get(key, 0) + q * c
    return da * db, out


def _coded_sum(xs: list[Coded]) -> Coded:
    """The sum of coded elements, over the lcm of their denominators."""
    acc = [1, {}]
    for den, terms in xs:
        add_into(acc, den, terms)
    return tuple(acc)


def _agree(n: int, a: Coded, b: Coded, scale: int = 1) -> bool:
    """a == scale * b over Q(zeta_n), decided after reduction mod Phi_n.

    Only the (monomial, group exponent) groups with a nonzero numerator
    in the difference are reduced.
    """
    diff = [1, {}]
    add_into(diff, *a)
    add_into(diff, *b, -scale)
    return not any(any(power_residue(n, v)) for v in _grouped(diff[1]).values())


def _one_power_idempotent(n: int, i: int) -> Coded:
    """f_i = (1/n) sum_t x^(it) # g^t, one power of x per group element."""
    return n, {(_UNIT, t, i * t % n): 1 for t in range(n)}


def build_idempotents(n: int) -> list[Coded]:
    """f_i = (1/n) sum_a zeta^{ia} # g^a; orthogonality and completeness verified.

    Each f_i is built once, coded with one power of x per group element
    (``_one_power_idempotent``), and every later check of the skew-group
    model reads that list.  f_i f_j = delta_ij f_i is checked for every
    (i, j) and every group exponent by the coded product, compared after
    reduction mod Phi_n, and the f_i must sum to the identity.
    """
    if n < 2:
        raise ValueError("idempotent decomposition needs n >= 2")
    fs = [_one_power_idempotent(n, i) for i in range(n)]
    zero = (1, {})
    for i in range(n):
        for j in range(n):
            if not _agree(n, _coded_product(n, fs[i], fs[j]), fs[i] if i == j else zero):
                raise AssertionError(f"idempotent orthogonality failed at ({i},{j})")
    if not _agree(n, _coded_sum(fs), _monomial(_UNIT)):
        raise AssertionError("idempotents do not sum to the identity")
    return fs


def _coded_caps(n: int, fs: list[Coded]) -> tuple[list[Coded], list[Coded], bool]:
    """Coded U_i = f_i (u#1) and D_i = (d#1) f_i; whether the other forms agree."""
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


@dataclass
class SkewGroupReport:
    n: int
    max_degree: int
    idempotents_ok: bool
    generator_forms_agree: bool
    proof_identities_ok: bool
    relation_kill: dict[int, bool]
    dimensions_ok: bool
    dimension_mismatch: tuple | None

    @property
    def ok(self) -> bool:
        return (self.idempotents_ok and self.generator_forms_agree
                and self.proof_identities_ok
                and self.relation_kill.get(-1, False)
                and not self.relation_kill.get(1, True)
                and self.dimensions_ok)


def check_group_absorption(n: int, fs: list[Coded]) -> None:
    """Raise AssertionError unless g^t f_j = zeta^{-tj} f_j for every t and j.

    The identity gives f_i (m # g^t) f_j = zeta^{-tj} f_i (m # 1) f_j, so
    each spanning product f_i (m # g^t) f_j of a corner is a multiple of
    the one with t = 0, and the products f_i (m # 1) f_j over the
    degree-k monomials m span f_i B_k f_j.
    """
    for t in range(n):
        g = _monomial(_UNIT, t)
        for j, f in enumerate(fs):
            den, terms = f
            scaled = den, {(m, s, (k - t * j) % n): c for (m, s, k), c in terms.items()}
            if not _agree(n, _coded_product(n, g, f), scaled):
                raise AssertionError(f"g^t f_j != zeta^(-tj) f_j at t={t}, j={j}")


# The unit and the generators d, u of R, in that order.
_GENERATORS: tuple[RMonomial, ...] = (_UNIT, (0, 0, 1), (1, 0, 0))


def corner_dimensions(n: int, k: int, fs: list[Coded]) -> list[list[int]]:
    """dim f_i B_k f_j for every corner (i, j): the degree-k monomials m with i + w(m) = j.

    Corner (i, j) is spanned by f_i (m # 1) f_j over the degree-k
    monomials m (``check_group_absorption``).  Since g^t (m # 1) =
    zeta^{t w(m)} (m # g^t) with w = ``monomial_weight``, the left factor
    is f_i (m # 1) = m # f_a with a = i + w(m) mod n, where m # f_a stands
    for sum_t (zeta^{at} / n) (m # g^t).  Orthogonality f_a f_j =
    delta_{aj} f_j (``build_idempotents``) then gives
    f_i (m # 1) f_j = delta_{aj} m # f_j: each m adds one row, to corner
    (i, a) only.  Rows of distinct m have disjoint support (their keys
    carry m), so each corner's rank is its number of rows, which is
    counted, with no product and no elimination.  Three checks carry the
    count, and each raises AssertionError when it fails:

    - both rules of R are weight-homogeneous, so g acts by algebra
      automorphisms and the left-factor identity, once it holds for the
      generators, holds for every monomial;
    - the left-factor identity holds for every i and for the generators
      of degree at most k (1 at k = 0; 1, d and u after), each side
      formed by the coded smash product;
    - w(m) is #u - #d of m's word for every degree-k monomial counted.
    """
    _check_generators(n, k, fs)
    return _weight_class_counts(n, k)


def _check_generators(n: int, k: int, fs: list[Coded]) -> None:
    """Raise AssertionError unless R's rules are weight-homogeneous and
    f_i (m # 1) = m # f_(i+w(m)) for every i and generator m of degree at most k."""
    for lhs, rhs in _r_tables().rules:
        for word, _ in rhs:
            if _word_weight(_letters(word)) != _word_weight(_letters(lhs)):
                raise AssertionError(f"R rule {_letters(lhs)} has the rhs term "
                                     f"{_letters(word)} of another weight")
    for i in range(n):
        for m in _GENERATORS[:1 if k == 0 else 3]:
            left = _coded_product(n, fs[i], _monomial(m))
            den, f = fs[(i + monomial_weight(m)) % n]
            if not _agree(n, left, (den, {(m, t, e): c for (_, t, e), c in f.items()})):
                raise AssertionError(f"f_i (m # 1) != m # f_(i+w(m)) at i={i}, m={m}")


def _weight_class_counts(n: int, k: int) -> list[list[int]]:
    """#{m of degree k : w(m) = j - i mod n} for every (i, j); w is checked against #u - #d."""
    by_weight = [0] * n
    for m in normal_shapes(k):
        w = monomial_weight(m)
        if w != _word_weight(_monomial_word(m)):
            raise AssertionError(f"monomial_weight(m) != #u - #d at m={m}")
        by_weight[w % n] += 1
    return [[by_weight[(j - i) % n] for j in range(n)] for i in range(n)]


def verify_quotient_match(n: int, params: Parameters | None = None, max_degree: int = 4) -> SkewGroupReport:
    """Identities, relation matching, and degreewise corner dimensions.

    (a) checks D_{i-1}U_{i-1}U_i + U_iU_{i+1}D_{i+1} = 0 and
    D_iD_{i-1}U_{i-1} + U_{i+1}D_{i+1}D_i = 0; (b) tests which constant
    beta in {1, -1} makes u_i -> U_i, d_i -> D_i kill the relations of
    H(0, beta, 0), that is A - beta B = 0 for each pair (A, B) above, so
    the identities of (a) are the case beta = -1 of (b) and
    ``proof_identities_ok`` is ``relation_kill[-1]``; (c) compares
    dim f_i B_k f_j per degree k with the quiver down-up dimension matrix.
    The products f_i (m # 1) f_j over the degree-k monomials m span the
    corner (``check_group_absorption``), and each is delta_{a j} m # f_j
    with a = i + w(m), so the dimension is the number of degree-k
    monomials of weight j - i mod n (``corner_dimensions``, which checks
    the three hypotheses of that count: the left-factor identity on the
    generators, w = #u - #d, and weight-homogeneous rules of R); (d)
    checks that the map is onto: sum_i U_i = u#1 and sum_i D_i = d#1, and
    the n orthogonal nonzero idempotents f_i span the group algebra, so
    the image contains generators of B.  Every check reads the one list of
    coded f_i that ``build_idempotents`` checked.  Every product is taken
    on the coded form and every comparison is made after reduction mod
    Phi_n (``_agree``).
    Raises AssertionError if an internal cross-check fails.
    """
    if n < 2:
        raise ValueError("skew-group verification needs n >= 2")
    if n > 12:
        raise ValueError("n capped at 12 for cyclotomic checks")
    if params is not None:
        if params.n != n:
            raise ValueError("parameter length disagrees with n")
        if any(a != 0 for a in params.alpha) or not params.gamma_is_zero():
            raise ValueError("skew-group comparison needs alpha = gamma = 0")
    fs = build_idempotents(n)  # raises if orthogonality/completeness fail
    check_group_absorption(n, fs)
    us, ds, forms_agree = _coded_caps(n, fs)

    # D_i U_i and U_i D_i are shared by the two relations at each vertex
    # (the product is associative, and sides are compared after reduction).
    du = [_coded_product(n, ds[i], us[i]) for i in range(n)]
    ud = [_coded_product(n, us[i], ds[i]) for i in range(n)]
    sides = []
    for i in range(n):
        h, j = (i - 1) % n, (i + 1) % n
        sides.append((_coded_product(n, du[h], us[i]), _coded_product(n, us[i], ud[j])))
        sides.append((_coded_product(n, ds[i], du[h]), _coded_product(n, ud[j], ds[i])))
    relation_kill = {const: all(_agree(n, a, b, const) for a, b in sides)
                     for const in (1, -1)}

    matched = Parameters.of(n, [0] * n, [-1] * n, [0] * n)
    expected_by_degree = dimension_matrices(build_system(PRESET_QDU, matched), max_degree)
    # ``corner_dimensions`` for every degree, with its checks made once.
    _check_generators(n, max_degree, fs)
    mismatch = None
    for k, expected in enumerate(expected_by_degree):
        found = _weight_class_counts(n, k)
        mismatch = next(((k, i, j, expected[i][j], found[i][j])
                         for i in range(n) for j in range(n)
                         if found[i][j] != expected[i][j]), None)
        if mismatch is not None:
            break
    for caps, gen in ((us, (1, 0, 0)), (ds, (0, 0, 1))):
        if not _agree(n, _coded_sum(caps), _monomial(gen)):
            raise AssertionError(f"the map is not onto: sum of caps != {_monomial_word(gen)}#1")
    return SkewGroupReport(n, max_degree, True, forms_agree,
                           relation_kill[-1], relation_kill, mismatch is None, mismatch)
