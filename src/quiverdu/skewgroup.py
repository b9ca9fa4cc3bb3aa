"""The graded down-up algebra smashed with a cyclic group, over cyclotomics.

R = k<u, d | d^2u + ud^2, du^2 + u^2d>, the quiver down-up algebra at
n = 1 with alpha = gamma = 0 and beta = -1 (``GRADED_DOWN_UP``), has normal
monomial basis u^a (du)^b d^c; the generator g of Z_n acts by
g(u) = zeta u, g(d) = zeta^{-1} d, so g scales a monomial by
zeta^(#u - #d).  The smash product multiplies by
(r # g^i)(s # g^j) = r g^i(s) # g^{i+j}.  R's rules are confluent, a fact
of one fixed algebra that the tests pin, so no check of it runs here.

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

Every vertex-indexed check runs at vertex 0 only, and the character twist
phi_i (``_twist``: x^k (m # g^j) -> x^(k + ij) (m # g^j), the map
g -> zeta^i g) carries it to vertex i.  Four facts make that sound:

- phi_i is an algebra automorphism of the coded smash algebra over
  Z[x]/(x^n - 1): it adds ij to the exponent of every term of group
  exponent j, and a product adds the group exponents, so
  phi_i(ab) = phi_i(a) phi_i(b) on coded forms; phi_(n - i) inverts it;
- it commutes with reduction mod Phi_n: it multiplies each
  (monomial, j) group by the unit x^(ij), so a group vanishes mod Phi_n
  exactly when its image does, and ``_agree`` gives the same answer on
  both sides of any comparison and on their phi_i images;
- it fixes every m # 1, so u#1, d#1 and each m # 1 of the generator
  check are their own images;
- phi_i(f_k) = f_(k+i), checked exactly on the coded f's for i = 1 and
  every k (``build_idempotents``); phi_i is phi_1 applied i times.

So each identity at vertex i is the phi_i image of its vertex-0 form,
and holds exactly when that form does: f_0 f_j = delta_0j f_0 gives
f_i f_(i+j) = delta_0j f_i; g f_0 = f_0 gives g^t f_j = zeta^(-tj) f_j;
U_0 = f_0 (u#1) = (u#1) f_1 and D_0 = (d#1) f_0 = f_1 (d#1) give the caps
U_i = phi_i(U_0) and D_i = phi_i(D_0) in both forms; the two relations at
vertex 0 give those at vertex i; and f_0 (m # 1) = m # f_w(m) gives
f_i (m # 1) = m # f_(i+w(m)).  A check costs n + 14 coded products, in
place of the 2n^2 + 13n that checking every vertex by product took.

The corner dimensions need no count (I. Reiten, C. Riedtmann, *Skew
group algebras in the representation theory of Artin algebras*,
J. Algebra 1985).  Count lemma: dim f_i B_k f_j and the entry (H_k)_ij of
the quiver down-up dimension matrix with alpha = gamma = 0, beta = -1
both count the degree-k shapes u^a (du)^b d^c with a - c = j - i mod n,
so ``dimensions_match`` holds in every degree k:

- the products f_i (m # 1) f_j over the degree-k monomials m span the
  corner (``check_group_absorption``); each is delta_(i+w(m), j) m # f_j,
  since f_i (m # 1) = m # f_(i+w(m)) and f_a f_j = delta_aj f_j, and rows
  of distinct m have disjoint support (their keys carry m), so the
  dimension is the number of m with w(m) = a - c = j - i mod n;
- from vertex i the normal words of H(0, -1, 0) are u^a (du)^b d^c,
  ending at i + a - c (the shape lemma of ``rewrite.dimension_matrices``),
  because its leading words are one ``duu`` and one ``ddu`` from every
  vertex; ``rewrite._qdu_specs`` writes the same leading words for every
  parameter vector, zero entries included, so no system is built here.

The first side rests on three facts, checked on every call by
``_check_generators``, each an AssertionError when it fails: both rules
of R are weight-homogeneous, so g acts by algebra automorphisms and the
left-factor identity extends from the generators to every m;
f_i (m # 1) = m # f_(i+w(m)) for every i and m in {1, d, u}, by the coded
product at i = 0 and by phi_i at every other i; and w(m) = #u - #d on
every shape of degree at most 2.  Both sides of that last one are
additive over u^a (du)^b d^c and ``monomial_weight`` reads a - c, so the
shapes u, du and d fix it in every degree.  No degree is counted, and
``max_degree`` is only echoed.  ``verify_quotient_match`` also checks
that u_i -> U_i, d_i -> D_i, e_i -> f_i is onto (sum_i U_i = u#1,
sum_i D_i = d#1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import Parameters, add_into
from .cyclotomic import power_residue
from .rewrite import PRESET_QDU, _normal_times, _tables, build_system, coded_shape, normal_shapes

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
# (``rewrite._arrow_rank``) of d is 0 and that of u is 1, one bit each
# after the sentinel 1, so a word is its letters written in binary.
def _packed(m: RMonomial) -> int:
    """The word of u^a (du)^b d^c: the sentinel, a ones, b copies of 01, c zeros."""
    a, b, c = m
    return (((2 << a) - 1) << 2 * b | (4 ** b - 1) // 3) << c


def _letters(word: int) -> str:
    return bin(word)[3:].replace("0", "d").replace("1", "u")


def _r_tables():
    # R's confluence is a constant, pinned by
    # tests/test_skewgroup.py::test_r_is_confluent, so it is not checked here.
    return _tables(build_system(PRESET_QDU, GRADED_DOWN_UP))


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
    e, comb = _normal_times(_r_tables(), {_packed(m1): 1}, 0, _packed(m2))
    if e or not all(type(c) is int for c in comb.values()):
        raise AssertionError(f"R-monomial product {m1} * {m2} has a non-int coefficient")
    return tuple(sorted((coded_shape(1, w), c) for w, c in comb.items()))


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
    right: dict = {}  # b's terms by monomial: each R-product is looked up once per pair of monomials
    for (m2, j2, k2), c2 in tb.items():
        right.setdefault(m2, []).append((j2, k2, c2))
    out: dict = {}
    for (m1, j1, k1), c1 in ta.items():
        for m2, terms in right.items():
            # g^j1 scales u^a (du)^b d^c by x^(j1 (a - c)), read here from the
            # definition of the action and not through ``monomial_weight``, so
            # the left-factor check of ``_check_generators`` compares two
            # independent computations of the weight.
            shift, prod = k1 + j1 * (m2[0] - m2[2]), r_monomial_product(m1, m2)
            for j2, k2, c2 in terms:
                j, k, c = (j1 + j2) % n, (shift + k2) % n, c1 * c2
                for m, q in prod:
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


def _twist(n: int, i: int, a: Coded) -> Coded:
    """phi_i(a): x^k (m # g^j) -> x^(k + ij) (m # g^j), the automorphism g -> zeta^i g.

    It fixes every m # 1, commutes with reduction mod Phi_n (each
    (monomial, j) group is multiplied by the unit x^(ij)) and sends the
    coded f_k to f_(k+i); the module docstring states the argument.
    """
    den, terms = a
    return den, {(m, j, (k + i * j) % n): c for (m, j, k), c in terms.items()}


def _one_power_idempotent(n: int, i: int) -> Coded:
    """f_i = (1/n) sum_t x^(it) # g^t, one power of x per group element."""
    return n, {(_UNIT, t, i * t % n): 1 for t in range(n)}


def build_idempotents(n: int) -> list[Coded]:
    """f_i = (1/n) sum_a zeta^{ia} # g^a; orthogonality and completeness verified.

    Each f_i is built once, coded with one power of x per group element
    (``_one_power_idempotent``), and every later check of the skew-group
    model reads that list.  Three checks, in this order, each an
    AssertionError when it fails:

    - f_0 f_j = delta_0j f_0 for every j, at every group exponent, by the
      coded product compared after reduction mod Phi_n;
    - the f_i sum to the identity;
    - phi_1(f_k) = f_(k+1) for every k, exactly on the coded forms
      (``_twist``), so phi_i(f_k) = f_(k+i) for every i and k.

    Then f_i f_j = phi_i(f_0 f_(j-i)) = phi_i(delta_ij f_0) = delta_ij f_i,
    since phi_i is an automorphism that keeps agreement mod Phi_n: n
    products in place of n^2.
    """
    if n < 2:
        raise ValueError("idempotent decomposition needs n >= 2")
    fs = [_one_power_idempotent(n, i) for i in range(n)]
    zero = (1, {})
    for j in range(n):
        if not _agree(n, _coded_product(n, fs[0], fs[j]), fs[0] if j == 0 else zero):
            raise AssertionError(f"idempotent orthogonality failed at (0,{j})")
    if not _agree(n, _coded_sum(fs), _monomial(_UNIT)):
        raise AssertionError("idempotents do not sum to the identity")
    for k in range(n):
        if _twist(n, 1, fs[k]) != fs[(k + 1) % n]:
            raise AssertionError(f"phi_1(f_k) != f_(k+1) at k={k}")
    return fs


def _coded_caps(n: int, fs: list[Coded]) -> tuple[list[Coded], list[Coded], bool]:
    """Coded U_i = f_i (u#1) and D_i = (d#1) f_i; whether the other forms agree.

    U_0 and D_0 are formed by the coded product and compared with their
    other forms (u#1) f_1 and f_1 (d#1).  phi_i fixes u#1 and d#1 and sends
    f_0 to f_i and f_1 to f_(i+1), so U_i = phi_i(U_0) and D_i = phi_i(D_0),
    and their other forms agree exactly when those of U_0 and D_0 do.
    """
    u, d = _monomial((1, 0, 0)), _monomial((0, 0, 1))
    u0, d0 = _coded_product(n, fs[0], u), _coded_product(n, d, fs[0])
    agree = (_agree(n, u0, _coded_product(n, u, fs[1]))
             and _agree(n, d0, _coded_product(n, fs[1], d)))
    return [_twist(n, i, u0) for i in range(n)], [_twist(n, i, d0) for i in range(n)], agree


@dataclass
class SkewGroupReport:
    n: int
    max_degree: int
    idempotents_ok: bool
    generator_forms_agree: bool
    proof_identities_ok: bool
    relation_kill: dict[int, bool]
    dimensions_ok: bool  # true in every degree by the count lemma (module docstring)

    @property
    def ok(self) -> bool:
        return (self.idempotents_ok and self.generator_forms_agree
                and self.proof_identities_ok
                and self.relation_kill.get(-1, False)
                and not self.relation_kill.get(1, True)
                and self.dimensions_ok)


def check_group_absorption(n: int, fs: list[Coded]) -> None:
    """Raise AssertionError unless g f_0 = f_0; then g^t f_j = zeta^{-tj} f_j for every t and j.

    ``fs`` are the f_i that ``build_idempotents`` checked.  By induction on
    t, g^t f_0 = f_0.  phi_j(g^t) = x^(tj) g^t and phi_j(f_0) = f_j, so the
    phi_j image of g^t f_0 = f_0 is x^(tj) g^t f_j = f_j, which is the
    identity at (t, j).  It gives f_i (m # g^t) f_j = zeta^{-tj} f_i (m # 1) f_j,
    so each spanning product f_i (m # g^t) f_j of a corner is a multiple
    of the one with t = 0, and the products f_i (m # 1) f_j over the
    degree-k monomials m span f_i B_k f_j (the count lemma of the module
    docstring).  The one product checked is the
    case t = 1, j = 0, and a failure is named so.
    """
    if not _agree(n, _coded_product(n, _monomial(_UNIT, 1), fs[0]), fs[0]):
        raise AssertionError("g^t f_j != zeta^(-tj) f_j at t=1, j=0")


# The unit and the generators d, u of R, in that order.
_GENERATORS: tuple[RMonomial, ...] = (_UNIT, (0, 0, 1), (1, 0, 0))


def _check_generators(n: int, fs: list[Coded]) -> None:
    """Raise AssertionError unless the count lemma's three hypotheses hold.

    In this order: R's rules are weight-homogeneous; f_i (m # 1) =
    m # f_(i+w(m)) for every i and m in {1, d, u}; and w = ``monomial_weight``
    is #u - #d of m's word on every shape m of degree at most 2.  The
    identity is checked at i = 0, one coded product
    per generator.  phi_i fixes m # 1 and sends f_a to f_(a+i), and with it
    m # f_a to m # f_(a+i), so the identity at i is the phi_i image of the
    one at 0.
    """
    for lhs, rhs in _r_tables().rules:
        for word, _ in rhs:
            if _word_weight(_letters(word)) != _word_weight(_letters(lhs)):
                raise AssertionError(f"R rule {_letters(lhs)} has the rhs term "
                                     f"{_letters(word)} of another weight")
    for m in _GENERATORS:
        left = _coded_product(n, fs[0], _monomial(m))
        den, f = fs[monomial_weight(m) % n]
        if not _agree(n, left, (den, {(m, t, e): c for (_, t, e), c in f.items()})):
            raise AssertionError(f"f_i (m # 1) != m # f_(i+w(m)) at i=0, m={m}")
    for k in range(3):
        for m in normal_shapes(k):
            if monomial_weight(m) != _word_weight(_monomial_word(m)):
                raise AssertionError(f"monomial_weight(m) != #u - #d at m={m}")


def verify_quotient_match(n: int, params: Parameters | None = None, max_degree: int = 4) -> SkewGroupReport:
    """Identities, relation matching, and corner dimensions in every degree.

    (a) checks D_{i-1}U_{i-1}U_i + U_iU_{i+1}D_{i+1} = 0 and
    D_iD_{i-1}U_{i-1} + U_{i+1}D_{i+1}D_i = 0; (b) tests which constant
    beta in {1, -1} makes u_i -> U_i, d_i -> D_i kill the relations of
    H(0, beta, 0), that is A - beta B = 0 for each pair (A, B) above, so
    the identities of (a) are the case beta = -1 of (b) and
    ``proof_identities_ok`` is ``relation_kill[-1]``; (c) dim f_i B_k f_j
    equals the quiver down-up dimension (H_k)_ij in every degree k by the
    count lemma of the module docstring: both count the degree-k shapes
    u^a (du)^b d^c with a - c = j - i mod n.  ``_check_generators`` checks
    the lemma's three hypotheses on the corner side (weight-homogeneous
    rules of R, the left-factor identity on 1, d and u, and w = #u - #d on
    the shapes of degree at most 2); the leading words of the matched
    system, which fix its side, do not depend on the parameters, so no
    system is built, no degree is counted, and ``max_degree`` is only
    echoed; (d) checks that the map is onto: sum_i U_i = u#1 and
    sum_i D_i = d#1, and the n orthogonal nonzero idempotents f_i span the
    group algebra, so the image contains generators of B.  Every check
    reads the one list of coded f_i that ``build_idempotents`` checked.
    Every product is taken on the coded form and every comparison is made
    after reduction mod Phi_n (``_agree``).  The vertex-indexed checks
    (orthogonality, absorption, the caps' two forms, the relations of (a)
    and (b) and the generator identity) run at vertex 0; vertex i's are
    their images under the twist phi_i, which holds them exactly when
    vertex 0 holds them (module docstring), so n + 14 products decide the
    whole check, whatever ``max_degree`` is.
    Raises AssertionError if an internal cross-check fails.
    """
    if n < 2:
        raise ValueError("skew-group verification needs n >= 2")
    if n > 12:
        raise ValueError("n capped at 12 for cyclotomic checks")
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    if params is not None:
        if params.n != n:
            raise ValueError("parameter length disagrees with n")
        if any(a != 0 for a in params.alpha) or not params.gamma_is_zero():
            raise ValueError("skew-group comparison needs alpha = gamma = 0")
    fs = build_idempotents(n)  # raises if orthogonality/completeness fail
    check_group_absorption(n, fs)
    us, ds, forms_agree = _coded_caps(n, fs)

    # The two relations at vertex 0; those at vertex i are their phi_i
    # images.  D_(n-1) U_(n-1) and U_1 D_1 are shared by both (the product
    # is associative, and sides are compared after reduction).
    du, ud = _coded_product(n, ds[n - 1], us[n - 1]), _coded_product(n, us[1], ds[1])
    sides = ((_coded_product(n, du, us[0]), _coded_product(n, us[0], ud)),
             (_coded_product(n, ds[0], du), _coded_product(n, ud, ds[0])))
    relation_kill = {const: all(_agree(n, a, b, const) for a, b in sides)
                     for const in (1, -1)}

    _check_generators(n, fs)  # the count lemma's hypotheses: dimensions match in every degree
    for caps, gen in ((us, (1, 0, 0)), (ds, (0, 0, 1))):
        if not _agree(n, _coded_sum(caps), _monomial(gen)):
            raise AssertionError(f"the map is not onto: sum of caps != {_monomial_word(gen)}#1")
    return SkewGroupReport(n, max_degree, True, forms_agree, relation_kill[-1], relation_kill, True)
