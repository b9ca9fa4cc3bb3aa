"""Superpotential and diagonal-map verification, property reports, and the
non-noetherian ascending chain.

The degree-4 potential is Omega = sum_i [d_i d_{i-1} u_{i-1} u_i]
- alpha_i [d_i u_i d_i u_i], where [p] is the compact form: the sum of the
distinct signed twists of p under the map sending a_1...a_d to
(-1)^{d+1} w(a_d) * a_d a_1 ... a_{d-1}, with w the diagonal weight of the
moved arrow.  Two weight families are first-class: the printed weights
(u_i, d_i both weighted beta_{i-1}) and the balanced weights
(u_i -> beta_{i-1} u_i, d_i -> beta_{i-1}^{-1} d_i), which keep every
twist orbit closed with scalar 1 for arbitrary nonzero beta.  Twist
weights are diagonal maps (``DiagonalMapSpec``) with the identity
relabeling; Nakayama candidates and isomorphism witnesses are diagonal maps
too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .core import (
    NONZERO_NUMERATORS,
    Arrow,
    Element,
    Parameters,
    Path,
    Sampler,
    down,
    map_element,
    path_from_arrows,
    path_from_word,
    trivial_path,
    up,
)
from .linalg import RowSpace, spans_equal
from .rewrite import (
    PRESET_QDU,
    _RuleTables,
    _add_scaled,
    _normal_times,
    _qdu_system,
    _tables,
    basis_from,
    build_system,
    coded_shape,
    ensure_confluent,
    normal_form,  # noqa: F401 - perfbench's tracer test checks this binding is wrapped
    normal_product,
)

# ---------------------------------------------------------------------------
# Named path constructors
# ---------------------------------------------------------------------------

def up_cycle_path(n: int, i: int) -> Path:
    """The full up-cycle u_i u_{i+1} ... u_{i-1+n} at vertex i."""
    return path_from_word(n, i % n, "u" * n)


# ---------------------------------------------------------------------------
# Twisted superpotential
# ---------------------------------------------------------------------------

def paper_twist_weights(params: Parameters) -> DiagonalMapSpec:
    """u_i and d_i both weighted by beta_{i-1}."""
    n = params.n
    w = tuple(params.beta[(i - 1) % n] for i in range(n))
    if any(x == 0 for x in w):
        raise ValueError("twist weights need nonzero beta")
    return DiagonalMapSpec(n, False, 0, w, w)


def balanced_twist_weights(params: Parameters) -> DiagonalMapSpec:
    """u_i -> beta_{i-1} u_i and d_i -> beta_{i-1}^{-1} d_i.

    Every twist orbit of the potential closes with scalar 1 under these
    weights, and the leading-arrow derivatives recover the defining
    relations exactly, for arbitrary nonzero beta.
    """
    n = params.n
    if not params.beta_all_nonzero():
        raise ValueError("twist weights need nonzero beta")
    uw = tuple(params.beta[(i - 1) % n] for i in range(n))
    dw = tuple(1 / params.beta[(i - 1) % n] for i in range(n))
    return DiagonalMapSpec(n, False, 0, uw, dw)


def _twist_term(weights: DiagonalMapSpec, p: Path, coeff: Fraction, degree: int) -> tuple[Path, Fraction]:
    if p.source != p.target:
        raise ValueError("twist is defined on cycles only")
    last = p.arrows[-1]
    sign = Fraction(1) if degree % 2 else Fraction(-1)  # (-1)^{d+1}
    moved = Path(p.n, last.source(p.n), (last,) + p.arrows[:-1])
    weight, _ = weights.arrow_image(last)
    return moved, coeff * sign * weight


def twist_element(weights: DiagonalMapSpec, a: Element, degree: int) -> Element:
    terms: dict[Path, Fraction] = {}
    for p, c in a.terms.items():
        q, cq = _twist_term(weights, p, c, degree)
        terms[q] = terms.get(q, Fraction(0)) + cq
    return Element(a.n, terms)


def _compact_form(weights: DiagonalMapSpec, p: Path) -> tuple[Element, Fraction]:
    """Sum of the distinct signed twists of p; also the orbit-closure scalar.

    The orbit is followed for one full rotation period (deg p steps);
    exact repeats are summed once.  The closure scalar is the factor by
    which the final twist differs from the starting term.
    """
    d = p.length
    seen: set[tuple[Path, Fraction]] = set()
    terms: dict[Path, Fraction] = {}
    cur = (p, Fraction(1))
    for _ in range(d):
        if cur not in seen:
            seen.add(cur)
            terms[cur[0]] = terms.get(cur[0], Fraction(0)) + cur[1]
        cur = _twist_term(weights, cur[0], cur[1], d)
    if cur[0] != p:
        raise AssertionError("twist orbit did not return to the starting word")
    return Element(p.n, terms), cur[1]


@dataclass
class SuperpotentialResult:
    omega: Element
    closure_scalars: dict[tuple[str, int], Fraction]

    @property
    def all_orbits_closed(self) -> bool:
        return all(c == 1 for c in self.closure_scalars.values())


def build_superpotential(params: Parameters, weights: DiagonalMapSpec) -> SuperpotentialResult:
    """Expand the compact-form potential and report orbit closure."""
    n = params.n
    parts: list[tuple[Element, Fraction]] = []
    closures: dict[tuple[str, int], Fraction] = {}
    for i in range(n):
        # d_i d_{i-1} u_{i-1} u_i, a cycle at vertex i+1
        square = path_from_arrows(n, (down(i, n), down(i - 1, n), up(i - 1, n), up(i, n)))
        form, closure = _compact_form(weights, square)
        closures[("dduu", i)] = closure
        parts.append((form, 1))
        # d_i u_i d_i u_i, weighted by -alpha_i
        zigzag = path_from_arrows(n, (down(i, n), up(i, n), down(i, n), up(i, n)))
        form, closure = _compact_form(weights, zigzag)
        closures[("dudu", i)] = closure
        parts.append((form, -params.alpha[i]))
    return SuperpotentialResult(Element.combine(n, parts), closures)


@dataclass
class TwistInvarianceReport:
    invariant: bool
    defect: Element


def check_twist_invariance(omega: Element, weights: DiagonalMapSpec) -> TwistInvarianceReport:
    if omega.is_zero():
        return TwistInvarianceReport(True, omega)
    degrees = omega.degrees()
    if len(degrees) != 1:
        raise ValueError("twist invariance needs a homogeneous element")
    (d,) = degrees
    defect = twist_element(weights, omega, d) - omega
    return TwistInvarianceReport(defect.is_zero(), defect)


def cyclic_derivative(omega: Element, a: Arrow) -> Element:
    """Delete a leading arrow equal to ``a``; zero on other terms."""
    terms: dict[Path, Fraction] = {}
    for p, c in omega.terms.items():
        if p.arrows and p.arrows[0] == a:
            q = Path(p.n, p.arrows[0].target(p.n), p.arrows[1:])
            terms[q] = terms.get(q, Fraction(0)) + c
    return Element(omega.n, terms)


def check_derivation_quotient(omega: Element, params: Parameters) -> bool:
    """span{d_a Omega : a in Q_1} == span{defining relations}, exactly.

    Both spans live in the degree-3 homogeneous component of the free
    path algebra; gamma must be zero.
    """
    if not params.gamma_is_zero():
        raise ValueError("derivation-quotient comparison requires gamma = 0")
    n = params.n
    arrows = [up(i, n) for i in range(n)] + [down(i, n) for i in range(n)]
    derivatives = [cyclic_derivative(omega, a) for a in arrows]
    relations = build_system(PRESET_QDU, params).relation_elements()
    return spans_equal([d.coded()[1] for d in derivatives], [r.coded()[1] for r in relations])


# ---------------------------------------------------------------------------
# Diagonal graded maps (twist weights, Nakayama candidates, iso witnesses)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalMapSpec:
    """A graded map sending each arrow to a scalar multiple of an arrow.

    The vertex map is v -> shift + v, which sends u_i -> u_{shift+i} and
    d_i -> d_{shift+i}, or with ``reflect`` v -> shift - v, which sends
    u_i -> d_{shift-i-1} and d_i -> u_{shift-i-1}.  The images of u_i and
    d_i are scaled by u_scalars[i] and d_scalars[i].
    """

    n: int
    reflect: bool
    shift: int
    u_scalars: tuple[Fraction, ...]
    d_scalars: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.u_scalars) != self.n or len(self.d_scalars) != self.n:
            raise ValueError("scalar vectors must have length n")
        if any(c == 0 for c in self.u_scalars + self.d_scalars):
            raise ValueError("diagonal map scalars must be nonzero")

    def vertex_image(self, v: int) -> int:
        return (self.shift - v) % self.n if self.reflect else (self.shift + v) % self.n

    def arrow_image(self, a: Arrow) -> tuple[Fraction, Arrow]:
        scalar = self.u_scalars[a.index] if a.family == "u" else self.d_scalars[a.index]
        if not self.reflect:
            idx = (a.index + self.shift) % self.n
            return scalar, Arrow(a.family, idx)
        idx = (self.shift - a.index - 1) % self.n
        return scalar, Arrow("d" if a.family == "u" else "u", idx)

    def apply(self, a: Element) -> Element:
        return map_element(a, self.vertex_image, self.arrow_image)


def paper_nakayama(params: Parameters) -> DiagonalMapSpec:
    """u_i -> -beta_{i-1}^{-1} u_i and d_i -> -beta_{i-1}^{-1} d_i."""
    n = params.n
    if not params.beta_all_nonzero():
        raise ValueError("Nakayama candidates need nonzero beta")
    w = tuple(-1 / params.beta[(i - 1) % n] for i in range(n))
    return DiagonalMapSpec(n, False, 0, w, w)


def derived_nakayama(params: Parameters) -> DiagonalMapSpec:
    """u_i -> -beta_i^{-1} u_i and d_i -> -beta_i d_i.

    Scales relation rho1_i by -beta_i^{-1} and rho2_i by -beta_i, hence
    preserves the relation spans for every nonzero beta.
    """
    n = params.n
    if not params.beta_all_nonzero():
        raise ValueError("Nakayama candidates need nonzero beta")
    uw = tuple(-1 / params.beta[i] for i in range(n))
    dw = tuple(-params.beta[i] for i in range(n))
    return DiagonalMapSpec(n, False, 0, uw, dw)


@dataclass
class DiagonalMapReport:
    ok: bool
    per_relation: list[dict]


def check_diagonal_map(spec: DiagonalMapSpec, src: Parameters, tgt: Parameters) -> DiagonalMapReport:
    """Image of every defining relation of H(src) must lie in the span of
    the defining relations of H(tgt) (filtered degree <= 3 when gamma != 0).

    When an image is exactly a scalar multiple of a single target
    relation, that scalar is reported.
    """
    src_rels = build_system(PRESET_QDU, src).relation_elements()
    tgt_rels = build_system(PRESET_QDU, tgt).relation_elements()
    images = [spec.apply(r) for r in src_rels]
    target = RowSpace()
    for rel in tgt_rels:
        target.add(rel.coded()[1])
    details = []
    ok = True
    for idx, img in enumerate(images):
        member = target.contains(img.coded()[1])
        ok = ok and member
        scalar = None
        proportional_to = None
        for jdx, rel in enumerate(tgt_rels):
            common = next((p for p in rel.terms if p in img.terms), None)
            if common is None:
                continue
            c = img.terms[common] / rel.terms[common]
            if rel.scale(c) == img:
                scalar = c
                proportional_to = jdx
                break
        details.append({
            "relation": idx,
            "in_span": member,
            "proportional_to": proportional_to,
            "scalar": scalar,
        })
    return DiagonalMapReport(ok, details)


# ---------------------------------------------------------------------------
# Property report (noetherian / PWD / polynomial subalgebra)
# ---------------------------------------------------------------------------

def _zero_divisor(params: Parameters, i: int) -> Element:
    """a_i = d_{i-1} u_{i-1} - alpha_i u_i d_i - gamma_i e_i at vertex i.

    When beta_i = 0, a_i u_i = 0 in H, so a_i is a left zero divisor.
    """
    n = params.n
    return (
        Element.from_path(path_from_word(n, i, "du"))
        - Element.from_path(path_from_word(n, i, "ud"), params.alpha[i])
        - Element.from_path(trivial_path(n, i), params.gamma[i])
    )


@dataclass
class PropertyReport:
    beta_nonzero: bool
    noetherian: bool
    pwd: bool
    polynomial_subalgebra: bool
    witnesses: list[dict]
    checks_passed: bool


SUBALGEBRA_DEGREE = 4


def _subalgebra_monomials(tables: _RuleTables, i: int):
    """x^a y^b at vertex i for a + b <= ``SUBALGEBRA_DEGREE``, x = u_i d_i and
    y = d_{i-1} u_{i-1}, as coded combinations over a power of D, each one
    ``_normal_times`` step from one before it.  Every word starts at i."""
    n = tables.n
    gen_x = tables.encode(path_from_word(n, i, "ud"))
    gen_y = tables.encode(path_from_word(n, i, "du"))
    xe, x_power = 0, {1: 1}  # e_i
    for a in range(SUBALGEBRA_DEGREE + 1):
        if a:
            xe, x_power = _normal_times(tables, x_power, xe, gen_x)
        e, monomial = xe, x_power
        yield monomial
        for _ in range(SUBALGEBRA_DEGREE - a):
            e, monomial = _normal_times(tables, monomial, e, gen_y)
            yield monomial


def property_report(params: Parameters) -> PropertyReport:
    """Flags follow the beta criterion; every flag is backed by a witness.

    With all beta_i nonzero the subalgebra k[u_i d_i, d_{i-1} u_{i-1}] is
    certified free up to degree ``SUBALGEBRA_DEGREE``: the monomials x^a y^b
    at vertex i are built on int-coded words (``_subalgebra_monomials``)
    and added as they come to one int ``RowSpace``, up to the first
    dependent one.  With a zero beta_i the zero-divisor pair and the
    algebraic dependence are certified instead.
    """
    n = params.n
    sys = ensure_confluent(build_system(PRESET_QDU, params))
    flag = params.beta_all_nonzero()
    witnesses: list[dict] = []
    checks = True
    if flag:
        tables = _tables(sys)
        for i in range(n):
            space = RowSpace()
            independent = all(space.add(m) for m in _subalgebra_monomials(tables, i))
            checks = checks and independent
            witnesses.append({"vertex": i, "kind": "free-subalgebra", "ok": independent})
    else:
        for i in range(n):
            if params.beta[i] != 0:
                continue
            a = _zero_divisor(params, i)
            b = Element.from_path(path_from_word(n, i, "u"))
            d_i = Element.from_path(path_from_word(n, (i + 1) % n, "d"))
            left_zero = normal_product(sys, a, b).is_zero()
            right_zero = normal_product(sys, d_i, a).is_zero()
            dependence = normal_product(sys, a, Element.from_path(path_from_word(n, i, "ud"))).is_zero()
            checks = checks and left_zero and right_zero and dependence
            witnesses.append({
                "vertex": i,
                "kind": "zero-divisor",
                "left": str(a),
                "right": str(b),
                "product_zero": left_zero,
                "mirror_zero": right_zero,
                "dependence_zero": dependence,
            })
    return PropertyReport(flag, flag, flag, flag, witnesses, checks)


# ---------------------------------------------------------------------------
# Non-noetherian ascending chain
# ---------------------------------------------------------------------------

@dataclass
class ChainReport:
    vertex: int
    s_max: int
    generator: str
    up_cycle: str
    annihilation_ok: bool
    strict_inclusions: list[tuple[int, bool]]
    support_pattern_ok: bool

    @property
    def ok(self) -> bool:
        return (self.annihilation_ok and self.support_pattern_ok
                and all(strict for _, strict in self.strict_inclusions))


def noetherian_chain_check(params: Parameters, i: int | None = None, s_max: int = 3,
                           degree_bound: int | None = None) -> ChainReport:
    """Certify the strictly ascending chain of right ideals when beta_i = 0.

    With U the full up-cycle at i and g = alpha_i u_i d_i + gamma_i e_i
    - d_{i-1} u_{i-1}, the ideals I_s = sum_{m<=s} U^m g A satisfy
    I_s != I_{s+1}: U^{s+1} g is not in the degree-bounded span of the
    normal forms of U^m g b over basis monomials b from i.  The span for
    U^m g takes b up to degree ``degree_bound`` - mn - 2, so the basis is
    enumerated up to ``degree_bound`` - n - 2 only (the bound at m = 1).
    Also checks the annihilation U g u_m = 0 for every vertex m and the
    support pattern of the spanning products (u-runs are mn or mn+1).

    The generators U^m g are int-coded once and the basis words come
    coded (``basis_from``); each spanning product is one ``_normal_times``
    call, its support is read on the coded words (``coded_shape``), and
    it is added to the int ``RowSpace`` as it is, over its power of D.
    """
    n = params.n
    if i is None:
        i = next((k for k in range(n) if params.beta[k] == 0), None)
        if i is None:
            raise ValueError("no beta_i = 0; the chain construction requires one")
    if params.beta[i] != 0:
        raise ValueError(f"beta_{i} must be zero")
    target_degree = (s_max + 1) * n + 2
    if degree_bound is None:
        degree_bound = target_degree
    if degree_bound < target_degree:
        raise ValueError("degree bound too small for the requested s_max")
    sys = ensure_confluent(build_system(PRESET_QDU, params))
    u_cycle = Element.from_path(up_cycle_path(n, i))
    g = -_zero_divisor(params, i)
    u_g = normal_product(sys, u_cycle, g)
    annihilation_ok = all(
        normal_product(sys, u_g, Element.from_path(path_from_word(n, m, "u"))).is_zero()
        for m in range(n)
    )
    generators = []
    acc = Element.from_path(trivial_path(n, i))
    for _ in range(s_max + 1):
        acc = normal_product(sys, acc, u_cycle)
        generators.append(normal_product(sys, acc, g))

    tables = _tables(sys)
    coded = [{tables.encode(p): c for p, c in gen.coded()[1].items()} for gen in generators]
    basis_by_degree = basis_from(sys, i, degree_bound - n - 2)
    support_ok = True
    # One elimination kept across s: I_s grows from I_{s-1}, so each
    # spanning product is added once.
    space = RowSpace()
    strict = []
    for s in range(1, s_max + 1):
        m = s
        g_m = coded[m - 1]
        max_b = degree_bound - m * n - 2
        for k in range(max_b + 1):
            for b in basis_by_degree[k]:
                _, product = _normal_times(tables, g_m, 0, b)
                if not product:
                    continue
                for w in product:
                    a_run, j_pairs, c_run = coded_shape(n, w)
                    if a_run == m * n:
                        if params.gamma[i] == 0 and j_pairs == 0:
                            support_ok = False
                    elif a_run == m * n + 1:
                        if c_run == 0:
                            support_ok = False
                    else:
                        support_ok = False
                space.add(product)
        strict.append((s, not space.contains(coded[s])))
    return ChainReport(i, s_max, str(g), str(up_cycle_path(n, i)), annihilation_ok,
                       strict, support_ok)


# ---------------------------------------------------------------------------
# Piecewise-domain probe on H itself
# ---------------------------------------------------------------------------

@dataclass
class PwdHReport:
    trials: int
    tested: int
    seed: int
    beta_nonzero: bool
    ok: bool
    failures: list
    counterexample: tuple[str, str] | None


def pwd_probe_H(params: Parameters, degree_bound: int = 5, trials: int = 200,
                seed: int = 0) -> PwdHReport:
    """Sample sandwiched products in H and test whether any vanishes.

    With all beta_i nonzero every product must be nonzero, and at least
    one product must have been tested (a trial whose corner pool is empty
    tests nothing); with some beta_i = 0 the deterministic zero-divisor
    pair is exhibited as well.

    The trials run on int-coded words (``rewrite._RuleTables``).  A corner
    pool holds the normal words of degree <= ``degree_bound`` from one
    vertex to another, as ``basis_from`` walks them; a factor, distinct
    pool words, is its own normal form.  Each trial's zero test is
    ``_product_vanishes`` (top degree first, in gr H = H(alpha, beta, 0));
    only a zero product's factors are decoded, for ``failures``.
    """
    n = params.n
    sys = ensure_confluent(build_system(PRESET_QDU, params))
    tables = _tables(sys)
    graded = _graded_tables(params, tables)
    pools: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        for words in basis_from(sys, v, degree_bound):
            for w in words:
                pools.setdefault((v, tables.target(v, w)), []).append(w)
    rng = Sampler(seed)
    beta_ok = params.beta_all_nonzero()
    failures = []
    tested = 0
    for t in range(trials):
        i, k, j = rng.below(n), rng.below(n), rng.below(n)
        pool_a, pool_b = pools.get((i, k), []), pools.get((k, j), [])
        if not pool_a or not pool_b:
            continue
        a = _coded_combination(pool_a, rng)
        b = _coded_combination(pool_b, rng)
        tested += 1
        if _product_vanishes(tables, graded, a, b):
            failures.append((t, str(tables.element(i, 6, a)), str(tables.element(k, 6, b))))
    counterexample = None
    if not beta_ok:
        bad = next(k for k in range(n) if params.beta[k] == 0)
        a = _zero_divisor(params, bad)
        b = Element.from_path(path_from_word(n, bad, "u"))
        if normal_product(sys, a, b).is_zero():
            counterexample = (str(a), str(b))
    ok = (not failures and tested > 0) if beta_ok else (counterexample is not None)
    return PwdHReport(trials, tested, seed, beta_ok, ok, failures, counterexample)


def _graded_tables(params: Parameters, tables: _RuleTables) -> _RuleTables:
    """The tables of gr H = H(alpha, beta, 0), unchecked (the lemma compares kernel steps)."""
    zero = (Fraction(0),) * params.n
    return tables if params.gamma_is_zero() else _tables(_qdu_system(replace(params, gamma=zero)))


def _product_vanishes(tables: _RuleTables, graded: _RuleTables, a: dict[int, int],
                      b: dict[int, int]) -> bool:
    """Whether NF(a·b) = 0 in H, for combinations a, b of normal words (numerators only).

    Top-degree lemma: each rule's alpha and beta words have the degree of
    its leading word, its gamma word is two degrees lower, and no rule
    raises degree.  ``graded`` (gr H = H(alpha, beta, 0)) has the same
    leading words, so each kernel step, projected onto the top degree, is
    the same step in its tables.  So with a_top, b_top the parts of a, b
    of top length D_a, D_b (words of one length have one bit length), the
    degree-(D_a + D_b) part of NF_H(a·b), which no pair of words not both
    of top length reaches, is NF_gr(a_top·b_top) as rationals.  A nonzero
    one means a nonzero product; only a vanishing one (a gamma term can
    leave a lower degree) takes the full product in H, already taken when
    gamma = 0 and a, b are their own top parts.
    """
    top_a, top_b = max(w.bit_length() for w in a), max(q.bit_length() for q in b)
    a_top = {w: c for w, c in a.items() if w.bit_length() == top_a}
    b_top = {q: c for q, c in b.items() if q.bit_length() == top_b}
    product = _coded_times(graded, a_top, b_top)
    if any(product.values()):
        return False
    if graded is not tables or len(a_top) < len(a) or len(b_top) < len(b):
        product = _coded_times(tables, a, b)
    return not any(product.values())


def _coded_times(tables: _RuleTables, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """NF(a·b) for combinations a, b of normal words, up to a power of D; zero sums left in.

    The sum over the words q of b of c_q NF(a·q), each taken one arrow of
    q at a time from the right as in ``normal_product`` (Bergman's diamond
    lemma makes the result the normal form).
    """
    D = tables.denominator
    product: dict = {}
    e = 0
    for q, c in b.items():
        pe, part = _normal_times(tables, a, 0, q)
        e = _add_scaled(product, e, part, pe, c, D)
    return product


def _coded_combination(pool: list[int], rng: Sampler) -> dict[int, int]:
    """1 to 3 distinct words of ``pool`` with random nonzero coefficients, coded.

    Each coefficient c/q with q in {1, 2, 3} is the numerator c * (6 / q)
    over 6; c is drawn before q, word by word in sampled order.
    """
    size = rng.randint(1, min(3, len(pool)))
    return {w: rng.choice(NONZERO_NUMERATORS) * (6 // rng.randint(1, 3))
            for w in rng.sample(pool, size)}
