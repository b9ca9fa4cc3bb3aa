"""Superpotential and diagonal-map verification, property reports, the
non-noetherian ascending chain, and the piecewise-domain verdict on H.

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

These checks run on int rows keyed by (source, packed word), the words of
``rewrite``: Omega, its twists and cyclic derivatives, the defining
relations (``_RuleTables.relation_rows``) and their images under a
diagonal map, which is a map of arrow codes.  Only what a report prints
is decoded: closure scalars, per-relation scalars and a twist defect.

``pwd_proof_H`` decides whether H is a piecewise domain without sampling:
with every beta_i nonzero it reads the proof of ``gwa.verify_gwa``, and
with some beta_i = 0 it exhibits a zero-divisor pair.  ``property_report``
reads the freeness of k[u_i d_i, d_{i-1} u_{i-1}] from the same proof's
theta checks, in every degree, with no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from math import lcm

from .core import Arrow, Element, Parameters, Path, add_into, path_from_word, trivial_path
from .gwa import GwaVerifyReport, theta_checks, verify_gwa
from .linalg import RowSpace, spans_equal
from .rewrite import (PRESET_QDU, _arrow_rank, _codec, _normal_sum, _normal_times, _pack_word, _qdu_system,
                      _RuleTables, _suffix, _tables, _unpack_word, basis_from, build_system, coded_shape,
                      ensure_confluent,
                      normal_form)  # noqa: F401 - perfbench's tracer test checks this binding is wrapped

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


def _twister(weights: DiagonalMapSpec, degree: int):
    """``(Q, twist)``: ``twist`` sends an int row of degree-``degree`` cycles to Q times
    its twist, Q the lcm of the weights' denominators.  a_1...a_d goes to
    (-1)^{d+1} w(a_d) a_d a_1...a_{d-1}: on packed words the last code moves
    to the front, and the source becomes that arrow's."""
    n, codec = weights.n, _codec(weights.n)
    b, arrows = codec.bits, codec.arrows
    Q = lcm(*(q for _, q, _ in weights.code_images))
    scalars = [(1 if degree % 2 else -1) * p * (Q // q) for p, q, _ in weights.code_images]
    k = (degree - 1) * b

    def twist(row: dict) -> dict:
        out: dict = {}
        for (source, word), c in row.items():
            a = word & ((1 << b) - 1)
            if word == 1 or arrows[a].target(n) != source:
                raise ValueError("twist is defined on cycles only")
            key = (arrows[a].source(n), (((1 << b) | a) << k) | ((word >> b) ^ (1 << k)))
            out[key] = out.get(key, 0) + c * scalars[a]
        return out
    return Q, twist


def _compact_form(Q: int, twist, key: tuple[int, int], degree: int) -> tuple[dict, Fraction]:
    """The sum of the distinct signed twists of one word, as an int row over
    Q^(degree - 1), and the orbit-closure scalar: the factor by which the
    twist after one full rotation (deg steps) differs from the word."""
    seen, terms, row = set(), {}, {key: 1}  # row: the j-th twist, over Q^j
    for j in range(degree):
        ((cur, c),) = row.items()
        term = (cur, c * Q ** (degree - 1 - j))
        if term not in seen:  # exact repeats are summed once
            seen.add(term)
            terms[cur] = terms.get(cur, 0) + term[1]
        row = twist(row)
    ((cur, c),) = row.items()
    if cur != key:
        raise AssertionError("twist orbit did not return to the starting word")
    return {k: v for k, v in terms.items() if v}, Fraction(c, Q ** degree)


@dataclass
class SuperpotentialResult:
    """Omega as an int row ``{(source, packed word): numerator}`` over ``den``, and
    each orbit's closure scalar; ``omega`` decodes the row."""

    n: int
    den: int
    words: dict
    closure_scalars: dict[tuple[str, int], Fraction]

    @property
    def omega(self) -> Element:
        return _codec(self.n).decode(self.den, self.words)

    @property
    def all_orbits_closed(self) -> bool:
        return all(c == 1 for c in self.closure_scalars.values())


def build_superpotential(params: Parameters, weights: DiagonalMapSpec) -> SuperpotentialResult:
    """Expand the compact-form potential on packed words and report orbit closure."""
    n = params.n
    Q, twist = _twister(weights, 4)
    acc: list = [1, {}]
    closures: dict[tuple[str, int], Fraction] = {}
    for i in range(n):
        h = (i - 1) % n
        # d_i d_{i-1} u_{i-1} u_i, and d_i u_i d_i u_i weighted by -alpha_i: cycles at i+1
        for family, codes, c in (("dduu", (i, h, n + h, n + i), Fraction(1)),
                                 ("dudu", (i, n + i, i, n + i), -params.alpha[i])):
            key = ((i + 1) % n, _pack_word(codes, _codec(n).bits))
            form, closures[(family, i)] = _compact_form(Q, twist, key, 4)
            add_into(acc, Q ** 3 * c.denominator, form, c.numerator)
    den, words = acc
    return SuperpotentialResult(n, den, {k: c for k, c in words.items() if c}, closures)


def _omega_row(omega: Element | SuperpotentialResult) -> tuple[int, int, dict]:
    """(n, den, int row): Omega as built, or as an Element."""
    if isinstance(omega, SuperpotentialResult):
        return omega.n, omega.den, omega.words
    return omega.n, *_codec(omega.n).row(omega)


@dataclass
class TwistInvarianceReport:
    invariant: bool
    defect: Element


def check_twist_invariance(omega: Element | SuperpotentialResult,
                           weights: DiagonalMapSpec) -> TwistInvarianceReport:
    """Whether twist(Omega) = Omega, on int rows; only the defect is decoded."""
    n, den, row = _omega_row(omega)
    degrees = {(w.bit_length() - 1) // _codec(n).bits for _, w in row}
    if len(degrees) > 1:
        raise ValueError("twist invariance needs a homogeneous element")
    Q, twist = _twister(weights, max(degrees, default=1))
    defect = twist(row)
    for key, c in row.items():
        defect[key] = defect.get(key, 0) - Q * c
    defect = {k: c for k, c in defect.items() if c}
    return TwistInvarianceReport(not defect, _codec(n).decode(den * Q, defect))


def _cyclic_derivatives(n: int, row: dict) -> dict[int, dict]:
    """{arrow code a: the derivative of a row by a}: c a w goes to c w, from a's target."""
    codec, out = _codec(n), {}
    b = codec.bits
    for (_, word), c in row.items():
        k = (word.bit_length() - 1) // b - 1  # arrows after the first
        if k >= 0:
            first = (word >> k * b) & ((1 << b) - 1)
            derivative = out.setdefault(first, {})
            key = (codec.arrows[first].target(n), _suffix(word, k, b))
            derivative[key] = derivative.get(key, 0) + c
    return out


def cyclic_derivative(omega: Element, a: Arrow) -> Element:
    """Delete a leading arrow equal to ``a``; zero on other terms."""
    den, row = _codec(omega.n).row(omega)
    return _codec(omega.n).decode(den, _cyclic_derivatives(omega.n, row).get(_arrow_rank(a, omega.n), {}))


def check_derivation_quotient(omega: Element | SuperpotentialResult, params: Parameters) -> bool:
    """span{d_a Omega : a in Q_1} == span{defining relations}, exactly, as int rows in the
    degree-3 component of the free path algebra; gamma must be zero."""
    if not params.gamma_is_zero():
        raise ValueError("derivation-quotient comparison requires gamma = 0")
    n, _, row = _omega_row(omega)
    relations = _tables(build_system(PRESET_QDU, params)).relation_rows()
    return spans_equal(list(_cyclic_derivatives(n, row).values()), relations)


# ---------------------------------------------------------------------------
# Diagonal graded maps (twist weights, Nakayama candidates, iso witnesses)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalMapSpec:
    """A graded map sending each arrow to a scalar multiple of an arrow.

    The vertex map is v -> shift + v, which sends u_i -> u_{shift+i} and
    d_i -> d_{shift+i}, or with ``reflect`` v -> shift - v, which sends
    u_i -> d_{shift-i-1} and d_i -> u_{shift-i-1}.  The images of u_i and
    d_i are scaled by u_scalars[i] and d_scalars[i].  On packed words it
    is a map of arrow codes (``code_images``, ``map_row``).
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

    @cached_property
    def code_images(self) -> tuple[tuple[int, int, int], ...]:
        """(numerator, denominator, image code) of each arrow code's scalar and image."""
        n = self.n
        images = [self.arrow_image(Arrow("d", k) if k < n else Arrow("u", k - n)) for k in range(2 * n)]
        return tuple((Fraction(s).numerator, Fraction(s).denominator, _arrow_rank(a, n)) for s, a in images)

    def map_row(self, row: dict) -> tuple[int, dict]:
        """(L, L times the image of an int row {(source, packed word): numerator}), ints."""
        images, b = self.code_images, _codec(self.n).bits
        terms = []
        for (source, word), c in row.items():
            den, image = 1, 1
            for code in _unpack_word(word, b):
                p, q, code = images[code]
                c, den, image = c * p, den * q, (image << b) | code
            terms.append(((self.vertex_image(source), image), c, den))
        L = lcm(*(den for _, _, den in terms))
        return L, {key: c * (L // den) for key, c, den in terms}  # the map is injective on paths

    def apply(self, a: Element) -> Element:
        den, row = _codec(self.n).row(a)
        L, image = self.map_row(row)
        return _codec(self.n).decode(den * L, image)


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
    relation, that scalar is reported.  The relations are rows on packed
    words (``_RuleTables.relation_rows``, each times its system's D), and
    so are their images (``DiagonalMapSpec.map_row``); only the scalars
    are built as Fractions.
    """
    src_tables = _tables(build_system(PRESET_QDU, src))
    tgt_tables = _tables(build_system(PRESET_QDU, tgt))
    tgt_rows = tgt_tables.relation_rows()
    target = RowSpace()
    for rel in tgt_rows:
        target.add(rel)
    details = []
    for idx, row in enumerate(src_tables.relation_rows()):
        L, img = spec.map_row(row)  # L * D_src times the image
        scalar = proportional_to = None
        for jdx, rel in enumerate(tgt_rows):
            k = next(iter(rel))
            if rel.keys() == img.keys() and all(img[key] * rel[k] == c * img[k] for key, c in rel.items()):
                scalar = Fraction(img[k] * tgt_tables.denominator, L * src_tables.denominator * rel[k])
                proportional_to = jdx
                break
        details.append({"relation": idx, "in_span": target.contains(img),
                        "proportional_to": proportional_to, "scalar": scalar})
    return DiagonalMapReport(all(d["in_span"] for d in details), details)


# ---------------------------------------------------------------------------
# Property report (noetherian / PWD / polynomial subalgebra)
# ---------------------------------------------------------------------------

def _words(tables: _RuleTables, x: Element) -> dict[int, int]:
    """x's numerators over the lcm of its denominators, by word; x has one source."""
    return {w: c for (_, w), c in tables.row(x)[1].items()}


def _product_is_zero(tables: _RuleTables, a: Element, b: Element) -> bool:
    """Whether NF(a·b) = 0, for a of normal words that all end where b's words start."""
    return not any(_normal_sum(tables, _words(tables, b).items(), _words(tables, a))[1].values())


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


def property_report(params: Parameters) -> PropertyReport:
    """Flags follow the beta criterion; every flag is backed by a witness.

    With all beta_i nonzero the subalgebra k[u_i d_i, d_{i-1} u_{i-1}] is free in every
    degree, read from theta (``gwa.theta_checks``): theta kills the relations and sends
    u_i d_i to x_i e_i and d_{i-1} u_{i-1} to y_i e_i, so the monomials x^a y^b go to
    distinct monomials of R.  With a zero beta_i the zero-divisor pair and the algebraic
    dependence are certified instead.
    """
    n = params.n
    if params.beta_all_nonzero():
        theta = theta_checks(params)
        free = theta.relations_killed and theta.roundtrip_base
        witnesses = [{"vertex": i, "kind": "free-subalgebra", "ok": free} for i in range(n)]
        return PropertyReport(True, True, True, True, witnesses, free)
    tables = _tables(ensure_confluent(build_system(PRESET_QDU, params)))
    witnesses, checks = [], True
    for i in range(n):
        if params.beta[i] != 0:
            continue
        a = _zero_divisor(params, i)
        b = Element.from_path(path_from_word(n, i, "u"))
        d_i = Element.from_path(path_from_word(n, (i + 1) % n, "d"))
        left_zero = _product_is_zero(tables, a, b)
        right_zero = _product_is_zero(tables, d_i, a)
        dependence = _product_is_zero(tables, a, Element.from_path(path_from_word(n, i, "ud")))
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
    return PropertyReport(False, False, False, False, witnesses, checks)


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
    Also checks the annihilation U g u_i = 0 (U g ends at i, so no other
    u_m composes with it) and the support pattern of the spanning products
    (u-runs are mn or mn+1).  Nothing is decoded: g is coded once, U g,
    U^m and U^m g are ``_normal_sum``s, the basis words come coded
    (``basis_from``), each spanning product is one ``_normal_times`` call,
    its support is read on the coded words (``coded_shape``), and it is
    added to the int ``RowSpace`` as it is, over its power of D.
    """
    n = params.n
    if i is None:
        i = next((k for k in range(n) if params.beta[k] == 0), None)
        if i is None:
            raise ValueError("no beta_i = 0; the chain construction requires one")
    if params.beta[i] != 0:
        raise ValueError(f"beta_{i} must be zero")
    if s_max < 1:
        raise ValueError("s_max must be at least 1: the chain has no inclusion to check")
    target_degree = (s_max + 1) * n + 2
    if degree_bound is None:
        degree_bound = target_degree
    if degree_bound < target_degree:
        raise ValueError("degree bound too small for the requested s_max")
    sys = ensure_confluent(build_system(PRESET_QDU, params))
    tables = _tables(sys)
    u_cycle = tables.encode(up_cycle_path(n, i))
    g = -_zero_divisor(params, i)
    g_terms = _words(tables, g).items()
    ue, u_g = _normal_sum(tables, g_terms, {u_cycle: 1})
    # U g ends at i, so u_i is the one u_m whose product with it is not 0 as paths.
    u_i = tables.encode(path_from_word(n, i, "u"))
    annihilation_ok = not any(_normal_sum(tables, [(u_i, 1)], u_g, ue)[1].values())
    coded, acc, e = [], {1: 1}, 0  # coded[m - 1] = U^m g; acc = U^m, from e_i
    for _ in range(s_max + 1):
        e, acc = _normal_sum(tables, [(u_cycle, 1)], acc, e)
        coded.append({w: c for w, c in _normal_sum(tables, g_terms, acc, e)[1].items() if c})

    # The spanning products and the span read a generator's numerators
    # only: both are blind to its scale, so its power of D is dropped.
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
# Piecewise domain: the proof, or a zero-divisor pair
# ---------------------------------------------------------------------------

@dataclass
class PwdProof:
    """The piecewise-domain verdict on H: ``gwa`` holds the proof when every beta_i is
    nonzero, and ``counterexample`` the zero-divisor pair (left, right) otherwise."""

    beta_nonzero: bool
    gwa: GwaVerifyReport | None
    counterexample: tuple[str, str] | None

    @property
    def ok(self) -> bool:
        return self.gwa.proves_pwd if self.beta_nonzero else self.counterexample is not None


def pwd_proof_H(params: Parameters) -> PwdProof:
    """Decide whether H is a piecewise domain, exactly.

    With every beta_i nonzero it reads ``gwa.verify_gwa``, whose docstring states the
    proof: H = T, and T is a piecewise domain because sigma is injective.  That proof
    compares reductions of both sides of each identity, so it rests on no confluence
    check.  With some beta_i = 0 the first such i gives the pair a_i, u_i
    (``_zero_divisor``), whose product is taken to normal form and must vanish.  That
    refutation does rest on confluence: a_i and u_i are nonzero in H only because their
    words are normal, and normal words name distinct elements of H only when normal
    forms are unique.
    """
    n = params.n
    if params.beta_all_nonzero():
        return PwdProof(True, verify_gwa(params), None)
    sys = ensure_confluent(build_system(PRESET_QDU, params))
    bad = next(k for k in range(n) if params.beta[k] == 0)
    a = _zero_divisor(params, bad)
    b = Element.from_path(path_from_word(n, bad, "u"))
    return PwdProof(False, None, (str(a), str(b)) if _product_is_zero(_tables(sys), a, b) else None)


def _graded_tables(params: Parameters, tables: _RuleTables) -> _RuleTables:
    """The tables of gr H = H(alpha, beta, 0), unchecked: H's rules without their gamma words.

    No check reads gr H since the domain probe gave way to the proof; the
    tests pin its top-degree lemma for the gamma != 0 route through gr H.
    """
    zero = (Fraction(0),) * params.n
    return tables if params.gamma_is_zero() else _tables(_qdu_system(replace(params, gamma=zero)))
