"""The generalized Weyl algebra model and its two-way isomorphism with H.

The base ring is R = sum_i k[x_i, y_i] e_i with orthogonal idempotents e_i.
The shift automorphism sends e_i -> e_{i+1}, x_i -> y_{i+1},
y_i -> alpha_i y_{i+1} + beta_i x_{i+1} + gamma_i e_{i+1}; it is invertible
exactly when every beta_i is nonzero.  The extension T adds X^+ and X^-
with X^- X^+ = x (= sum x_i), X^+ X^- = sigma(x), and X^{+-} r =
sigma^{+-1}(r) X^{+-}.

A GWA element is kept in the canonical form sum_m r_m X^m with the base
coefficient on the left; X^m means (X^+)^m for m > 0 and (X^-)^{-m} for
m < 0.  The generator attached to vertex i satisfies
X_i^- = e_i X^- = X^- e_{i+1} and X_i^+ = X^+ e_i = e_{i+1} X^+, so that
X_i^- X_i^+ = x_i and X_i^+ X_i^- = y_{i+1}.

sigma^m is applied through cached images of e_v, x_v and y_v
(``_ShiftTable``, one per parameter set in a bounded ``lru_cache``): each
image is an affine combination of e_w, x_w, y_w with w = v + m, built once
per m from the images at m -+ 1 by sigma's definition.  This is exact
because sigma^m is an algebra map, so its value on x_v^a y_v^b e_v is
sigma^m(x_v)^a sigma^m(y_v)^b; the table caches those monomial images and
the cross factors of X^{m1} X^{m2} too, so a product costs one
substitution per term pair instead of m.

``BaseElement`` (monomial (v, a, b) -> rational) and ``GwaElement``
(exponent m -> coefficient r_m in R) are ``core.Combination``s: their
linear arithmetic is the shared kernel, and only their products and the
maps below live here.

All products run on R in the int-coded form of ``core`` (``(den,
{(v, a, b): int})``, ``Combination.coded``), with ``core.add_into`` for
sums.  The shift table keeps its images and cross factors in this form
only; ``sigma``, ``sigma_inverse``, ``sigma_power`` and
``_ShiftTable.cross`` decode to ``BaseElement`` on return, and so does
the public ``*`` of ``BaseElement``.  ``gwa_multiply`` codes each operand
coefficient once, sums the parts for each X-exponent over a common
denominator raised to the lcm only when needed, and decodes each output
term to one ``Fraction``.  ``pwd_probe_gwa`` draws its factors coded,
from ``core.Sampler`` over X-degrees tabled once per (n, degree bound), and
tests the coded product of their top X-degree parts, and the full
product only when that part vanishes; it decodes only the factors of a
failing trial, to print them.  ``theta`` builds each path's image coded,
one generator at a time, and decodes it once.  Zero sums are dropped where the
``BaseElement`` operations drop them, so every decoded value has the same
key order as the ``Fraction`` computation.

The algebra maps are theta(u_i) = X_i^-, theta(d_i) = X_i^+ and its
inverse theta_prime with theta_prime(x_i) = u_i d_i and
theta_prime(y_i) = d_{i-1} u_{i-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (NONZERO_NUMERATORS, Combination, Element, Parameters, Path, Sampler, add_into,
                   path_from_word, reduced, trivial_path)
from .rewrite import PRESET_QDU, build_system, normal_form, normal_product


class BaseElement(Combination):
    """Element of R: finite map (vertex, x-exp, y-exp) -> rational."""

    __slots__ = ()

    @classmethod
    def _entry(cls, n: int, key: tuple[int, int, int], coeff):
        v, a, b = key
        if not 0 <= v < n or a < 0 or b < 0:
            raise ValueError("bad base monomial")
        return key, Fraction(coeff)

    @classmethod
    def e(cls, n: int, v: int) -> "BaseElement":
        return cls(n, {(v % n, 0, 0): Fraction(1)})

    @classmethod
    def x(cls, n: int, i: int) -> "BaseElement":
        return cls(n, {(i % n, 1, 0): Fraction(1)})

    @classmethod
    def y(cls, n: int, i: int) -> "BaseElement":
        return cls(n, {(i % n, 0, 1): Fraction(1)})

    @classmethod
    def one(cls, n: int) -> "BaseElement":
        return cls(n, {(v, 0, 0): Fraction(1) for v in range(n)})

    def _product(self, other: "BaseElement") -> "BaseElement":
        return BaseElement.from_coded(self.n, *_product(self.coded(), other.coded()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (v, a, b) in sorted(self.terms):
            c = self.terms[(v, a, b)]
            mono = []
            if a:
                mono.append(f"x{v}" + (f"^{a}" if a > 1 else ""))
            if b:
                mono.append(f"y{v}" + (f"^{b}" if b > 1 else ""))
            if not mono:
                mono.append(f"e{v}")
            bits.append(f"{c}*{'*'.join(mono)}" if c != 1 else "*".join(mono))
        return " + ".join(bits)


def sigma(params: Parameters, b: BaseElement) -> BaseElement:
    """The shift substitution extended multiplicatively to R."""
    return _shift_table(params).apply(b, 1)


def sigma_inverse(params: Parameters, b: BaseElement) -> BaseElement:
    return _shift_table(params).apply(b, -1)


def sigma_power(params: Parameters, b: BaseElement, m: int) -> BaseElement:
    return _shift_table(params).apply(b, m)


# ---------------------------------------------------------------------------
# Products on coded values of R.  Every loop below visits terms in the
# order of the BaseElement operation it replaces, and zero sums are
# stripped where that operation strips them, so decoded values keep
# BaseElement's key order.
# ---------------------------------------------------------------------------

def _decode_gwa(n: int, coded: dict) -> GwaElement:
    """{m: (den, numerators)} as a GwaElement; an m without numerators is dropped."""
    return GwaElement._from_sums(n, {m: BaseElement.from_coded(n, *r) for m, r in coded.items()})


def _rational(parts) -> tuple[int, dict]:
    """The sum of c * x over the parts ``(x, c)``, x coded and c rational,
    as ``BaseElement.combine``; stripped and reduced."""
    acc = [1, {}]
    for (d, nums), c in parts:
        c = Fraction(c)
        add_into(acc, d * c.denominator, nums, c.numerator)
    den, out = acc
    return reduced(den, {k: c for k, c in out.items() if c})


def _by_vertex(nums: dict) -> dict[int, list[tuple[int, int, int]]]:
    at: dict[int, list[tuple[int, int, int]]] = {}
    for (w, a, b), c in nums.items():
        at.setdefault(w, []).append((a, b, c))
    return at


def _times(left: tuple[int, dict], den: int, at: dict) -> tuple[int, dict]:
    """left times the value with denominator ``den`` and terms ``at`` (by vertex),
    as ``BaseElement._product``."""
    d, nums = left
    sums: dict[tuple[int, int, int], int] = {}
    for (v, a, b), c in nums.items():
        for a2, b2, c2 in at.get(v, ()):
            key = (v, a + a2, b + b2)
            old = sums.get(key)
            sums[key] = c * c2 if old is None else old + c * c2
    return d * den, {k: c for k, c in sums.items() if c}


def _product(left: tuple[int, dict], right: tuple[int, dict]) -> tuple[int, dict]:
    return reduced(*_times(left, right[0], _by_vertex(right[1])))


class _ShiftTable:
    """sigma^m for one parameter set, int-coded: the images of x_v and y_v
    for each m used, the monomial images built from them and the cross
    factors (each with its terms grouped by vertex)."""

    def __init__(self, params: Parameters):
        self.params = params
        self.invertible = params.beta_all_nonzero()
        n = params.n
        self._images = {0: tuple(((1, {(v, 1, 0): 1}), (1, {(v, 0, 1): 1})) for v in range(n))}
        self._monomials: dict[tuple[int, int, int, int], tuple[int, dict]] = {}
        self._cross: dict[tuple[int, int], tuple[int, dict, dict]] = {}

    def images(self, m: int) -> tuple[tuple[tuple[int, dict], tuple[int, dict]], ...]:
        """(sigma^m(x_v), sigma^m(y_v)) for every vertex v."""
        if m < 0 and not self.invertible:
            raise ValueError("sigma is not invertible: some beta_i = 0")
        sign = 1 if m > 0 else -1
        k = m
        while k not in self._images:
            k -= sign
        while k != m:
            self._images[k + sign] = self._step(k, sign)
            k += sign
        return self._images[m]

    def _step(self, m: int, sign: int):
        """The images at m + sign from those at m, by sigma's definition:
        sigma^{m+1} = sigma^m o sigma and sigma^{m-1} = sigma^m o sigma^-1."""
        p, n, prev = self.params, self.params.n, self._images[m]
        out = []
        for v in range(n):
            if sign > 0:
                # sigma(x_v) = y_{v+1}, sigma(y_v) = alpha_v y_{v+1} + beta_v x_{v+1} + gamma_v e_{v+1}
                xs, ys = prev[(v + 1) % n]
                e = (1, {((v + 1 + m) % n, 0, 0): 1})
                out.append((ys, _rational([(ys, p.alpha[v]), (xs, p.beta[v]), (e, p.gamma[v])])))
            else:
                # sigma^-1(y_v) = x_w and beta_w sigma^-1(x_v) = y_w - alpha_w x_w - gamma_w e_w, w = v - 1
                w = (v - 1) % n
                xs, ys = prev[w]
                inv = 1 / p.beta[w]
                e = (1, {((w + m) % n, 0, 0): 1})
                out.append((_rational([(ys, inv), (xs, -p.alpha[w] * inv), (e, -p.gamma[w] * inv)]),
                            xs))
        return tuple(out)

    def monomial(self, m: int, v: int, a: int, b: int) -> tuple[int, dict]:
        """sigma^m(x_v^a y_v^b e_v), coded."""
        key = (m, v, a, b)
        image = self._monomials.get(key)
        if image is None:
            if a:
                image = _product(self.monomial(m, v, a - 1, b), self.images(m)[v][0])
            elif b:
                image = _product(self.monomial(m, v, 0, b - 1), self.images(m)[v][1])
            else:
                image = (1, {((v + m) % self.params.n, 0, 0): 1})
            self._monomials[key] = image
        return image

    def shift(self, s: tuple[int, dict], m: int) -> tuple[int, dict]:
        """sigma^m(s) for a coded s and m != 0 whose images exist."""
        acc = [1, {}]
        for (v, a, b), c in s[1].items():
            add_into(acc, *self.monomial(m, v, a, b), c)
        d, out = acc
        return s[0] * d, {k: c for k, c in out.items() if c}

    def apply(self, b: BaseElement, m: int) -> BaseElement:
        if m == 0:
            return b
        self.images(m)  # refuses m < 0 without sigma^-1, also for b = 0
        return BaseElement.from_coded(self.params.n, *self.shift(b.coded(), m))

    def coded_cross(self, m1: int, m2: int) -> tuple[int, dict, dict]:
        """(den, numerators, numerators by vertex) of ``cross(m1, m2)``."""
        key = (m1, m2)
        out = self._cross.get(key)
        if out is None:
            if m1 > 0 > m2:
                den, nums = _product(self._x_total(m1), self.coded_cross(m1 - 1, m2 + 1)[:2])
            elif m1 < 0 < m2:
                den, nums = _product(self._x_total(m1 + 1), self.coded_cross(m1 + 1, m2 - 1)[:2])
            else:
                den, nums = 1, {(v, 0, 0): 1 for v in range(self.params.n)}
            out = self._cross[key] = (den, nums, _by_vertex(nums))
        return out

    def cross(self, m1: int, m2: int) -> BaseElement:
        """Coefficient from contracting X^{m1} X^{m2} into X^{m1+m2}."""
        return BaseElement.from_coded(self.params.n, *self.coded_cross(m1, m2)[:2])

    def _x_total(self, m: int) -> tuple[int, dict]:
        """sigma^m(x), x = sum_v x_v."""
        return _rational([(xs, 1) for xs, _ in self.images(m)])


@lru_cache(maxsize=16)
def _shift_table(params: Parameters) -> _ShiftTable:
    return _ShiftTable(params)


class GwaElement(Combination):
    """Canonical form sum_m r_m X^m with r_m in R on the left."""

    __slots__ = ()

    @classmethod
    def _entry(cls, n: int, m: int, r: BaseElement):
        if r.n != n:
            raise ValueError("coefficient over wrong n")
        return m, r

    @classmethod
    def from_base(cls, r: BaseElement) -> "GwaElement":
        return cls(r.n, {0: r})

    @classmethod
    def x_minus(cls, n: int, i: int | None = None) -> "GwaElement":
        r = BaseElement.one(n) if i is None else BaseElement.e(n, i)
        return cls(n, {-1: r})

    @classmethod
    def x_plus(cls, n: int, i: int | None = None) -> "GwaElement":
        r = BaseElement.one(n) if i is None else BaseElement.e(n, i + 1)
        return cls(n, {1: r})

    def x_degrees(self) -> list[int]:
        return sorted(self.terms)

    def top_x_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero element has no top degree")
        return max(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            r = self.terms[m]
            if m == 0:
                bits.append(f"({r})")
            else:
                gen = "X+" if m > 0 else "X-"
                bits.append(f"({r})*{gen}^{abs(m)}")
        return " + ".join(bits)


def gwa_multiply(params: Parameters, a: GwaElement, b: GwaElement) -> GwaElement:
    coded = [{m: r.coded() for m, r in x.terms.items()} for x in (a, b)]
    return _decode_gwa(params.n, _coded_multiply(_gwa_table(params), *coded))


def _gwa_table(params: Parameters) -> _ShiftTable:
    if not params.beta_all_nonzero():
        raise ValueError("GWA arithmetic requires all beta_i nonzero")
    return _shift_table(params)


def _coded_multiply(table: _ShiftTable, a: dict, b: dict) -> dict[int, list]:
    """a * b on coded GWA values {m: (den, numerators)}, as {m: [den, numerators]}.

    The part of r X^{m1} times s X^{m2} is r sigma^{m1}(s) cross(m1, m2) at
    m1 + m2; an m whose parts cancel keeps its entry with no numerators.
    """
    sums: dict[int, list] = {}
    for m1, r in a.items():
        for m2, s in b.items():
            if m1:
                s = table.shift(s, m1)
            den, nums, at = table.coded_cross(m1, m2)
            den, nums = _times(_times(r, s[0], _by_vertex(s[1])), den, at)
            if nums:
                acc = sums.get(m1 + m2)
                if acc is None:
                    sums[m1 + m2] = [den, nums]
                else:
                    add_into(acc, den, nums, strip=True)
    return sums


def theta(params: Parameters, a: Element) -> GwaElement:
    """u_i -> X_i^-, d_i -> X_i^+, extended multiplicatively and linearly.

    Each path's image is built coded, one generator at a time, and
    decoded once.
    """
    if not params.beta_all_nonzero():
        raise ValueError("theta requires all beta_i nonzero")
    table = _shift_table(params)
    n = params.n
    parts = []
    for p, c in a.terms.items():
        acc = {0: (1, {(p.source, 0, 0): 1})}
        for arrow in p.arrows:
            # X_i^- = e_i X^- and X_i^+ = e_{i+1} X^+
            img = {-1: (1, {(arrow.index, 0, 0): 1})} if arrow.family == "u" else \
                {1: (1, {((arrow.index + 1) % n, 0, 0): 1})}
            acc = {m: reduced(den, nums)
                   for m, (den, nums) in _coded_multiply(table, acc, img).items() if nums}
        parts.append((_decode_gwa(n, acc), c))
    return GwaElement.combine(n, parts)


def theta_prime(params: Parameters, t: GwaElement) -> Element:
    """x_i -> u_i d_i, y_i -> d_{i-1} u_{i-1}, X^- -> sum u_i, X^+ -> sum d_i.

    The image is returned in normal form for the quiver down-up system.
    """
    if not params.beta_all_nonzero():
        raise ValueError("theta_prime requires all beta_i nonzero")
    n = params.n
    sys = build_system(PRESET_QDU, params)
    parts = []
    for m, r in t.terms.items():
        # x_v^a y_v^b e_v is the loop (u_v d_v)^a (d_{v-1} u_{v-1})^b at v.
        img = normal_form(sys, Element(n, {path_from_word(n, v, "ud" * a + "du" * b): c
                                           for (v, a, b), c in r.terms.items()}))
        step = Element(n, {path_from_word(n, v, "d" if m > 0 else "u"): Fraction(1) for v in range(n)})
        for _ in range(abs(m)):
            img = normal_product(sys, img, step)
        parts.append((img, 1))
    return Element.combine(n, parts)


def path_x_weight(p: Path) -> int:
    """Stored X-exponent of theta(p): one +1 per d arrow, -1 per u arrow."""
    return sum(1 if a.family == "d" else -1 for a in p.arrows)


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------

@dataclass
class GwaPwdReport:
    trials: int
    tested: int
    seed: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures and self.tested > 0


@lru_cache(maxsize=16)
def _x_degrees(n: int, degree_bound: int) -> tuple[tuple[int, ...], ...]:
    """The X-degrees m with |m| <= ``degree_bound``, grouped by m mod n."""
    return tuple(tuple(m for m in range(-degree_bound, degree_bound + 1) if m % n == residue)
                 for residue in range(n))


def _random_corner_element(params: Parameters, i: int, k: int, rng: Sampler,
                           degree_bound: int) -> dict[int, tuple[int, dict]] | None:
    """Nonzero random element of e_i T e_k with bounded degrees, coded.

    Each coefficient c/q with q in {1, 2, 3} is the numerator c * (6 / q)
    over 6.  ``rng`` may be any ``random.Random``: the draws are the same.
    None when no X-degree m = i - k mod n has |m| <= ``degree_bound``: the
    corner has no element within the bound.
    """
    n = params.n
    terms: dict[int, tuple[int, dict]] = {}
    residue = (i - k) % n
    choices = _x_degrees(n, degree_bound)[residue]
    for m in rng.sample(choices, k=min(len(choices), rng.randint(1, 2))):
        poly: dict[tuple[int, int, int], int] = {}
        for _ in range(rng.randint(1, 2)):
            a = rng.randint(0, max(0, degree_bound - 1))
            b = rng.randint(0, max(0, degree_bound - 1 - a))
            c = rng.choice(NONZERO_NUMERATORS) * (6 // rng.randint(1, 3))
            poly[(i, a, b)] = poly.get((i, a, b), 0) + c
        poly = {key: c for key, c in poly.items() if c}
        if poly:
            terms[m] = (6, poly)
    if not choices:
        return None
    if not terms:
        terms[residue if residue <= degree_bound else residue - n] = (1, {(i, 0, 0): 1})
    return terms


def pwd_probe_gwa(params: Parameters, degree_bound: int = 3, trials: int = 200,
                  seed: int = 0) -> GwaPwdReport:
    """Sample sandwiched products in T and assert none vanishes.

    Also asserts the top X-degree of a product is the sum of the top
    X-degrees of the factors.  T is Z-graded by X-degree, so the product's
    part at max(a) + max(b) is the product of the parts of a and b at
    max(a) and max(b) alone; a trial passes when that part is nonzero, and
    only a failing trial takes the full product, to tell a zero product
    from a dropped top degree.  Factors and products stay coded; a failing
    trial's factors are decoded to print them.  A trial with a corner that
    has no X-degree within ``degree_bound`` tests nothing; both factors are
    still drawn, so later trials draw as before.  The probe passes only if
    some trial was tested.
    """
    table = _gwa_table(params)
    rng = Sampler(seed)
    n = params.n
    failures = []
    tested = 0
    for t in range(trials):
        i, k, j = rng.below(n), rng.below(n), rng.below(n)
        a = _random_corner_element(params, i, k, rng, degree_bound)
        b = _random_corner_element(params, k, j, rng, degree_bound)
        if a is None or b is None:
            continue
        tested += 1
        top_a, top_b = max(a), max(b)
        if _coded_multiply(table, {top_a: a[top_a]}, {top_b: b[top_b]}):
            continue
        if any(nums for _, nums in _coded_multiply(table, a, b).values()):
            kind = "top degree dropped"
        else:
            kind = "zero product"
        failures.append((t, kind, str(_decode_gwa(n, a)), str(_decode_gwa(n, b))))
    return GwaPwdReport(trials, tested, seed, failures)


@dataclass
class GwaVerifyReport:
    relations_killed: bool
    roundtrip_arrows: bool
    roundtrip_base: bool
    grading_ok: bool
    pwd: GwaPwdReport

    @property
    def ok(self) -> bool:
        return (self.relations_killed and self.roundtrip_arrows
                and self.roundtrip_base and self.grading_ok and self.pwd.ok)


def verify_gwa(params: Parameters, trials: int = 200, seed: int = 0) -> GwaVerifyReport:
    n = params.n
    rules = build_system(PRESET_QDU, params).rules
    relations_killed = all(theta(params, rule.as_relation()).is_zero() for rule in rules)
    roundtrip_arrows = True
    grading_ok = True
    for i in range(n):
        for word, src in (("u", i), ("d", (i + 1) % n)):
            p = path_from_word(n, src, word)
            img = theta(params, Element.from_path(p))
            if theta_prime(params, img) != Element.from_path(p):
                roundtrip_arrows = False
            if set(img.x_degrees()) != {path_x_weight(p)}:
                grading_ok = False
        e_i = Element.from_path(trivial_path(n, i))
        if theta_prime(params, theta(params, e_i)) != e_i:
            roundtrip_arrows = False
    roundtrip_base = True
    for i in range(n):
        for gen in (
            GwaElement.from_base(BaseElement.x(n, i)),
            GwaElement.from_base(BaseElement.y(n, i)),
            GwaElement.x_minus(n, i),
            GwaElement.x_plus(n, i),
        ):
            if theta(params, theta_prime(params, gen)) != gen:
                roundtrip_base = False
    pwd = pwd_probe_gwa(params, trials=trials, seed=seed)
    return GwaVerifyReport(relations_killed, roundtrip_arrows, roundtrip_base, grading_ok, pwd)
