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
sigma^m(x_v)^a sigma^m(y_v)^b; the table caches those monomial images, so
a shift costs one substitution per term instead of m.  No product of two
elements of T is taken: theta multiplies by one generator at a time, and
the one factor that step can add, a vertex component of sigma^k(x)
(``_ShiftTable.cross``), is a cached image too.

``BaseElement`` (monomial (v, a, b) -> rational) and ``GwaElement``
(exponent m -> coefficient r_m in R) are ``core.Combination``s: their
linear arithmetic is the shared kernel, and only their printing lives
here.  ``theta`` returns and ``theta_prime`` takes a ``GwaElement``;
everything else stays coded.

All products run on R in the int-coded form of ``core`` (``(den,
{(v, a, b): int})``), summed by ``core.add_into``.

The algebra maps are theta(u_i) = X_i^-, theta(d_i) = X_i^+ and its
inverse theta_prime(x_i) = u_i d_i, theta_prime(y_i) = d_{i-1} u_{i-1}, on
the packed words of ``rewrite``: the shift table memoizes theta of each
(source, word), and theta_prime sends x_v^a y_v^b e_v X^m to the normal
form of one word.  The checks compare coded values; ``theta`` and
``theta_prime`` decode once.  ``verify_gwa`` proves H = T and that both
are piecewise domains (its docstring states the argument) from three
checks, each kept on the shift table: ``theta_checks``,
``theta_prime_is_homomorphism`` and ``sigma_is_automorphism``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from fractions import Fraction
from functools import lru_cache

from .core import Combination, Element, Parameters, add_into, reduced
from .rewrite import (PRESET_QDU, _codec, _normal_sum, _normal_word, _RuleTables, _tables, _word_bits,
                      build_system)


class BaseElement(Combination):
    """Element of R: finite map (vertex, x-exp, y-exp) -> rational."""

    __slots__ = ()

    @classmethod
    def _entry(cls, n: int, key: tuple[int, int, int], coeff):
        v, a, b = key
        if not 0 <= v < n or a < 0 or b < 0:
            raise ValueError("bad base monomial")
        return key, Fraction(coeff)


# ---------------------------------------------------------------------------
# Products on coded values of R
# ---------------------------------------------------------------------------

def _decode_gwa(n: int, coded: dict) -> GwaElement:
    """{m: (den, numerators)} as a GwaElement; an m without numerators is dropped."""
    return GwaElement._from_sums(n, {m: BaseElement.from_coded(n, *r) for m, r in coded.items()})


def _rational(parts) -> tuple[int, dict]:
    """The sum of c * x over the parts ``(x, c)``, x coded and c rational,
    stripped and reduced."""
    acc = [1, {}]
    for (d, nums), c in parts:
        c = Fraction(c)
        add_into(acc, d * c.denominator, nums, c.numerator)
    den, out = acc
    return reduced(den, {k: c for k, c in out.items() if c})


def _product(left: tuple[int, dict], right: tuple[int, dict]) -> tuple[int, dict]:
    """left times right, reduced, the e_v being orthogonal idempotents."""
    at: dict[int, list[tuple[int, int, int]]] = {}
    for (w, a, b), c in right[1].items():
        at.setdefault(w, []).append((a, b, c))
    sums: dict[tuple[int, int, int], int] = {}
    for (v, a, b), c in left[1].items():
        for a2, b2, c2 in at.get(v, ()):
            key = (v, a + a2, b + b2)
            old = sums.get(key)
            sums[key] = c * c2 if old is None else old + c * c2
    return reduced(left[0] * right[0], {k: c for k, c in sums.items() if c})


class _ShiftTable:
    """sigma^m for one parameter set, int-coded: the images of x_v and y_v
    for each m used and the monomial images built from them."""

    def __init__(self, params: Parameters):
        self.params = params
        self.invertible = params.beta_all_nonzero()
        n = params.n
        self._images = {0: tuple(((1, {(v, 1, 0): 1}), (1, {(v, 0, 1): 1})) for v in range(n))}
        self._monomials: dict[tuple[int, int, int, int], tuple[int, dict]] = {}
        self.bits, self.theta = _word_bits(n), {}  # theta of each (source, packed word) asked for
        self.proofs: dict[str, object] = {}  # the proof checks' results, by name

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

    def cross(self, m: int, s: int, at: int) -> tuple[int, dict] | None:
        """The e_at-component of cross(m, s) for s = +-1, where X^m X^s = cross(m, s) X^{m+s};
        None where cross(m, s) = 1, that is where m and s do not have opposite signs.
        X^+ X^- = sigma(x) and X^- X^+ = x, moved left past X^{m-+1}, give cross(m, -1) =
        sigma^m(x) for m > 0 and cross(m, 1) = sigma^{m+1}(x) for m < 0: sigma^k(x) with
        k = max(m, m + s), whose e_at-component is sigma^k(x_{at-k})."""
        if m * s >= 0:
            return None
        k = max(m, m + s)
        return self.images(k)[(at - k) % self.params.n][0]


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


def _gwa_table(params: Parameters) -> _ShiftTable:
    if not params.beta_all_nonzero():
        raise ValueError("GWA arithmetic requires all beta_i nonzero")
    return _shift_table(params)


def _theta_word(table: _ShiftTable, source: int, word: int) -> dict[int, tuple[int, dict]]:
    """theta of the path ``word`` (packed as in ``rewrite``) from ``source``, coded and
    memoized: theta(w a) = theta(w) theta(a), reduced, empty X-degrees dropped.

    theta of a path is one term r X^m, and theta(a) is a generator e_v X^s with s = +-1, so
    theta(w a) = r sigma^m(e_v) X^m X^s = r e_{v+m} cross(m, s) X^{m+s}: r's terms at vertex
    v + m times that vertex's component of the cross factor (``_ShiftTable.cross``).
    """
    memo, b, n = table.theta, table.bits, table.params.n
    w, codes = word, []
    while w != 1 and (source, w) not in memo:  # back to the longest prefix with an image
        codes.append(w & ((1 << b) - 1))
        w >>= b
    image = memo[(source, w)] if w != 1 else {0: (1, {(source, 0, 0): 1})}
    for a in reversed(codes):  # d_a = e_{a+1} X^+, u_{a-n} = e_{a-n} X^-, the vertex read mod n
        v, s = (a + 1, 1) if a < n else (a, -1)
        step = {}
        for m, (den, nums) in image.items():  # one term, or none for a word that is no path
            at = (v + m) % n
            r = (den, {key: c for key, c in nums.items() if key[0] == at})
            factor = table.cross(m, s, at)
            if factor is not None:
                r = _product(r, factor)
            if r[1]:
                step[m + s] = r
        w = (w << b) | a
        image = memo[(source, w)] = step
    return image


def _coded_theta(table: _ShiftTable, den: int, row: dict) -> dict[int, list]:
    """theta of an int row ``{(source, word): numerator}`` over ``den``, as {m: [den,
    numerators]}, with sums that cancel to zero stripped."""
    sums: dict[int, list] = {}
    for (source, word), c in row.items():
        for m, (d, nums) in _theta_word(table, source, word).items():
            add_into(sums.setdefault(m, [1, {}]), den * d, nums, c, strip=True)
    return sums


def _canonical(coded: dict) -> dict[int, tuple[int, dict]]:
    """A coded GWA value reduced, without zero sums or empty X-degrees: one form per value."""
    return {m: reduced(den, nz) for m, (den, nums) in coded.items()
            if (nz := {k: c for k, c in nums.items() if c})}


def theta(params: Parameters, a: Element) -> GwaElement:
    """u_i -> X_i^-, d_i -> X_i^+, extended multiplicatively and linearly; the paths'
    images come from the shift table's memo (``_theta_word``), summed coded, decoded once."""
    if not params.beta_all_nonzero():
        raise ValueError("theta requires all beta_i nonzero")
    return _decode_gwa(params.n, _coded_theta(_shift_table(params), *_codec(params.n).row(a)))


def _coded_theta_prime(tables: _RuleTables, coded: dict) -> list:
    """theta_prime of a coded GWA value {m: (den, numerators)} in normal form, as [den,
    {(source, word): numerator}] with zero sums left in.  x_v^a y_v^b e_v X^m goes to the
    normal form of one word: (u_v d_v)^a (d_{v-1} u_{v-1})^b at v, then |m| d's or u's."""
    n, bits = tables.n, tables.bits
    acc: list = [1, {}]
    for m, (den, nums) in coded.items():
        for (v, a, b), c in nums.items():
            h, word, at = (v - 1) % n, 1, v
            for code in (n + v, v) * a + (h, n + h) * b:
                word = (word << bits) | code
            for _ in range(abs(m)):
                code = (at - 1) % n if m > 0 else n + at  # d_{at-1} or u_at, from at
                at, word = code if m > 0 else (at + 1) % n, (word << bits) | code
            e, comb = _normal_word(tables, word)
            add_into(acc, den * tables.denominator ** e, {(v, w): x for w, x in comb.items()}, c)
    return acc


def theta_prime(params: Parameters, t: GwaElement) -> Element:
    """x_i -> u_i d_i, y_i -> d_{i-1} u_{i-1}, X^- -> sum u_i, X^+ -> sum d_i.

    The image is in normal form for the quiver down-up system, summed coded
    (``_coded_theta_prime``) and decoded once.
    """
    if not params.beta_all_nonzero():
        raise ValueError("theta_prime requires all beta_i nonzero")
    tables = _tables(build_system(PRESET_QDU, params))
    return tables.decode(*_coded_theta_prime(tables, {m: r.coded() for m, r in t.terms.items()}))


# ---------------------------------------------------------------------------
# The isomorphism H = T and the piecewise-domain proof
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    """The identities of one exact check: how many were checked and the names of those that failed."""

    checked: int
    failed: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failed


def _h_product(tables: _RuleTables, left: list, right: list) -> list:
    """The product in H of two rows ``[den, {(source, word): numerator}]`` of normal words, as
    such a row with zero sums left in; a pair whose words do not compose adds nothing."""
    by_source: dict[int, list] = {}
    for (source, word), c in right[1].items():
        by_source.setdefault(source, []).append((word, c))
    acc: list = [1, {}]
    for (source, word), c in left[1].items():
        terms = by_source.get(tables.target(source, word))
        if terms:
            e, comb = _normal_sum(tables, terms, {word: c})
            add_into(acc, left[0] * right[0] * tables.denominator ** e,
                     {(source, w): x for w, x in comb.items()})
    return acc


def _value(row: list) -> tuple[int, dict]:
    """A row ``[den, numerators]`` reduced and without zero sums: one form per value."""
    return reduced(row[0], {k: c for k, c in row[1].items() if c})


def _theta_prime_identities(table: _ShiftTable) -> IdentityCheck:
    """T's presentation on theta_prime's images in H: 10n + 3 identities.

    R = sum_v k[x_v, y_v] e_v is presented by orthogonal idempotents e_v that sum to 1,
    x_v = e_v x_v e_v, y_v = e_v y_v e_v and x_v y_v = y_v x_v.  The e_v of H are such
    idempotents, so R's relations hold on the images when theta_prime(e_v) = e_v, every
    path of theta_prime(x_v) and of theta_prime(y_v) runs from v to v (``x0 at 0``), and
    theta_prime(x_v) and theta_prime(y_v) commute (``x0 y0``).  T adds X^+- with X^- X^+ =
    x, X^+ X^- = sigma(x) and X^+- r = sigma^+-1(r) X^+-, which holds for every r once it
    holds for R's generators, since sigma^+-1 is an algebra map: so theta_prime(1) = sum
    e_v, the two X-relations and theta_prime(X^+-) theta_prime(r) = theta_prime(sigma^+-1(r)
    X^+-) for each generator r (``X+ y2``).  Images at two vertices multiply to zero by
    their endpoints, so no such pair is multiplied out.
    """
    n = table.params.n
    tables = _tables(build_system(PRESET_QDU, table.params))
    image = lambda t: _coded_theta_prime(tables, t)
    one = (1, {(v, 0, 0): 1 for v in range(n)})
    x = (1, {(v, 1, 0): 1 for v in range(n)})
    gens = [(f"{name}{v}", (v, a, b)) for v in range(n)
            for name, a, b in (("e", 0, 0), ("x", 1, 0), ("y", 0, 1))]
    of = {label: image({0: (1, {g: 1})}) for label, g in gens}
    x_minus, x_plus = image({-1: one}), image({1: one})
    identities = []  # (name, left value, right value)
    for v in range(n):
        identities.append((f"e{v}", of[f"e{v}"], [1, {(v, 1): 1}]))
        for label in (f"x{v}", f"y{v}"):  # the row against its paths from v to v
            den, row = of[label]
            identities.append((f"{label} at {v}", of[label],
                               [den, {k: c for k, c in row.items() if k[0] == v == tables.target(*k)}]))
        identities.append((f"x{v} y{v}", _h_product(tables, of[f"x{v}"], of[f"y{v}"]),
                           _h_product(tables, of[f"y{v}"], of[f"x{v}"])))
    identities.append(("1", image({0: one}), [1, {(v, 1): 1 for v in range(n)}]))
    identities.append(("X- X+", _h_product(tables, x_minus, x_plus), image({0: x})))
    identities.append(("X+ X-", _h_product(tables, x_plus, x_minus), image({0: table.shift(x, 1)})))
    for sign, label, x_sign in ((1, "X+", x_plus), (-1, "X-", x_minus)):
        for lr, g in gens:
            identities.append((f"{label} {lr}", _h_product(tables, x_sign, of[lr]),
                               image({sign: table.shift((1, {g: 1}), sign)})))
    failed = tuple(name for name, left, right in identities if _value(left) != _value(right))
    return IdentityCheck(len(identities), failed)


def theta_prime_is_homomorphism(params: Parameters) -> IdentityCheck:
    """Whether theta_prime: T -> H is an algebra map (``_theta_prime_identities``), computed
    once per shift table."""
    table = _gwa_table(params)
    if "theta_prime" not in table.proofs:
        table.proofs["theta_prime"] = _theta_prime_identities(table)
    return table.proofs["theta_prime"]


def sigma_is_automorphism(params: Parameters) -> IdentityCheck:
    """Whether sigma o sigma^-1 and sigma^-1 o sigma fix e_v, x_v and y_v, for every v:
    6n identities, computed once per shift table.  Both maps are algebra maps (the table
    multiplies generator images), so they are then inverse on all of R."""
    table = _gwa_table(params)
    if "sigma" not in table.proofs:
        failed = []
        for v in range(table.params.n):
            for name, g in (("e", (v, 0, 0)), ("x", (v, 1, 0)), ("y", (v, 0, 1))):
                gen = (1, {g: 1})
                for label, first, then in (("sigma sigma^-1", -1, 1), ("sigma^-1 sigma", 1, -1)):
                    if reduced(*table.shift(table.shift(gen, first), then)) != gen:
                        failed.append(f"{label} {name}{v}")
        table.proofs["sigma"] = IdentityCheck(6 * table.params.n, tuple(failed))
    return table.proofs["sigma"]


@dataclass(frozen=True)
class ThetaCheck:
    """theta's checks: the relation kill, the two round trips and the grading."""

    relations_killed: bool
    roundtrip_arrows: bool
    roundtrip_base: bool
    grading_ok: bool


def _theta_checks(table: _ShiftTable, tables: _RuleTables) -> ThetaCheck:
    """Whether theta into T (``table``) kills every relation of H (``tables``),
    theta_prime o theta fixes e_i, u_i and d_i (whose theta has the one X-degree of its
    grading) and theta o theta_prime fixes x_i, y_i, X_i^- and X_i^+."""
    n = tables.n
    relations_killed = not any(_canonical(_coded_theta(table, 1, row)) for row in tables.relation_rows())
    roundtrip_arrows = grading_ok = roundtrip_base = True
    b = table.bits
    for i in range(n):
        for word, source, weight in (((1 << b) | (n + i), i, -1), ((1 << b) | i, (i + 1) % n, 1), (1, i, 0)):
            image = _theta_word(table, source, word)  # u_i, d_i, e_i
            den, row = _coded_theta_prime(tables, image)
            roundtrip_arrows &= {k: c for k, c in row.items() if c} == {(source, word): den}
            grading_ok &= set(image) == {weight}
        for gen in ({0: (1, {(i, 1, 0): 1})}, {0: (1, {(i, 0, 1): 1})},  # x_i, y_i
                    {-1: (1, {(i, 0, 0): 1})}, {1: (1, {((i + 1) % n, 0, 0): 1})}):  # X_i^-, X_i^+
            roundtrip_base &= _canonical(_coded_theta(table, *_coded_theta_prime(tables, gen))) == gen
    return ThetaCheck(relations_killed, roundtrip_arrows, roundtrip_base, grading_ok)


def theta_checks(params: Parameters) -> ThetaCheck:
    """theta's checks (``_theta_checks``), computed once per shift table."""
    table = _gwa_table(params)
    if "theta" not in table.proofs:
        table.proofs["theta"] = _theta_checks(table, _tables(build_system(PRESET_QDU, params)))
    return table.proofs["theta"]


@dataclass(frozen=True)
class GwaVerifyReport(ThetaCheck):
    homomorphism: IdentityCheck
    automorphism: IdentityCheck

    @property
    def proves_pwd(self) -> bool:
        """H = T and sigma is an automorphism: the proof of ``verify_gwa``'s docstring."""
        return (self.relations_killed and self.roundtrip_arrows and self.roundtrip_base
                and self.homomorphism.ok and self.automorphism.ok)

    @property
    def pwd_failures(self) -> int:
        """The number of failed identities of the two proof checks."""
        return len(self.homomorphism.failed) + len(self.automorphism.failed)

    @property
    def ok(self) -> bool:
        return self.proves_pwd and self.grading_ok


def verify_gwa(params: Parameters) -> GwaVerifyReport:
    """Prove H = T and that both are piecewise domains, by a fixed number of exact checks.

    theta kills every relation, so theta: H -> T is an algebra map.  theta_prime o theta
    fixes each e_i and arrow, whose theta has the one X-degree of its grading, and theta o
    theta_prime fixes e_i x_i, e_i y_i, X_i^- and X_i^+ (``theta_checks``).  theta_prime is
    an algebra map when the images of T's generators satisfy T's defining relations in H
    (``theta_prime_is_homomorphism``), since theta_prime sends x_v^a y_v^b e_v X^m to the
    product of its generators' images.  Then theta_prime o theta = id_H and theta o
    theta_prime = id_T, as both fix generators, so theta is an isomorphism.

    T is a piecewise domain (V. Bavula, *Generalized Weyl algebras and their
    representations*, St. Petersburg Math. J. 4, 1993).  For a in e_i T e_k and b in
    e_k T e_j with top parts r X^{m1} and s X^{m2}, the top part of ab is r sigma^{m1}(s)
    cross(m1, m2) X^{m1 + m2}, where cross(m1, m2) is a product of shifts sigma^j(x).  The
    e_i-component of sigma^j(x) is sigma^j(x_{i-j}), nonzero because sigma is injective
    (``sigma_is_automorphism``).  r and sigma^{m1}(s) are nonzero too, and all three lie
    in the domain e_i R = k[x_i, y_i], so the top part of ab is nonzero.  So T is a
    piecewise domain, and so is H, which is isomorphic to it.

    No check rests on the confluence of H's rules, so none calls ``ensure_confluent``:
    T's values have one canonical form, and each check in H compares reductions of both
    sides, which equal them in H.  So equal forms prove equality in H, and rules that
    were not confluent could only give a false fail.

    On coded values only: int rows keyed by (source, packed word) for H, {m: (den,
    numerators)} for T.  The three checks keep their results on the shift table, so a
    ``report`` computes each once.
    """
    return GwaVerifyReport(*astuple(theta_checks(params)), theta_prime_is_homomorphism(params),
                           sigma_is_automorphism(params))
