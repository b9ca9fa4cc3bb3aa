"""Exact scalars, the doubled cyclic quiver, paths, and free path-algebra arithmetic.

The quiver has vertices 0..n-1 and, for each i (mod n), an "up" arrow
u_i : i -> i+1 and a "down" arrow d_i : i+1 -> i.  Paths compose left to
right: p*q concatenates when target(p) = source(q) and is zero otherwise.
All coefficients are exact rationals.

``Combination`` is the one sparse linear-combination kernel of the
package: addition, negation, scaling, equality, hashing and zero-stripping
of a key -> coefficient map, plus ``combine`` for sums of many scaled
parts.  ``Element`` (paths with rational coefficients) is the subclass
defined here; the two GWA element types subclass it too.  The smash
product of the skew-group check has no subclass: it runs on the int-coded
form alone.

Beside it sits the int-coded form of a rational combination, ``(den,
{key: int})``: int numerators over one positive denominator.  The GWA
product, the normal-form kernel and the domain probes run on it and build
``Fraction``s only at the public boundary.  ``Combination.coded`` encodes
over the lcm of the denominators, ``Combination.from_coded`` decodes,
``add_into`` adds in place, lifting the denominator to the lcm only when
needed, and ``reduced`` divides out a common factor.

``Sampler`` is the random generator of the sampled domain probes: a
``random.Random`` whose small draws make fewer Python calls for the same
generator bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping

# Exact base scalars: always reduced, positive denominator, 0 == 0/1.
Scalar = Fraction

UP = "u"
DOWN = "d"

# Numerators of the random coefficients c/q (q = 1, 2, 3) of the sampled
# piecewise-domain probes.
NONZERO_NUMERATORS = tuple(x for x in range(-5, 6) if x)


class Sampler(random.Random):
    """The random generator of the sampled piecewise-domain probes.

    ``below(n)`` is ``randrange(n)``; ``randint``, ``choice`` and
    ``sample`` are ``random.Random``'s, on int arguments.  Each inlines
    the rejection loop of CPython's ``_randbelow_with_getrandbits``
    (k = n.bit_length() bits for a range of n, redrawn while >= n), so it
    makes the same ``getrandbits`` calls and values and the generator
    state match ``random.Random(seed)`` call for call; only the method
    layers ``randint -> randrange -> _randbelow`` in between are skipped.
    ``sample`` is inlined only for k <= 5 and a list or tuple population
    of at most 21 items, without ``counts``: CPython's pool branch.  Any
    other call goes to ``random.Random.sample``.  Everything else is
    ``random.Random``'s.
    """

    def below(self, n: int) -> int:
        """Uniform in range(n), n > 0."""
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r

    def randint(self, a: int, b: int) -> int:
        n = b - a + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return a + r

    def choice(self, seq):
        n = len(seq)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return seq[r]

    def sample(self, population, k, *, counts=None):
        n = len(population)
        if (k > 5 or k < 0 or k > n or n > 21 or counts is not None
                or type(population) not in (list, tuple)):
            return super().sample(population, k, counts=counts)
        if k == 1:  # the pool branch's one draw, without the copy
            return [population[self.below(n)]]
        # CPython's pool branch: each pick is replaced by the last unpicked item.
        getrandbits = self.getrandbits
        result = []
        pool = list(population)
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[m - 1]
        return result


@dataclass(frozen=True)
class Arrow:
    """One arrow of the doubled cycle: family 'u' or 'd' plus its index."""

    family: str
    index: int

    def __post_init__(self) -> None:
        if self.family not in (UP, DOWN):
            raise ValueError(f"unknown arrow family {self.family!r}")
        if self.index < 0:
            raise ValueError("arrow index must be nonnegative")
        object.__setattr__(self, "_hash", hash((self.family, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def source(self, n: int) -> int:
        return self.index % n if self.family == UP else (self.index + 1) % n

    def target(self, n: int) -> int:
        return (self.index + 1) % n if self.family == UP else self.index % n

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


def up(i: int, n: int) -> Arrow:
    return Arrow(UP, i % n)


def down(i: int, n: int) -> Arrow:
    return Arrow(DOWN, i % n)


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence with explicit source vertex.

    The source is stored separately so the trivial path e_v is
    representable; consecutive arrows must compose (target = next source).
    The hash, ``hash((n, source, arrows))``, and the target are computed
    once here: paths are the dict keys of every path-algebra product.
    """

    n: int
    source: int
    arrows: tuple[Arrow, ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.source < n:
            raise ValueError("source vertex out of range")
        at = self.source
        for a in self.arrows:
            i = a.index
            if i >= n:
                raise ValueError(f"arrow {a} out of range for n={n}")
            # u_i : i -> i+1 and d_i : i+1 -> i, as in Arrow.source/target.
            nxt = i + 1 if i + 1 < n else 0
            if a.family == UP:
                if i != at:
                    raise ValueError(f"arrows do not compose at vertex {at}: {a}")
                at = nxt
            else:
                if nxt != at:
                    raise ValueError(f"arrows do not compose at vertex {at}: {a}")
                at = i
        object.__setattr__(self, "_target", at)
        object.__setattr__(self, "_hash", hash((n, self.source, self.arrows)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if type(other) is not Path:
            return NotImplemented
        return (self._hash == other._hash and self.arrows == other.arrows
                and self.source == other.source and self.n == other.n)

    @property
    def target(self) -> int:
        return self._target

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __str__(self) -> str:
        if not self.arrows:
            return f"e{self.source}"
        return ".".join(str(a) for a in self.arrows)


def trivial_path(n: int, v: int) -> Path:
    return Path(n, v % n, ())


def path_from_arrows(n: int, arrows: Iterable[Arrow]) -> Path:
    arrows = tuple(arrows)
    if not arrows:
        raise ValueError("empty arrow sequence has no determined source")
    return Path(n, arrows[0].source(n), arrows)


def path_from_word(n: int, source: int, word: str) -> Path:
    """Build the unique path from ``source`` following the letters of ``word``.

    From every vertex there is exactly one outgoing u-arrow and one
    outgoing d-arrow, so a letter string determines the path.
    """
    arrows = []
    at = source % n
    for letter in word:
        if letter == UP:
            a = up(at, n)
        elif letter == DOWN:
            a = down(at - 1, n)
        else:
            raise ValueError(f"bad letter {letter!r} in path word")
        arrows.append(a)
        at = a.target(n)
    return Path(n, source % n, tuple(arrows))


def canonical_path_key(p: Path) -> tuple:
    """Total order used for deterministic Element printing and sorting.

    Length first, then source, then arrowwise with u before d and lower
    index before higher.
    """
    return (p.length, p.source, tuple((0 if a.family == UP else 1, a.index) for a in p.arrows))


class Combination:
    """A finite linear combination: a map from keys to nonzero coefficients.

    Subclasses fix the key type and the coefficient ring through
    ``_entry`` and keep only their named constructors, their product and
    their printing.  Values are immutable: every operation builds a new
    value and never touches the operands' term maps, so results may be
    shared.
    Zero coefficients are stripped eagerly, so two values are equal iff
    their term maps are equal.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping | None = None):
        if n < 1:
            raise ValueError("n must be positive")
        clean = {}
        for key, c in (terms or {}).items():
            key, c = self._entry(n, key, c)
            if c:
                clean[key] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _entry(cls, n: int, key, coeff):
        """Validate one term of a public constructor; return (key, coefficient)."""
        return key, Fraction(coeff)

    @classmethod
    def _from_sums(cls, n: int, sums: dict):
        """Build from a term map whose keys are already valid for ``n``.

        Skips the per-term checks of ``_entry`` and drops zero sums; the
        result gets a fresh dict, so ``sums`` stays the caller's.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", {k: c for k, c in sums.items() if c})
        return self

    @classmethod
    def from_coded(cls, n: int, den: int, nums: Mapping):
        """The sum of (c / den) key over the items of ``nums``, zeros dropped.

        The keys must be valid for ``n``; they are not checked.
        """
        if den == 1:
            return cls._from_sums(n, {k: Fraction(c) for k, c in nums.items()})
        return cls._from_sums(n, {k: Fraction(c, den) for k, c in nums.items()})

    def coded(self) -> tuple[int, dict]:
        """``(den, {key: int})``: the coefficients over the lcm of their denominators."""
        den = lcm(*(c.denominator for c in self.terms.values()))
        return den, {k: c.numerator * (den // c.denominator) for k, c in self.terms.items()}

    @classmethod
    def combine(cls, n: int, parts: Iterable[tuple["Combination", object]]):
        """The sum of ``c * x`` over the ``(x, c)`` pairs, built once.

        Every part must live over the same ``n``.  The parts' term maps
        are only read, never changed.
        """
        sums: dict = {}
        for x, c in parts:
            if x.n != n:
                raise ValueError(f"mismatched sizes: {x.n} and {n}")
            c = Fraction(c)
            unit = c == 1
            for key, v in x.terms.items():
                if not unit:
                    v = v * c
                old = sums.get(key)
                sums[key] = v if old is None else old + v
        return cls._from_sums(n, sums)

    def __setattr__(self, *args):  # pragma: no cover - guard only
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, n: int):
        return cls(n, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        return self.combine(self.n, ((self, 1), (other, 1)))

    def __neg__(self):
        return self._from_sums(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self.combine(self.n, ((self, 1), (other, -1)))

    def scale(self, c):
        return self.combine(self.n, ((self, c),))

    def __mul__(self, other):
        if isinstance(other, Combination):
            return self._product(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _product(self, other):
        raise TypeError(f"{type(self).__name__} has no parameter-free product")


def add_into(acc: list, den: int, nums: Mapping, p: int = 1, strip: bool = False) -> None:
    """acc = [D, out]: out/D += p * nums/den, in place, p an int.

    D is raised to lcm(D, den) only when ``den`` does not divide it.  With
    ``strip`` (p and the numerators nonzero) a sum that reaches zero is
    deleted at once, as each ``Combination`` addition strips it, so a later
    term with its key goes to the end; without, it stays in place, as
    ``Combination.combine`` leaves it until the end.
    """
    D, out = acc
    if D % den:
        lift = den // gcd(D, den)
        for k in out:
            out[k] *= lift
        acc[0] = D = D * lift
    p *= D // den
    for k, c in nums.items():
        c *= p
        old = out.get(k)
        if old is not None:
            c += old
            if strip and not c:
                del out[k]
                continue
        out[k] = c


def reduced(den: int, nums: dict) -> tuple[int, dict]:
    """``(den, nums)`` divided through by the gcd of ``den`` and every numerator."""
    g = gcd(den, *nums.values())
    return (den, nums) if g == 1 else (den // g, {k: c // g for k, c in nums.items()})


class Element(Combination):
    """A finite rational combination of paths: the universal algebra value."""

    __slots__ = ()

    @classmethod
    def _entry(cls, n: int, p: Path, coeff):
        if p.n != n:
            raise ValueError("path over wrong quiver size")
        return p, Fraction(coeff)

    @classmethod
    def from_path(cls, p: Path, coeff: Fraction | int = 1) -> "Element":
        return cls(p.n, {p: Fraction(coeff)})

    @classmethod
    def identity(cls, n: int) -> "Element":
        return cls(n, {trivial_path(n, v): Fraction(1) for v in range(n)})

    def _product(self, other: "Element") -> "Element":
        return multiply(self, other)

    def support(self) -> list[Path]:
        return sorted(self.terms, key=canonical_path_key)

    def degrees(self) -> set[int]:
        return {p.length for p in self.terms}

    def max_degree(self) -> int:
        return max((p.length for p in self.terms), default=0)

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"Element({self.n}, {format_element(self)!r})"


def compose(p: Path, q: Path) -> Element:
    """Concatenation product of two paths: zero on source/target mismatch."""
    if p.n != q.n:
        raise ValueError("mismatched quiver sizes")
    if p.target != q.source:
        return Element.zero(p.n)
    return Element.from_path(Path(p.n, p.source, p.arrows + q.arrows))


def multiply(a: Element, b: Element) -> Element:
    """Bilinear extension of path concatenation."""
    if a.n != b.n:
        raise ValueError("mismatched quiver sizes")
    sums: dict[Path, Fraction] = {}
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            if p.target != q.source:
                continue
            r = Path(a.n, p.source, p.arrows + q.arrows)
            old = sums.get(r)
            sums[r] = cp * cq if old is None else old + cp * cq
    return Element._from_sums(a.n, sums)


def map_element(a: Element, vertex_map: Callable[[int], int],
                arrow_map: Callable[[Arrow], tuple[Fraction, Arrow]]) -> Element:
    """Apply a graded linear map given on vertices and arrows multiplicatively.

    ``arrow_map`` returns (scalar, image arrow).  The images must compose;
    a well-formed quiver map guarantees this.
    """
    sums: dict[Path, Fraction] = {}
    for p, c in a.terms.items():
        coeff = c
        arrows = []
        for arr in p.arrows:
            s, img = arrow_map(arr)
            coeff *= Fraction(s)
            arrows.append(img)
        q = Path(a.n, vertex_map(p.source) % a.n, tuple(arrows))
        old = sums.get(q)
        sums[q] = coeff if old is None else old + coeff
    return Element._from_sums(a.n, sums)


def adjacency_matrix(n: int) -> list[list[int]]:
    """Arrow counts M[i][j] = #{arrows i -> j}; symmetric for this quiver."""
    if n < 1:
        raise ValueError("n must be positive")
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][(i + 1) % n] += 1  # u_i
        m[(i + 1) % n][i] += 1  # d_i
    return m


@dataclass(frozen=True)
class Parameters:
    """(alpha, beta, gamma): length-n vectors of field-like scalars (``of`` makes Fractions)."""

    n: int
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        for name in ("alpha", "beta", "gamma"):
            vec = getattr(self, name)
            if len(vec) != self.n:
                raise ValueError(f"{name} must have length n={self.n}")

    def __hash__(self) -> int:
        # Computed on first use and kept: symbolic composites (``iso``) are
        # never hashed, so they never pay for hashing 3n entries.
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.n, self.alpha, self.beta, self.gamma)))
            return self._hash

    @classmethod
    def of(cls, n: int, alpha, beta, gamma) -> "Parameters":
        conv = lambda xs: tuple(Fraction(x) for x in xs)
        return cls(n, conv(alpha), conv(beta), conv(gamma))

    def beta_all_nonzero(self) -> bool:
        return all(b != 0 for b in self.beta)

    def gamma_is_zero(self) -> bool:
        return all(g == 0 for g in self.gamma)


# ---------------------------------------------------------------------------
# Element text format: sum of "c * a1.a2...ak" terms, "c @v" for trivial
# paths.  parse(format(x)) == x bit-exactly.
# ---------------------------------------------------------------------------

def format_element(a: Element) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for p in a.support():
        c = a.terms[p]
        if p.arrows:
            parts.append(f"{c} * {'.'.join(str(x) for x in p.arrows)}")
        else:
            parts.append(f"{c} @{p.source}")
    return " + ".join(parts)


def _parse_arrow(token: str, n: int) -> Arrow:
    token = token.strip()
    if len(token) < 2 or token[0] not in (UP, DOWN):
        raise ValueError(f"bad arrow token {token!r}")
    try:
        idx = int(token[1:])
    except ValueError as exc:
        raise ValueError(f"bad arrow token {token!r}") from exc
    if not 0 <= idx < n:
        raise ValueError(f"arrow index out of range in {token!r}")
    return Arrow(token[0], idx)


def parse_element(text: str, n: int) -> Element:
    """Parse the textual element format back into an Element."""
    text = text.strip()
    if text == "0" or not text:
        return Element.zero(n)
    terms: dict[Path, Fraction] = {}
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError("empty term in element text")
        vertex = None
        if "@" in term:
            term, _, vtext = term.partition("@")
            term = term.strip()
            try:
                vertex = int(vtext.strip())
            except ValueError as exc:
                raise ValueError(f"bad vertex in {raw!r}") from exc
            if not 0 <= vertex < n:
                raise ValueError(f"vertex out of range in {raw!r}")
        if "*" in term:
            coeff_text, _, word = term.partition("*")
            arrows = tuple(_parse_arrow(t, n) for t in word.strip().split("."))
            path = path_from_arrows(n, arrows)
            if vertex is not None and path.source != vertex:
                raise ValueError(f"source annotation disagrees with arrows in {raw!r}")
        else:
            coeff_text = term
            if vertex is None:
                raise ValueError(f"trivial-path term needs '@v' in {raw!r}")
            path = trivial_path(n, vertex)
        try:
            coeff = Fraction(coeff_text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad coefficient in {raw!r}") from exc
        terms[path] = terms.get(path, Fraction(0)) + coeff
    return Element(n, terms)
