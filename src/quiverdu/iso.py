"""Isomorphism constructors, witness verification, and the graded decision.

Three constructors act on parameters and on generators:

  scale(lambda):  u_i -> lambda_i u_i, d_i -> d_i;
                  alpha_i' = lambda_i lambda_{i-1}^{-1} alpha_i,
                  beta_i'  = lambda_{i+1} lambda_{i-1}^{-1} beta_i,
                  gamma_i' = lambda_{i-1}^{-1} gamma_i
  rotate:         e_i -> e_{i+1}, u_i -> u_{i+1}, d_i -> d_{i+1};
                  parameters shift by one
  reflect:        e_i -> e_{n-i}, u_i -> d_{n-i-1}, d_i -> u_{n-i-1};
                  alpha_i' = -beta_{n-i-1}^{-1} alpha_{n-i-1},
                  beta_i'  = beta_{n-i-1}^{-1},
                  gamma_i' = -beta_{n-i-1}^{-1} gamma_{n-i-1}

Each formula is written once, in ``transform_*``, and runs on any scalars
with ``*``, ``/`` and unary ``-``: on numbers for a witness, and on
lambda-monomials (``_Sym``) for the graded decision (gamma = 0, beta
nonzero, n >= 3).  That decision searches the 2n dihedral cases
rotate^k o (reflect or id) o scale(lambda), each case's composite being
``IsoWitness.predicted_params`` run on the symbols lambda_0..lambda_{n-1},
and solves for lambda by weighted union-find over the multiplicative
ratio constraints the composite gives.  Every positive answer is
re-verified before it is returned (``verify_witness``, on the relations'
packed words: the witness's map of arrow codes, then the target's kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import Parameters
from .rewrite import PRESET_QDU, _normal_sum, _tables, build_system, ensure_confluent
from .structure import DiagonalMapSpec

ROTATION = "rotation"
REFLECTION = "reflection"


# ---------------------------------------------------------------------------
# Parameter transforms
# ---------------------------------------------------------------------------

def transform_scale(p: Parameters, lam: tuple[Fraction, ...]) -> Parameters:
    n = p.n
    lam = tuple(x if isinstance(x, _Sym) else Fraction(x) for x in lam)
    if len(lam) != n or any(x == 0 for x in lam):
        raise ValueError("lambda must be a length-n vector of nonzero scalars")
    alpha = tuple(lam[i] / lam[(i - 1) % n] * p.alpha[i] for i in range(n))
    beta = tuple(lam[(i + 1) % n] / lam[(i - 1) % n] * p.beta[i] for i in range(n))
    gamma = tuple(p.gamma[i] / lam[(i - 1) % n] for i in range(n))
    return Parameters(n, alpha, beta, gamma)


def transform_rotate(p: Parameters, k: int = 1) -> Parameters:
    n = p.n
    take = lambda vec: tuple(vec[(i - k) % n] for i in range(n))
    return Parameters(n, take(p.alpha), take(p.beta), take(p.gamma))


def transform_reflect(p: Parameters) -> Parameters:
    n = p.n
    if not p.beta_all_nonzero():
        raise ValueError("reflection requires all beta_i nonzero")
    alpha = tuple(-p.alpha[(n - i - 1) % n] / p.beta[(n - i - 1) % n] for i in range(n))
    beta = tuple(1 / p.beta[(n - i - 1) % n] for i in range(n))
    gamma = tuple(-p.gamma[(n - i - 1) % n] / p.beta[(n - i - 1) % n] for i in range(n))
    return Parameters(n, alpha, beta, gamma)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsoWitness:
    """A dihedral relabeling plus a scaling: determines the generator map."""

    n: int
    orientation: str
    shift: int
    lam: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.orientation not in (ROTATION, REFLECTION):
            raise ValueError("orientation must be rotation or reflection")
        if len(self.lam) != self.n or any(x == 0 for x in self.lam):
            raise ValueError("lambda entries must be nonzero and of length n")

    @property
    def spec(self) -> DiagonalMapSpec:
        """The generator map: u_i -> lambda_i u_i, d_i -> d_i, then the relabeling."""
        ones = (Fraction(1),) * self.n
        return DiagonalMapSpec(self.n, self.orientation == REFLECTION, self.shift, self.lam, ones)

    def predicted_params(self, p: Parameters) -> Parameters:
        q = transform_scale(p, self.lam)
        if self.orientation == REFLECTION:
            q = transform_reflect(q)
        return transform_rotate(q, self.shift)

    def describe(self) -> dict:
        return {
            "orientation": self.orientation,
            "shift": self.shift,
            "lambda": [str(x) for x in self.lam],
        }


def verify_witness(w: IsoWitness, src: Parameters, tgt: Parameters) -> bool:
    """Whether the witness's map sends every source relation to zero in the target.

    The map is a dihedral ``DiagonalMapSpec``: bijective on vertices and
    arrows, with nonzero scalars by construction.  Nothing is decoded.
    Reduction stays in a coset of the ideal, so an image that reduces to 0
    is killed whatever the rules are; only a nonzero normal form needs the
    target's rules confluent (ValueError otherwise) before it refutes.
    """
    n = src.n
    if w.n != n or tgt.n != n:
        return False
    target_sys = build_system(PRESET_QDU, tgt)
    target = _tables(target_sys)
    spec = w.spec
    for row in _tables(build_system(PRESET_QDU, src)).relation_rows():
        # The relation's image: each word goes to one target word, times a scalar.
        terms = [(word, c) for (_, word), c in spec.map_row(row)[1].items()]
        # The relation is killed iff the image's normal form in the target is 0.
        _, image = _normal_sum(target, terms)
        if any(image.values()):
            ensure_confluent(target_sys)
            return False
    return True


# ---------------------------------------------------------------------------
# Ratio constraints and the weighted union-find solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioConstraint:
    """lambda_a = c * lambda_b with c nonzero."""

    a: int
    b: int
    c: Fraction

    def __post_init__(self) -> None:
        if self.c == 0:
            raise ValueError("ratio must be nonzero")


@dataclass
class RatioInconsistency:
    constraint: RatioConstraint
    accumulated: Fraction

    @property
    def cycle_ratio(self) -> Fraction:
        return self.accumulated / self.constraint.c

    def describe(self) -> dict:
        return {
            "constraint": f"l{self.constraint.a} = {self.constraint.c} * l{self.constraint.b}",
            "accumulated_ratio": str(self.accumulated),
            "cycle_ratio": str(self.cycle_ratio),
        }


def solve_ratio_system(constraints: list[RatioConstraint], n: int):
    """Propagate multiplicative ratios; detect inconsistent cycles.

    Returns a concrete lambda (free components pinned to 1) or a
    RatioInconsistency carrying the offending constraint and the ratio
    already forced between its endpoints.
    """
    parent = list(range(n))
    weight = [Fraction(1)] * n

    def find(x: int) -> tuple[int, Fraction]:
        w = Fraction(1)
        while parent[x] != x:
            w *= weight[x]
            x = parent[x]
        return x, w

    for con in constraints:
        ra, wa = find(con.a)
        rb, wb = find(con.b)
        if ra == rb:
            if wa != con.c * wb:
                return RatioInconsistency(con, wa / wb)
        else:
            # lambda_a = wa * root_a, lambda_b = wb * root_b, lambda_a = c lambda_b
            parent[ra] = rb
            weight[ra] = con.c * wb / wa
    lam = []
    for x in range(n):
        _, w = find(x)
        lam.append(w)
    return tuple(lam)


# ---------------------------------------------------------------------------
# Symbolic lambda: the transforms above run on these as scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Sym:
    """A rational coefficient times a lambda-monomial (zero has no monomial)."""

    coeff: Fraction
    exps: tuple[tuple[int, int], ...] = ()  # sorted (index, exponent), exponent != 0

    def __hash__(self) -> int:
        return hash(self.exps)  # Parameters hash every entry; Fraction hashes are slow

    def _times(self, other, sign: int) -> "_Sym":
        """self * other for sign 1, self / other for sign -1."""
        if not isinstance(other, (_Sym, int, Fraction)):
            return NotImplemented
        c, mono = (other.coeff, other.exps) if isinstance(other, _Sym) else (other, ())
        coeff = self.coeff * c if sign > 0 else self.coeff / c
        if coeff == 0:
            return _Sym(coeff)
        exps = dict(self.exps)
        for idx, e in mono:
            exps[idx] = exps.get(idx, 0) + sign * e
            if exps[idx] == 0:
                del exps[idx]
        return _Sym(coeff, tuple(sorted(exps.items())))

    def __mul__(self, other) -> "_Sym":
        return self._times(other, 1)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Sym":
        return self._times(other, -1)

    def __rtruediv__(self, other) -> "_Sym":
        return _Sym(Fraction(other))._times(self, -1)

    def __neg__(self) -> "_Sym":
        return _Sym(-self.coeff, self.exps)


def _constraint_from_equation(sym: _Sym, value: Fraction) -> RatioConstraint | None:
    """Translate coeff * l_a / l_b = value into a RatioConstraint."""
    match sym.exps:
        case ((a, 1), (b, -1)) | ((b, -1), (a, 1)):
            return RatioConstraint(a, b, value / sym.coeff)
    raise AssertionError(f"unexpected lambda monomial {sym.exps}")


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------

@dataclass
class CaseDiagnostic:
    orientation: str
    shift: int
    reason: str
    inconsistency: RatioInconsistency | None = None

    def describe(self) -> dict:
        out = {"orientation": self.orientation, "shift": self.shift, "reason": self.reason}
        if self.inconsistency is not None:
            out["certificate"] = self.inconsistency.describe()
        return out


@dataclass
class IsoVerdict:
    kind: str  # "isomorphic" | "not_isomorphic" | "unsupported"
    witness: IsoWitness | None = None
    cases: list[CaseDiagnostic] = field(default_factory=list)
    detail: str = ""


def decide_graded_iso(p: Parameters, q: Parameters) -> IsoVerdict:
    """Complete graded isomorphism decision for gamma = 0, nonzero beta, n >= 3.

    For each of the 2n dihedral cases the lambda-ratio constraints from
    every beta equation and every nonzero alpha equation are solved by
    weighted union-find; a solution yields a witness which must pass
    verify_witness before the case is accepted.
    """
    if p.n != q.n:
        raise ValueError("parameter vectors have different n")
    n = p.n
    if n < 3:
        return IsoVerdict("unsupported", detail="decision requires n >= 3")
    if not (p.gamma_is_zero() and q.gamma_is_zero()):
        return IsoVerdict("unsupported", detail="decision covers the graded case gamma = 0 only")
    if not (p.beta_all_nonzero() and q.beta_all_nonzero()):
        return IsoVerdict("unsupported", detail="decision requires all beta_i nonzero")
    symbols = tuple(_Sym(Fraction(1), ((i, 1),)) for i in range(n))
    cases: list[CaseDiagnostic] = []
    for orientation in (ROTATION, REFLECTION):
        # Case k is rotate^k of case 0: scale and reflect once per orientation.
        unrotated = IsoWitness(n, orientation, 0, symbols).predicted_params(p)
        for k in range(n):
            sym = transform_rotate(unrotated, k)
            constraints: list[RatioConstraint] = []
            zero_pattern_ok = True
            for i in range(n):
                constraints.append(_constraint_from_equation(sym.beta[i], q.beta[i]))
                sa = sym.alpha[i]
                if (sa.coeff == 0) != (q.alpha[i] == 0):
                    zero_pattern_ok = False
                    cases.append(CaseDiagnostic(
                        orientation, k,
                        f"alpha zero-pattern mismatch at index {i}"))
                    break
                if sa.coeff != 0:
                    constraints.append(_constraint_from_equation(sa, q.alpha[i]))
            if not zero_pattern_ok:
                continue
            solved = solve_ratio_system(constraints, n)
            if isinstance(solved, RatioInconsistency):
                cases.append(CaseDiagnostic(orientation, k, "inconsistent ratio cycle", solved))
                continue
            witness = IsoWitness(n, orientation, k, solved)
            if witness.predicted_params(p) != q:
                cases.append(CaseDiagnostic(orientation, k, "solved lambda does not reproduce target"))
                continue
            if not verify_witness(witness, p, q):
                cases.append(CaseDiagnostic(orientation, k, "witness failed relation verification"))
                continue
            return IsoVerdict("isomorphic", witness=witness, cases=cases)
    return IsoVerdict("not_isomorphic", cases=cases)
