"""Differential test of the graded isomorphism decision.

``iso.decide_graded_iso`` gets each case's lambda-monomial composite by
running the numeric transforms on the symbols lambda_0..lambda_{n-1}.
The reference is the decision it replaced, kept here verbatim: a
hand-written symbolic copy of the scale, reflect and rotate formulas
(``_Sym``, ``_SymParams``, ``_sym_*``) and the loop that used it, as
``reference_decide_graded_iso``.  Both must give the same verdict
descriptions (kind, witness, every case with its certificate, detail) on
seeded pairs with n = 3..6: reflection chains, pairs with equal alpha zero
patterns and unrelated pairs.  Each transform run on the symbols and then
evaluated at a numeric lambda must also equal the numeric transform, and
rotating the shift-0 composite by k must give the shift-k composite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from quiverdu import iso
from quiverdu.core import Parameters
from quiverdu.iso import (
    REFLECTION,
    ROTATION,
    CaseDiagnostic,
    IsoVerdict,
    IsoWitness,
    RatioConstraint,
    RatioInconsistency,
    _constraint_from_equation,
    decide_graded_iso,
    solve_ratio_system,
    transform_reflect,
    transform_rotate,
    transform_scale,
    verify_witness,
)


@dataclass(frozen=True)
class _Sym:
    coeff: Fraction
    exps: tuple[tuple[int, int], ...] = ()  # sorted (index, exponent), exponent != 0

    @classmethod
    def const(cls, c) -> "_Sym":
        return cls(Fraction(c), ())

    def times_mono(self, mono: dict[int, int]) -> "_Sym":
        if self.coeff == 0:
            return _Sym(Fraction(0), ())
        exps = dict(self.exps)
        for idx, e in mono.items():
            exps[idx] = exps.get(idx, 0) + e
            if exps[idx] == 0:
                del exps[idx]
        return _Sym(self.coeff, tuple(sorted(exps.items())))

    def scaled(self, c: Fraction) -> "_Sym":
        return _Sym(self.coeff * c, self.exps if self.coeff * c else ())

    def inverted(self) -> "_Sym":
        if self.coeff == 0:
            raise ZeroDivisionError("cannot invert symbolic zero")
        return _Sym(1 / self.coeff, tuple(sorted((i, -e) for i, e in self.exps)))

    def times(self, other: "_Sym") -> "_Sym":
        return self.times_mono(dict(other.exps)).scaled(other.coeff)


@dataclass
class _SymParams:
    n: int
    alpha: list[_Sym]
    beta: list[_Sym]


def _sym_scale(p: Parameters) -> _SymParams:
    n = p.n
    alpha = [
        _Sym.const(p.alpha[i]).times_mono({i: 1, (i - 1) % n: -1})
        for i in range(n)
    ]
    beta = [
        _Sym.const(p.beta[i]).times_mono({(i + 1) % n: 1, (i - 1) % n: -1})
        for i in range(n)
    ]
    return _SymParams(n, alpha, beta)


def _sym_reflect(sp: _SymParams) -> _SymParams:
    n = sp.n
    alpha = [sp.beta[(n - i - 1) % n].inverted().times(sp.alpha[(n - i - 1) % n]).scaled(Fraction(-1))
             for i in range(n)]
    beta = [sp.beta[(n - i - 1) % n].inverted() for i in range(n)]
    return _SymParams(n, alpha, beta)


def _sym_rotate(sp: _SymParams, k: int) -> _SymParams:
    n = sp.n
    return _SymParams(
        n,
        [sp.alpha[(i - k) % n] for i in range(n)],
        [sp.beta[(i - k) % n] for i in range(n)],
    )


def reference_decide_graded_iso(p: Parameters, q: Parameters) -> IsoVerdict:
    if p.n != q.n:
        raise ValueError("parameter vectors have different n")
    n = p.n
    if n < 3:
        return IsoVerdict("unsupported", detail="decision requires n >= 3")
    if not (p.gamma_is_zero() and q.gamma_is_zero()):
        return IsoVerdict("unsupported", detail="decision covers the graded case gamma = 0 only")
    if not (p.beta_all_nonzero() and q.beta_all_nonzero()):
        return IsoVerdict("unsupported", detail="decision requires all beta_i nonzero")
    cases: list[CaseDiagnostic] = []
    for orientation in (ROTATION, REFLECTION):
        base = _sym_scale(p)
        if orientation == REFLECTION:
            base = _sym_reflect(base)
        for k in range(n):
            sym = _sym_rotate(base, k)
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


def describe(verdict: IsoVerdict) -> tuple:
    witness = verdict.witness.describe() if verdict.witness is not None else None
    return verdict.kind, witness, [c.describe() for c in verdict.cases], verdict.detail


def nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([x for x in range(-7, 8) if x]), rng.randint(1, 5))


def random_params(rng: random.Random, n: int, alpha_zero_share: float) -> Parameters:
    alpha = [0 if rng.random() < alpha_zero_share else nonzero(rng) for _ in range(n)]
    return Parameters.of(n, alpha, [nonzero(rng) for _ in range(n)], [0] * n)


def random_chain(rng: random.Random, p: Parameters) -> Parameters:
    """A scale/rotate/reflect chain of p with at least one reflection."""
    q = transform_reflect(p)
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(["scale", "rotate", "reflect"])
        if op == "scale":
            q = transform_scale(q, tuple(nonzero(rng) for _ in range(p.n)))
        elif op == "rotate":
            q = transform_rotate(q, rng.randrange(p.n))
        else:
            q = transform_reflect(q)
    return q


def same_zero_pattern(rng: random.Random, p: Parameters) -> Parameters:
    """Fresh nonzero entries on p's alpha zero pattern, fresh beta."""
    n = p.n
    alpha = [nonzero(rng) if a else 0 for a in p.alpha]
    return Parameters.of(n, alpha, [nonzero(rng) for _ in range(n)], [0] * n)


def seeded_pairs(count: int):
    rng = random.Random(1401)
    for t in range(count):
        n = 3 + t % 4
        p = random_params(rng, n, rng.choice([0.0, 0.3, 0.6]))
        kind = t % 3
        if kind == 0:
            q = random_chain(rng, p)
        elif kind == 1:
            q = same_zero_pattern(rng, p)
        else:
            q = random_params(rng, n, rng.choice([0.0, 0.3, 0.6]))
        yield p, q


def test_decision_matches_reference_on_seeded_pairs():
    kinds = {"isomorphic": 0, "not_isomorphic": 0}
    for p, q in seeded_pairs(330):
        got = decide_graded_iso(p, q)
        assert describe(got) == describe(reference_decide_graded_iso(p, q)), (p, q)
        kinds[got.kind] += 1
    assert kinds["isomorphic"] >= 100 and kinds["not_isomorphic"] >= 100, kinds


def evaluate(x, lam: tuple[Fraction, ...]) -> Fraction:
    """The value of a scalar, symbolic or not, at a numeric lambda."""
    if not isinstance(x, iso._Sym):
        return x
    value = x.coeff
    for i, e in x.exps:
        value *= lam[i] ** e
    return value


def evaluated(sym: Parameters, lam: tuple[Fraction, ...]) -> Parameters:
    return Parameters(sym.n, *(tuple(evaluate(x, lam) for x in vec)
                               for vec in (sym.alpha, sym.beta, sym.gamma)))


def test_symbolic_transforms_evaluate_to_the_numeric_ones():
    rng = random.Random(1402)
    for n in range(3, 7):
        symbols = tuple(iso._Sym(Fraction(1), ((i, 1),)) for i in range(n))
        for _ in range(10):
            p = random_params(rng, n, 0.3)
            p = Parameters.of(n, p.alpha, p.beta, [nonzero(rng) for _ in range(n)])
            lam = tuple(nonzero(rng) for _ in range(n))
            scaled = transform_scale(p, symbols)
            assert evaluated(scaled, lam) == transform_scale(p, lam)
            k = rng.randrange(n)
            assert evaluated(transform_rotate(scaled, k), lam) == \
                transform_rotate(transform_scale(p, lam), k)
            assert evaluated(transform_reflect(scaled), lam) == \
                transform_reflect(transform_scale(p, lam))
            for orientation in (ROTATION, REFLECTION):
                composite = IsoWitness(n, orientation, k, symbols).predicted_params(p)
                assert evaluated(composite, lam) == \
                    IsoWitness(n, orientation, k, lam).predicted_params(p)
                # The decision rotates the shift-0 composite instead.
                unrotated = IsoWitness(n, orientation, 0, symbols).predicted_params(p)
                assert transform_rotate(unrotated, k) == composite
