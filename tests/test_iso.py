import random
from fractions import Fraction

import pytest

from quiverdu import iso, rewrite
from quiverdu.core import Arrow, Element, Parameters, Path, path_from_word
from quiverdu.iso import (
    REFLECTION,
    ROTATION,
    IsoWitness,
    RatioConstraint,
    RatioInconsistency,
    _constraint_from_equation,
    _Sym,
    decide_graded_iso,
    solve_ratio_system,
    transform_reflect,
    transform_rotate,
    transform_scale,
    verify_witness,
)
from quiverdu.rewrite import PRESET_QDU, _normal_sum, _tables, build_system
from helpers import apply_map


def transform_params(op, p, lam=None):
    """Apply the named parameter transform: scale (by lam), rotate or reflect."""
    if op == "scale":
        if lam is None:
            raise ValueError("scale needs lambda")
        return transform_scale(p, lam)
    if op == "rotate":
        return transform_rotate(p)
    if op == "reflect":
        return transform_reflect(p)
    raise ValueError(f"unknown transform {op!r}")


def rand_graded_params(n, rng):
    nz = lambda: Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
    any_ = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return Parameters.of(n, [any_() for _ in range(n)], [nz() for _ in range(n)], [0] * n)


def rand_lambda(n, rng):
    return tuple(Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
                 for _ in range(n))


def test_transform_scale_example():
    p = Parameters.of(3, [0, 0, 0], [1, 1, 1], [0, 0, 0])
    q = transform_scale(p, (Fraction(1), Fraction(2), Fraction(1)))
    assert q.beta == (Fraction(2), Fraction(1), Fraction(1, 2))


def test_transform_rotate_example():
    p = Parameters.of(3, [10, 20, 30], [1, 2, 3], [0, 0, 0])
    q = transform_rotate(p)
    assert q.alpha == (Fraction(30), Fraction(10), Fraction(20))


def test_transform_reflect_example():
    p = Parameters.of(3, [0, 0, 0], [1, 2, 4], [0, 0, 0])
    q = transform_reflect(p)
    assert q.beta == (Fraction(1, 4), Fraction(1, 2), Fraction(1))
    bad = Parameters.of(3, [0, 0, 0], [0, 1, 1], [0, 0, 0])
    with pytest.raises(ValueError):
        transform_reflect(bad)


def test_transform_params_dispatch():
    p = Parameters.of(3, [1, 0, 0], [1, 1, 1], [2, 0, 0])
    assert transform_params("rotate", p) == transform_rotate(p)
    with pytest.raises(ValueError):
        transform_params("scale", p)  # missing lambda


def test_constructor_maps_are_isomorphisms():
    rng = random.Random(97)
    for _ in range(5):
        p = rand_graded_params(3, rng)
        lam = rand_lambda(3, rng)
        w = IsoWitness(3, ROTATION, 0, lam)
        assert verify_witness(w, p, transform_scale(p, lam))
        w = IsoWitness(3, ROTATION, 1, (Fraction(1),) * 3)
        assert verify_witness(w, p, transform_rotate(p))
        w = IsoWitness(3, REFLECTION, 0, (Fraction(1),) * 3)
        assert verify_witness(w, p, transform_reflect(p))


def test_verify_witness_rejects_perturbation():
    rng = random.Random(101)
    p = rand_graded_params(3, rng)
    lam = rand_lambda(3, rng)
    q = transform_scale(p, lam)
    bad = list(lam)
    bad[1] *= 2
    assert not verify_witness(IsoWitness(3, ROTATION, 0, tuple(bad)), p, q)


def test_verify_witness_checks_confluence_only_to_refute(monkeypatch):
    # An image that reduces to 0 is in the ideal whatever the rules are; a
    # nonzero normal form refutes the witness only once the target's rules
    # are known to be confluent, so only a refutation runs the check.
    calls = []
    genuine = rewrite.check_confluence
    monkeypatch.setattr(rewrite, "check_confluence", lambda sys: calls.append(sys) or genuine(sys))
    rng = random.Random(101)
    p = rand_graded_params(3, rng)
    lam = rand_lambda(3, rng)
    q = transform_scale(p, lam)
    bad = list(lam)
    bad[1] *= 2
    rewrite._qdu_system.cache_clear()
    assert verify_witness(IsoWitness(3, ROTATION, 0, lam), p, q)
    assert verify_witness(IsoWitness(3, REFLECTION, 0, (Fraction(1),) * 3), p, transform_reflect(p))
    assert calls == []
    assert not verify_witness(IsoWitness(3, ROTATION, 0, tuple(bad)), p, q)
    assert len(calls) == 1 and calls[0] is build_system(PRESET_QDU, q)


def test_verify_witness_refutes_an_image_with_a_cancelled_word():
    # u_1 and u_2 doubled, into H itself: the reduced image of every relation
    # that the map breaks keeps a word whose numerator cancelled to 0 next to
    # one that survived, so a refutation must ask whether any word survived.
    p = Parameters.of(3, [1, 2, 3], [1, 1, 1], [1, 1, 1])
    w = IsoWitness(3, ROTATION, 0, (Fraction(1), Fraction(2), Fraction(2)))
    tables = _tables(build_system(PRESET_QDU, p))
    images = [_normal_sum(tables, [(word, c) for (_, word), c in w.spec.map_row(row)[1].items()])[1]
              for row in tables.relation_rows()]
    broken = [image for image in images if any(image.values())]
    assert broken and all(0 in image.values() for image in broken)
    assert not verify_witness(w, p, p)


def identity_witness(n):
    return IsoWitness(n, ROTATION, 0, tuple(Fraction(1) for _ in range(n)))


def test_identity_witness():
    p = Parameters.of(3, [0, 0, 0], [1, 1, 1], [0, 0, 0])
    assert verify_witness(identity_witness(3), p, p)


def test_verify_witness_refuses_mismatched_sizes():
    # Each size on its own: the witness's, or the target's, differing from the source's.
    p = Parameters.of(3, [1, 2, 3], [1, 1, 1], [0, 0, 0])
    q = Parameters.of(4, [1, 2, 3, 4], [1, 1, 1, 1], [0, 0, 0, 0])
    assert not verify_witness(identity_witness(4), p, p)
    assert not verify_witness(identity_witness(3), p, q)


def test_solve_ratio_system():
    cons = [RatioConstraint(1, 0, Fraction(2)), RatioConstraint(2, 1, Fraction(3))]
    lam = solve_ratio_system(cons, 3)
    assert lam == (Fraction(1), Fraction(2), Fraction(6))
    bad = solve_ratio_system([RatioConstraint(0, 0, Fraction(2))], 1)
    assert isinstance(bad, RatioInconsistency)
    assert bad.accumulated == 1 and bad.constraint.c == 2
    free = solve_ratio_system([], 3)
    assert free == (Fraction(1), Fraction(1), Fraction(1))


def test_solve_ratio_system_detects_cycle():
    cons = [
        RatioConstraint(1, 0, Fraction(2)),
        RatioConstraint(2, 1, Fraction(3)),
        RatioConstraint(2, 0, Fraction(5)),  # forces 6 = 5: inconsistent
    ]
    out = solve_ratio_system(cons, 3)
    assert isinstance(out, RatioInconsistency)


def test_decide_identity_case():
    p = Parameters.of(3, [0, 0, 0], [1, 1, 1], [0, 0, 0])
    verdict = decide_graded_iso(p, p)
    assert verdict.kind == "isomorphic"
    w = verdict.witness
    assert w.orientation == ROTATION and w.shift == 0
    assert w.lam == (Fraction(1),) * 3


def test_decide_documented_examples():
    p = Parameters.of(3, [0, 0, 0], [1, 1, 1], [0, 0, 0])
    q = Parameters.of(3, [0, 0, 0], [1, 1, 2], [0, 0, 0])
    verdict = decide_graded_iso(p, q)
    assert verdict.kind == "not_isomorphic"
    assert len(verdict.cases) == 6
    assert all(c.inconsistency is not None for c in verdict.cases)
    r = Parameters.of(3, [0, 0, 0], [2, 1, Fraction(1, 2)], [0, 0, 0])
    verdict = decide_graded_iso(p, r)
    assert verdict.kind == "isomorphic"
    assert verify_witness(verdict.witness, p, r)


def test_decide_round_trip_random():
    rng = random.Random(103)
    for _ in range(10):
        n = rng.choice([3, 4, 5])
        p = rand_graded_params(n, rng)
        q = p
        for _ in range(rng.randint(1, 4)):
            op = rng.choice(["scale", "rotate", "reflect"])
            q = transform_params(op, q, rand_lambda(n, rng) if op == "scale" else None)
        verdict = decide_graded_iso(p, q)
        assert verdict.kind == "isomorphic"
        assert verify_witness(verdict.witness, p, q)


def test_decide_symmetric():
    rng = random.Random(107)
    for _ in range(6):
        n = 3
        p = rand_graded_params(n, rng)
        if rng.random() < 0.5:
            q = transform_scale(p, rand_lambda(n, rng))
        else:
            q = rand_graded_params(n, rng)
        v1 = decide_graded_iso(p, q)
        v2 = decide_graded_iso(q, p)
        assert (v1.kind == "isomorphic") == (v2.kind == "isomorphic")


def test_decide_unsupported_cases():
    p2 = Parameters.of(2, [0, 0], [1, 1], [0, 0])
    assert decide_graded_iso(p2, p2).kind == "unsupported"
    p = Parameters.of(3, [0, 0, 0], [1, 1, 1], [1, 0, 0])
    assert decide_graded_iso(p, p).kind == "unsupported"
    pz = Parameters.of(3, [0, 0, 0], [0, 1, 1], [0, 0, 0])
    assert decide_graded_iso(pz, pz).kind == "unsupported"
    with pytest.raises(ValueError):
        decide_graded_iso(p2, Parameters.of(3, [0] * 3, [1] * 3, [0] * 3))


def test_alpha_zero_pattern_distinguishes():
    p = Parameters.of(3, [1, 0, 0], [1, 1, 1], [0, 0, 0])
    q = Parameters.of(3, [0, 0, 0], [1, 1, 1], [0, 0, 0])
    verdict = decide_graded_iso(p, q)
    assert verdict.kind == "not_isomorphic"
    assert any("zero-pattern" in c.reason for c in verdict.cases)


def test_decide_matches_product_invariant_oracle():
    # For alpha = 0 and odd n the lambda systems are consistent exactly when
    # prod(q.beta) = prod(p.beta) (rotations) or prod(q.beta) * prod(p.beta) = 1
    # (reflections): the step-2 constraint graph is a single odd cycle, so
    # the telescoping product is the only obstruction.  This gives an
    # independent oracle for the verdict.
    rng = random.Random(113)
    import math

    for _ in range(30):
        n = rng.choice([3, 5])
        nz = lambda: Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.randint(1, 4))
        p = Parameters.of(n, [0] * n, [nz() for _ in range(n)], [0] * n)
        q = Parameters.of(n, [0] * n, [nz() for _ in range(n)], [0] * n)
        prod_p = math.prod(p.beta)
        prod_q = math.prod(q.beta)
        expected = prod_q == prod_p or prod_q * prod_p == 1
        verdict = decide_graded_iso(p, q)
        assert (verdict.kind == "isomorphic") == expected, (p.beta, q.beta)


def test_composite_coherence():
    rng = random.Random(109)
    for _ in range(5):
        p = rand_graded_params(4, rng)
        lam = rand_lambda(4, rng)
        left = transform_rotate(transform_scale(p, lam))
        w = IsoWitness(4, ROTATION, 1, lam)
        assert w.predicted_params(p) == left
        reflected = transform_rotate(transform_rotate(transform_reflect(transform_scale(p, lam))))
        wr = IsoWitness(4, REFLECTION, 2, lam)
        assert wr.predicted_params(p) == reflected
        assert verify_witness(wr, p, reflected)


def map_element(a, vertex_map, arrow_map):
    """The graded map given on vertices and arrows (scalar, image), applied path by path."""
    sums = {}
    for p, c in a.terms.items():
        images = [arrow_map(arr) for arr in p.arrows]
        for s, _ in images:
            c *= Fraction(s)
        q = Path(a.n, vertex_map(p.source) % a.n, tuple(img for _, img in images))
        sums[q] = sums.get(q, 0) + c
    return Element(a.n, sums)


# The generator map of IsoWitness before it became a DiagonalMapSpec, kept
# verbatim as the reference for the shared map.
def reference_vertex_image(self, v: int) -> int:
    if self.orientation == ROTATION:
        return (v + self.shift) % self.n
    return (self.n - v + self.shift) % self.n


def reference_arrow_image(self, a: Arrow) -> tuple[Fraction, Arrow]:
    n = self.n
    scalar = self.lam[a.index] if a.family == "u" else Fraction(1)
    if self.orientation == ROTATION:
        return scalar, Arrow(a.family, (a.index + self.shift) % n)
    idx = (n - a.index - 1 + self.shift) % n
    return scalar, Arrow("d" if a.family == "u" else "u", idx)


def test_witness_map_matches_the_reference_formulas():
    rng = random.Random(113)
    for n in range(1, 7):
        for orientation in (ROTATION, REFLECTION):
            for shift in range(n):
                w = IsoWitness(n, orientation, shift, rand_lambda(n, rng))
                spec = w.spec
                for v in range(n):
                    assert spec.vertex_image(v) == reference_vertex_image(w, v)
                for fam in ("u", "d"):
                    for i in range(n):
                        a = Arrow(fam, i)
                        assert spec.arrow_image(a) == reference_arrow_image(w, a)
                loop = Element.from_path(path_from_word(n, 0, "ud" * 2 + "du"))
                assert apply_map(spec, loop) == map_element(
                    loop, lambda v: reference_vertex_image(w, v),
                    lambda a: reference_arrow_image(w, a))


def test_constraint_from_equation_reads_the_two_lambda_indices():
    # coeff * l_a / l_b = value, with a before or after b in index order
    assert _constraint_from_equation(_Sym(Fraction(3), ((0, 1), (2, -1))), Fraction(6)) \
        == RatioConstraint(0, 2, Fraction(2))
    assert _constraint_from_equation(_Sym(Fraction(-1, 2), ((1, -1), (4, 1))), Fraction(5)) \
        == RatioConstraint(4, 1, Fraction(-10))


@pytest.mark.parametrize("exps", [
    (),
    ((0, 1),),
    ((0, -1),),
    ((0, 1), (1, 1)),
    ((0, -1), (1, -1)),
    ((0, 2), (1, -1)),
    ((0, 1), (1, -2)),
    ((0, 1), (1, -1), (2, 1)),
])
def test_constraint_from_equation_refuses_an_unexpected_monomial(exps):
    with pytest.raises(AssertionError, match="unexpected lambda monomial"):
        _constraint_from_equation(_Sym(Fraction(2), exps), Fraction(1))


def test_decide_refuses_gamma_on_one_side_only():
    graded = Parameters.of(3, [1, 0, 2], [1, 2, 3], [0, 0, 0])
    ungraded = Parameters.of(3, [1, 0, 2], [1, 2, 3], [0, 1, 0])
    for p, q in ((graded, ungraded), (ungraded, graded)):
        verdict = decide_graded_iso(p, q)
        assert verdict.kind == "unsupported" and "gamma" in verdict.detail


# The golden corpus's iso/reflection-shift2 pair, isomorphic there: only
# the reflection case of shift 2 solves its ratio system, so it alone
# reaches the two re-checks.
REFLECT_P = Parameters.of(4, [2, Fraction(-1, 3), 5, 1], [3, -2, Fraction(1, 2), 7], [0] * 4)
REFLECT_Q = Parameters.of(4, [Fraction(1, 9), Fraction(-1, 3), Fraction(-1, 35), 150],
                          [Fraction(1, 6), Fraction(1, 30), Fraction(-3, 7), 20], [0] * 4)


def test_a_wrong_solved_lambda_is_refused(monkeypatch):
    solve = iso.solve_ratio_system

    def doubled_first(constraints, n):
        solved = solve(constraints, n)
        return solved if isinstance(solved, RatioInconsistency) else (2 * solved[0], *solved[1:])

    monkeypatch.setattr(iso, "solve_ratio_system", doubled_first)
    verdict = decide_graded_iso(REFLECT_P, REFLECT_Q)
    assert verdict.kind == "not_isomorphic" and verdict.witness is None
    reason = "solved lambda does not reproduce target"
    assert [(c.orientation, c.shift) for c in verdict.cases if c.reason == reason] == [(REFLECTION, 2)]


def test_a_witness_that_fails_the_relations_is_refused(monkeypatch):
    monkeypatch.setattr(iso, "verify_witness", lambda w, p, q: False)
    verdict = decide_graded_iso(REFLECT_P, REFLECT_Q)
    assert verdict.kind == "not_isomorphic" and verdict.witness is None
    reason = "witness failed relation verification"
    assert [(c.orientation, c.shift) for c in verdict.cases if c.reason == reason] == [(REFLECTION, 2)]
