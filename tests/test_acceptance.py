"""Acceptance suite: one test per criterion, every check exact.

Homological facts themselves (twisted Calabi-Yau via Ext, global
dimension three) are out of computational reach at desk scale and are
deliberately not tested; their checkable shadows are: the superpotential
and diagonal-map criteria (8-9) and the Hilbert-series criteria (2-4).
"""

import random
from fractions import Fraction

import oracle
from quiverdu.core import Element, Parameters, path_from_word, trivial_path
from quiverdu.gwa import verify_gwa
from quiverdu.hilbert import (
    closed_form_check,
    factorization_identity,
    qdu_total_formula,
)
from quiverdu.iso import (
    decide_graded_iso,
    transform_scale,
    verify_witness,
)
from quiverdu.rewrite import (
    PRESET_PREPROJECTIVE,
    PRESET_QDU,
    build_system,
    certify_confluence_over_parameters,
    dimension_matrix,
    ensure_confluent,
    normal_form,
)
from quiverdu.skewgroup import verify_quotient_match
from quiverdu.structure import (
    balanced_twist_weights,
    build_superpotential,
    check_derivation_quotient,
    check_diagonal_map,
    check_twist_invariance,
    derived_nakayama,
    noetherian_chain_check,
    paper_nakayama,
    paper_twist_weights,
    pwd_proof_H,
)
from test_iso import transform_params


def _nonzero_fraction(rng):
    return Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))


def _any_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_params(n, rng, zero_gamma=False):
    return Parameters.of(
        n,
        [_any_fraction(rng) for _ in range(n)],
        [_nonzero_fraction(rng) for _ in range(n)],
        [0] * n if zero_gamma else [_any_fraction(rng) for _ in range(n)],
    )


def _announce(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_confluence_grid():
    for n in (1, 2, 3, 4, 5):
        cert = certify_confluence_over_parameters(n, random_trials=5, seed=100 + n)
        assert cert.all_resolved, f"unresolved overlap at n={n}: {cert.failures}"
        assert cert.instances == 27 + 5
    _announce(1, "all overlap ambiguities resolve to 0 for n in 1..5 "
                 "(27-point grid + 5 random triples each, incl. beta_i=0 and gamma!=0)")


def test_criterion_02_hilbert_match():
    rng = random.Random(202)
    for n in (1, 3, 4):
        series = oracle.inverse_series(oracle.denominator(n, "qdu"), 8)
        choices = [
            Parameters.of(n, [0] * n, [1] * n, [0] * n),
            Parameters.of(n, [1] * n, [-2] * n, [0] * n),
            _random_params(n, rng, zero_gamma=True),
        ]
        matrices_seen = []
        for params in choices:
            sys_ = build_system(PRESET_QDU, params)
            mats = [dimension_matrix(sys_, k) for k in range(9)]
            matrices_seen.append(mats)
            for k in range(9):
                assert mats[k] == series[k], (n, k)
                total = sum(sum(row) for row in mats[k])
                assert total == qdu_total_formula(n, k)
        assert matrices_seen[0] == matrices_seen[1] == matrices_seen[2]
    _announce(2, "dimension matrices equal (I-Mt+Mt^3-It^4)^{-1} for n in {1,3,4}, "
                 "k<=8; totals n*floor((k+2)^2/4); parameter-independent")


def test_criterion_03_preprojective():
    for n in (2, 3):
        series = oracle.inverse_series(oracle.denominator(n, "preprojective"), 8)
        sys_ = build_system(PRESET_PREPROJECTIVE, n=n)
        for k in range(9):
            mat = dimension_matrix(sys_, k)
            assert mat == series[k], (n, k)
            assert sum(sum(row) for row in mat) == n * (k + 1)
        report = closed_form_check(Parameters.of(n, [0] * n, [1] * n, [0] * n), 8,
                                   preset=PRESET_PREPROJECTIVE)
        assert report.ok and report.note
    _announce(3, "preprojective matrices equal (I-Mt+It^2)^{-1} for n in {2,3}, k<=8; "
                 "totals n(k+1); enumerated total recorded as the authoritative form")


def test_criterion_04_factorization_identity():
    for n in range(1, 7):
        assert factorization_identity(n)
    _announce(4, "(1-t^4)I-(t-t^3)M = (1-t^2)(I-Mt+It^2) exactly for n in 1..6")


def test_criterion_05_gwa():
    rng = random.Random(205)
    for trial in range(5):
        params = _random_params(3, rng)
        report = verify_gwa(params)
        assert report.relations_killed
        assert report.roundtrip_arrows
        assert report.roundtrip_base
        assert report.homomorphism.ok, report.homomorphism.failed
        assert report.automorphism.ok, report.automorphism.failed
        assert report.proves_pwd and report.ok
    _announce(5, "theta kills both relation families, the round trips are the "
                 "identity, theta_prime satisfies T's 102 defining identities and "
                 "sigma o sigma^-1 fixes the generators, so H = T is a piecewise domain "
                 "(n=3, 5 random nonzero-beta parameter sets)")


def test_criterion_06_pwd_on_H():
    rng = random.Random(206)
    params = _random_params(3, rng)
    proof = pwd_proof_H(params)
    assert proof.beta_nonzero and proof.ok and proof.gwa.proves_pwd
    bad = Parameters.of(3, [_any_fraction(rng) for _ in range(3)],
                        [0, _nonzero_fraction(rng), _nonzero_fraction(rng)],
                        [_any_fraction(rng) for _ in range(3)])
    sys_ = ensure_confluent(build_system(PRESET_QDU, bad))
    a = (
        Element.from_path(path_from_word(3, 0, "du"))
        - Element.from_path(path_from_word(3, 0, "ud"), bad.alpha[0])
        - Element.from_path(trivial_path(3, 0), bad.gamma[0])
    )
    b = Element.from_path(path_from_word(3, 0, "u"))
    assert normal_form(sys_, a * b).is_zero()
    d0 = Element.from_path(path_from_word(3, 1, "d"))
    assert normal_form(sys_, d0 * a).is_zero()
    proof_bad = pwd_proof_H(bad)
    assert proof_bad.ok and proof_bad.counterexample == (str(a), str(b))
    _announce(6, "H is a piecewise domain by the proof with beta nonzero; "
                 "with beta_0 = 0 the documented pair multiplies to 0")


def test_criterion_07_noetherian_chain():
    rng = random.Random(207)
    params = Parameters.of(
        3,
        [_any_fraction(rng) for _ in range(3)],
        [0, _nonzero_fraction(rng), _nonzero_fraction(rng)],
        [_any_fraction(rng) for _ in range(3)],
    )
    report = noetherian_chain_check(params, i=0, s_max=3)
    assert report.annihilation_ok
    assert report.support_pattern_ok
    assert [s for s, strict in report.strict_inclusions] == [1, 2, 3]
    assert all(strict for _, strict in report.strict_inclusions)
    _announce(7, "annihilation identities hold and I_s != I_{s+1} certified for "
                 "s = 1, 2, 3 by exact non-membership (n=3, beta_0=0, random alpha/gamma)")


def test_criterion_08_superpotential():
    rng = random.Random(208)
    alpha = [_nonzero_fraction(rng) for _ in range(3)]
    for beta_val in (-1, 1):
        params = Parameters.of(3, alpha, [beta_val] * 3, [0] * 3)
        weights = paper_twist_weights(params)
        built = build_superpotential(params, weights)
        assert built.all_orbits_closed
        assert check_twist_invariance(built.omega, weights).invariant
        assert check_derivation_quotient(built.omega, params)
    generic = Parameters.of(3, alpha, [1, 2, 3], [0] * 3)
    printed = paper_twist_weights(generic)
    built_printed = build_superpotential(generic, printed)
    assert not built_printed.all_orbits_closed  # nonzero closure defect
    defects = {key: c for key, c in built_printed.closure_scalars.items() if c != 1}
    assert defects
    assert not check_twist_invariance(built_printed.omega, printed).invariant
    balanced = balanced_twist_weights(generic)
    built_balanced = build_superpotential(generic, balanced)
    assert built_balanced.all_orbits_closed
    assert check_twist_invariance(built_balanced.omega, balanced).invariant
    assert check_derivation_quotient(built_balanced.omega, generic)
    _announce(8, "printed weights: twist-invariant with derivative span = relation span "
                 "for beta = +-1 and a nonzero closure defect for beta=(1,2,3); balanced "
                 "weights (u_i -> b_{i-1} u_i, d_i -> b_{i-1}^{-1} d_i) pass for all "
                 "nonzero beta -- divergence reported, not hidden")


def test_criterion_09_nakayama():
    rng = random.Random(209)
    for n in (3, 4):
        for _ in range(5):
            # pairwise-distinct squares, so the printed map must fail
            values = rng.sample([2, 3, 5, 7, 11], k=n)
            beta = [Fraction(v * rng.choice([1, -1])) for v in values]
            params = Parameters.of(n, [_any_fraction(rng) for _ in range(n)], beta, [0] * n)
            derived = check_diagonal_map(derived_nakayama(params), params, params)
            assert derived.ok
            for detail in derived.per_relation:
                i, family = divmod(detail["relation"], 2)
                expected = -1 / params.beta[i] if family == 0 else -params.beta[i]
                assert detail["scalar"] == expected
            printed = check_diagonal_map(paper_nakayama(params), params, params)
            assert not printed.ok
        equal_squares = Parameters.of(n, [1] * n, [2 * (-1) ** i for i in range(n)],
                                      [0] * n)
        assert len({b * b for b in equal_squares.beta}) == 1
        assert check_diagonal_map(paper_nakayama(equal_squares), equal_squares, equal_squares).ok
    _announce(9, "derived map u_i -> -beta_i^{-1} u_i, d_i -> -beta_i d_i preserves "
                 "relation spans with per-relation scalars -beta_i^{-+1}; printed map "
                 "passes exactly when all beta_i^2 agree (n in {3,4}, 5 random sets)")


def test_criterion_10_skewgroup():
    for n in (2, 3):
        report = verify_quotient_match(n, max_degree=4)
        assert report.idempotents_ok
        assert report.generator_forms_agree
        assert report.proof_identities_ok
        assert report.relation_kill[-1] is True
        assert report.relation_kill[1] is False
        assert report.dimensions_ok
    _announce(10, "idempotents orthogonal/complete, both capped-generator identities "
                  "hold, the relation match passes for beta = -1 and fails for "
                  "beta = 1, and corner dimensions equal (H_k)_{ij} for k <= 4 "
                  "(n in {2,3}, exact cyclotomic arithmetic)")


def test_criterion_11_isomorphism_decision():
    rng = random.Random(211)
    for _ in range(50):
        n = rng.choice([3, 4, 5])
        p = Parameters.of(
            n,
            [_any_fraction(rng) for _ in range(n)],
            [_nonzero_fraction(rng) for _ in range(n)],
            [0] * n,
        )
        q = p
        for _ in range(rng.randint(1, 4)):
            op = rng.choice(["scale", "rotate", "reflect"])
            lam = tuple(_nonzero_fraction(rng) for _ in range(n)) if op == "scale" else None
            q = transform_params(op, q, lam)
        verdict = decide_graded_iso(p, q)
        assert verdict.kind == "isomorphic"
        assert verify_witness(verdict.witness, p, q)
    p = Parameters.of(3, [0] * 3, [1, 1, 1], [0] * 3)
    q = Parameters.of(3, [0] * 3, [1, 1, 2], [0] * 3)
    for a, b in ((p, q), (q, p)):
        verdict = decide_graded_iso(a, b)
        assert verdict.kind == "not_isomorphic"
        assert verdict.cases and all(c.inconsistency is not None for c in verdict.cases)
    for _ in range(20):
        n = 3
        a = Parameters.of(n, [0] * n, [_nonzero_fraction(rng) for _ in range(n)], [0] * n)
        if rng.random() < 0.5:
            b = transform_scale(a, tuple(_nonzero_fraction(rng) for _ in range(n)))
        else:
            b = Parameters.of(n, [_any_fraction(rng) for _ in range(n)],
                              [_nonzero_fraction(rng) for _ in range(n)], [0] * n)
        assert (decide_graded_iso(a, b).kind == "isomorphic") == (
            decide_graded_iso(b, a).kind == "isomorphic")
    _announce(11, "50 random constructor round trips return self-verified witnesses; "
                  "product-obstruction pairs are refused with ratio-cycle certificates; "
                  "the decision is symmetric on 20 random pairs")


def test_criterion_12_scope_note():
    # The homological statements themselves (twisted Calabi-Yau via Ext,
    # global dimension three) are not desk-scale computable and are not
    # acceptance-tested; criteria 2-4 and 8-9 are their checkable shadows.
    _announce(12, "homological claims excluded by design; Hilbert-series and "
                  "superpotential/diagonal-map criteria stand in for them")
