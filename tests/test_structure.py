import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from quiverdu import gwa, structure
from quiverdu.cli import main
from quiverdu.core import Arrow, Element, Parameters, down, path_from_word, trivial_path, up
from quiverdu.rewrite import PRESET_QDU, _pack_word, _word_bits, build_system, enumerate_basis, normal_form
from quiverdu.structure import (
    balanced_twist_weights,
    build_superpotential,
    check_derivation_quotient,
    check_diagonal_map,
    DiagonalMapSpec,
    check_twist_invariance,
    cyclic_derivative,
    derived_nakayama,
    noetherian_chain_check,
    paper_nakayama,
    paper_twist_weights,
    property_report,
    pwd_proof_H,
    up_cycle_path,
)


def x_path(n, m):
    """The loop d_m u_m at vertex m+1."""
    return path_from_word(n, (m + 1) % n, "du")


def rand_params(n, rng, nonzero_beta=True, zero_gamma=False):
    nz = lambda: Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
    any_ = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Parameters.of(
        n,
        [any_() for _ in range(n)],
        [(nz() if nonzero_beta else any_()) for _ in range(n)],
        [0] * n if zero_gamma else [any_() for _ in range(n)],
    )


def test_named_paths():
    assert str(x_path(3, 0)) == "d0.u0"
    assert x_path(3, 2).source == 0 and x_path(3, 2).target == 0
    u = up_cycle_path(3, 1)
    assert str(u) == "u1.u2.u0" and u.source == 1 and u.target == 1


def test_first_twist_matches_weight_of_moved_arrow():
    params = Parameters.of(3, [0, 0, 0], [-1, -1, -1], [0, 0, 0])
    weights = paper_twist_weights(params)
    # first twist of d_0 d_2 u_2 u_0 is -beta_2 * (u_0 d_0 d_2 u_2)
    from quiverdu.rewrite import _codec
    p = path_from_word(3, 1, "dduu")  # d_0 d_2 u_2 u_0
    assert str(p) == "d0.d2.u2.u0"
    Q, twist = structure._twister(weights, 4)
    ((key, c),) = twist({(1, _codec(3).encode(p)): 1}).items()
    assert str(_codec(3).path(*key)) == "u0.d0.d2.u2" and key[0] == 0
    assert Fraction(c, Q) == -params.beta[2]


def test_closure_scalars():
    params = Parameters.of(3, [1, 1, 1], [1, 2, 3], [0, 0, 0])
    paper = build_superpotential(params, paper_twist_weights(params))
    for i in range(3):
        b1, b2 = params.beta[(i - 1) % 3], params.beta[(i - 2) % 3]
        assert paper.closure_scalars[("dduu", i)] == b1 ** 2 * b2 ** 2
    assert not paper.all_orbits_closed
    balanced = build_superpotential(params, balanced_twist_weights(params))
    assert all(c == 1 for c in balanced.closure_scalars.values())


def test_twist_invariance_behaviour():
    n = 3
    for beta_val in (1, -1):
        params = Parameters.of(n, [2, -1, 3], [beta_val] * n, [0] * n)
        weights = paper_twist_weights(params)
        omega = build_superpotential(params, weights).omega
        assert check_twist_invariance(omega, weights).invariant
    generic = Parameters.of(n, [2, -1, 3], [1, 2, 3], [0, 0, 0])
    weights = paper_twist_weights(generic)
    omega = build_superpotential(generic, weights).omega
    report = check_twist_invariance(omega, weights)
    assert not report.invariant and not report.defect.is_zero()
    balanced = balanced_twist_weights(generic)
    omega_b = build_superpotential(generic, balanced).omega
    assert check_twist_invariance(omega_b, balanced).invariant


def test_cyclic_derivative_basic():
    n = 3
    word = Element.from_path(path_from_word(n, 1, "dduu"))  # d_0 d_2 u_2 u_0
    d = cyclic_derivative(word, down(0, n))
    assert {str(p) for p in d.terms} == {"d2.u2.u0"}
    assert cyclic_derivative(word, up(0, n)).is_zero()


def test_derivation_quotient_paper_weights_unit_beta():
    n = 3
    for beta_val in (1, -1):
        params = Parameters.of(n, [2, -1, "1/3"], [beta_val] * n, [0] * n)
        omega = build_superpotential(params, paper_twist_weights(params)).omega
        assert check_derivation_quotient(omega, params)


def test_derivation_quotient_balanced_weights_generic_beta():
    n = 3
    params = Parameters.of(n, [2, -1, "1/3"], [1, 2, 3], [0] * n)
    omega = build_superpotential(params, balanced_twist_weights(params)).omega
    assert check_derivation_quotient(omega, params)
    rng = random.Random(61)
    for _ in range(3):
        p = rand_params(3, rng, zero_gamma=True)
        omega = build_superpotential(p, balanced_twist_weights(p)).omega
        assert check_twist_invariance(omega, balanced_twist_weights(p)).invariant
        assert check_derivation_quotient(omega, p)


def test_derivative_lowers_degree_by_one():
    rng = random.Random(67)
    p = rand_params(3, rng, zero_gamma=True)
    omega = build_superpotential(p, balanced_twist_weights(p)).omega
    for i in range(3):
        d = cyclic_derivative(omega, down(i, 3))
        assert d.degrees() <= {3}


def test_nakayama_derived_all_beta():
    rng = random.Random(71)
    for n in (3, 4):
        for _ in range(3):
            params = rand_params(n, rng, zero_gamma=True)
            report = check_diagonal_map(derived_nakayama(params), params, params)
            assert report.ok
            for detail in report.per_relation:
                idx = detail["relation"]
                i, family = divmod(idx, 2)
                expected = -1 / params.beta[i] if family == 0 else -params.beta[i]
                assert detail["scalar"] == expected
                assert detail["proportional_to"] == idx


def test_nakayama_paper_map_squares_condition():
    n = 3
    equal_squares = Parameters.of(n, [1, 2, 3], [2, -2, 2], [0] * n)
    assert check_diagonal_map(paper_nakayama(equal_squares), equal_squares, equal_squares).ok
    unit = Parameters.of(n, [1, 2, 3], [1, 1, 1], [0] * n)
    assert check_diagonal_map(paper_nakayama(unit), unit, unit).ok
    generic = Parameters.of(n, [1, 2, 3], [1, 2, 3], [0] * n)
    assert not check_diagonal_map(paper_nakayama(generic), generic, generic).ok


def compose_specs(first, second):
    """The diagonal map acting as ``second after first``."""
    if first.n != second.n:
        raise ValueError("mismatched n")
    n = first.n
    shift = second.vertex_image(first.vertex_image(0))
    u_scalars, d_scalars = [], []
    for i in range(n):
        for fam, out in (("u", u_scalars), ("d", d_scalars)):
            c1, mid = first.arrow_image(Arrow(fam, i))
            c2, _ = second.arrow_image(mid)
            out.append(c1 * c2)
    return DiagonalMapSpec(n, first.reflect != second.reflect, shift,
                           tuple(u_scalars), tuple(d_scalars))


def identity_spec(n):
    ones = (Fraction(1),) * n
    return DiagonalMapSpec(n, False, 0, ones, ones)


def test_diagonal_map_composition():
    rng = random.Random(73)
    src = rand_params(3, rng, zero_gamma=True)
    spec1 = derived_nakayama(src)
    spec2 = paper_nakayama(src)
    # both fix the parameters here (diagonal, identity vertex map)
    if check_diagonal_map(spec2, src, src).ok:
        composite = compose_specs(spec1, spec2)
        assert check_diagonal_map(composite, src, src).ok
    composite = compose_specs(spec1, spec1)
    assert check_diagonal_map(composite, src, src).ok
    assert compose_specs(identity_spec(3), spec1) == spec1


def test_property_report_nonzero_beta():
    params = Parameters.of(3, [1, 2, 3], [1, 1, 1], [0, 0, 0])
    report = property_report(params)
    assert report.beta_nonzero and report.noetherian and report.pwd
    assert report.polynomial_subalgebra and report.checks_passed
    n1 = Parameters.of(1, [2], [1], [3])
    r1 = property_report(n1)
    assert r1.noetherian and r1.checks_passed


def test_property_report_zero_beta():
    params = Parameters.of(3, [2, 1, 1], [0, 1, 1], ["1/2", 0, 0])
    report = property_report(params)
    assert not report.noetherian and not report.pwd and not report.polynomial_subalgebra
    assert report.checks_passed
    w = report.witnesses[0]
    assert w["kind"] == "zero-divisor" and w["product_zero"] and w["dependence_zero"]


def test_chain_rewrite_support():
    # normal_form(d_0 * d_2 u_2) has support {d_0 u_0 d_0, d_0} when beta_0 = 0
    params = Parameters.of(3, [2, 1, 1], [0, 1, 1], ["1/2", "1/3", 0])
    sys = build_system(PRESET_QDU, params)
    d0 = Element.from_path(path_from_word(3, 1, "d"))
    x2 = Element.from_path(x_path(3, 2))
    nf = normal_form(sys, d0 * x2)
    assert {str(p) for p in nf.terms} == {"d0.u0.d0", "d0"}


def test_noetherian_chain():
    rng = random.Random(79)
    params = Parameters.of(
        3,
        [Fraction(rng.randint(1, 5)) for _ in range(3)],
        [0, Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))],
        [Fraction(rng.randint(1, 5), 2) for _ in range(3)],
    )
    report = noetherian_chain_check(params, i=0, s_max=2)
    assert report.annihilation_ok
    assert report.support_pattern_ok
    assert all(strict for _, strict in report.strict_inclusions)
    assert report.ok


def test_noetherian_chain_requires_zero_beta():
    params = Parameters.of(3, [1, 1, 1], [1, 1, 1], [0, 0, 0])
    with pytest.raises(ValueError):
        noetherian_chain_check(params, i=0, s_max=1)


def test_noetherian_chain_refuses_an_empty_chain():
    # With s_max < 1 there is no inclusion I_s < I_{s+1} to check, so a
    # report would pass with nothing checked.
    params = Parameters.of(3, [1, 1, 1], [0, 2, 3], [1, 1, 1])
    for s_max in (0, -1, -3):
        with pytest.raises(ValueError, match="s_max must be at least 1"):
            noetherian_chain_check(params, s_max=s_max)
    report = noetherian_chain_check(params, s_max=1)
    assert report.ok and [s for s, _ in report.strict_inclusions] == [1]


@pytest.mark.parametrize("n", range(1, 5))
def test_a_wrong_zero_divisor_fails_the_chain_and_the_witnesses(n, monkeypatch):
    # Doubling the gamma term of a_0 leaves a_0 u_0 = -gamma_0 u_0 != 0, so
    # the annihilation U g u_0 = 0 fails with g = -a_0, and so do the
    # zero-divisor witness and the probe's counterexample.
    params = Parameters.of(n, [2] + [1] * (n - 1), [0] + [1] * (n - 1), [Fraction(3, 2)] + [0] * (n - 1))
    genuine = structure._zero_divisor
    assert noetherian_chain_check(params, s_max=2).ok and property_report(params).checks_passed

    def doubled(params, i):
        return genuine(params, i) - Element.from_path(trivial_path(params.n, i), params.gamma[i])

    monkeypatch.setattr(structure, "_zero_divisor", doubled)
    chain = noetherian_chain_check(params, s_max=2)
    assert not chain.annihilation_ok and not chain.ok
    report = property_report(params)
    (witness,) = report.witnesses
    assert witness["kind"] == "zero-divisor" and not witness["product_zero"]
    assert not report.checks_passed
    proof = pwd_proof_H(params)
    assert proof.counterexample is None and not proof.ok


def test_chain_default_s_max_is_three():
    # The default is read, not passed: the CLI always passes s_max = 2.
    params = Parameters.of(3, [1, 1, 1], [0, 2, 3], [1, 1, 1])
    report = noetherian_chain_check(params)
    assert report.s_max == 3 and [s for s, _ in report.strict_inclusions] == [1, 2, 3]
    assert report.ok


def test_pwd_proof_nonzero_beta():
    params = Parameters.of(3, [1, -2, "1/2"], [3, "2/3", -1], [1, 0, "1/5"])
    report = pwd_proof_H(params)
    assert report.beta_nonzero and report.ok and report.counterexample is None
    assert report.gwa.proves_pwd and report.gwa.homomorphism.checked == 10 * 3 + 3


def test_pwd_proof_zero_beta_counterexample():
    # beta_1 = 0 and beta_2 = 0: the pair comes from the first, i = 1.
    params = Parameters.of(3, [2, 1, 1], [1, 0, 0], [1, 0, 0])
    report = pwd_proof_H(params)
    assert not report.beta_nonzero and report.gwa is None
    assert report.counterexample == ("-1 * u1.d1 + 1 * d0.u0", "1 * u1")
    assert report.ok


def test_pwd_proof_fails_when_the_proof_fails(monkeypatch):
    # The verdict with every beta_i nonzero is the proof's, not a constant.
    params = Parameters.of(3, [1, -2, "1/2"], [3, "2/3", -1], [1, 0, "1/5"])
    failed = gwa.IdentityCheck(1, ("X+ y2",))
    monkeypatch.setattr(structure, "verify_gwa", lambda p: replace(gwa.verify_gwa(p), homomorphism=failed))
    report = pwd_proof_H(params)
    assert report.beta_nonzero and not report.ok and not report.gwa.proves_pwd


@pytest.mark.parametrize("tamper, failing", [("relation", "relations_killed"), ("u1 d1", "roundtrip_base")])
def test_properties_fail_when_theta_fails(tamper, failing, monkeypatch, tmp_path, capsys):
    # The freeness witness rests on theta killing every relation and sending
    # u_i d_i to x_i e_i: a theta off by X_0^+ = e_1 X^+ on one relation's
    # leading word, or one that doubles u_1 d_1 (so theta o theta_prime moves
    # x_1), fails it at every vertex, in verify properties and in report.
    params = Parameters.of(3, [1, 2, 0], [1, -1, 3], [0, 1, 2])
    tables = gwa._tables(build_system(PRESET_QDU, params))
    changed = {"relation": (tables.sources[0], tables.rules[0][0]),
               "u1 d1": (1, _pack_word((4, 1), _word_bits(3)))}[tamper]  # u_1 d_1: codes n + 1, 1
    real = gwa._theta_word

    def wrong(table, source, word):
        image = real(table, source, word)
        if (source, word) != changed:
            return image
        if tamper == "relation":
            return {**image, 1: (1, {(1, 0, 0): 1})}
        return {m: (den, {k: 2 * c for k, c in nums.items()}) for m, (den, nums) in image.items()}

    monkeypatch.setattr(gwa, "_theta_word", wrong)
    gwa._shift_table.cache_clear()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n": 3, "alpha": ["1", "2", "0"], "beta": ["1", "-1", "3"],
                               "gamma": ["0", "1", "2"]}), encoding="utf-8")
    try:
        assert not getattr(gwa.theta_checks(params), failing)
        report = property_report(params)
        assert not report.checks_passed and [w["ok"] for w in report.witnesses] == [False] * 3
        assert report.polynomial_subalgebra  # the flag is the beta criterion; the witness fails
        assert main(["verify", "properties", str(cfg), "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "fail"
        assert [w["ok"] for w in out["findings"]["witnesses"]] == [False] * 3
        assert main(["report", str(cfg), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["findings"]["properties"]["checks_passed"] is False
    finally:
        gwa._shift_table.cache_clear()


@pytest.mark.parametrize("alpha, beta, gamma, s_max", [
    ([1, 1, 1], [0, 2, 3], [1, 1, 1], 2),
    ([2, "1/2", 0], [0, -1, 5], [0, 0, 0], 2),
    ([1, 0], [0, 3], [2, 1], 3),
])
def test_chain_span_rows_per_s_match_an_independent_count(monkeypatch, alpha, beta, gamma, s_max):
    # The span for U^s g holds NF(U^s g b) for every normal b from i of
    # degree <= degree_bound - s n - 2 with a nonzero product.  Counted
    # here from enumerate_basis, core products and normal_form.
    n = len(alpha)
    params = Parameters.of(n, alpha, beta, gamma)
    seen = []

    class CountingSpace(structure.RowSpace):
        added = 0

        def add(self, row):
            CountingSpace.added += 1
            return super().add(row)

        def contains(self, row):
            seen.append(CountingSpace.added)
            return super().contains(row)

    monkeypatch.setattr(structure, "RowSpace", CountingSpace)
    report = noetherian_chain_check(params, i=0, s_max=s_max)
    assert report.ok

    sys_ = build_system(PRESET_QDU, params)
    bound = (s_max + 1) * n + 2
    g = (Element.from_path(path_from_word(n, 0, "ud"), params.alpha[0])
         + Element.from_path(trivial_path(n, 0), params.gamma[0])
         - Element.from_path(path_from_word(n, 0, "du")))
    expected, total = [], 0
    for s in range(1, s_max + 1):
        g_s = normal_form(sys_, Element.from_path(path_from_word(n, 0, "u" * (s * n))) * g)
        for k in range(bound - s * n - 2 + 1):
            for b in enumerate_basis(sys_, k):
                if b.source == 0 and not normal_form(sys_, g_s * Element.from_path(b)).is_zero():
                    total += 1
        expected.append(total)
    assert seen == expected
