import ast
import inspect
import itertools
import json
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest

from quiverdu import cyclotomic, rewrite, skewgroup
from quiverdu.cli import main
from quiverdu.core import Parameters, path_from_word
from quiverdu.cyclotomic import CycScalar, cyclotomic_polynomial
from quiverdu.rewrite import (
    PRESET_QDU,
    ReductionSystem,
    _qdu_specs,
    build_system,
    check_confluence,
    check_leading_words,
    ensure_confluent,
    normal_shapes,
)
from quiverdu.skewgroup import (
    GRADED_DOWN_UP,
    RMonomial,
    _monomial_word,
    build_idempotents,
    monomial_weight,
    r_monomial_product,
    verify_quotient_match,
)
import oracle
from test_oracle import names


# The tests read smash elements decoded: plain {(monomial, group exponent):
# CycScalar} dicts with no zero coefficient, so two decoded values are equal
# exactly when their dicts are.

def decode(n: int, x) -> dict:
    """A coded smash element ``(den, {(m, j, k): int})`` over Q(zeta_n)."""
    den, terms = x
    groups: dict = {}
    for (m, j, k), c in terms.items():
        groups.setdefault((m, j), {})[k] = c
    values = {key: CycScalar.from_power_counts(n, v, den) for key, v in groups.items()}
    return {key: c for key, c in values.items() if c}


def encode(x: dict):
    """A decoded smash element over the lcm of its denominators, by canonical numerators."""
    forms = {key: c.power_counts() for key, c in x.items()}
    den = lcm(*(d for _, d in forms.values()))
    return den, {(m, j, k): v * (den // d)
                 for (m, j), (counts, d) in forms.items() for k, v in counts.items()}


def smash(n: int, terms: dict) -> dict:
    """{(m, j): c} with j taken mod n and every coefficient a CycScalar over n."""
    out: dict = {}
    for (m, j), c in terms.items():
        if not isinstance(c, CycScalar):
            c = CycScalar.from_rational(n, c)
        key = (m, j % n)
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def monomial(n: int, m: RMonomial, j: int = 0) -> dict:
    return smash(n, {(m, j): 1})


def smash_product(n: int, *factors: dict) -> dict:
    """The product of decoded smash elements, left to right, by the coded kernel."""
    acc = encode(factors[0])
    for x in factors[1:]:
        acc = skewgroup._coded_product(n, acc, encode(x))
    return decode(n, acc)


def decoded_idempotents(n: int) -> list[dict]:
    return [decode(n, f) for f in build_idempotents(n)]


@dataclass
class CapGenerators:
    n: int
    us: list[dict]
    ds: list[dict]
    both_forms_agree: bool


def cap_generators(n: int, fs: list | None = None) -> CapGenerators:
    """U_i = f_i (u#1) = (u#1) f_{i+1} and D_i = (d#1) f_i = f_{i+1} (d#1)."""
    if fs is None:
        fs = build_idempotents(n)
    us, ds, agree = skewgroup._coded_caps(n, fs)
    return CapGenerators(n, [decode(n, x) for x in us], [decode(n, x) for x in ds], agree)


def monomials_of_degree(k):
    """The normal R-monomials of degree k, in increasing order."""
    return normal_shapes(k)


def group_action(n, j, m):
    """Scalar by which g^j acts on the monomial: zeta^{j * weight}."""
    return CycScalar.zeta_power(n, j * monomial_weight(m))


def test_cyclotomic_polynomials():
    as_ints = lambda n: tuple(int(c) for c in cyclotomic_polynomial(n))
    assert as_ints(1) == (-1, 1)
    assert as_ints(2) == (1, 1)
    assert as_ints(3) == (1, 1, 1)
    assert as_ints(4) == (1, 0, 1)
    assert as_ints(6) == (1, -1, 1)
    assert as_ints(12) == (1, 0, -1, 0, 1)


def test_cyc_scalar_arithmetic():
    n = 5
    z = CycScalar.zeta_power(n, 1)
    acc = CycScalar.one(n)
    for _ in range(n):
        acc = acc * z
    assert acc == CycScalar.one(n)  # zeta^5 = 1
    # 1 + z + z^2 + z^3 + z^4 = 0
    total = CycScalar.zero(n)
    for e in range(n):
        total = total + CycScalar.zeta_power(n, e)
    assert total.is_zero()
    # Operands over different n do not share a field.
    z3, z5 = CycScalar.zeta_power(3, 1), CycScalar.zeta_power(5, 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError):
            op(z3, z5)


def test_cyc_scalar_equality_is_transitive_across_fields():
    # Rational values compare by value over any n, so a set of equal values
    # has one element whatever the insertion order; a power of zeta is not
    # rational and stays unequal across fields.
    values = [1, CycScalar.one(3), CycScalar.one(5), Fraction(1)]
    for order in itertools.permutations(values):
        assert len(set(order)) == 1
    assert CycScalar.from_rational(3, Fraction(-2, 3)) == CycScalar.from_rational(7, Fraction(-2, 3))
    assert CycScalar.from_rational(3, Fraction(1, 2)) != CycScalar.one(5)
    assert CycScalar.zeta_power(3, 1) != CycScalar.zeta_power(5, 1)
    assert CycScalar.zeta_power(3, 1) + CycScalar.one(3) != CycScalar.one(5)
    assert CycScalar.zeta_power(6, 3) == CycScalar.from_rational(4, -1) == -1


def test_cyc_scalar_sum_with_a_plain_number_is_a_type_error():
    # Sums take CycScalar operands only; products also take int and Fraction.
    z = CycScalar.zeta_power(5, 1)
    for op in (operator.add, operator.sub):
        for number in (1, Fraction(1, 2)):
            with pytest.raises(TypeError):
                op(z, number)
            with pytest.raises(TypeError):
                op(number, z)
    assert z * 2 == 2 * z == z + z


def test_cyc_scalar_inverse():
    # n = 1..12 covers phi(n) = 1 and the non-cyclic unit groups of 8 and
    # 12.  zeta^e and the rationals have closed-form inverses that share
    # no code with the norm.
    rng = random.Random(83)
    for n in range(1, 13):
        for e in range(n):
            assert CycScalar.zeta_power(n, e).inverse() == CycScalar.zeta_power(n, n - e)
        for c in (Fraction(1), Fraction(-1), Fraction(3), Fraction(-2, 7), Fraction(5, 4)):
            assert CycScalar.from_rational(n, c).inverse() == CycScalar.from_rational(n, 1 / c)
        for _ in range(6):
            coeffs = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for k in range(len(cyclotomic_polynomial(n)) - 1)}
            x = CycScalar(n, coeffs)
            if x.is_zero():
                continue
            assert x * x.inverse() == CycScalar.one(n)
        with pytest.raises(ZeroDivisionError):
            CycScalar.zero(n).inverse()


def test_r_monomial_products():
    # d * d * u = -u d^2 in the graded down-up algebra
    d, u = (0, 0, 1), (1, 0, 0)
    dd = r_monomial_product(d, d)
    assert dd == (((0, 0, 2), Fraction(1)),)
    ddu = r_monomial_product((0, 0, 2), u)
    assert ddu == (((1, 0, 2), Fraction(-1)),)
    # u * d = the (du)-free normal word u d = u^1 d^1? no: "ud" is normal
    ud = r_monomial_product(u, d)
    assert ud == (((1, 0, 1), Fraction(1)),)
    # d * u = the loop word (du)
    du = r_monomial_product(d, u)
    assert du == (((0, 1, 0), Fraction(1)),)


def test_r_monomial_product_refuses_a_fraction_among_int_coefficients(monkeypatch):
    # R's rules have coefficients +-1, so a product with no power of D has
    # int coefficients only; one Fraction among ints must be refused.
    genuine = skewgroup._normal_times

    def mixed(*args):
        e, comb = genuine(*args)
        return e, {**comb, skewgroup._packed((1, 0, 1)): Fraction(1, 2)}

    monkeypatch.setattr(skewgroup, "_normal_times", mixed)
    r_monomial_product.cache_clear()
    try:
        with pytest.raises(AssertionError, match="non-int coefficient"):
            r_monomial_product((0, 0, 1), (1, 0, 0))
    finally:
        r_monomial_product.cache_clear()


def test_monomial_product_refuses_a_non_int_coefficient(monkeypatch):
    # beta = -1/2 gives d^2 u -> -(1/2) u d^2: denominator 2 in the kernel.
    halved = Parameters.of(1, [0], [Fraction(-1, 2)], [0])
    tables = skewgroup._tables(ensure_confluent(build_system(PRESET_QDU, halved)))
    monkeypatch.setattr(skewgroup, "_r_tables", lambda: tables)
    r_monomial_product.cache_clear()
    try:
        assert r_monomial_product((0, 0, 1), (1, 0, 0)) == (((0, 1, 0), 1),)
        with pytest.raises(AssertionError, match=r"\(0, 0, 2\) \* \(1, 0, 0\) has a non-int"):
            r_monomial_product((0, 0, 2), (1, 0, 0))
    finally:
        r_monomial_product.cache_clear()


def test_unit_monomial_products_match_rewriting():
    # u^a (du)^b d^c is a normal word of R, so a product with the unit is the other factor.
    reducer, unit = oracle.graded_down_up(), (0, 0, 0)
    for k in range(9):
        for m in monomials_of_degree(k):
            word = names(path_from_word(1, 0, _monomial_word(m)))
            assert reducer.normal_form(word) == {word: 1} and oracle.shape(word) == m
            assert r_monomial_product(unit, m) == r_monomial_product(m, unit) == ((m, 1),)


def test_unit_monomial_lookups_are_counted():
    r_monomial_product.cache_clear()
    r_monomial_product((0, 0, 0), (1, 0, 0))
    r_monomial_product((1, 0, 0), (0, 0, 0))
    r_monomial_product((0, 0, 0), (1, 0, 0))
    info = r_monomial_product.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_monomial_count_matches_formula():
    for k in range(9):
        assert len(monomials_of_degree(k)) == (k + 2) ** 2 // 4


def test_smash_relation_example():
    n = 3
    d, u = monomial(n, (0, 0, 1)), monomial(n, (1, 0, 0))
    prod = smash_product(n, d, d, u)
    ((m, j),) = prod.keys()
    assert m == (1, 0, 2) and j == 0
    assert prod[(m, j)] == CycScalar.from_rational(n, -1)


def test_smash_group_scaling():
    n = 3
    u_g = monomial(n, (1, 0, 0), 1)     # u # g
    u_e = monomial(n, (1, 0, 0))        # u # 1
    prod = smash_product(n, u_g, u_e)
    ((m, j),) = prod.keys()
    assert m == (2, 0, 0) and j == 1
    assert prod[(m, j)] == CycScalar.zeta_power(n, 1)
    g = monomial(n, (0, 0, 0), 1)
    gn1 = monomial(n, (0, 0, 0), n - 1)
    assert smash_product(n, g, gn1) == monomial(n, (0, 0, 0))


def test_group_action_is_automorphism():
    rng = random.Random(89)
    n = 4
    for _ in range(20):
        m1 = rng.choice(monomials_of_degree(rng.randint(0, 3)))
        m2 = rng.choice(monomials_of_degree(rng.randint(0, 3)))
        j = rng.randrange(n)
        lhs = CycScalar.zero(n)
        for m, c in r_monomial_product(m1, m2):
            lhs = lhs + group_action(n, j, m) * c
        rhs_scalar = group_action(n, j, m1) * group_action(n, j, m2)
        rhs = CycScalar.zero(n)
        for m, c in r_monomial_product(m1, m2):
            rhs = rhs + rhs_scalar * c
        assert lhs == rhs
    assert group_action(n, n, (1, 0, 0)) == CycScalar.one(n)


def test_idempotents():
    for n in (2, 3):
        fs = decoded_idempotents(n)  # build_idempotents raises internally on failure
        f0 = fs[0]
        assert smash_product(n, f0, f0) == f0
        other = 2 % n  # distinct from index 1 for both n = 2 and n = 3
        assert smash_product(n, fs[1], fs[other]) == {}
    with pytest.raises(ValueError):
        build_idempotents(1)


def test_cap_generators_agree():
    for n in (2, 3):
        caps = cap_generators(n)
        assert caps.both_forms_agree


def test_down_up_loop_is_corner_invariant():
    # D_i U_i is fixed by f_{i+1} on both sides
    n = 3
    fs = decoded_idempotents(n)
    caps = cap_generators(n)
    for i in range(n):
        loop = smash_product(n, caps.ds[i], caps.us[i])
        assert loop
        f = fs[(i + 1) % n]
        assert smash_product(n, f, loop, f) == loop


def test_corner_weight_selection():
    # f_i (m # g^t) f_j vanishes unless weight(m) = j - i mod n
    n = 3
    fs = decoded_idempotents(n)
    for m in monomials_of_degree(2):
        for i in range(n):
            for j in range(n):
                prod = smash_product(n, fs[i], monomial(n, m), fs[j])
                expected_nonzero = (monomial_weight(m) - (j - i)) % n == 0
                assert bool(prod) == expected_nonzero


def test_verify_quotient_match():
    for n, max_degree in ((2, 3), (3, 3), (6, 4), (8, 3)):
        report = verify_quotient_match(n, max_degree=max_degree)
        assert report.idempotents_ok
        assert report.generator_forms_agree
        assert report.proof_identities_ok
        assert report.relation_kill[-1] is True
        assert report.relation_kill[1] is False
        assert report.dimensions_ok
        assert report.ok
    assert verify_quotient_match(3).max_degree == 4
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        verify_quotient_match(3, max_degree=-1)


def test_verify_quotient_match_refuses_other_parameters():
    assert verify_quotient_match(3, Parameters.of(3, [0] * 3, [-1] * 3, [0] * 3), max_degree=1).ok
    for alpha, gamma in (([0, 2, 0], [0] * 3), ([0] * 3, [0, 0, 1]), ([1] * 3, [0] * 3)):
        with pytest.raises(ValueError, match="needs alpha = gamma = 0"):
            verify_quotient_match(3, Parameters.of(3, alpha, [-1] * 3, gamma))
    with pytest.raises(ValueError, match="parameter length disagrees with n"):
        verify_quotient_match(4, Parameters.of(3, [0] * 3, [-1] * 3, [0] * 3))
    for n in (1, 13):
        with pytest.raises(ValueError):
            verify_quotient_match(n)


def test_r_is_confluent():
    # R's confluence is a constant of one fixed algebra; skewgroup._r_tables
    # cites this test and builds R's tables without checking it.
    assert check_confluence(build_system(PRESET_QDU, GRADED_DOWN_UP)).confluent


def leading_words(specs) -> set:
    return {(source, tuple(lhs)) for source, lhs, _ in specs}


def assert_leading_words_fixed(qdu_specs, draws: int = 20) -> None:
    """The leading words that ``qdu_specs`` writes pass the letter check and read no parameter.

    For n = 1..12: the all-zero vector and random vectors whose entries
    include zeros give the same (source, leading word) pairs as the matched
    parameters alpha = gamma = 0, beta = -1, and those pass
    ``check_leading_words``.  R is the matched vector at n = 1.
    """
    rng = random.Random(4_200)
    for n in range(1, 13):
        matched = Parameters.of(n, [0] * n, [-1] * n, [0] * n)
        expected = leading_words(qdu_specs(matched))
        vectors = [[0] * n] * 3 + [[rng.choice([0, 0, 1, -1, Fraction(2, 3)]) for _ in range(n)]
                                   for _ in range(3 * draws)]
        for alpha, beta, gamma in zip(vectors[::3], vectors[1::3], vectors[2::3]):
            params = Parameters.of(n, alpha, beta, gamma)
            specs = qdu_specs(params)
            check_leading_words(ReductionSystem(n, None, PRESET_QDU, params, specs))
            assert leading_words(specs) == expected, (n, params)


def test_qdu_leading_words_read_no_parameter():
    # So the skew-group check needs no matched system for its dimension side.
    assert_leading_words_fixed(_qdu_specs)


def test_a_permuted_leading_word_in_the_qdu_specs_is_refused():
    def permuted(params):
        # The first rule's leading word with its first two arrows swapped: letters udu.
        specs = list(_qdu_specs(params))
        source, lhs, rhs = specs[0]
        specs[0] = (source, (lhs[1], lhs[0]) + lhs[2:], rhs)
        return tuple(specs)

    with pytest.raises(AssertionError, match="is extra to the quiver-down-up letter patterns"):
        assert_leading_words_fixed(permuted, draws=1)


def test_verify_builds_no_matched_system_and_counts_no_degree(monkeypatch):
    # The count lemma replaces the matched system's dimension matrices: the
    # check builds no Parameters, no system but R, runs no confluence check
    # and reads the normal shapes of degree at most 2 only, at any degree bound.
    built, shapes = [], []

    def refuse(*args, **kwargs):
        raise AssertionError("called from verify_quotient_match")

    genuine_system, genuine_shapes = rewrite._qdu_system, skewgroup.normal_shapes
    monkeypatch.setattr(Parameters, "of", refuse)
    monkeypatch.setattr(Parameters, "__post_init__", refuse)
    for name in ("check_confluence", "dimension_matrices", "check_leading_words", "_closed_shape_matrix"):
        for module in (rewrite, skewgroup):
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(rewrite, "_qdu_system", lambda params: built.append(params) or genuine_system(params))
    monkeypatch.setattr(skewgroup, "normal_shapes", lambda k: shapes.append(k) or genuine_shapes(k))
    for n in (2, 5, 12):
        for max_degree in (0, 4, 30):
            built.clear()
            shapes.clear()
            report = verify_quotient_match(n, max_degree=max_degree)
            assert report.ok and report.max_degree == max_degree
            assert built and all(params is GRADED_DOWN_UP for params in built), n
            assert shapes == [0, 1, 2], (n, max_degree)


def corrupt_one_relation_side(monkeypatch):
    """Double D_{n-1} U_{n-1} U_0, one side of one relation at vertex 0.

    Returns the list that receives D_{n-1} U_{n-1} once it is formed.
    """
    real_caps, real_product = skewgroup._coded_caps, skewgroup._coded_product
    caps, du_last = {}, []

    def spy_caps(n, fs):
        us, ds, agree = real_caps(n, fs)
        caps.update(u0=us[0], d_last=ds[n - 1], u_last=us[n - 1])
        return us, ds, agree

    def product(n, a, b):
        out = real_product(n, a, b)
        if caps and a is caps["d_last"] and b is caps["u_last"]:
            du_last.append(out)
        elif du_last and a is du_last[0] and b is caps["u0"]:
            den, terms = out
            return den, {key: 2 * c for key, c in terms.items()}
        return out

    monkeypatch.setattr(skewgroup, "_coded_caps", spy_caps)
    monkeypatch.setattr(skewgroup, "_coded_product", product)
    return du_last


def test_one_corrupted_relation_side_fails_the_relation_check(monkeypatch):
    # The other pair at vertex 0 still agrees; vertex i's pairs are the twists of vertex 0's.
    du_last = corrupt_one_relation_side(monkeypatch)
    report = verify_quotient_match(3, max_degree=1)
    assert du_last, "the corrupted side was never formed"
    assert report.relation_kill == {1: False, -1: False}
    assert not report.proof_identities_ok and not report.ok
    assert report.generator_forms_agree and report.dimensions_ok


def test_one_corrupted_relation_side_gives_fail_exit_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 3, "alpha": ["0"] * 3, "beta": ["-1"] * 3,
                                "gamma": ["0"] * 3}), encoding="utf-8")
    corrupt_one_relation_side(monkeypatch)
    code = main(["verify", "skewgroup", str(path), "--max-degree", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["findings"]["relations_killed_by_beta"] == {"-1": False, "1": False}
    assert report["findings"]["proof_identities"] is False


class _ScalarBuilt(Exception):
    """A CycScalar was built where no command should build one."""


def test_cli_commands_build_no_cyc_scalar(tmp_path, capsys, monkeypatch):
    # The skew-group check multiplies in Q[x]/(x^n - 1) and reduces only
    # by power_residue, so no command builds a CycScalar, and the speed of
    # its arithmetic costs no command anything.  If a command builds one
    # again, this fails: that arithmetic is on a CLI path once more.
    configs = {"skew3": (3, ["0"] * 3, ["-1"] * 3, ["0"] * 3),
               "gamma0": (3, ["1", "-1/2", "2"], ["2", "3", "-1"], ["0"] * 3)}
    paths = {}
    for name, (n, alpha, beta, gamma) in configs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"n": n, "alpha": alpha, "beta": beta,
                                           "gamma": gamma}), encoding="utf-8")
    calls = [["verify", "skewgroup", str(paths["skew3"]), "--n", str(k), "--max-degree", "4"]
             for k in range(2, 13)]
    calls += [["report", str(paths["skew3"])],
              ["report", str(paths["gamma0"]), "--trials", "10"]]

    def refuse(*args):
        raise _ScalarBuilt
    with monkeypatch.context() as m:
        m.setattr(cyclotomic, "_canonical", refuse)
        refused = [(main(argv + ["--json"]), capsys.readouterr().out) for argv in calls]
    built = [(main(argv + ["--json"]), capsys.readouterr().out) for argv in calls]
    assert refused == built
    assert [(code, json.loads(out)["verdict"]) for code, out in built] == [(0, "pass")] * 13
    assert "skewgroup" in json.loads(built[11][1])["findings"]


def test_skewgroup_takes_only_power_residue_from_cyclotomic():
    # The smash product has one representation, the coded form: nothing in
    # skewgroup builds or reads a CycScalar.
    taken = []
    for node in ast.walk(ast.parse(inspect.getsource(skewgroup))):
        if isinstance(node, ast.ImportFrom):
            taken += [(node.module, alias.name) for alias in node.names
                      if "cyclotomic" in (node.module or "") or alias.name == "cyclotomic"]
        elif isinstance(node, ast.Import):
            taken += [(None, alias.name) for alias in node.names if "cyclotomic" in alias.name]
    assert taken == [("cyclotomic", "power_residue")]
