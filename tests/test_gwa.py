import random
from dataclasses import replace
from fractions import Fraction

import pytest

from quiverdu import gwa, rewrite
from quiverdu.core import Element, Parameters, path_from_word
from quiverdu.gwa import (sigma_is_automorphism, theta, theta_checks, theta_prime, theta_prime_is_homomorphism,
                          verify_gwa)
from quiverdu.rewrite import PRESET_QDU, build_system, normal_form
from quiverdu.structure import property_report, pwd_proof_H
from test_gwa_reference import as_gwa_element, as_oracle, coded, decoded, kernel_sigma, oracle_of


def params_n3():
    return Parameters.of(3, [2, -1, "1/3"], [1, 2, "3/2"], ["1/2", 0, 1])


def rand_params(n, rng):
    nz = lambda: Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
    any_ = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Parameters.of(n, [any_() for _ in range(n)], [nz() for _ in range(n)],
                         [any_() for _ in range(n)])


def rand_base(n, rng, deg=2, nterms=3):
    """An element of R as {(v, a, b): Fraction}, zeros dropped."""
    terms = {}
    for _ in range(nterms):
        v = rng.randrange(n)
        a = rng.randint(0, deg)
        b = rng.randint(0, deg - a if deg >= a else 0)
        terms[(v, a, b)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return {k: c for k, c in terms.items() if c}


def theta_of(params, source, word):
    """theta of the path ``word`` from ``source``, on {m: {(v, a, b): Fraction}}."""
    return as_oracle(theta(params, Element.from_path(path_from_word(params.n, source, word))))


def e(v):
    return {(v, 0, 0): Fraction(1)}


# Known answers below are worked by hand from sigma's definition at params_n3:
# sigma(e_v) = e_{v+1}, sigma(x_v) = y_{v+1},
# sigma(y_v) = alpha_v y_{v+1} + beta_v x_{v+1} + gamma_v e_{v+1}.

def test_sigma_on_generators():
    p = params_n3()
    # 2 y_1 + x_1 + 1/2 e_1
    assert kernel_sigma(p, {(0, 0, 1): Fraction(1)}, 1) == {
        (1, 0, 1): Fraction(2), (1, 1, 0): Fraction(1), (1, 0, 0): Fraction(1, 2)}
    assert kernel_sigma(p, e(2), 1) == e(0)
    assert kernel_sigma(p, {(0, 1, 0): Fraction(1)}, 1) == {(1, 0, 1): Fraction(1)}


def test_sigma_inverse_formula():
    # sigma^-1(y_{w+1}) = x_w, beta_w sigma^-1(x_{w+1}) = y_w - alpha_w x_w - gamma_w e_w
    p = params_n3()
    assert kernel_sigma(p, {(1, 0, 1): Fraction(1)}, -1) == {(0, 1, 0): Fraction(1)}
    assert kernel_sigma(p, {(1, 1, 0): Fraction(1)}, -1) == {
        (0, 0, 1): Fraction(1), (0, 1, 0): Fraction(-2), (0, 0, 0): Fraction(-1, 2)}
    # w = 2: (y_2 - 1/3 x_2 - e_2) / (3/2)
    assert kernel_sigma(p, {(0, 1, 0): Fraction(1)}, -1) == {
        (2, 0, 1): Fraction(2, 3), (2, 1, 0): Fraction(-2, 9), (2, 0, 0): Fraction(-2, 3)}


def test_sigma_roundtrip_and_homomorphism():
    rng = random.Random(41)
    p = rand_params(3, rng)
    times = lambda r, s: decoded(gwa._product(coded(r), coded(s)))
    for _ in range(20):
        b, c = rand_base(3, rng), rand_base(3, rng)
        assert kernel_sigma(p, kernel_sigma(p, b, 1), -1) == b
        assert kernel_sigma(p, kernel_sigma(p, b, -2), 2) == b
        assert kernel_sigma(p, times(b, c), 1) == times(kernel_sigma(p, b, 1), kernel_sigma(p, c, 1))
    # idempotents are permuted cyclically
    for i in range(3):
        assert kernel_sigma(p, e(i), 1) == e((i + 1) % 3)


def test_sigma_power_zero_returns_argument():
    # sigma^0 is the identity, also where sigma has no inverse.
    for p in (params_n3(), Parameters.of(2, [1, 1], [0, 1], [0, 0])):
        gwa._shift_table.cache_clear()
        table = gwa._shift_table(p)
        assert table.images(0) == tuple(((1, {(v, 1, 0): 1}), (1, {(v, 0, 1): 1})) for v in range(p.n))
        assert table.monomial(0, 0, 2, 1) == (1, {(0, 2, 1): 1})
        assert table.monomial(0, p.n - 1, 0, 0) == (1, {(p.n - 1, 0, 0): 1})


def test_gwa_multiply_needs_nonzero_beta():
    for beta in ([1, 0, 1], [0, 1, 1]):
        with pytest.raises(ValueError, match="requires all beta_i nonzero"):
            gwa._gwa_table(Parameters.of(3, [1, 1, 1], beta, [0, 0, 0]))


def test_gwa_contractions():
    # X^- X^+ = x and X^+ X^- = sigma(x), on theta's generators X_i^- = e_i X^-
    # and X_i^+ = e_{i+1} X^+: theta(u_v d_v) = X_v^- X_v^+ = x_v and
    # theta(d_{v-1} u_{v-1}) = X_{v-1}^+ X_{v-1}^- = y_v = sigma(x_{v-1}).
    p = params_n3()
    for v in range(3):
        assert theta_of(p, v, "ud") == {0: {(v, 1, 0): 1}}
        assert theta_of(p, v, "du") == {0: {(v, 0, 1): 1}}


def test_gwa_skew_commutation():
    p = params_n3()
    # X^+ y_0 = sigma(y_0) X^+: theta(d_0 d_2 u_2) from 1 = X_0^+ y_0 =
    # (2 y_1 + x_1 + 1/2 e_1) X^+; and X^- y_1 = sigma^-1(y_1) X^- = x_0 X^-:
    # theta(u_0 d_0 u_0) from 0 = X_0^- y_1.
    assert theta_of(p, 1, "ddu") == {1: {(1, 0, 1): 2, (1, 1, 0): 1, (1, 0, 0): Fraction(1, 2)}}
    assert theta_of(p, 0, "udu") == {-1: {(0, 1, 0): 1}}


def test_gwa_associative():
    # theta of a path is one product in T however it is bracketed: theta of
    # the concatenation a b c against the oracle's (ta tb) tc and ta (tb tc).
    rng = random.Random(43)
    p = rand_params(3, rng)
    t = oracle_of(p)
    for _ in range(10):
        source = rng.randrange(3)
        words = ["".join(rng.choice("ud") for _ in range(rng.randint(0, 3))) for _ in range(3)]
        starts = [source]
        for word in words:
            starts.append(path_from_word(3, starts[-1], word).target)
        a, b, c = (theta_of(p, start, word) for start, word in zip(starts, words))
        assert t.times(t.times(a, b), c) == theta_of(p, source, "".join(words)) == t.times(a, t.times(b, c))


def test_gwa_caches_are_bounded_lru_caches():
    caches = [obj for obj in vars(gwa).values() if hasattr(obj, "cache_clear")]
    assert caches
    for cache in caches:
        assert cache.cache_info().maxsize is not None


def test_theta_on_generators_and_relations():
    p = params_n3()
    n = 3
    ud = Element.from_path(path_from_word(n, 0, "ud"))
    assert theta(p, ud) == as_gwa_element(n, {0: {(0, 1, 0): 1}})  # x_0
    du = Element.from_path(path_from_word(n, 1, "du"))  # d_0 u_0
    assert theta(p, du) == as_gwa_element(n, {0: {(1, 0, 1): 1}})  # y_1
    sys = build_system(PRESET_QDU, p)
    for rule in sys.rules:
        assert theta(p, rule.as_relation()).is_zero()


def test_theta_requires_nonzero_beta():
    p = Parameters.of(3, [0, 0, 0], [0, 1, 1], [0, 0, 0])
    with pytest.raises(ValueError):
        theta(p, Element.identity(3))


def test_theta_prime_inverse_on_base():
    p = params_n3()
    n = 3
    assert theta_prime(p, as_gwa_element(n, {0: {(1, 0, 1): 1}})) == Element.from_path(
        path_from_word(n, 1, "du"))
    assert theta_prime(p, as_gwa_element(n, {0: {(0, 1, 0): 1}})) == Element.from_path(
        path_from_word(n, 0, "ud"))


def test_roundtrip_random_elements():
    rng = random.Random(47)
    p = rand_params(3, rng)
    sys = build_system(PRESET_QDU, p)
    for _ in range(8):
        terms = {}
        for _ in range(3):
            src = rng.randrange(3)
            word = "".join(rng.choice("ud") for _ in range(rng.randint(0, 5)))
            terms[path_from_word(3, src, word)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        a = Element(3, terms)
        assert theta_prime(p, theta(p, a)) == normal_form(sys, a)


def test_theta_prime_multiplicative_on_samples():
    # theta_prime(a b) = NF(theta_prime(a) theta_prime(b)), with a b taken by the oracle.
    rng = random.Random(137)
    p = rand_params(3, rng)
    sys = build_system(PRESET_QDU, p)

    def rand_gwa():
        terms = {}
        for _ in range(2):
            b = rand_base(3, rng, deg=1, nterms=2)
            if b:
                terms[rng.randint(-2, 2)] = b
        return terms

    for _ in range(8):
        a, b = rand_gwa(), rand_gwa()
        lhs = theta_prime(p, as_gwa_element(3, oracle_of(p).times(a, b)))
        rhs = normal_form(sys, theta_prime(p, as_gwa_element(3, a)) * theta_prime(p, as_gwa_element(3, b)))
        assert lhs == rhs


def test_grading_intertwined():
    rng = random.Random(53)
    p = rand_params(3, rng)
    for _ in range(10):
        src = rng.randrange(3)
        word = "".join(rng.choice("ud") for _ in range(rng.randint(0, 5)))
        path = path_from_word(3, src, word)
        img = theta(p, Element.from_path(path))
        assert not img.is_zero()
        assert set(img.terms) == {word.count("d") - word.count("u")}  # +1 per d, -1 per u


def test_verify_gwa_full():
    rng = random.Random(59)
    for _ in range(2):
        p = rand_params(3, rng)
        report = verify_gwa(p)
        assert report.ok


def test_verify_gwa_degenerate_n():
    rng = random.Random(61)
    for n in (1, 2):
        p = rand_params(n, rng)
        report = verify_gwa(p)
        assert report.ok


def test_verify_gwa_fails_when_theta_misses_one_relation(monkeypatch):
    # theta of one relation's leading word is off by X_0^+ = e_1 X^+, while
    # every other relation still maps to zero, so a check that needed only
    # some of them to vanish would pass.  The round trips read no word of
    # length 3, so they still pass.
    params = params_n3()
    tables = gwa._tables(build_system(PRESET_QDU, params))
    real = gwa._theta_word
    try:
        for leading in zip(tables.sources, (lhs for lhs, _ in tables.rules)):

            def theta_missing_one(table, source, word, leading=leading):
                image = real(table, source, word)
                return {**image, 1: (1, {(1, 0, 0): 1})} if (source, word) == leading else image

            monkeypatch.setattr(gwa, "_theta_word", theta_missing_one)
            gwa._shift_table.cache_clear()  # the report is kept on the shift table
            report = verify_gwa(params)
            assert not report.relations_killed and not report.ok and not report.proves_pwd
            assert report.roundtrip_arrows and report.roundtrip_base and report.grading_ok
            assert report.homomorphism.ok and report.automorphism.ok and report.pwd_failures == 0
    finally:
        gwa._shift_table.cache_clear()


# ---------------------------------------------------------------------------
# The proof: theta_prime is an algebra map and sigma an automorphism
# ---------------------------------------------------------------------------

def proof_configs(n):
    """Random beta != 0 configs at n, one with gamma = 0 and one with gamma entrywise nonzero."""
    rng = random.Random(3600 + n)
    nz = lambda: Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 7))
    alpha = [nz() * rng.randint(0, 1) for _ in range(n)]
    return [Parameters.of(n, alpha, [nz() for _ in range(n)], [0] * n),
            Parameters.of(n, alpha, [nz() for _ in range(n)], [nz() for _ in range(n)])]


@pytest.mark.parametrize("n", range(1, 9))
def test_proof_identities_hold(n):
    for params in proof_configs(n):
        gwa._shift_table.cache_clear()
        homomorphism = theta_prime_is_homomorphism(params)
        automorphism = sigma_is_automorphism(params)
        # 3n support checks, n commutations, "1", the two X-relations and 6n X^+- r.
        assert homomorphism == gwa.IdentityCheck(10 * n + 3, ())
        assert automorphism == gwa.IdentityCheck(6 * n, ())
        assert theta_checks(params) == gwa.ThetaCheck(True, True, True, True)
        report = verify_gwa(params)
        assert report.ok and report.proves_pwd and report.pwd_failures == 0


def test_proof_results_live_on_the_shift_table(monkeypatch):
    # Computed once per table, so a report reads each check once, and
    # computed again after cache_clear, so a cold start is cold.  The
    # properties, gwa and pwd sections of a report all read theta's checks.
    p = params_n3()
    gwa._shift_table.cache_clear()
    theta = theta_checks(p)
    assert property_report(p).checks_passed
    first = theta_prime_is_homomorphism(p)
    report = verify_gwa(p)
    assert theta_prime_is_homomorphism(p) is first and report.homomorphism is first
    assert theta_checks(p) is theta and report.relations_killed and report.roundtrip_base
    assert verify_gwa(p) == report and pwd_proof_H(p).gwa == report
    assert gwa._shift_table(p).proofs == {"theta": theta, "theta_prime": first,
                                          "sigma": sigma_is_automorphism(p)}
    computed = []
    for name in ("_theta_checks", "_theta_prime_identities"):
        real = getattr(gwa, name)
        monkeypatch.setattr(gwa, name, lambda *args, real=real, name=name: computed.append(name) or real(*args))
    property_report(p), verify_gwa(p), pwd_proof_H(p)
    assert computed == []
    gwa._shift_table.cache_clear()
    again, report_again = theta_prime_is_homomorphism(p), verify_gwa(p)
    assert computed == ["_theta_prime_identities", "_theta_checks"]
    assert again == first and again is not first
    assert report_again == report and theta_checks(p) == theta and theta_checks(p) is not theta


def test_verify_gwa_does_not_rest_on_confluence():
    # Every check compares reductions of both sides, so a pass proves the
    # identities in H whether or not the rules were shown confluent; the
    # freeness witness reads the same checks.
    p = params_n3()
    rewrite._qdu_system.cache_clear()
    gwa._shift_table.cache_clear()
    try:
        assert verify_gwa(p).ok and property_report(p).checks_passed
        assert not build_system(PRESET_QDU, p).verified
    finally:
        rewrite._qdu_system.cache_clear()
        gwa._shift_table.cache_clear()


def test_pwd_proof_checks_confluence_only_to_refute(monkeypatch):
    # With every beta_i nonzero the proof reads verify_gwa and checks no
    # confluence; with beta_0 = 0 the zero-divisor pair is nonzero in H only
    # if normal forms are unique, so that branch checks confluence.
    checked = []
    check_confluence = rewrite.check_confluence
    monkeypatch.setattr(rewrite, "check_confluence", lambda sys_: checked.append(sys_.params) or check_confluence(sys_))
    p, zero = params_n3(), Parameters.of(3, [1, 1, 1], [0, 2, 3], [1, 1, 1])
    rewrite._qdu_system.cache_clear()
    gwa._shift_table.cache_clear()
    try:
        assert pwd_proof_H(p).ok and not build_system(PRESET_QDU, p).verified and not checked
        assert pwd_proof_H(zero).ok and checked == [zero]
    finally:
        rewrite._qdu_system.cache_clear()
        gwa._shift_table.cache_clear()


def test_proof_checks_refuse_zero_beta():
    p = Parameters.of(3, [1, 1, 1], [1, 0, 1], [0, 0, 0])
    for check in (theta_prime_is_homomorphism, sigma_is_automorphism, verify_gwa):
        with pytest.raises(ValueError, match="requires all beta_i nonzero"):
            check(p)


@pytest.fixture(params=["alpha", "gamma"])
def sigma_with_entry_2_changed(request, monkeypatch):
    """sigma built with alpha_2 (or gamma_2) raised by 1, while H keeps the true one."""
    genuine = gwa._ShiftTable._step
    field = request.param

    def step(self, m, sign):
        real = self.params
        vector = list(getattr(real, field))
        vector[2] += 1
        self.params = replace(real, **{field: tuple(vector)})
        try:
            return genuine(self, m, sign)
        finally:
            self.params = real

    monkeypatch.setattr(gwa._ShiftTable, "_step", step)
    gwa._shift_table.cache_clear()
    yield field
    gwa._shift_table.cache_clear()


@pytest.mark.parametrize("n", range(3, 6))
def test_theta_prime_identities_catch_a_changed_sigma(n, sigma_with_entry_2_changed):
    # sigma(y_2) = alpha_2 y_3 + beta_2 x_3 + gamma_2 e_3, so X^+ y_2 =
    # sigma(y_2) X^+ fails in H; sigma^-1 is changed alike, so sigma stays
    # an automorphism, and X^- r = sigma^-1(r) X^- fails where x_3 (x_0 at
    # n = 3) is involved.
    for params in proof_configs(n):
        gwa._shift_table.cache_clear()
        report = verify_gwa(params)
        assert not report.homomorphism.ok and not report.ok and not report.proves_pwd
        assert "X+ y2" in report.homomorphism.failed
        assert f"X- x{3 % n}" in report.homomorphism.failed
        assert report.automorphism.ok
        assert report.pwd_failures == len(report.homomorphism.failed)


@pytest.fixture
def sigma_inverse_negated(monkeypatch):
    """sigma^-1 sends x_v and y_v to minus their true images, with every shift table rebuilt."""
    genuine = gwa._ShiftTable._step

    def step(self, m, sign):
        out = genuine(self, m, sign)
        if sign > 0:
            return out
        negate = lambda r: (r[0], {k: -c for k, c in r[1].items()})
        return tuple((negate(x), negate(y)) for x, y in out)

    monkeypatch.setattr(gwa._ShiftTable, "_step", step)
    gwa._shift_table.cache_clear()
    yield
    gwa._shift_table.cache_clear()


@pytest.mark.parametrize("n", [1, 3, 4])
def test_sigma_check_names_each_generator_it_fails_on(n, sigma_inverse_negated):
    # With alpha = gamma = 0 both compositions send x_v to -x_v and y_v to
    # -y_v, while x_v^2, x_v y_v and y_v^2 are fixed and e_v is untouched:
    # exactly the 4n checks on x_v and y_v fail, so each check reads its own
    # generator.
    params = Parameters.of(n, [0] * n, [Fraction(k + 2, 3) * (-1) ** k for k in range(n)], [0] * n)
    automorphism = sigma_is_automorphism(params)
    assert automorphism.checked == 6 * n
    assert set(automorphism.failed) == {f"{order} {g}{v}" for order in ("sigma sigma^-1", "sigma^-1 sigma")
                                        for g in "xy" for v in range(n)}


@pytest.mark.parametrize("kind, exponents, factor, fails, holds", [
    ("e", (0, 0), 2, {"e0", "e1", "1", "X+ e0", "X- e2"}, {"x0 y0", "x1 at 1", "y2 at 2", "X- X+", "X+ x0"}),
    ("x", (1, 0), -1, {"X- X+", "X+ x0", "X- x1"}, {"e0", "x0 at 0", "x0 y0", "y2 at 2", "X- y1", "X+ X-"}),
    ("y", (0, 1), -1, {"X+ X-", "X+ y0", "X- y1"}, {"e0", "y0 at 0", "x0 y0", "x2 at 2", "X+ x0", "X- X+"}),
])
def test_theta_prime_identities_read_each_generator(monkeypatch, kind, exponents, factor, fails, holds):
    # theta_prime scaled by ``factor`` on the elements of R whose monomials are
    # all e_v (or all x_v, or all y_v): the identities that multiply such a
    # generator by an X fail, and so does e_v's own check; the others hold.
    # x_v y_v = y_v x_v holds, since both sides are scaled alike.
    real = gwa._coded_theta_prime

    def scaled(tables, coded):
        den, row = real(tables, coded)
        if all(m == 0 and all((a, b) == exponents for (_, a, b) in nums) for m, (_, nums) in coded.items()):
            row = {k: factor * c for k, c in row.items()}
        return [den, row]

    monkeypatch.setattr(gwa, "_coded_theta_prime", scaled)
    gwa._shift_table.cache_clear()
    try:
        homomorphism = theta_prime_is_homomorphism(params_n3())
    finally:
        gwa._shift_table.cache_clear()
    assert homomorphism.checked == 33
    assert fails <= set(homomorphism.failed) and not holds & set(homomorphism.failed), kind


def one_generator_changed(monkeypatch, generator, value):
    """theta_prime reading the coded GWA ``value`` in place of the one generator
    ``(v, a, b)`` of R, on every shift table built while it is patched."""
    real = gwa._coded_theta_prime
    target = {0: (1, {generator: 1})}
    monkeypatch.setattr(gwa, "_coded_theta_prime",
                        lambda tables, coded: real(tables, value if coded == target else coded))
    gwa._shift_table.cache_clear()


@pytest.mark.parametrize("value, moved", [
    ({0: (1, {(1, 1, 0): 1, (2, 0, 0): 1})}, "x_1 + e_2: a path from vertex 2"),
    ({0: (1, {(1, 1, 0): 1}), -1: (1, {(1, 0, 0): 1})}, "x_1 + u_1: a path from 1 to 2"),
])
def test_support_check_names_a_path_moved_off_its_vertex(monkeypatch, value, moved):
    # theta'(x_1) gains a path that does not run from 1 to 1, so it is no
    # longer in e_1 H e_1, and the support check of x_1 names it.
    one_generator_changed(monkeypatch, (1, 1, 0), value)
    try:
        report = verify_gwa(params_n3())
    finally:
        gwa._shift_table.cache_clear()
    assert "x1 at 1" in report.homomorphism.failed, moved
    assert {"x0 at 0", "y1 at 1", "x2 at 2", "e1"}.isdisjoint(report.homomorphism.failed)
    assert not report.proves_pwd and not report.ok


def test_commutation_is_checked_at_each_vertex(monkeypatch):
    # theta'(y_0) gains the up-cycle u_0 u_1 u_2 = theta'(e_0 X^-3), a loop at
    # 0 that does not commute with theta'(x_0): the support holds, and
    # x_0 y_0 = y_0 x_0 fails at vertex 0 only.
    one_generator_changed(monkeypatch, (0, 0, 1), {0: (1, {(0, 0, 1): 1}), -3: (1, {(0, 0, 0): 1})})
    try:
        failed = set(theta_prime_is_homomorphism(params_n3()).failed)
    finally:
        gwa._shift_table.cache_clear()
    assert "x0 y0" in failed and not {"x1 y1", "x2 y2", "y0 at 0", "e0"} & failed
