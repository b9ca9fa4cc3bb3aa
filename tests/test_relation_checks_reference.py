"""The checks on the defining relations against references written from the definitions.

theta, theta_prime, ``verify_gwa``, the superpotential sections, the
Nakayama findings and ``verify_witness`` run on packed words.  Each is
compared here with a reference of a few lines on Paths with Fraction
coefficients: the relations as the paper writes them, theta and
theta_prime by ``oracle.Gwa`` from T's definition, twists and cyclic
derivatives arrow by arrow, diagonal maps path by path, and spans by
dense Fraction elimination.  The parameters are random at n = 1..6,
with gamma = 0 and gamma != 0.  The mutation tests change one scalar or
one map and require both the coded check and its reference to fail.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from quiverdu import gwa
from quiverdu.cli import _nakayama_findings, _superpotential_findings
from quiverdu.core import Element, Parameters, Path, format_element, path_from_word, trivial_path
from quiverdu.gwa import theta, theta_prime, verify_gwa
from quiverdu.iso import REFLECTION, ROTATION, IsoWitness, verify_witness
from quiverdu.rewrite import PRESET_QDU, build_system, normal_form
from quiverdu.structure import (DiagonalMapSpec, balanced_twist_weights, build_superpotential,
                                check_diagonal_map, check_twist_invariance, derived_nakayama,
                                paper_nakayama, paper_twist_weights)
from helpers import apply_map, relation
from test_gwa_reference import as_gwa_element, as_oracle, oracle_of
from test_oracle import as_terms


def random_params(n: int, rng: random.Random, gamma: bool) -> Parameters:
    nonzero = lambda: Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 4))
    return Parameters.of(n, [nonzero() * rng.randint(0, 1) for _ in range(n)],
                         [nonzero() for _ in range(n)],
                         [nonzero() * rng.randint(0, 1) if gamma else 0 for _ in range(n)])


CASES = [(n, gamma) for n in range(1, 7) for gamma in (False, True)]


def case_params(n: int, gamma: bool) -> Parameters:
    return random_params(n, random.Random(3100 + 2 * n + gamma), gamma)


def path(n: int, source: int, letters: str) -> Path:
    return path_from_word(n, source, letters)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def ref_relations(p: Parameters) -> list[Element]:
    """rho1_i = d_{i-1}u_{i-1}u_i - a_i u_i d_i u_i - b_i u_i u_{i+1}d_{i+1} - g_i u_i at i, and
    rho2_i = d_i d_{i-1}u_{i-1} - a_i d_i u_i d_i - b_i u_{i+1}d_{i+1}d_i - g_i d_i at i+1."""
    n, out = p.n, []
    for i in range(n):
        for v, words in ((i, ("duu", "udu", "uud", "u")), ((i + 1) % n, ("ddu", "dud", "udd", "d"))):
            coeffs = (1, -p.alpha[i], -p.beta[i], -p.gamma[i])
            out.append(Element(n, {path(n, v, w): c for w, c in zip(words, coeffs)}))
    return out


def ref_theta(p: Parameters, a: Element) -> dict:
    """theta(u_i) = e_i X^- and theta(d_i) = e_{i+1} X^+, multiplied out in T by the oracle."""
    return oracle_of(p).theta(as_terms(a))


def ref_theta_prime(p: Parameters, t: dict, swap: bool = False) -> dict:
    """x_v -> u_v d_v, y_v -> d_{v-1} u_{v-1}, X^+ -> sum d, X^- -> sum u, reduced by the oracle
    (with ``swap``, x and y trade images)."""
    if swap:
        t = {m: {(v, b, a): c for (v, a, b), c in r.items()} for m, r in t.items()}
    return oracle_of(p).theta_prime(t)


def ref_verify_gwa(p: Parameters, swap: bool = False) -> tuple[bool, bool, bool, bool]:
    n, t = p.n, oracle_of(p)
    killed = not any(ref_theta(p, rel) for rel in ref_relations(p))
    arrows = [path(n, i, letter) for i in range(n) for letter in "ud"]
    loops = [Element.from_path(q) for q in arrows + [trivial_path(n, i) for i in range(n)]]
    roundtrip_arrows = all(ref_theta_prime(p, ref_theta(p, a), swap) == as_terms(a) for a in loops)
    grading = all(set(ref_theta(p, Element.from_path(q))) == {1 if q.arrows[0].family == "d" else -1}
                  for q in arrows)
    gens = [g for i in range(n) for g in ({0: t.x(i)}, {0: t.y(i)}, {-1: t.e(i)}, {1: t.e(i + 1)})]
    roundtrip_base = all(t.theta(ref_theta_prime(p, g, swap)) == g for g in gens)
    return killed, roundtrip_arrows, roundtrip_base, grading


def ref_rank(rows: list[Element]) -> int:
    """Rank of the rows' term maps by dense Gaussian elimination over Fraction."""
    keys = sorted({q for r in rows for q in r.terms}, key=str)
    matrix = [[r.terms.get(q, Fraction(0)) for q in keys] for r in rows]
    rank = 0
    for col in range(len(keys)):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for i in range(len(matrix)):
            if i != rank and matrix[i][col]:
                f = matrix[i][col] / matrix[rank][col]
                matrix[i] = [x - f * y for x, y in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


def ref_twist(weights: DiagonalMapSpec, q: Path, c: Fraction) -> tuple[Path, Fraction]:
    """a_1...a_d -> (-1)^{d+1} w(a_d) a_d a_1...a_{d-1}."""
    last = q.arrows[-1]
    w = (weights.u_scalars if last.family == "u" else weights.d_scalars)[last.index]
    return Path(q.n, last.source(q.n), (last,) + q.arrows[:-1]), c * w * (1 if q.length % 2 else -1)


def ref_superpotential(p: Parameters, weights: DiagonalMapSpec) -> tuple[Element, dict]:
    """Omega = sum_i [d_i d_{i-1} u_{i-1} u_i] - alpha_i [d_i u_i d_i u_i], [q] the sum of the
    distinct signed twists of q over one rotation; also each orbit's closure scalar."""
    n, omega, closures = p.n, Element.zero(p.n), {}
    for i in range(n):
        for family, coeff in (("dduu", 1), ("dudu", -p.alpha[i])):
            start = path(n, i + 1, family)
            cur, seen, form = (start, Fraction(1)), set(), Element.zero(n)
            for _ in range(4):
                if cur not in seen:
                    seen.add(cur)
                    form = form + Element.from_path(*cur)
                cur = ref_twist(weights, *cur)
            assert cur[0] == start
            closures[(family, i)] = cur[1]
            omega = omega + form.scale(coeff)
    return omega, closures


def ref_twist_defect(omega: Element, weights: DiagonalMapSpec) -> Element:
    twisted = Element.zero(omega.n)
    for q, c in omega.terms.items():
        twisted = twisted + Element.from_path(*ref_twist(weights, q, c))
    return twisted - omega


def ref_derivatives(omega: Element) -> list[Element]:
    """The cyclic derivative by each arrow: delete a leading arrow equal to it."""
    out: dict = {}
    for q, c in omega.terms.items():
        rest = Path(q.n, q.arrows[0].target(q.n), q.arrows[1:])
        out[q.arrows[0]] = out.get(q.arrows[0], Element.zero(q.n)) + Element.from_path(rest, c)
    return list(out.values())


def ref_spans_equal(a: list[Element], b: list[Element]) -> bool:
    return ref_rank(a) == ref_rank(b) == ref_rank(a + b)


def ref_map(spec: DiagonalMapSpec, a: Element) -> Element:
    """A diagonal map applied path by path."""
    out = Element.zero(a.n)
    for q, c in a.terms.items():
        images = [spec.arrow_image(x) for x in q.arrows]
        for s, _ in images:
            c *= s
        out = out + Element.from_path(Path(a.n, spec.vertex_image(q.source), tuple(x for _, x in images)), c)
    return out


def ref_diagonal_map(spec: DiagonalMapSpec, src: Parameters, tgt: Parameters) -> list[tuple]:
    """Per source relation: (its image lies in the span of the target relations, index and
    scalar of the first target relation the image is a multiple of)."""
    targets = ref_relations(tgt)
    out = []
    for img in (ref_map(spec, rel) for rel in ref_relations(src)):
        match = (None, None)
        for j, rel in enumerate(targets):
            q = next(iter(rel.terms))
            if q in img.terms and rel.scale(img.terms[q] / rel.terms[q]) == img:
                match = (j, img.terms[q] / rel.terms[q])
                break
        out.append((ref_rank(targets + [img]) == ref_rank(targets), *match))
    return out


def ref_verify_witness(w: IsoWitness, src: Parameters, tgt: Parameters) -> bool:
    sys = build_system(PRESET_QDU, tgt)
    return all(normal_form(sys, ref_map(w.spec, rel)).is_zero() for rel in ref_relations(src))


def random_witness(n: int, rng: random.Random) -> IsoWitness:
    lam = tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(n))
    return IsoWitness(n, rng.choice([ROTATION, REFLECTION]), rng.randrange(n), lam)


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

def test_the_references_see_the_paper_relations():
    # The rules, read the slow way, are the relations the references write down.
    for n, gamma in CASES:
        p = case_params(n, gamma)
        assert [relation(r) for r in build_system(PRESET_QDU, p).rules] == ref_relations(p)


@pytest.mark.parametrize("n, gamma", CASES)
def test_theta_of_every_short_word_is_the_product_of_generator_images(n, gamma):
    p = case_params(n, gamma)
    for v in range(n):
        for length in range(5):
            for k in range(2 ** length):
                letters = "".join("ud"[(k >> j) & 1] for j in range(length))
                a = Element.from_path(path(n, v, letters), Fraction(k + 1, 3))
                assert as_oracle(theta(p, a)) == ref_theta(p, a)


@pytest.mark.parametrize("n, gamma", CASES)
def test_theta_prime_is_the_normal_product_of_generator_images(n, gamma):
    p = case_params(n, gamma)
    rng = random.Random(3200 + n)
    for _ in range(4):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.randint(-3, 3)] = {(rng.randrange(n), rng.randint(0, 2), rng.randint(0, 2)):
                                         Fraction(rng.randint(-5, 5), rng.randint(1, 3))}
        t = as_gwa_element(n, terms)
        assert as_terms(theta_prime(p, t)) == ref_theta_prime(p, as_oracle(t))


@pytest.mark.parametrize("n, gamma", CASES)
def test_verify_gwa_fields_match_the_reference(n, gamma):
    p = case_params(n, gamma)
    report = verify_gwa(p)
    fields = (report.relations_killed, report.roundtrip_arrows, report.roundtrip_base, report.grading_ok)
    assert fields == ref_verify_gwa(p) == (True, True, True, True)


@pytest.mark.parametrize("n, gamma", CASES)
def test_superpotential_sections_match_the_reference(n, gamma):
    p = case_params(n, gamma)
    for weights in (paper_twist_weights(p), balanced_twist_weights(p)):
        built = build_superpotential(p, weights)
        omega, closures = ref_superpotential(p, weights)
        assert built.omega == omega and built.closure_scalars == closures
        defect = ref_twist_defect(omega, weights)
        for given in (built, omega):
            report = check_twist_invariance(given, weights)
            assert report.invariant == defect.is_zero() and report.defect == defect
    if gamma:
        return
    sections = _superpotential_findings(p)[1]
    for name, weights in (("printed", paper_twist_weights(p)), ("balanced", balanced_twist_weights(p))):
        omega, closures = ref_superpotential(p, weights)
        defect = ref_twist_defect(omega, weights)
        section = sections[name]
        assert section["orbits_closed"] == all(c == 1 for c in closures.values())
        assert section["twist_invariant"] == defect.is_zero()
        assert section.get("twist_defect") == (None if defect.is_zero() else format_element(defect))
        assert section["span_matches_relations"] == ref_spans_equal(ref_derivatives(omega), ref_relations(p))
        assert section["closure_scalars"] == {f"{f}[{i}]": str(c) for (f, i), c in sorted(closures.items())}
    assert sections["balanced"]["span_matches_relations"]


@pytest.mark.parametrize("n, gamma", CASES)
def test_nakayama_findings_match_the_reference(n, gamma):
    p = case_params(n, gamma)
    for spec in (paper_nakayama(p), derived_nakayama(p)):
        report = check_diagonal_map(spec, p, p)
        expected = ref_diagonal_map(spec, p, p)
        assert [(d["in_span"], d["proportional_to"], d["scalar"]) for d in report.per_relation] == expected
        assert report.ok == all(member for member, _, _ in expected)
    if not gamma:
        findings = _nakayama_findings(p)[1]
        printed = ref_diagonal_map(paper_nakayama(p), p, p)
        assert findings["printed"]["preserves_relations"] == all(member for member, _, _ in printed)
        assert findings["derived"]["per_relation_scalars"] == [
            str(c) for _, _, c in ref_diagonal_map(derived_nakayama(p), p, p)]


@pytest.mark.parametrize("n, gamma", CASES)
def test_verify_witness_matches_the_reference(n, gamma):
    p = case_params(n, gamma)
    rng = random.Random(3300 + 2 * n + gamma)
    for _ in range(3):
        w = random_witness(n, rng)
        q = w.predicted_params(p)
        assert verify_witness(w, p, q) and ref_verify_witness(w, p, q)
        other = random_witness(n, rng)
        assert verify_witness(other, p, q) == ref_verify_witness(other, p, q)
        for spec in (w.spec, other.spec):
            report = check_diagonal_map(spec, p, q)
            expected = ref_diagonal_map(spec, p, q)
            assert [(d["in_span"], d["proportional_to"], d["scalar"]) for d in report.per_relation] == expected
            a = ref_relations(p)[0] + Element.from_path(path(n, 1, "uddu"), Fraction(-2, 3))
            assert apply_map(spec, a) == ref_map(spec, a)


def test_coded_gwa_values_compare_in_canonical_form():
    # zero sums and empty X-degrees dropped, each part divided by its content
    assert gwa._canonical({0: (6, {(0, 1, 0): 3, (0, 0, 1): 0}), 1: (2, {}), -1: (1, {(1, 0, 0): 0})}) == {
        0: (2, {(0, 1, 0): 1})}


# ---------------------------------------------------------------------------
# Mutations: each must fail the coded check and its reference
# ---------------------------------------------------------------------------

GENERIC = Parameters.of(3, [2, Fraction(1, 2), 5], [7, Fraction(-3, 2), 13], [1, 2, Fraction(1, 3)])
GRADED = replace(GENERIC, gamma=(Fraction(0),) * 3)


@pytest.fixture(autouse=True)
def cold_shift_tables():
    """The proof checks keep their results on the cached shift table, so each test starts
    and ends without one: a result read through a patched function does not outlive it."""
    gwa._shift_table.cache_clear()
    yield
    gwa._shift_table.cache_clear()


def test_sigma_with_one_alpha_changed_fails_the_relation_kill(monkeypatch):
    bad = replace(GENERIC, alpha=GENERIC.alpha[:2] + (GENERIC.alpha[2] + 1,))
    assert any(ref_theta(bad, rel) for rel in ref_relations(GENERIC))
    monkeypatch.setattr(gwa, "_gwa_table", lambda params: gwa._shift_table(bad))
    report = verify_gwa(GENERIC)
    assert not report.relations_killed and report.roundtrip_arrows and report.roundtrip_base


def test_theta_prime_with_x_and_y_swapped_fails_the_base_round_trip(monkeypatch):
    assert not ref_verify_gwa(GENERIC, swap=True)[2]
    real = gwa._coded_theta_prime

    def swapped(tables, coded):
        return real(tables, {m: (den, {(v, b, a): c for (v, a, b), c in nums.items()})
                             for m, (den, nums) in coded.items()})

    monkeypatch.setattr(gwa, "_coded_theta_prime", swapped)
    report = verify_gwa(GENERIC)
    assert not report.roundtrip_base and report.relations_killed and report.roundtrip_arrows


# x_0, y_0, X_0^- and X_0^+ = e_1 X^+, coded as verify_gwa writes them.
GENERATORS_AT_0 = [{0: (1, {(0, 1, 0): 1})}, {0: (1, {(0, 0, 1): 1})}, {-1: (1, {(0, 0, 0): 1})},
                   {1: (1, {(1, 0, 0): 1})}]


@pytest.mark.parametrize("broken", GENERATORS_AT_0)
def test_theta_prime_wrong_on_one_generator_fails_the_base_round_trip(broken, monkeypatch):
    # theta' doubles the image of this one generator only, so the base round
    # trip must take exactly the paper's generators to see it (theta o theta'
    # fixes every other element).
    real = gwa._coded_theta_prime

    def doubled(tables, coded):
        den, row = real(tables, coded)
        return [den, {k: 2 * c for k, c in row.items()} if coded == broken else row]

    monkeypatch.setattr(gwa, "_coded_theta_prime", doubled)
    report = verify_gwa(GENERIC)
    assert not report.roundtrip_base and report.relations_killed

def test_an_arrow_image_with_a_second_x_degree_fails_the_grading(monkeypatch):
    real = gwa._theta_word

    def graded_wrong(table, source, word):
        image = real(table, source, word)
        return {**image, 2: (1, {(source, 0, 0): 1})} if word.bit_length() == table.bits + 1 else image

    monkeypatch.setattr(gwa, "_theta_word", graded_wrong)
    report = verify_gwa(GENERIC)
    assert not report.grading_ok and not report.roundtrip_arrows


def test_a_perturbed_balanced_twist_weight_fails_twist_invariance():
    balanced = balanced_twist_weights(GRADED)
    bad = replace(balanced, u_scalars=(balanced.u_scalars[0] * 2,) + balanced.u_scalars[1:])
    assert check_twist_invariance(build_superpotential(GRADED, balanced), balanced).invariant
    assert not check_twist_invariance(build_superpotential(GRADED, bad), bad).invariant
    assert not ref_twist_defect(ref_superpotential(GRADED, bad)[0], bad).is_zero()


def test_a_perturbed_derived_nakayama_scalar_fails_preserving_the_relations():
    derived = derived_nakayama(GRADED)
    bad = replace(derived, d_scalars=derived.d_scalars[:1] + (derived.d_scalars[1] * 2,) + derived.d_scalars[2:])
    assert check_diagonal_map(derived, GRADED, GRADED).ok
    assert not check_diagonal_map(bad, GRADED, GRADED).ok
    assert not all(member for member, _, _ in ref_diagonal_map(bad, GRADED, GRADED))


def test_an_iso_witness_with_one_lambda_changed_fails():
    w = IsoWitness(3, REFLECTION, 1, (Fraction(2), Fraction(-1, 3), Fraction(5)))
    q = w.predicted_params(GRADED)
    bad = replace(w, lam=(Fraction(2), Fraction(-2, 3), Fraction(5)))
    assert verify_witness(w, GRADED, q) and ref_verify_witness(w, GRADED, q)
    assert not verify_witness(bad, GRADED, q)
    assert not ref_verify_witness(bad, GRADED, q)
