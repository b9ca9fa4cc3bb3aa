"""Metamorphic relations from the paper's isomorphisms.

Scale, rotate and reflect send H(p) isomorphically onto H(q), so every
verdict that an isomorphism cannot change must agree on p and q.  Each
test draws p and a witness w = IsoWitness(n, orientation, shift, lambda),
with reflection only when every beta_i != 0, and sets
q = w.predicted_params(p); no test compares with a copy of the code.
R1 reads ``report``, R2 normal forms, R3 the decision and R4 the chain.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout

import pytest

from quiverdu.cli import main
from quiverdu.core import Element, Parameters, path_from_word
from quiverdu.iso import REFLECTION, ROTATION, IsoWitness, decide_graded_iso, verify_witness
from quiverdu.rewrite import PRESET_QDU, build_system, normal_form
from helpers import apply_map
from test_iso import nonzero

# The paper's printed superpotential weights and Nakayama map are stated at
# unit beta (beta_i = +-1), and these findings test those printed formulas.
# A scaling changes beta, so on isomorphic p and q they may differ; each
# section's verdict already reads them against their own expected_to_pass.
PRINTED = {("superpotential", "printed", key) for key in
           ("expected_to_pass", "orbits_closed", "span_matches_relations", "twist_invariant")}
PRINTED |= {("nakayama", "printed", key) for key in ("expected_to_pass", "preserves_relations")}


def entries(rng: random.Random, n: int, zero_share: float) -> list:
    return [0 if rng.random() < zero_share else nonzero(rng) for _ in range(n)]


def draw_witness(rng: random.Random, p: Parameters) -> IsoWitness:
    orientations = (ROTATION, REFLECTION) if p.beta_all_nonzero() else (ROTATION,)
    return IsoWitness(p.n, rng.choice(orientations), rng.randrange(p.n),
                      tuple(nonzero(rng) for _ in range(p.n)))


def draw_pairs(seed: int, count: int):
    """(p, w, q) with n = 1..6, zero entries at 0-30%, gamma = 0 in half and
    unit beta in a quarter, so that the printed formulas are met too."""
    rng = random.Random(seed)
    for t in range(count):
        n = 1 + t % 6
        share = rng.choice([0.0, 0.15, 0.3])
        beta = [rng.choice([1, -1]) for _ in range(n)] if t % 4 == 1 else entries(rng, n, share)
        gamma = [0] * n if t % 2 else entries(rng, n, share)
        p = Parameters.of(n, entries(rng, n, share), beta, gamma)
        w = draw_witness(rng, p)
        yield p, w, w.predicted_params(p)


def report(config, p: Parameters) -> tuple[int, dict]:
    """``report --json`` on p, through a config file: its exit code and its output."""
    config.write_text(json.dumps({field: [str(x) for x in getattr(p, field)]
                                  for field in ("alpha", "beta", "gamma")} | {"n": p.n}),
                      encoding="utf-8")
    with redirect_stdout(io.StringIO()) as out:
        code = main(["report", str(config), "--json"])
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """(p, w, report of p, report of q) on 200 drawn pairs, read by R1 and R4."""
    config = tmp_path_factory.mktemp("report") / "config.json"
    return [(p, w, report(config, p), report(config, q)) for p, w, q in draw_pairs(5001, 200)]


def booleans(findings, path: tuple = ()) -> dict:
    """{path of keys: value} of every boolean leaf of the findings."""
    if isinstance(findings, bool):
        return {path: findings}
    if isinstance(findings, dict):
        return {leaf: value for key, sub in findings.items()
                for leaf, value in booleans(sub, path + (key,)).items()}
    return {}


def test_r1_report_agrees_on_isomorphic_configs(reports):
    printed_differ = 0
    for p, w, (code_p, out_p), (code_q, out_q) in reports:
        assert (code_p, out_p["verdict"]) == (code_q, out_q["verdict"]), (p, w)
        assert out_p["findings"].keys() == out_q["findings"].keys(), (p, w)
        found_p, found_q = booleans(out_p["findings"]), booleans(out_q["findings"])
        assert {k: v for k, v in found_p.items() if k not in PRINTED} == \
            {k: v for k, v in found_q.items() if k not in PRINTED}, (p, w)
        printed_differ += any(found_p[k] != found_q[k] for k in PRINTED & found_p.keys())
    # The exclusion is needed: a scaling does change the printed findings.
    assert printed_differ > 0


def random_word(rng: random.Random, n: int) -> Element:
    letters = "".join(rng.choice("ud") for _ in range(rng.randint(1, 6)))
    return Element.from_path(path_from_word(n, rng.randrange(n), letters)).scale(nonzero(rng))


def test_r2_normal_forms_commute_with_the_witness_map():
    rng = random.Random(5002)
    for p, w, q in draw_pairs(5003, 200):
        source, target = build_system(PRESET_QDU, p), build_system(PRESET_QDU, q)
        for _ in range(3):
            x = random_word(rng, p.n) + random_word(rng, p.n)
            assert normal_form(target, apply_map(w.spec, normal_form(source, x))) == \
                normal_form(target, apply_map(w.spec, x)), (p, w, x)


def supported(rng: random.Random, n: int, alpha=None) -> Parameters:
    """Parameters inside the decision's scope, on alpha's zero pattern if given."""
    if alpha is None:
        alpha = entries(rng, n, rng.choice([0.0, 0.3, 0.6]))
    return Parameters.of(n, [nonzero(rng) if a else 0 for a in alpha],
                         [nonzero(rng) for _ in range(n)], [0] * n)


def test_r3_the_decision_finds_a_witness_for_every_image():
    rng = random.Random(5004)
    for t in range(200):
        p = supported(rng, 3 + t % 4)
        w = draw_witness(rng, p)
        q = w.predicted_params(p)
        verdict = decide_graded_iso(p, q)
        assert verdict.kind == "isomorphic", (p, w)
        assert verify_witness(verdict.witness, p, q), (p, w)


def test_r3_the_verdict_is_invariant_under_an_isomorphism_of_either_side():
    # Half the pairs are isomorphic by construction; the rest share p's
    # alpha zero pattern or are drawn afresh, and are mostly not.
    rng = random.Random(5005)
    kinds = {"isomorphic": 0, "not_isomorphic": 0}
    for t in range(240):
        p = supported(rng, 3 + t % 4)
        if t % 2 == 0:
            q = draw_witness(rng, p).predicted_params(p)
        else:
            q = supported(rng, p.n, p.alpha if t % 4 == 1 else None)
        kind = decide_graded_iso(p, q).kind
        phi, psi = draw_witness(rng, p), draw_witness(rng, q)
        assert decide_graded_iso(phi.predicted_params(p), psi.predicted_params(q)).kind == kind, \
            (p, q, phi, psi)
        kinds[kind] += 1
    assert kinds["isomorphic"] >= 100 and kinds["not_isomorphic"] >= 100, kinds


def test_r4_the_chain_vertex_moves_with_the_witness(reports):
    # R1's pairs with exactly one beta_i = 0, whose witnesses are rotations.
    chains = 0
    for p, w, (_, out_p), (_, out_q) in reports:
        if p.beta.count(0) != 1:
            continue
        i = p.beta.index(0)
        chain_p, chain_q = (out["findings"]["noetherian_chain"] for out in (out_p, out_q))
        assert (chain_p["vertex"], chain_q["vertex"]) == (i, w.spec.vertex_image(i)), (p, w)
        assert all(c["annihilation"] and c["support_pattern"] and all(c["strict_inclusions"].values())
                   for c in (chain_p, chain_q)), (p, w)
        chains += 1
    assert chains >= 30, chains
