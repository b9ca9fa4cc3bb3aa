"""Seeded workloads for the quiverdu benchmark, and their known answers.

Nothing here imports quiverdu.  Each workload turns a seed into a list of
operations; an operation is one command line for ``quiverdu.cli.main``
plus the answer it must give.  Known answers come from the paper's
predictions, from closed forms computed here, from isomorphic pairs built
here by the scale/rotate/reflect formulas, or, for ``nf``, from
``expected_nf.json`` (recorded once; a confluent system has a unique
normal form, so any correct implementation reproduces it).
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_NF_FILE = HERE / "expected_nf.json"

# Small entries keep rational coefficients small, so that the cost of an
# operation depends on its shape far more than on the seed.
VALUES = tuple(Fraction(v) for v in ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2"))

WORKLOADS = ("nf-deep", "skew-cyclotomic", "report-mix")


@dataclass
class Config:
    n: int
    alpha: list
    beta: list
    gamma: list

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "alpha": [str(x) for x in self.alpha],
                           "beta": [str(x) for x in self.beta],
                           "gamma": [str(x) for x in self.gamma]}, sort_keys=True)

    def beta_all_nonzero(self) -> bool:
        return all(b != 0 for b in self.beta)


@dataclass
class Op:
    """One CLI command.  ``argv`` names configs as ``{name}`` placeholders."""

    label: str
    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    configs: dict[str, Config]
    rounds: list[list[Op]]


def _pick(rng: random.Random, nonzero: bool = True) -> Fraction:
    return rng.choice(VALUES) if nonzero else Fraction(0)


def _random_config(rng, n, alpha=True, beta=True, gamma=True) -> Config:
    return Config(n, [_pick(rng, alpha) for _ in range(n)],
                  [_pick(rng, beta) for _ in range(n)],
                  [_pick(rng, gamma) for _ in range(n)])


# ---------------------------------------------------------------------------
# Words and the normal-word shape
# ---------------------------------------------------------------------------

def word_element(n: int, source: int, letters: str) -> str:
    """The path from ``source`` spelled by u/d letters, in the element format."""
    at, tokens = source % n, []
    for letter in letters:
        if letter == "u":
            tokens.append(f"u{at}")
            at = (at + 1) % n
        else:
            at = (at - 1) % n
            tokens.append(f"d{at}")
    return "1 * " + ".".join(tokens)


def shape(a: int, b: int) -> str:
    return "d" * a + "u" * b


NORMAL_WORD = re.compile(r"u*(du)*d*")


def parse_terms(text: str) -> dict[str, Fraction]:
    """Element text to {arrow word or "@v": coefficient}."""
    if text.strip() == "0":
        return {}
    terms: dict[str, Fraction] = {}
    for raw in text.split(" + "):
        if " * " in raw:
            coeff, word = raw.split(" * ")
        else:
            coeff, vertex = raw.split(" @")
            word = "@" + vertex
        terms[word.strip()] = Fraction(coeff.strip())
    return terms


def letters(word: str) -> str:
    """Arrow word "d2.u2.u0" to its letters "duu"; trivial paths give ""."""
    if word.startswith("@"):
        return ""
    return "".join(token[0] for token in word.split("."))


# ---------------------------------------------------------------------------
# nf-deep
# ---------------------------------------------------------------------------

# Shapes d^a u^b of degree 8 to 10; the cost of the current rewriter grows
# exponentially with min(a, b).  The cheap shapes put more than half of
# the operations in one group (0.07-0.2 s), so that the median lands
# inside it, and the tail percentile lands inside the d^3u^6 / pwd group
# (0.4-0.8 s), not on the edge between two groups.
NF_SHAPES = {3: [(2, 6), (6, 2), (2, 7), (7, 2), (4, 4), (3, 5), (5, 3), (2, 8), (8, 2),
                 (3, 6), (6, 3), (4, 5)],
             4: [(2, 6), (6, 2), (2, 7), (7, 2), (4, 4), (3, 5), (5, 3), (3, 6)]}
NF_SMOKE_SHAPES = {3: [(2, 2), (2, 3), (3, 2), (1, 4)], 4: [(2, 2), (2, 3)]}
NF_POOL_SIZE = {3: 6, 4: 4}
PWD_DEGREE = 4


def nf_pool() -> dict[str, Config]:
    """Fixed configs with alpha, beta, gamma all nonzero; seeds draw from it."""
    rng = random.Random("nf-deep pool")
    return {f"nf{n}_{k}": _random_config(rng, n)
            for n in sorted(NF_POOL_SIZE) for k in range(NF_POOL_SIZE[n])}


def nf_cases(smoke: bool) -> list[tuple[str, int, str]]:
    """Every (config, source, element) the seeds can draw, for recording."""
    shapes = NF_SMOKE_SHAPES if smoke else NF_SHAPES
    out = []
    for name, cfg in nf_pool().items():
        for a, b in shapes[cfg.n]:
            for v in range(cfg.n):
                out.append((name, v, word_element(cfg.n, v, shape(a, b))))
    return out


def nf_key(config_name: str, element: str) -> str:
    return f"{config_name} | {element}"


def load_expected_nf() -> dict[str, dict[str, Fraction]]:
    raw = json.loads(EXPECTED_NF_FILE.read_text(encoding="utf-8"))
    return {key: {w: Fraction(c) for w, c in terms.items()} for key, terms in raw.items()}


def nf_deep_round(expected, rng: random.Random, smoke: bool):
    pool = nf_pool()
    by_n = {n: [name for name, c in pool.items() if c.n == n] for n in NF_POOL_SIZE}
    shapes = NF_SMOKE_SHAPES if smoke else NF_SHAPES
    ops, used = [], {}
    for n in sorted(shapes):
        for a, b in shapes[n]:
            name = rng.choice(by_n[n])
            v = rng.randrange(n)
            element = word_element(n, v, shape(a, b))
            used[name] = pool[name]
            ops.append(Op(f"nf n={n} d^{a}u^{b} v{v} {name}",
                          ["nf", "{%s}" % name, element, "--json"], "nf",
                          {"verdict": "pass", "nf": expected[nf_key(name, element)]}))
    for n in sorted(by_n):
        name = rng.choice(by_n[n])
        used[name] = pool[name]
        degree = 2 if smoke else PWD_DEGREE
        ops.append(Op(f"verify pwd n={n} deg {degree} {name}",
                      ["verify", "pwd", "{%s}" % name, "--max-degree", str(degree),
                       "--seed", str(rng.randrange(1000)), "--json"],
                      "pwd", {"verdict": "pass"}))
    return used, ops


# ---------------------------------------------------------------------------
# skew-cyclotomic
# ---------------------------------------------------------------------------

# (n, max degree): degree sweeps at n = 2..4 and an n sweep at degree 3.
# n = 2 runs to degree 8 so that the median and the tail percentile land
# among cases of similar cost (0.45-0.6 s).
SKEW_CASES = ([(2, k) for k in range(1, 9)] + [(n, k) for n in (3, 4) for k in range(1, 5)]
              + [(5, 3)])
SKEW_SMOKE_CASES = [(2, 1), (2, 2), (3, 1), (3, 2)]


def skew_round(rng: random.Random, smoke: bool):
    # alpha = gamma = 0 is required; the check itself is fixed by n and the
    # degree, so the seed only varies beta (unused by the check) and order.
    cases = list(SKEW_SMOKE_CASES if smoke else SKEW_CASES)
    rng.shuffle(cases)
    configs, ops = {}, []
    for n, degree in cases:
        name = f"skew{n}"
        if name not in configs:
            configs[name] = Config(n, [Fraction(0)] * n, [_pick(rng) for _ in range(n)],
                                   [Fraction(0)] * n)
        ops.append(Op(f"verify skewgroup n={n} deg {degree}",
                      ["verify", "skewgroup", "{%s}" % name, "--max-degree", str(degree),
                       "--json"], "skewgroup", {"verdict": "pass"}))
    return configs, ops


# ---------------------------------------------------------------------------
# report-mix
# ---------------------------------------------------------------------------

def scale(c: Config, lam: list[Fraction]) -> Config:
    n = c.n
    return Config(n, [lam[i] / lam[i - 1] * c.alpha[i] for i in range(n)],
                  [lam[(i + 1) % n] / lam[i - 1] * c.beta[i] for i in range(n)],
                  [c.gamma[i] / lam[i - 1] for i in range(n)])


def rotate(c: Config, k: int) -> Config:
    n = c.n
    return Config(n, [c.alpha[(i - k) % n] for i in range(n)],
                  [c.beta[(i - k) % n] for i in range(n)],
                  [c.gamma[(i - k) % n] for i in range(n)])


def reflect(c: Config) -> Config:
    n = c.n
    r = [n - 1 - i for i in range(n)]
    return Config(n, [-c.alpha[r[i]] / c.beta[r[i]] for i in range(n)],
                  [1 / c.beta[r[i]] for i in range(n)],
                  [-c.gamma[r[i]] / c.beta[r[i]] for i in range(n)])


def beta_product(c: Config) -> Fraction:
    out = Fraction(1)
    for b in c.beta:
        out *= b
    return out


def qdu_totals(n: int, max_degree: int) -> list[int]:
    return [n * ((k + 2) ** 2 // 4) for k in range(max_degree + 1)]


def preprojective_totals(n: int, max_degree: int) -> list[int]:
    return [n * (k + 1) for k in range(max_degree + 1)]


def _iso_pair(rng, n: int, positive: bool) -> tuple[Config, Config]:
    p = _random_config(rng, n, gamma=False)
    if positive:
        q = scale(p, [_pick(rng) for _ in range(n)])
        if rng.random() < 0.5:
            q = reflect(q)
        return p, rotate(q, rng.randrange(n))
    bp = beta_product(p)
    while True:
        q = _random_config(rng, n, gamma=False)
        if beta_product(q) not in (bp, 1 / bp):
            return p, q


def report_mix_round(rng: random.Random, smoke: bool):
    three = 2 if smoke else 3
    regimes = {
        "gen_g0": _random_config(rng, three, gamma=False),
        "gen": _random_config(rng, three),
        "beta0": _random_config(rng, three),
        "pre2": Config(2, [Fraction(0)] * 2, [Fraction(-1)] * 2, [Fraction(0)] * 2),
        "gen2": _random_config(rng, 2),
    }
    regimes["beta0"].beta[rng.randrange(three)] = Fraction(0)
    if not smoke:
        regimes["gen4_g0"] = _random_config(rng, 4, gamma=False)
        regimes["beta0_4"] = _random_config(rng, 4, gamma=False)
        regimes["beta0_4"].beta[rng.randrange(4)] = Fraction(0)
    configs = dict(regimes)
    ops = []

    def op(label, argv, kind, **expect):
        expect.setdefault("verdict", "pass")
        ops.append(Op(label, argv, kind, expect))

    for name, cfg in regimes.items():
        op(f"report {name} n={cfg.n}", ["report", "{%s}" % name, "--seed",
                                         str(rng.randrange(1000)), "--json"],
           "report", n=cfg.n, beta_nonzero=cfg.beta_all_nonzero(),
           skew=all(a == 0 for a in cfg.alpha) and all(g == 0 for g in cfg.gamma))
        op(f"verify properties {name}", ["verify", "properties", "{%s}" % name, "--json"],
           "properties", beta_nonzero=cfg.beta_all_nonzero())
        op(f"confluence {name}", ["confluence", "{%s}" % name, "--json"], "confluence")
    for name in ("gen", "gen2", "beta0"):
        n = configs[name].n
        max_degree = 6 if smoke else 10
        op(f"hilbert --check {name}", ["hilbert", "{%s}" % name, "--check", "--max-degree",
                                        str(max_degree), "--json"],
           "hilbert", totals=qdu_totals(n, max_degree))
        op(f"hilbert --check preprojective {name}",
           ["hilbert", "{%s}" % name, "--check", "--preset", "preprojective",
            "--max-degree", str(max_degree), "--json"],
           "hilbert", totals=preprojective_totals(n, max_degree))
        degree = 4 if smoke else 7
        op(f"basis {name} deg {degree}", ["basis", "{%s}" % name, "--degree", str(degree),
                                          "--json"],
           "basis", total=qdu_totals(n, degree)[-1])
    for name in ("gen_g0", "gen", "gen2"):
        op(f"verify gwa {name}", ["verify", "gwa", "{%s}" % name, "--seed",
                                  str(rng.randrange(1000)), "--json"], "gwa")
    for name in ("gen_g0",) + (() if smoke else ("gen4_g0",)):
        op(f"verify superpotential {name}",
           ["verify", "superpotential", "{%s}" % name, "--json"], "superpotential")
        op(f"verify nakayama {name}", ["verify", "nakayama", "{%s}" % name, "--json"],
           "nakayama")
    for name in ("beta0",) + (() if smoke else ("beta0_4",)):
        op(f"verify noetherian {name}", ["verify", "noetherian", "{%s}" % name, "--json"],
           "noetherian")
    iso_ns = [3, 3] if smoke else [3, 4, 5, 6, 3, 4, 5, 6]
    for k, n in enumerate(iso_ns):
        positive = k % 2 == 0
        p, q = _iso_pair(rng, n, positive)
        configs[f"iso{k}p"], configs[f"iso{k}q"] = p, q
        op(f"iso n={n} {'positive' if positive else 'negative'} pair {k}",
           ["iso", "{iso%dp}" % k, "--other", "{iso%dq}" % k, "--json"], "iso",
           result="isomorphic" if positive else "not_isomorphic")
    return configs, ops


def build(name: str, seed: int, rounds: int = 1, smoke: bool = False) -> Workload:
    """``rounds`` operation lists drawn in turn from one seeded generator.

    Each round draws fresh inputs, so a run averages over several draws
    instead of repeating one; round k's configs are named ``r<k>_<name>``.
    """
    if name == "nf-deep":
        make_round = functools.partial(nf_deep_round, load_expected_nf())
    else:
        make_round = {"skew-cyclotomic": skew_round, "report-mix": report_mix_round}[name]
    rng = random.Random(seed)
    configs, out = {}, []
    for k in range(rounds):
        round_configs, ops = make_round(rng, smoke)
        rename = {"{%s}" % c: "{r%d_%s}" % (k, c) for c in round_configs}
        configs.update({f"r{k}_{c}": cfg for c, cfg in round_configs.items()})
        for op in ops:
            op.argv = [rename.get(a, a) for a in op.argv]
        out.append(ops)
    return Workload(configs, out)


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------

def check(op: Op, exit_code: int, output: str) -> str | None:
    """None if the command gave its known answer, else why not."""
    verdict_code = {"pass": 0, "fail": 1}.get(op.expect["verdict"], 2)
    if exit_code != verdict_code:
        return f"exit code {exit_code}, expected {verdict_code}"
    try:
        report = json.loads(output)
    except json.JSONDecodeError:
        return "output is not JSON"
    if report.get("verdict") != op.expect["verdict"]:
        return f"verdict {report.get('verdict')!r}, expected {op.expect['verdict']!r}"
    return CHECKS[op.kind](op.expect, report["findings"])


def _check_nf(expect, f):
    got = parse_terms(f["normal_form"])
    bad = [w for w in got if not NORMAL_WORD.fullmatch(letters(w))]
    if bad:
        return f"not a normal word: {bad[0]}"
    if got != expect["nf"]:
        return "normal form differs from the recorded one"
    return None


def _check_gwa(expect, f):
    if not (f["relations_killed"] and f["roundtrip_arrows"] and f["roundtrip_base"]
            and f["grading"] and f["pwd"]["failures"] == 0):
        return "GWA model check failed although all beta_i are nonzero"
    return None


def _check_pwd(expect, f):
    if not f["beta_nonzero"] or f["zero_products"] != 0:
        return "a product vanished although all beta_i are nonzero"
    return None


def _check_skew(expect, f):
    if f["relations_killed_by_beta"] != {"-1": True, "1": False}:
        return f"relations killed by {f['relations_killed_by_beta']}"
    if not f["dimensions_match"]:
        return "corner dimensions differ from the quiver down-up ones"
    return None


def _check_report(expect, f):
    n = expect["n"]
    if f["hilbert"]["totals"] != qdu_totals(n, 8):
        return "hilbert totals differ from n*floor((k+2)^2/4)"
    if f["preprojective"]["totals"] != preprojective_totals(n, 8):
        return "preprojective totals differ from n*(k+1)"
    props = f["properties"]
    if props["noetherian"] != expect["beta_nonzero"]:
        return "noetherian flag differs from 'all beta_i nonzero'"
    if ("noetherian_chain" in f) == expect["beta_nonzero"]:
        return "noetherian chain section present iff some beta_i = 0 expected"
    if expect["skew"]:
        skew = _check_skew(expect, f.get("skewgroup", {"relations_killed_by_beta": None}))
        if skew:
            return skew
    return None


def _check_properties(expect, f):
    flag = expect["beta_nonzero"]
    if f["noetherian"] != flag or f["piecewise_domain"] != flag:
        return "property flags differ from 'all beta_i nonzero'"
    return None


def _check_confluence(expect, f):
    if not f["confluent"] or f["unresolved"]:
        return "an overlap did not resolve"
    return None


def _check_hilbert(expect, f):
    if f["totals"] != expect["totals"] or not f["matrices_match"]:
        return "totals or matrices differ from the closed form"
    return None


def _check_basis(expect, f):
    words = [letters(str(p)) for p in f["paths"]]
    if f["total"] != expect["total"] or len(words) != expect["total"]:
        return f"basis size {f['total']}, expected {expect['total']}"
    if sum(map(sum, f["dimension_matrix"])) != expect["total"]:
        return "dimension matrix does not sum to the basis size"
    if not all(NORMAL_WORD.fullmatch(w) for w in words):
        return "a basis word is not of the form u^a (du)^j d^c"
    return None


def _check_superpotential(expect, f):
    balanced = f["balanced"]
    if not (balanced["orbits_closed"] and balanced["twist_invariant"]
            and balanced["span_matches_relations"]):
        return "balanced superpotential failed"
    return None


def _check_nakayama(expect, f):
    if not f["derived"]["preserves_relations"]:
        return "derived Nakayama map does not preserve the relations"
    return None


def _check_noetherian(expect, f):
    if not (f["annihilation"] and f["strict_inclusions"]
            and all(f["strict_inclusions"].values())):
        return "ascending chain not certified"
    return None


def _check_iso(expect, f):
    if f["result"] != expect["result"]:
        return f"iso result {f['result']!r}, expected {expect['result']!r}"
    return None


CHECKS = {
    "nf": _check_nf, "pwd": _check_pwd, "gwa": _check_gwa, "skewgroup": _check_skew, "report": _check_report,
    "properties": _check_properties, "confluence": _check_confluence,
    "hilbert": _check_hilbert, "basis": _check_basis,
    "superpotential": _check_superpotential, "nakayama": _check_nakayama,
    "noetherian": _check_noetherian, "iso": _check_iso,
}
