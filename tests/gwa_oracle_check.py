"""The GWA kernel against the oracle at sizes the test suite skips.

For a generic n = 9 parameter vector with gamma != 0 and a generic n = 12
one with gamma = 0, every beta_v nonzero, ``gwa`` and ``oracle.Gwa`` must
agree on sigma^m of every e_v, x_v and y_v for 0 < |m| <= 8, on each vertex
component of the cross factors that theta reads, X^m X^s = cross(m, s)
X^{m+s} for |m| <= 6 and s = +-1, and on theta of every normal word from
every vertex to degree 6.  The normal words are the paths that contain no
leading word of the oracle's rules.

Then, on the oracle alone, the proof's lemma on the draws of the deleted
domain probe (``test_gwa_reference.sampled_trials``) for those two vectors
and the three of ``PROBE_PARAMS``: for a in e_i T e_k and b in e_k T e_j
with top parts r X^{ma} and s X^{mb}, the top part of a b is r
sigma^{ma}(s) cross(ma, mb) X^{ma + mb}, nonzero, and cross(ma, mb) has an
e_i-component.  Run it as

    PYTHONPATH=src:tests python tests/gwa_oracle_check.py
"""

import sys
import time

import oracle
from quiverdu import gwa
from quiverdu.core import Element, Parameters, path_from_word
from test_gwa_reference import N9, PROBE_PARAMS, as_oracle, coded, decoded, sampled_trials
from test_oracle import names

CASES = [
    N9,
    Parameters.of(12, ["2", "1/2", "5", "-1", "3", "0", "1", "-2", "1/3", "4", "-1/2", "7"],
                  ["7", "-3/2", "13", "2", "-1", "3", "1/2", "5", "-2", "4", "-1/3", "6"], ["0"] * 12),
]
SIGMA_POWER, CROSS_POWER, THETA_DEGREE = 8, 6, 6


def normal_words(t: oracle.Gwa, source: int, degree: int) -> list[tuple]:
    """Every path from ``source`` of length <= ``degree`` with no leading word inside it."""
    leading = [lhs for rules in t.reducer.by_first.values() for lhs, _ in rules]
    out, layer = [], [("", ())]
    for _ in range(degree + 1):
        out += [letters for letters, _ in layer]
        layer = [(letters + a, word + (names(path_from_word(t.n, source, letters + a))[-1],))
                 for letters, word in layer for a in "ud"]
        layer = [(letters, word) for letters, word in layer
                 if not any(word[i:i + len(lhs)] == lhs for lhs in leading for i in range(len(word)))]
    return out


def check(params: Parameters) -> tuple[int, list[str]]:
    """(values compared, the ones that differ)."""
    n, t = params.n, oracle.Gwa(params.n, params.alpha, params.beta, params.gamma)
    table = gwa._gwa_table(params)
    compared, bad = 0, []
    # sigma^0 = id is left to test_gwa.py::test_sigma_power_zero_returns_argument.
    for m in (m for m in range(-SIGMA_POWER, SIGMA_POWER + 1) if m):
        table.images(m)
        for v in range(n):
            for name, g in (("e", t.e(v)), ("x", t.x(v)), ("y", t.y(v))):
                compared += 1
                if decoded(table.shift(coded(g), m)) != t.sigma(g, m):
                    bad.append(f"sigma^{m}({name}_{v})")
    one = t.combine((t.e(v), 1) for v in range(n))
    for m in range(-CROSS_POWER, CROSS_POWER + 1):
        for s in (-1, 1):
            cross = t.times({m: one}, {s: one})[m + s]
            for at in range(n):
                factor = table.cross(m, s, at)
                component = {k: c for k, c in cross.items() if k[0] == at}
                compared += 1
                if (t.e(at) if factor is None else decoded(factor)) != component:
                    bad.append(f"cross({m}, {s}) at {at}")
    for source in range(n):
        for letters in normal_words(t, source, THETA_DEGREE):
            path = path_from_word(n, source, letters)
            compared += 1
            if as_oracle(gwa.theta(params, Element.from_path(path))) != t.theta_word(source, names(path)):
                bad.append(f"theta({letters or 'e'} from {source})")
    return compared, bad


def top_parts(params: Parameters, seeds: int = 12, trials: int = 40) -> tuple[int, list[str]]:
    """(products compared, the ones whose top part is not the lemma's) over the probe's draws
    at degree bounds 0..5, in the oracle's T."""
    t = oracle.Gwa(params.n, params.alpha, params.beta, params.gamma)
    one = t.combine((t.e(v), 1) for v in range(params.n))
    crosses: dict = {}
    compared, bad = 0, []
    for bound in range(6):
        for seed in range(seeds):
            for trial, i, a, b in sampled_trials(params, bound, trials, seed):
                ma, mb = max(a), max(b)
                if (ma, mb) not in crosses:
                    crosses[ma, mb] = t.times({ma: one}, {mb: one}).get(ma + mb, {})
                cross = crosses[ma, mb]
                top = t.r_times(t.r_times(a[ma], t.sigma(b[mb], ma)), cross)
                product = t.times(a, b)
                compared += 1
                if not (top and max(product, default=None) == ma + mb and product[ma + mb] == top
                        and any(v == i for v, _, _ in cross)):
                    bad.append(f"bound {bound} seed {seed} trial {trial}")
    return compared, bad


def main() -> int:
    ok = True
    for params in CASES:
        start = time.perf_counter()
        compared, bad = check(params)
        ok = ok and not bad
        print(f"n = {params.n}: {compared} values compared in {time.perf_counter() - start:.2f} s"
              + (f"; DIFFERENT: {', '.join(bad[:10])}" if bad else ", all equal"))
    for params in PROBE_PARAMS + CASES:
        start = time.perf_counter()
        compared, bad = top_parts(params)
        ok = ok and not bad
        print(f"n = {params.n}: {compared} top parts in T checked in {time.perf_counter() - start:.2f} s"
              + (f"; NOT THE LEMMA'S: {', '.join(bad[:10])}" if bad else ", all the lemma's"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
