"""The GWA kernel against the oracle at sizes the test suite skips.

For a generic n = 9 parameter vector with gamma != 0 and a generic n = 12
one with gamma = 0, every beta_v nonzero, ``gwa`` and ``oracle.Gwa`` must
agree on sigma^m of every e_v, x_v and y_v for 0 < |m| <= 8, on the cross
factor of X^{m1} X^{m2} for |m1|, |m2| <= 6, and on theta of every normal
word from every vertex to degree 6.  The normal words are the paths that
contain no leading word of the oracle's rules.  Run it as

    PYTHONPATH=src:tests python tests/gwa_oracle_check.py
"""

import sys
import time

import oracle
from quiverdu import gwa
from quiverdu.core import Element, Parameters, path_from_word
from test_gwa_reference import N9, as_oracle, coded, decoded
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
    for m1 in range(-CROSS_POWER, CROSS_POWER + 1):
        for m2 in range(-CROSS_POWER, CROSS_POWER + 1):
            compared += 1
            if {m1 + m2: decoded(table.coded_cross(m1, m2)[:2])} != t.times({m1: one}, {m2: one}):
                bad.append(f"cross({m1}, {m2})")
    for source in range(n):
        for letters in normal_words(t, source, THETA_DEGREE):
            path = path_from_word(n, source, letters)
            compared += 1
            if as_oracle(gwa.theta(params, Element.from_path(path))) != t.theta_word(source, names(path)):
                bad.append(f"theta({letters or 'e'} from {source})")
    return compared, bad


def main() -> int:
    ok = True
    for params in CASES:
        start = time.perf_counter()
        compared, bad = check(params)
        ok = ok and not bad
        print(f"n = {params.n}: {compared} values compared in {time.perf_counter() - start:.2f} s"
              + (f"; DIFFERENT: {', '.join(bad[:10])}" if bad else ", all equal"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
