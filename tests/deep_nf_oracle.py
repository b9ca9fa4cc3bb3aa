"""Deep normal forms through the kernel and through the oracle.

d^20 u^20 from vertex 0 at n = 3 with alpha = (2, 1/2, 5), beta = (7, -3/2,
13), gamma = (1, 2, 1/3) (D = 6, words of 121 bits), and d^16 u^16 at
n = 12 (5 bits per arrow, words of 161 bits) with every entry of alpha,
beta and gamma nonzero and D = 6, are taken to normal form by ``rewrite``
(right multiplication on packed words) and by ``oracle`` (left
multiplication on arrow names); the two must have the same words with the
same ``Fraction`` coefficients.  Too slow for the test suite; run it as

    PYTHONPATH=src:tests python tests/deep_nf_oracle.py
"""

import sys
import time
from fractions import Fraction

import oracle
from quiverdu.core import Element, Parameters, path_from_word
from quiverdu.rewrite import PRESET_QDU, ReductionSystem, _qdu_specs, normal_form
from test_oracle import names

CASES = [
    (Parameters.of(3, ["2", "1/2", "5"], ["7", "-3/2", "13"], ["1", "2", "1/3"]), 20),
    (Parameters.of(12, ["1", "-1", "2", "1/2", "-3/2", "3"] * 2, ["2", "3", "-1", "1/3", "1", "-2"] * 2,
                   ["1/2", "1", "-1", "2", "1/3", "3"] * 2), 16),
]


def main() -> int:
    ok = True
    for params, k in CASES:
        n = params.n
        path = path_from_word(n, 0, "d" * k + "u" * k)
        start = time.perf_counter()
        nf = normal_form(ReductionSystem(n, None, PRESET_QDU, params, _qdu_specs(params)), Element.from_path(path))
        kernel_s = time.perf_counter() - start
        got = {names(p): c for p, c in nf.terms.items()}
        start = time.perf_counter()
        rules = oracle.oriented(oracle.qdu_relations(n, params.alpha, params.beta, params.gamma), n)
        want = oracle.Reducer(rules).normal_form(names(path))
        oracle_s = time.perf_counter() - start
        same = got == {w: Fraction(c) for w, c in want.items()} and bool(got)
        ok = ok and same
        print(f"n = {n}, d^{k} u^{k}: {len(got)} terms; kernel {kernel_s:.3f} s, "
              f"oracle {oracle_s:.3f} s: {'equal' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
