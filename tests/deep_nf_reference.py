"""Deep normal forms through the packed kernel and the tuple kernel.

d^20 u^20 from vertex 0 at n = 3 with alpha = (2, 1/2, 5), beta = (7, -3/2,
13), gamma = (1, 2, 1/3) (D = 6, words of 121 bits), and d^16 u^16 at
n = 12 (5 bits per arrow, words of 161 bits) with every entry of alpha,
beta and gamma nonzero and D = 6, are taken to normal form by ``rewrite``'s kernel on int words and by the tuple kernel of
``replaced_code``; the exponents and the numerators, word by word and in
order, must be equal.  Too slow for the test suite; run it as

    PYTHONPATH=src:tests python tests/deep_nf_reference.py
"""

import sys
import time

import replaced_code
from quiverdu.core import Parameters, path_from_word
from quiverdu.rewrite import (PRESET_QDU, ReductionSystem, _normal_word, _qdu_specs, _tables,
                              _unpack_word)

CASES = [
    (Parameters.of(3, ["2", "1/2", "5"], ["7", "-3/2", "13"], ["1", "2", "1/3"]), 20),
    (Parameters.of(12, ["1", "-1", "2", "1/2", "-3/2", "3"] * 2, ["2", "3", "-1", "1/3", "1", "-2"] * 2,
                   ["1/2", "1", "-1", "2", "1/3", "3"] * 2), 16),
]


def main() -> int:
    ok = True
    for params, k in CASES:
        n = params.n
        sys_ = ReductionSystem(n, None, PRESET_QDU, params, _qdu_specs(params))
        tables = _tables(sys_)
        word = tables.encode(path_from_word(n, 0, "d" * k + "u" * k))
        start = time.perf_counter()
        e, comb = _normal_word(tables, word)
        packed_s = time.perf_counter() - start
        codes = _unpack_word(word, tables.bits)
        start = time.perf_counter()
        want = replaced_code._normal_times(replaced_code.TupleTables(sys_), {(): 1}, 0, codes)
        tuple_s = time.perf_counter() - start
        same = (e, [(_unpack_word(w, tables.bits), c) for w, c in comb.items()]) == \
            (want[0], list(want[1].items()))
        ok = ok and same and bool(comb)
        print(f"n = {n}, d^{k} u^{k}: {len(comb)} terms over D^{e}, {word.bit_length()}-bit word; "
              f"packed {packed_s:.3f} s, tuple {tuple_s:.3f} s: {'equal' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
