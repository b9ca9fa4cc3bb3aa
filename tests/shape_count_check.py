"""The normal words and the dimension matrices against the oracle, to degree 60.

For n = 1..12 and both presets, ``rewrite.basis_from`` (the words spelled
from the shape u^a (du)^j d^c, resp. u^a d^c, once the leading words'
letters are checked) must list, in order, the words that
``oracle.normal_words`` lists from the paper's relations, and
``rewrite.dimension_matrices`` (the closed count) must equal those words
counted by source, target and degree.  The quiver down-up systems draw
seeded random parameters with a zero entry in each of alpha, beta and
gamma.  The test suite does this to degree 20.

Then, for n = 2..12 and degree <= 30, the skew-group count lemma
enumerated: the degree-k monomials u^a (du)^b d^c of R counted by
weight class a - c mod n (``test_corner_reference.weight_class_counts``)
must equal ``rewrite._closed_shape_matrix`` and the oracle's normal-word
count of H(0, -1, 0).  The test suite does this to degree 12.  Run it as

    PYTHONPATH=src:tests python tests/shape_count_check.py
"""

import random
import sys
import time

from quiverdu.rewrite import (
    PRESET_PREPROJECTIVE,
    PRESET_QDU,
    _closed_shape_matrix,
    basis_from,
    build_system,
    dimension_matrices,
)
from test_corner_reference import matched_counts, weight_class_counts
from test_rewrite import oracle_listing, params_with_zeros

MAX_DEGREE = 60
WEIGHT_CLASS_DEGREE = 30


def main() -> int:
    ok = True
    for n in range(1, 13):
        rng = random.Random(60 + n)
        for sys_ in (build_system(PRESET_QDU, params_with_zeros(n, rng)), build_system(PRESET_PREPROJECTIVE, n=n)):
            start = time.perf_counter()
            words, counts = oracle_listing(sys_, MAX_DEGREE)
            same = [basis_from(sys_, v, MAX_DEGREE) for v in range(n)] == words
            same = same and dimension_matrices(sys_, MAX_DEGREE) == counts
            ok = ok and same
            print(f"n = {n:2}, {sys_.preset}: degree <= {MAX_DEGREE} in {time.perf_counter() - start:.3f} s: "
                  f"{'equal' if same else 'DIFFERENT'}")
    for n in range(2, 13):
        start = time.perf_counter()
        expected = matched_counts(n, WEIGHT_CLASS_DEGREE)
        same = all(weight_class_counts(n, k) == _closed_shape_matrix(n, k) == expected[k]
                   for k in range(WEIGHT_CLASS_DEGREE + 1))
        ok = ok and same
        print(f"n = {n:2}, weight classes of R: degree <= {WEIGHT_CLASS_DEGREE} in "
              f"{time.perf_counter() - start:.3f} s: {'equal' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
