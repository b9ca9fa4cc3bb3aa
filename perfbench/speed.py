"""Host-speed reference: a fixed pure-Python kernel timed between operations.

On a shared host the same Python code runs up to about 1.9 times slower
at times, in every process alike.  The slow state comes and goes within
fractions of a second, and how much of the time it holds changes in
regimes that last minutes; CPU time rises with wall time, so it is not
scheduling.  A run's raw times therefore shift by up to half between
regimes.  The benchmark times this kernel between operations and reports
times scaled to the speed at which the kernel takes ``REFERENCE_S``:
``seconds * REFERENCE_S / mean(kernel samples of the run)``.  The mean,
not the median, because a sample is either fast or slow and the mean
follows the share of slow time.  The kernel imports nothing from
quiverdu, so no change to quiverdu moves it; raw times stay in the rows.

The kernel has the instruction mix of quiverdu's two hot paths: a
worklist of words (tuples) with ``Fraction`` coefficients in dicts,
rewritten by ``d u -> 1/2 u d - 3/2``, and products of ``Fraction``
coefficient lists reduced modulo ``x^4 + 1``.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.01
_WORD = ("d",) * 4 + ("u",) * 5
_RULE = ((Fraction(1, 2), ("u", "d")), (Fraction(-3, 2), ()))
_POLY = [Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(1, 2)]


def _normal_form(word: tuple) -> dict:
    done: dict = {}
    pending = {word: Fraction(1)}
    while pending:
        w, c = pending.popitem()
        for i in range(len(w) - 1):
            if w[i] == "d" and w[i + 1] == "u":
                for cq, q in _RULE:
                    new = w[:i] + q + w[i + 2:]
                    v = pending.get(new, Fraction(0)) + c * cq
                    if v:
                        pending[new] = v
                    else:
                        pending.pop(new, None)
                break
        else:
            v = done.get(w, Fraction(0)) + c
            if v:
                done[w] = v
            else:
                done.pop(w, None)
    return done


def _poly_powers(p: list, count: int) -> list:
    acc = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    for _ in range(count):
        prod = [Fraction(0)] * 7
        for i, a in enumerate(acc):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        acc = [prod[k] - (prod[k + 4] if k + 4 < 7 else 0) for k in range(4)]
        acc = [Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1) for x in acc]
    return acc


def sample() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    _normal_form(_WORD)
    _poly_powers(_POLY, 60)
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Multiplier from a run's raw times to times at reference speed."""
    return REFERENCE_S / statistics.mean(samples)
