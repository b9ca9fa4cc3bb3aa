"""``core.Sampler`` against ``random.Random``: the same values, the same bits.

The sampled domain probes draw from ``Sampler``, whose ``below``,
``randint``, ``choice`` and ``sample`` inline CPython's
``_randbelow_with_getrandbits``.  Every draw must equal the one
``random.Random`` makes from the same seed, and both generators must end
in the same state, so a CPython whose draws differ fails here rather than
in the golden ``--json`` bytes.
"""

import random

import pytest

from quiverdu import gwa
from quiverdu.core import Sampler
from quiverdu.gwa import pwd_probe_gwa
from test_gwa_reference import PROBE_PARAMS, oracle_pwd_probe_gwa


def draws(rng, below) -> list:
    """A mixed call sequence; ``below`` is ``randrange`` or ``Sampler.below``."""
    out = [below(n) for n in range(1, 41)]
    out += [rng.randint(a, a) for a in (-3, 0, 7)]
    out += [rng.randint(a, b) for a, b in ((0, 1), (-5, 5), (1, 3), (0, 40), (2, 2))]
    out += [rng.choice(tuple(range(10, 10 + m))) for m in range(1, 13)]
    for k in range(4):
        for size in range(k, 61):
            pool = [(size, x) for x in range(size)]
            out.append(rng.sample(pool if size % 2 else tuple(pool), k))
    return out


@pytest.mark.parametrize("block", range(4))
def test_sampler_draws_as_random(block):
    for seed in range(50 * block, 50 * block + 50):
        ref, rng = random.Random(seed), Sampler(seed)
        assert draws(rng, rng.below) == draws(ref, ref.randrange), seed
        assert rng.getstate() == ref.getstate(), seed


def test_sampler_falls_back_and_refuses_as_random():
    ref, rng = random.Random(5), Sampler(5)
    population = list(range(100))
    # k > 5 and counts take random.Random's own sample.
    assert rng.sample(population, 9) == ref.sample(population, 9)
    assert rng.sample("abc", 2, counts=[1, 2, 3]) == ref.sample("abc", 2, counts=[1, 2, 3])
    assert rng.sample(range(50), 3) == ref.sample(range(50), 3)
    assert rng.getstate() == ref.getstate()
    for gen in (ref, rng):
        with pytest.raises(ValueError):
            gen.randint(3, 2)
        with pytest.raises(IndexError):
            gen.choice(())
        with pytest.raises(ValueError):
            gen.sample([1, 2], 3)
        with pytest.raises(ValueError):
            gen.sample([1, 2], -1)
        with pytest.raises(TypeError):
            gen.sample({1, 2}, 1)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("params", PROBE_PARAMS)
def test_gwa_probe_ends_in_the_reference_state(params, monkeypatch):
    # pwd_probe_gwa's Sampler ends where the reference's random.Random does.
    made = []

    def recording(base):
        class Recording(base):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)
        return Recording

    monkeypatch.setattr(random, "Random", recording(random.Random))
    monkeypatch.setattr(gwa, "Sampler", recording(Sampler))
    for degree_bound in (0, 2, 5):
        got = pwd_probe_gwa(params, degree_bound=degree_bound, trials=60, seed=degree_bound)
        ref = oracle_pwd_probe_gwa(params, degree_bound=degree_bound, trials=60, seed=degree_bound)
        assert got == ref
        sampler, reference = made[-2:]
        assert type(sampler).__mro__[1] is Sampler
        assert sampler.getstate() == reference.getstate()
