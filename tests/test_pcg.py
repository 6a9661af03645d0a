"""The pure-Python sampler draws numpy's ``Generator(PCG64(seed)).random()``
floats bit for bit; numpy stays the reference on the test side."""

import random

import numpy as np

from cjrio.pcg import PCG64

# Seeds of one to five 32-bit words and more, and their word boundaries.
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64 + 7, 10 ** 30, 2 ** 70,
              2 ** 128 - 1, 2 ** 128, 2 ** 160 + 1, 10 ** 90]
DRAWS = 20


def test_draws_equal_numpys_bit_for_bit():
    widths = random.Random(20240313)
    seeds = EDGE_SEEDS + [widths.getrandbits(widths.randint(1, 300)) for _ in range(2000)]
    for seed in seeds:
        ours, numpys = PCG64(seed), np.random.Generator(np.random.PCG64(seed))
        assert ([ours.random().hex() for _ in range(DRAWS)]
                == [numpys.random().hex() for _ in range(DRAWS)]), seed


def test_an_unseeded_generator_draws_fresh_entropy():
    a, b = PCG64(), PCG64()
    draws = [a.random() for _ in range(DRAWS)]
    assert all(0.0 <= x < 1.0 for x in draws)
    assert draws != [b.random() for _ in range(DRAWS)]
