import numpy as np
import pytest

from hstconformal import PreconditionError
from hstconformal import rng as _rng

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**200 + 3,
         _rng.derive(3, "cal", 0), _rng.derive(3, "cal", 57), _rng.derive(11, "target"))


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_match_the_scalar_streams(seed):
    # oracle: generator(seed, k), whose k = 0 entropy word is [0] and whose
    # seeds of four or more words overflow SeedSequence's 4-word pool
    for K in (1, 10, 300):
        gens = _rng.generators(seed, K)
        assert len(gens) == K
        for k, g in enumerate(gens):
            assert g.bit_generator.state == _rng.generator(seed, k).bit_generator.state, (K, k)
    # equal states give equal draws
    assert np.array_equal(gens[-1].random(8), _rng.generator(seed, K - 1).random(8))


def test_pcg64_words_match_seed_sequence():
    # the second hash level: the words PCG64 asks of SeedSequence(d), for
    # children of one entropy word (d < 2**32, d = 0 included) and of two
    ds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    words = _rng._pcg64_words(np.array(ds, dtype=np.uint64))
    for d, row in zip(ds, words):
        assert np.array_equal(row, np.random.SeedSequence(d).generate_state(4, np.uint64)), d


def test_generators_edge_counts():
    assert _rng.generators(4, 0) == []
    with pytest.raises(PreconditionError, match="K"):
        _rng.generators(4, 2**32 + 1)


@pytest.mark.parametrize("make", [lambda s: _rng.derive(s, "fit"),
                                  lambda s: _rng.generator(s),
                                  lambda s: _rng.generator(s, "synth", "topo"),
                                  lambda s: _rng.generators(s, 3)])
def test_negative_seeds_are_precondition_errors(make):
    with pytest.raises(PreconditionError, match="-3"):
        make(-3)
