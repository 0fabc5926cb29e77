import tracemalloc

import numpy as np
import pytest

from hstconformal import (PipelineSettings, PreconditionError, generate_synthetic,
                          hst_conformal_pipeline)
from hstconformal import rng as _rng

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**200 + 3,
         _rng.derive(3, "cal", 0), _rng.derive(3, "cal", 57), _rng.derive(11, "target"))


def _assert_rows_match(streams, gens):
    # each row is in its generator's state, so every later draw agrees
    assert len(streams) == len(gens)
    for k, gen in enumerate(gens):
        assert streams.generator(k).bit_generator.state == gen.bit_generator.state, k


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_match_the_scalar_streams(seed):
    # oracle: generator(seed, k), whose k = 0 entropy word is [0] and whose
    # seeds of four or more words overflow SeedSequence's 4-word pool
    for K in (1, 10, 300):
        streams = _rng.streams(seed, K)
        gens = [_rng.generator(seed, k) for k in range(K)]
        _assert_rows_match(streams, gens)
    # successive calls hand out each generator's next uniforms; each wider m
    # needs more jump constants than the calls before it
    for m in (1, 24, 96, 300):
        u = streams.random(m)
        assert u.shape == (K, m)
        assert np.array_equal(u, [gen.random(m) for gen in gens]), m
    _assert_rows_match(streams, gens)
    # ragged counts, zeros included: row k uses its first m_k and advances by m_k
    counts = np.arange(K) % 7
    u = streams.random(counts)
    assert u.shape == (K, 6)
    for k, gen in enumerate(gens):
        assert np.array_equal(u[k, :counts[k]], gen.random(counts[k])), k
    _assert_rows_match(streams, gens)
    assert np.array_equal(streams.random(5), [gen.random(5) for gen in gens])


@pytest.mark.parametrize("K", [0, 1, 9])
def test_streams_of_many_seeds_match_the_scalar_streams(K):
    # row r*K + k is generator(seeds[r], k): a seed below 2**32 hashes as one
    # entropy word, so its k is the second word, and the third for a two-word seed
    seeds = [0, 5, 2**40 + 3, 2**64 - 1]
    streams = _rng.streams(seeds, K)
    gens = [_rng.generator(s, k) for s in seeds for k in range(K)]
    _assert_rows_match(streams, gens)
    u = streams.random(7)
    assert u.shape == (len(seeds) * K, 7)
    assert np.array_equal(u, np.reshape([g.random(7) for g in gens], (-1, 7)))
    _assert_rows_match(streams, gens)
    # a numpy array of seeds, and a slice of rows drawn on its own: views
    # whose draws advance the rows of the whole
    streams = _rng.streams(np.array(seeds, dtype=np.uint64), K)
    gens = [_rng.generator(s, k) for s in seeds for k in range(K)]
    block = streams[K:3 * K]
    assert np.array_equal(block.random(4), np.reshape([g.random(4) for g in gens[K:3 * K]],
                                                      (-1, 4)))
    _assert_rows_match(streams, gens)


def _assert_first_uniforms_match(streams, gens):
    # every row's state, then its first uniforms and the state after them
    _assert_rows_match(streams, gens)
    assert np.array_equal(streams.random(3), [gen.random(3) for gen in gens])
    _assert_rows_match(streams, gens)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_seeding_passes_end_at_any_row(extra):
    # one seed per row, the call one row short of, at and one past a pass
    seeds = list(range(_rng._SEED_ROWS + extra))
    _assert_first_uniforms_match(_rng.streams(seeds, 1), [_rng.generator(s, 0) for s in seeds])


def test_one_seed_seeds_over_several_passes():
    K = 2 * _rng._SEED_ROWS + 1
    _assert_first_uniforms_match(_rng.streams(2**32 + 9, K),
                                 [_rng.generator(2**32 + 9, k) for k in range(K)])


def test_seeds_of_mixed_word_counts_seed_across_passes(monkeypatch):
    # seeds of one, two and three 32-bit words in one call, each hashed with
    # its own prefix length; the passes end inside a seed's rows
    seeds, K = [5, 2**32 + 7, 2**64 + 3, 11], _rng._SEED_ROWS // 2 + 1
    words = _rng.streams(seeds, K).words
    _assert_first_uniforms_match(_rng.streams(seeds, K),
                                 [_rng.generator(s, k) for s in seeds for k in range(K)])
    # the pass size moves no bit
    for rows in (1, 3, 4 * K):
        monkeypatch.setattr(_rng, "_SEED_ROWS", rows)
        assert np.array_equal(_rng.streams(seeds, K).words, words), rows


def test_stream_rows_move_through_a_generator_and_back():
    # a row drawn through a Generator (the PTRS draws) continues from there
    streams, gens = _rng.streams(9, 3), [_rng.generator(9, k) for k in range(3)]
    row = streams.generator(1)
    assert np.array_equal(row.random(17), gens[1].random(17))
    streams.set_state(1, row)
    assert np.array_equal(streams.random(4), [gen.random(4) for gen in gens])
    _assert_rows_match(streams, gens)


@pytest.mark.parametrize("n_words", [1, 4])
@pytest.mark.parametrize("size", range(1, 8))
def test_generate_state_matches_seed_sequence(size, n_words):
    # entropy of 1-3 words leaves the pool's last words to hash zeros, and
    # 5-7 words mix in after the pool; column 0 is all 0 words, column 1 all
    # 0xFFFFFFFF words, and column 2 ends in a 0 word
    gen = np.random.default_rng(size)
    entropy = gen.integers(0, 2**32, (size, 50), dtype=np.uint32)
    entropy[:, 0], entropy[:, 1] = 0, 0xFFFFFFFF
    entropy[-1, 2] = 0
    state = _rng._generate_state(list(entropy), n_words)
    assert state.shape == (50, n_words) and state.flags.c_contiguous
    for k, row in enumerate(state):
        want = np.random.SeedSequence(entropy[:, k].tolist()).generate_state(n_words, np.uint64)
        assert np.array_equal(row, want), k
    if size == 2:
        # a child d < 2**32 has the one entropy word (d,); streams hashes it as
        # (d, 0) since the pool pads with zeros
        d = entropy[0]
        state = _rng._generate_state([d, np.zeros_like(d)], n_words)
        for k, row in enumerate(state):
            want = np.random.SeedSequence(int(d[k])).generate_state(n_words, np.uint64)
            assert np.array_equal(row, want), k


def test_generators_edge_counts():
    empty = _rng.streams(4, 0)
    assert len(empty) == 0 and empty.random(5).shape == (0, 5)
    with pytest.raises(PreconditionError, match="K"):
        _rng.streams(4, 2**32 + 1)
    # a count of 0 hands out and consumes nothing
    streams, gens = _rng.streams(4, 2), [_rng.generator(4, k) for k in range(2)]
    assert streams.random(0).shape == (2, 0)
    assert streams.random(np.zeros(2, dtype=np.int64)).shape == (2, 0)
    _assert_rows_match(streams, gens)


@pytest.mark.parametrize("seed", (5, 2**32 + 7, 2**64 + 3))
def test_derive_range_hashes_derive_per_index(seed):
    # seeds of one, two and three 32-bit words: with the name and the index,
    # the last fills SeedSequence's 4-word pool and the others overflow it
    for name in ("cal", 9):
        for start, stop in ((0, 1), (300, 400), (2**32 - 3, 2**32)):
            assert _rng.derive_range(seed, name, start, stop) == [
                _rng.derive(seed, name, t) for t in range(start, stop)]
    assert _rng.derive_range(seed, "cal", 4, 4) == []
    for start, stop in ((5, 4), (-1, 3), (0, 2**32 + 1)):
        with pytest.raises(PreconditionError, match="start <= stop"):
            _rng.derive_range(seed, "cal", start, stop)


@pytest.mark.parametrize("make", [lambda s: _rng.derive(s, "fit"),
                                  lambda s: _rng.generator(s),
                                  lambda s: _rng.generator(s, "synth", "topo"),
                                  lambda s: _rng.streams(s, 3),
                                  lambda s: _rng.derive_range(s, "cal", 0, 3)])
def test_negative_seeds_are_precondition_errors(make):
    with pytest.raises(PreconditionError, match="-3"):
        make(-3)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "7", None])
@pytest.mark.parametrize("make", [lambda s: _rng.derive(s, "fit"),
                                  lambda s: _rng.generator(s),
                                  lambda s: _rng.generator(s, "synth", "topo"),
                                  lambda s: _rng.streams(s, 3),
                                  lambda s: _rng.streams([2, s], 3),
                                  lambda s: _rng.derive_range(s, "cal", 0, 3)],
                         ids=["derive", "generator", "generator_path", "streams",
                              "streams_of_seeds", "derive_range"])
def test_non_integer_seeds_are_precondition_errors(make, seed):
    # int() would take 1.5 as seed 1, True as 1 and "7" as 7
    with pytest.raises(PreconditionError, match="seed must be an integer"):
        make(seed)


def test_numpy_integer_seeds_are_their_python_values():
    assert _rng.derive(np.uint64(5), "x") == _rng.derive(np.int64(5), "x") == _rng.derive(5, "x")
    assert np.array_equal(_rng.streams(np.int32(5), 2).words, _rng.streams(5, 2).words)


def test_pipeline_rejects_a_non_integer_seed():
    panel, topo, _ = generate_synthetic(8, 3, 60, seed=1)
    with pytest.raises(PreconditionError, match="seed must be an integer"):
        hst_conformal_pipeline(panel, topo, 31, PipelineSettings(epochs=5), seed=1.9)


def _pcg64(state: int, inc: int) -> np.random.Generator:
    bits = np.random.PCG64(0)
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


def test_limb_products_stay_exact_at_their_bound(monkeypatch):
    # every 16-bit limb at 0xFFFF in the state, the increment and the jump
    # makes the largest partial sums, within 2**37 of the 2**52 that the
    # conversion to uint64 allows
    ones = 2**128 - 1
    pairs = [(ones, ones), (0, 1), (ones, 1), (0, ones), (2**64 + 5, 2**127 + 1)]
    words = np.array([[x & _rng._MASK64, x >> 64, i & _rng._MASK64, i >> 64] for x, i in pairs],
                     dtype=np.uint64)
    jumps = [(ones, ones), (ones, 0), (0, ones), (1, 0), (_rng._PCG_MULT, _rng._PCG_MULT + 1)]
    sums = np.matmul(_rng._weights(jumps), words.view("<u2").astype(np.float64).T)
    assert 2**52 - 2**37 < sums.max() < 2**52
    cells = _rng._jump(words, _rng._weights(jumps))
    for j, (a, c) in enumerate(jumps):
        for k, (x, i) in enumerate(pairs):
            assert int(cells[2, j, k]) << 64 | int(cells[0, j, k]) == (a * x + c * i) % 2**128
    # the same rows as streams against numpy's Generator at their states, the
    # jump weights rebuilt from none and grown by each wider call
    monkeypatch.setattr(_rng, "_jumps", _rng._jumps[:, :0])
    streams = _rng.Streams(words)
    gens = [_pcg64(x, i) for x, i in pairs]
    for m in (1, 24, 300):
        assert np.array_equal(streams.random(m), [gen.random(m) for gen in gens]), m
        assert _rng._jumps.shape[1] == m
        _assert_rows_match(streams, gens)


def test_stream_uniforms_take_little_memory():
    # the jump's four words per cell and the output uniform: 40 bytes per
    # uniform, plus each row's 16 limbs while the matmul runs
    streams = _rng.streams(list(range(100)), 200)
    streams.random(24)
    tracemalloc.start()
    try:
        u = streams.random(24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / u.size <= 44, peak / u.size


def test_seeding_takes_little_memory():
    # the 20,000 streams of a 100-bin calibration walk at K = 200: the child
    # seeds take one hash pass and the rows are seeded in bounded passes,
    # 1.6 MiB against 4.4 MiB (232 bytes a stream) in one pass
    seeds = [_rng.derive(5, "cal", t) for t in range(100)]
    _rng.streams(seeds, 200)
    tracemalloc.start()
    try:
        streams = _rng.streams(seeds, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(streams) == 20000
    assert peak < 2.5 * 2**20, peak / 2**20
