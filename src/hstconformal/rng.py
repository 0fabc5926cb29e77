"""Deterministic random-stream derivation.

All randomness in the package flows from one integer seed through named
sub-streams, so that e.g. the fitting perturbation stream is unaffected
by a change in the number of simulation samples.  Stream names are mapped
to stable integers via crc32, and child seeds come from SeedSequence, so
derivations are reproducible across platforms and numpy versions.  Seeds
are nonnegative Python or numpy integers of any size; a negative seed, a
float, a bool or a string raises PreconditionError.

``streams(seed, K)`` holds the K streams ``generator(seed, k)``, k < K, as
one ``Streams`` object, a uint64 array, bit for bit, for every seed that
``generator`` accepts; ``streams(seeds, K)`` holds those of R seeds, row
r*K + k being ``generator(seeds[r], k)``.  It runs numpy's SeedSequence
loops (32-bit integer arithmetic) word by word, each step on a uint32 column
of many rows at once: the child seeds ``derive(seed, k)`` of all rows in one
pass, then, in passes of at most ``_SEED_ROWS`` rows, the four 64-bit words
that PCG64 asks of ``SeedSequence(derive(seed, k))``, and each row's state
from its words as numpy's ``pcg64_set_seed`` seeds it.  The passes bound
the seeding's memory: 20,000 streams peak at 79.5 bytes a stream, against
232 in one pass.
``derive(seed, k)`` hashes the seed's 32-bit words and then k, so k is the
second word of a seed below 2**32 and the third of one below 2**64: rows
whose seeds have as many words share one hash.  ``Streams.random`` then
hands out the uniforms of ``Generator.random()`` on PCG64, a 128-bit LCG
with XSL-RR output (O'Neill 2014), for all rows at once: the j-th next
state of a row is ``MULT**j * state + (sum_{i<j} MULT**i) * inc`` mod
2**128, computed for every cell by one float64 matmul of the rows' 16-bit
limbs with weights made of the jump constants' limbs, exact because every
partial sum is an integer below 2**52, and three uint64 carries; seeding is
the same jump with its own constants.  No numpy ``Generator`` is built per
stream; ``Streams.generator`` makes one for a row whose draws consume a
variable number of uniforms, and ``Streams.set_state`` takes its state back.  ``derive`` and ``generator``
stay for the scalar streams and are the tests' oracle for ``streams``;
``derive_range(seed, name, start, stop)`` hashes the child seeds
``derive(seed, name, t)`` of a range of t in the same way, one column each.
"""

import zlib

import numpy as np

from .errors import PreconditionError, check_integer


def _as_int(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part)


def _checked(seed) -> int:
    check_integer(seed, "seed")
    seed = int(seed)
    if seed < 0:
        raise PreconditionError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def derive(seed: int, *path) -> int:
    """Derive a child seed from ``seed`` and a path of names/indices."""
    ss = np.random.SeedSequence((_checked(seed),) + tuple(_as_int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def generator(seed: int, *path) -> np.random.Generator:
    """PCG64 generator for the sub-stream at ``path`` under ``seed``."""
    seed = derive(seed, *path) if path else _checked(seed)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) for its
# pool of 4 uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL = 4


def _hashmix(value: np.ndarray, const: int, mult: int):
    """numpy's hashmix of a uint32 column at the running hash constant
    ``const``; returns the hashed column and the constant after the call."""
    after = const * mult & 0xFFFFFFFF
    v = (value ^ np.uint32(const)) * np.uint32(after)
    return v ^ (v >> _XSHIFT), after


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _XSHIFT)


def _generate_state(entropy: list, n_words: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(n_words, np.uint64) for each column.

    ``entropy`` lists the entropy words in order, each a uint32 array of
    one word per column, the arrays broadcast against each other.  numpy's
    mix_entropy and generate_state loops run word by word, each on whole
    columns.  Returns the columns' shape plus (n_words,), uint64: (K,
    n_words) for (K,) words, one C-contiguous row per column.
    """
    const, pool = _INIT_A, []
    for i in range(_POOL):  # past the entropy, the pool hashes zeros
        word = entropy[i] if i < len(entropy) else np.zeros_like(entropy[0])
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    # every bit reaches every word: each pool word feeds the other three
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                word, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    # entropy beyond the pool mixes into all four words
    for extra in entropy[_POOL:]:
        for dst in range(_POOL):
            word, const = _hashmix(extra, const, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    const, out = _INIT_B, []
    for i in range(2 * n_words):  # uint32 words, low then high of each uint64
        word, const = _hashmix(pool[i % _POOL], const, _MULT_B)
        out.append(word.astype(np.uint64))
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(out[0::2], out[1::2])], axis=-1)


def _words(x: int) -> list:
    # numpy's entropy words of a nonnegative int: 32-bit limbs, low first; [0] for 0
    return [x >> s & 0xFFFFFFFF for s in range(0, max(x.bit_length(), 1), 32)]


def _children(prefixes: list, last: np.ndarray) -> np.ndarray:
    """The seed that ``derive`` hashes from the entropy words ``prefixes[r]``
    and then ``last[k]`` at entry (r, k): ``derive(s, k)`` when
    ``prefixes[r]`` is ``_words(s)``.  (R, len(last)) uint64, one hash per
    prefix length, the prefix words of its rows as columns broadcast
    against the last words as a row, so no entropy word is repeated."""
    child = np.empty((len(prefixes), len(last)), dtype=np.uint64)
    for size in set(map(len, prefixes)):
        rows = [r for r, w in enumerate(prefixes) if len(w) == size]
        words = np.array([prefixes[r] for r in rows], dtype=np.uint32)
        child[rows] = _generate_state(list(words.T[:, :, None]) + [last[None, :]], 1)[..., 0]
    return child


def derive_range(seed: int, name, start: int, stop: int) -> list:
    """``[derive(seed, name, t) for t in range(start, stop)]``, bit for bit,
    from one hash pass: each t is one entropy word, so 0 <= start <= stop
    <= 2**32."""
    if not 0 <= start <= stop <= 2**32:
        raise PreconditionError(f"need 0 <= start <= stop <= 2**32, got {start}, {stop}")
    prefix = _words(_checked(seed)) + _words(_as_int(name))
    return _children([prefix], np.arange(start, stop, dtype=np.uint32))[0].tolist()


# numpy's PCG64 (numpy/random/src/pcg64/pcg64.h): the 128-bit LCG
# state <- state * _PCG_MULT + inc, whose next64 steps and then takes the
# XSL-RR output of the new state; Generator.random() is (next64 >> 11) * 2**-53
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(v) for v in (1, 11, 32, 58, 63, 64))
_TO_UNIT = 1.0 / 9007199254740992.0
# an integer-valued double x < 2**52 plus 2**52 holds x in its mantissa bits
# under these exponent bits
_TWO52 = 2.0**52
_TWO52_BITS = np.uint64(0x4330000000000000)


def _weights(pairs: list) -> np.ndarray:
    """The (4, M, 16) float64 weights of M jumps (A_j, C_j), 128-bit ints.

    Entry (q, j, c*8 + i) is a_{2q-i} + 2**16 * a_{2q+1-i}, a_l being 16-bit
    limb l of A_j (c = 0) or C_j (c = 1), 0 for l < 0.  Times limb i of a
    row's state (c = 0) or increment (c = 1), summed, it gives the limb
    products of A_j * state + C_j * inc on limbs 2q and 2q + 1, over 2**(32q).
    """
    limbs = np.array([[x >> s & 0xFFFF for s in range(0, 128, 16)]
                      for pair in pairs for x in pair], dtype=np.float64)
    padded = np.zeros((len(pairs), 2, 16))
    padded[:, :, 8:] = limbs.reshape(len(pairs), 2, 8)  # limb l at 8 + l, zeros below
    at = 8 + 2 * np.arange(4)[:, None] - np.arange(8)  # (q, i) -> 8 + 2q - i
    w = padded[:, :, at] + 65536.0 * padded[:, :, at + 1]  # (M, 2, 4, 8)
    return np.ascontiguousarray(w.transpose(2, 0, 1, 3)).reshape(4, len(pairs), 16)


def _jump(words: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A_j * state + C_j * inc mod 2**128 for each jump of ``weights`` and
    each row of ``words``, (K, 4) uint64 as in ``Streams``.  Returns (4, M, K)
    uint64: entries 0 and 2 of cell (j, k) are its low and high words, 1 and
    3 scratch for the caller.

    Each product of a limb and a weight is below 2**48 and each sum adds 16,
    so every partial sum of the matmul is an integer below 2**52: exact
    under any summation order, blocking or FMA.  Three carries, in place on
    contiguous (M, K) slabs, join the four sums into the two words.
    """
    limbs = np.ascontiguousarray(words, dtype="<u8").view("<u2").astype(np.float64)
    sums = np.matmul(weights, limbs.T)
    sums += _TWO52
    cells = sums.view(np.uint64)
    cells ^= _TWO52_BITS
    lo, mid, hi, top = cells
    top <<= _U32
    hi += top
    mid += np.right_shift(lo, _U32, out=top)
    lo &= _LOW32
    lo |= np.left_shift(mid, _U32, out=top)
    hi += np.right_shift(mid, _U32, out=top)
    return cells


# the weights of jumps j = 1..J, J the largest count asked for so far
_jumps = np.empty((4, 0, 16))
# seeding is one jump from the state initstate: (initstate + inc) * MULT + inc
_SEED_WEIGHTS = _weights([(_PCG_MULT, _PCG_MULT + 1)])


def _jump_weights(M: int) -> np.ndarray:
    """``_weights`` of the jumps j = 1..M steps on: the state j steps on is
    A_j * state + C_j * inc mod 2**128, A_j = MULT**j, C_j = sum_{i<j} MULT**i.

    Built on demand for the largest M a call needs and kept; a fixed size
    would be either too small for some panel width or a waste of memory.
    """
    global _jumps
    if _jumps.shape[1] < M:
        a, c, pairs = 1, 0, []
        for _ in range(M):
            a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
            pairs.append((a, c))
        _jumps = _weights(pairs)
    return _jumps[:, :M]


class Streams:
    """K PCG64 streams as one uint64 array; row k is the stream of ``generator(seed, k)``.

    ``words`` is (K, 4): each row's 128-bit state and increment as low and
    high words, (state lo, state hi, inc lo, inc hi).  ``random`` hands out
    the uniforms of ``Generator.random()`` for every row at once;
    ``generator`` and ``set_state`` move one row into a numpy ``Generator``
    and back, for draws that consume a variable number of uniforms.
    """

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, rows: slice) -> "Streams":
        """The rows of a slice as views: drawing from them advances these rows."""
        return Streams(self.words[rows])

    def random(self, m) -> np.ndarray:
        """The next uniforms of every row, bit for bit those of ``Generator.random()``.

        ``m`` is one count for all rows or a (K,) array of counts.  Returns
        (K, max m) floats: row k's first m_k are its next m_k uniforms, and
        row k advances by m_k; the entries after them are not consumed.
        Every cell is computed at once from its jumped state, and the
        output is built in the cells' scratch entries.
        """
        m = np.asarray(m)
        M = int(m.max()) if m.size else 0
        if M <= 0:
            return np.empty((len(self), 0))
        # cell (j, k) is row k's state j + 1 steps on
        lo, x, hi, rot = _jump(self.words, _jump_weights(M))
        if m.ndim == 0 or (m == M).all():
            self.words[:, 0], self.words[:, 1] = lo[-1], hi[-1]
        else:
            rows = np.flatnonzero(m)
            cols = m[rows] - 1
            self.words[rows, 0], self.words[rows, 1] = lo[cols, rows], hi[cols, rows]
        # XSL-RR: the xor of the halves, rotated right by the top 6 state bits
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, _U58, out=rot)
        np.right_shift(x, rot, out=lo)
        np.subtract(_U64, rot, out=rot)
        rot &= _U63
        out = np.left_shift(x, rot, out=hi)
        out |= lo
        out >>= _U11
        # cast, then scale in place: a multiply that casts the strided words
        # would copy them whole first
        u = out.T.astype(np.float64, order="C")
        u *= _TO_UNIT
        return u

    def generator(self, k: int) -> np.random.Generator:
        """A ``Generator`` at row k's state; ``set_state(k, gen)`` takes it back."""
        lo, hi, inc_lo, inc_hi = (int(w) for w in self.words[k])
        bits = np.random.PCG64(0)
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return np.random.Generator(bits)

    def set_state(self, k: int, gen: np.random.Generator) -> None:
        """Move row k to the state of ``gen``, which drew only ``random()``."""
        state = gen.bit_generator.state["state"]["state"]
        self.words[k, 0], self.words[k, 1] = state & _MASK64, state >> 64


def _seed_rows(child: np.ndarray, words: np.ndarray) -> None:
    """Write into the (R, 4) ``words`` the seeded PCG64 rows of the R child
    seeds ``child``: ``generator(s, k)``'s state for the child ``derive(s, k)``."""
    # the words PCG64 asks of SeedSequence(d) for each child d: d's entropy
    # words are (low, high), or (low,) below 2**32; the pool pads with zeros,
    # so both hash as (low, high)
    w = _generate_state([child.astype(np.uint32), (child >> _U32).astype(np.uint32)], 4)
    # numpy's pcg64_set_seed on the words (initstate hi, lo, initseq hi, lo):
    # inc = initseq << 1 | 1, state = (inc + initstate) * MULT + inc
    words[:, 0], words[:, 1] = w[:, 1], w[:, 0]
    words[:, 2] = (w[:, 3] << _U1) | _U1
    words[:, 3] = (w[:, 2] << _U1) | (w[:, 3] >> _U63)
    cells = _jump(words, _SEED_WEIGHTS)
    words[:, 0], words[:, 1] = cells[0, 0], cells[2, 0]


# rows seeded per pass of ``streams``.  A pass's temporaries, the state
# hash's words and the seeding jump's 16 float64 limbs a row, come to 192
# bytes a row; the child seeds' one hash pass before them peaks at 60 bytes
# a stream.  tracemalloc peaks of the 20,000 streams of a 100-bin
# K = 200 calibration walk: 4,535 KiB in one pass, 1,190 KiB at 2,048 rows
# (the child hash's peak), 1,553 at 4,096, 1,745 at 5,120 and 2,321 at
# 8,192.  Each pass adds the call overhead of a few hundred numpy
# operations: seeding those streams took 5.1-6.1 ms at 2,048 rows, 2.4-4.1
# at 4,096 and 2.0-2.7 in one pass (best of 50, two runs).
# Every row is computed on its own, so the bound moves no bit.
_SEED_ROWS = 4096


def streams(seeds, K: int) -> Streams:
    """The K streams ``generator(s, k)``, k < K, of one seed or of each of a
    1-D sequence of R seeds; row r*K + k is stream k of ``seeds[r]``.  The
    child seeds take one hash pass, and the rows are seeded from them in
    passes of at most ``_SEED_ROWS`` rows."""
    seeds = [_checked(s) for s in ([seeds] if np.ndim(seeds) == 0 else seeds)]
    check_integer(K, "K")
    if not 0 <= K <= 2**32:
        raise PreconditionError(f"need 0 <= K <= 2**32 (k is one entropy word), got {K}")
    child = _children([_words(s) for s in seeds], np.arange(K, dtype=np.uint32)).ravel()
    words = np.empty((len(child), 4), dtype=np.uint64)
    for start in range(0, len(child), _SEED_ROWS):
        _seed_rows(child[start:start + _SEED_ROWS], words[start:start + _SEED_ROWS])
    return Streams(words)
