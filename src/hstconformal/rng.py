"""Deterministic random-stream derivation.

All randomness in the package flows from one integer seed through named
sub-streams, so that e.g. the fitting perturbation stream is unaffected
by a change in the number of simulation samples.  Stream names are mapped
to stable integers via crc32, and child seeds come from SeedSequence, so
derivations are reproducible across platforms and numpy versions.  Seeds
are nonnegative integers of any size; a negative seed raises
PreconditionError.

``generators(seed, K)`` returns the K generators ``generator(seed, k)`` for
k < K with equal ``bit_generator.state``, bit for bit, for every seed that
``generator`` accepts.  It runs numpy's SeedSequence hash (a documented
algorithm of 32-bit integer arithmetic) for all k at once: the child seed
``derive(seed, k)``, then the four 64-bit words that PCG64 asks of
``SeedSequence(derive(seed, k))``.  Each PCG64 then takes its row of words
through a ``numpy.random.bit_generator.ISeedSequence``.  That object's
``bit_generator.seed_seq`` is therefore not a SeedSequence and cannot
``spawn``; nothing in the package reads it.  ``derive`` and ``generator``
stay for the scalar streams and are the tests' oracle for ``generators``.
"""

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import PreconditionError


def _as_int(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part)


def _checked(seed) -> int:
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
# the pool rows other than each source row, in destination order
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    # init * mult**j mod 2**32 for j = 0..n, as a column
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


# generate_state reads at most 8 words here, one B constant pair each
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value, consts: np.ndarray, j: int, n: int) -> np.ndarray:
    # hash calls j..j+n-1 of one hash-constant sequence, one per row
    v = (value ^ consts[j:j + n]) * consts[j + 1:j + n + 1]
    return v ^ (v >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _XSHIFT)


def _pool(entropy: list, K: int) -> np.ndarray:
    """SeedSequence's mixed pool, (4, K) uint32, for K entropy columns.

    ``entropy`` lists the entropy words in order, each a uint32 scalar
    shared by every column or a (K,) array with one word per column.
    """
    n_extra = max(0, len(entropy) - _POOL)
    # 4 pool-filling hashes, 12 mixing hashes, 4 per word beyond the pool
    hash_a = _hash_constants(_INIT_A, _MULT_A, 4 * (_POOL + n_extra))
    words = np.zeros((_POOL, K), dtype=np.uint32)
    for i, w in enumerate(entropy[:_POOL]):
        words[i] = w
    pool = _hashmix(words, hash_a, 0, _POOL)
    j = _POOL
    # every bit reaches every word: each source word feeds the other three
    for src in range(_POOL):
        dst = _OTHERS[src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a, j, _POOL - 1))
        j += _POOL - 1
    # entropy beyond the pool mixes into all four words
    for w in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(w, hash_a, j, _POOL))
        j += _POOL
    return pool


def _generate_state(entropy: list, K: int, n_words: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(n_words, np.uint64) for K columns.

    Returns (K, n_words) uint64, one C-contiguous row per column.
    """
    pool = _pool(entropy, K)
    n32 = 2 * n_words
    w = _hashmix(pool[np.arange(n32) % _POOL], _HASH_B, 0, n32).astype(np.uint64)
    return np.ascontiguousarray((w[0::2] | w[1::2] << np.uint64(32)).T)


def _pcg64_words(child: np.ndarray) -> np.ndarray:
    """The words PCG64 asks of SeedSequence(d) for each uint64 d, as (K, 4) rows."""
    # d's entropy words are (low, high), or (low,) below 2**32; the pool pads
    # with zeros, so both hash as (low, high)
    low = child.astype(np.uint32)
    high = (child >> np.uint64(32)).astype(np.uint32)
    return _generate_state([low, high], child.size, 4)


def _words(x: int) -> list:
    # numpy's entropy words of a nonnegative int: 32-bit limbs, low first; [0] for 0
    return [np.uint32(x >> s & 0xFFFFFFFF) for s in range(0, max(x.bit_length(), 1), 32)]


class _PCG64Words(ISeedSequence):
    """Precomputed words for PCG64, standing in for the SeedSequence that gives them."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self._words.size or np.dtype(dtype) != np.uint64:
            raise ValueError("holds only the 4 uint64 words that PCG64 asks for")
        return self._words


def generators(seed: int, K: int) -> list:
    """``[generator(seed, k) for k in range(K)]``, bit for bit, in one hash pass."""
    seed = _checked(seed)
    if not 0 <= K <= 2**32:
        raise PreconditionError(f"need 0 <= K <= 2**32 (k is one entropy word), got {K}")
    child = _generate_state(_words(seed) + [np.arange(K, dtype=np.uint32)], K, 1)[:, 0]
    return [np.random.Generator(np.random.PCG64(_PCG64Words(w)))
            for w in _pcg64_words(child)]
