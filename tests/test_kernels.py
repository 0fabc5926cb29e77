import contextlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hstconformal import _kernels as K
from hstconformal import rng
from hstconformal.errors import NumericalError

needs_jit = pytest.mark.skipif(not K.USING_NUMBA, reason="numba path not active")


def _random_instance(rng, n_max=6, T_max=40):
    n = int(rng.integers(1, n_max + 1))
    T = int(rng.integers(2, T_max + 1))
    counts = rng.integers(0, 5, size=(T, n)).astype(np.float64)
    beta = float(rng.uniform(0.3, 2.0))
    mu = rng.uniform(0.05, 1.5, size=n)
    A = rng.uniform(0.0, 0.4 / n, size=(n, n))
    gamma = rng.uniform(0.3, 1.0, size=T)
    dgam = rng.uniform(0.0, 0.01, size=T)
    return counts, beta, mu, A, gamma, dgam


def _assert_simulations_identical(generator_streams, mu, A, beta, cap, floor, g0, n0,
                                  horizon, K_, seed):
    # g0 and n0 are one start state, or R start rows (R, n) and (R,) with one
    # seed per row.  The reference is numpy's own Generator (seed, k) per
    # trajectory, drawn by _LOOP_PURE, the numba source run as plain Python,
    # one trajectory after another, in a separate call per start row; the
    # batched pure kernel and the loop kernel on the R*K rows of rng.streams
    # must make the same draws from the same uniforms and leave every stream
    # in its generator's final state
    g0, n0 = np.atleast_2d(g0), np.atleast_1d(np.asarray(n0, dtype=np.float64))
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    refs, want = [], []
    for r, s in enumerate(seeds):
        gens = generator_streams(s, K_)
        refs.append(K._LOOP_PURE.simulate_counts(gens, mu, A, beta, cap, floor,
                                                 g0[r:r + 1], n0[r:r + 1], horizon))
        want += gens.gens
    ref = np.concatenate(refs)
    assert ref.dtype == np.int64 and ref.shape == (len(seeds) * K_, horizon, mu.shape[0])
    for kernels in (K.PURE, K._LOOP_PURE):
        streams = rng.streams(seeds, K_)
        got = kernels.simulate_counts(streams, mu, A, beta, cap, floor, g0, n0, horizon)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)
        for k, gen in enumerate(want):
            assert streams.generator(k).bit_generator.state == gen.bit_generator.state, k
    return ref


@needs_jit
def test_dense_kernels_agree_across_paths():
    rng = np.random.default_rng(0)
    for _ in range(30):
        counts, beta, mu, A, gamma, dgam = _random_instance(rng)
        T = counts.shape[0]
        Gj = K.JIT.excitation_series(counts, beta)
        Gp = K.PURE.excitation_series(counts, beta)
        assert np.allclose(Gj, Gp, rtol=1e-12, atol=1e-12)
        Hj = K.JIT.excitation_beta_series(counts, beta, Gj)
        Hp = K.PURE.excitation_beta_series(counts, beta, Gp)
        assert np.allclose(Hj, Hp, rtol=1e-12, atol=1e-12)
        vj = K.JIT.loglik_value(counts, Gj, gamma, mu, A, 0, T)
        vp = K.PURE.loglik_value(counts, Gp, gamma, mu, A, 0, T)
        assert abs(vj - vp) <= 1e-9 * (1.0 + abs(vp))
        out_j = K.JIT.loglik_grads(counts, Gj, Hj, gamma, dgam, mu, A, 0, T)
        out_p = K.PURE.loglik_grads(counts, Gp, Hp, gamma, dgam, mu, A, 0, T)
        for a, b in zip(out_j, out_p):
            assert np.allclose(a, b, rtol=1e-9, atol=1e-9)


@needs_jit
def test_negative_infinity_sentinel_identical_on_both_paths():
    counts = np.array([[3.0]])
    G = np.zeros((2, 1))
    gamma = np.zeros(1)  # forces lam = 0 while y > 0
    mu = np.array([0.5])
    A = np.zeros((1, 1))
    vj = K.JIT.loglik_value(counts, G, gamma, mu, A, 0, 1)
    vp = K.PURE.loglik_value(counts, G, gamma, mu, A, 0, 1)
    assert vj == -np.inf and vp == -np.inf


@needs_jit
def test_poisson_draws_bit_identical_across_paths():
    lam_grid = [0.0, 0.3, 1.7, 12.0, 29.9, 30.0, 55.0, 400.0]
    gj = np.random.Generator(np.random.PCG64(1234))
    gp = np.random.Generator(np.random.PCG64(1234))
    for lam in lam_grid:
        for _ in range(200):
            assert K.JIT.poisson_draw(gj, lam) == K.PURE.poisson_draw(gp, lam)
    # both paths consumed the same number of uniforms
    assert gj.random() == gp.random()


@needs_jit
def test_simulate_counts_bit_identical_across_paths():
    gen = np.random.default_rng(5)
    for trial in range(10):
        n = int(gen.integers(1, 5))
        mu = gen.uniform(0.2, 3.0, size=n)
        A = gen.uniform(0.0, 0.5 / n, size=(n, n))
        beta = 1.0
        g0 = gen.uniform(0.0, 1.0, size=(2, n))
        n0 = np.array([0.0, 3.0])
        sj = rng.streams([trial, trial + 100], 4)
        sp = rng.streams([trial, trial + 100], 4)
        yj = K.JIT.simulate_counts(sj, mu, A, beta, 40.0, 0.0, g0, n0, 6)
        yp = K.PURE.simulate_counts(sp, mu, A, beta, 40.0, 0.0, g0, n0, 6)
        assert yj.shape == (8, 6, n)
        assert np.array_equal(yj, yp)
        assert np.array_equal(sj.random(2), sp.random(2))


def test_nonpositive_rate_draws_zero_without_consuming_randomness():
    gen = np.random.Generator(np.random.PCG64(7))
    ref = np.random.Generator(np.random.PCG64(7))
    assert K.PURE.poisson_draw(gen, 0.0) == 0
    assert K.PURE.poisson_draw(gen, -3.0) == 0
    assert gen.random() == ref.random()


def test_inversion_consumes_exactly_one_uniform_below_switch():
    rng = np.random.default_rng(42)
    for _ in range(300):
        lam = float(rng.uniform(1e-6, K._PTRS_SWITCH - 1e-9))
        seed = int(rng.integers(0, 2**32))
        gen = np.random.Generator(np.random.PCG64(seed))
        ref = np.random.Generator(np.random.PCG64(seed))
        k = K.PURE.poisson_draw(gen, lam)
        u = ref.random()
        # recompute by direct cdf inversion on the same uniform
        import math

        p = math.exp(-lam)
        c = p
        j = 0
        while u > c and j < 2000:
            j += 1
            p *= lam / j
            c += p
        assert k == j
        assert gen.random() == ref.random()


class _Uniforms:
    """A generator stand-in whose ``random()`` hands out the given values."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def _loop_thresholds(lam, count):
    # the loop's thresholds c_0, ..., c_count at rate lam, from math.exp
    p = c = math.exp(-lam)
    out = [c]
    for j in range(1, count + 1):
        p *= lam / j
        c += p
        out.append(c)
    return out


class _FixedStreams:
    """A stand-in for ``rng.Streams`` whose ``random(n)`` hands out the given
    (R*K, n) uniforms, one row per stream."""

    def __init__(self, u):
        self.u = u

    def __len__(self):
        return len(self.u)

    def random(self, m):
        assert m == self.u.shape[1]
        return self.u


_TOP = 1.0 - 2.0**-53  # at rate 29.99 it runs past every threshold to the cap


def _threshold_trials():
    """400 trials of R rate rows shared by K streams, as (rate, u, loop):
    rate is (R, 1, n), u is (R, K, n) and loop holds the loop's
    ``poisson_draw`` of every cell of u, flattened.  One uniform of each
    trial sits on a loop threshold, every tenth trial puts the cap uniform
    _TOP at rate 29.99, and every trial puts a uniform on c_0 of a rate whose
    np.exp(-rate) is below math.exp's, at rate[-1, 0, -1]: there the loop
    draws 0, and np.exp's thresholds alone count 1."""
    gen = np.random.default_rng(28)
    assert K._LOOP_PURE.poisson_draw(_Uniforms([_TOP]), 29.99) == K._INVERSION_MAX
    scan = np.exp(gen.uniform(math.log(1e-3), math.log(K._PTRS_SWITCH), 4000))
    low = scan[np.exp(-scan) < K._exp_each(scan)]
    if not low.size:
        pytest.skip("np.exp(-x) is not below math.exp(-x) at any scanned rate")
    for trial in range(400):
        R, n = int(gen.integers(1, 4)), int(gen.integers(2, 5))
        K_ = int(gen.integers(3, 9))
        rate = np.exp(gen.uniform(math.log(1e-3), math.log(29.99), size=(R, 1, n)))
        u = gen.random((R, K_, n))
        rate[-1, 0, -1] = lam = float(gen.choice(low))
        u[-1, 0, -1] = math.exp(-lam)  # on c_0, where the loop draws 0
        r, i = int(gen.integers(0, R)), int(gen.integers(0, n))
        lam = float(rate[r, 0, i])
        u[r, gen.integers(1, K_ - 1), i] = gen.choice(_loop_thresholds(lam, 5 + int(lam)))
        if trial % 10 == 0:
            rate[0, 0, 0], u[0, -1, 0] = 29.99, _TOP
        own = np.broadcast_to(rate, u.shape)
        loop = [K._LOOP_PURE.poisson_draw(_Uniforms([x]), y)
                for x, y in zip(u.ravel().tolist(), own.ravel().tolist())]
        yield rate, u, loop


def test_guarded_inversion_redoes_cells_on_a_threshold(branches):
    # rows with their own rates take np.exp's e^-rate under the band:
    # _inversion, directly and through _poisson_step's all-positive branch at
    # K = 1, counts every uniform as the loop does, on thresholds, at the cap
    # and on the c_0 cell that np.exp's thresholds alone miscount, which the
    # band must find and count again from math.exp
    capped_seen = 0
    for rate, u, loop in _threshold_trials():
        own = np.broadcast_to(rate, u.shape)
        assert K._counts(own, np.exp(-own), u)[-1, 0, -1] == 1
        found = K._inversion(own, u)
        assert found.dtype == np.int64 and found.shape == u.shape
        assert found.ravel().tolist() == loop
        branches.clear()
        rows = own.reshape(-1, u.shape[-1])
        step = K._poisson_step(_FixedStreams(u.reshape(rows.shape)), rows)
        assert step.ravel().tolist() == loop
        assert branches == [True]
        capped_seen += bool(loop.count(K._INVERSION_MAX))
    assert capped_seen == 40


def test_shared_search_counts_as_the_search_on_repeated_cells(branches):
    # a row shared by K streams takes math.exp's e^-rate: _counts with the
    # (R, 1, n) rates broadcast against the (R, K, n) uniforms, directly and
    # through _poisson_step's all-positive branch at K > 1, counts every
    # uniform as the loop does, on thresholds and at the cap
    capped_seen = 0
    for rate, u, loop in _threshold_trials():
        found = K._counts(rate, K._exp_each(rate), u)
        assert found.dtype == np.int64 and found.shape == u.shape
        assert found.ravel().tolist() == loop
        branches.clear()
        step = K._poisson_step(_FixedStreams(u.reshape(-1, u.shape[-1])), rate[:, 0])
        assert step.ravel().tolist() == loop
        assert branches == [True]
        capped_seen += bool(loop.count(K._INVERSION_MAX))
    assert capped_seen == 40


def test_poisson_moments_small_rate():
    gen = np.random.Generator(np.random.PCG64(99))
    lam = 4.0
    draws = np.array([K.PURE.poisson_draw(gen, lam) for _ in range(100_000)])
    assert 3.94 <= draws.mean() <= 4.06
    assert 3.8 <= draws.var() <= 4.2


def test_poisson_moments_large_rate_rejection_regime():
    gen = np.random.Generator(np.random.PCG64(17))
    lam = 80.0
    draws = np.array([K.PURE.poisson_draw(gen, lam) for _ in range(60_000)])
    se = np.sqrt(lam / draws.size)
    assert abs(draws.mean() - lam) < 5 * se
    assert abs(draws.var() - lam) < 0.05 * lam


def test_poisson_matches_numpy_distribution_coarsely():
    # two-sample moment comparison against numpy's own sampler
    gen = np.random.Generator(np.random.PCG64(3))
    ref = np.random.default_rng(4)
    for lam in (0.5, 7.0, 45.0):
        ours = np.array([K.PURE.poisson_draw(gen, lam) for _ in range(40_000)])
        theirs = ref.poisson(lam, size=40_000)
        se = np.sqrt(2 * lam / 40_000)
        assert abs(ours.mean() - theirs.mean()) < 6 * se


def test_env_flag_switches_to_pure_path_and_preserves_output():
    code = (
        "import numpy as np\n"
        "import hstconformal as hc\n"
        "from hstconformal import _kernels as K\n"
        "print(K.USING_NUMBA)\n"
        "gen = np.random.Generator(np.random.PCG64(11))\n"
        "print([K.ACTIVE.poisson_draw(gen, lam) for lam in (2.5, 40.0, 2.5, 40.0)])\n"
    )
    env = dict(os.environ)
    env["HSTCONFORMAL_NO_NUMBA"] = "1"
    off = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert off.returncode == 0, off.stderr
    lines = off.stdout.strip().splitlines()
    assert lines[0] == "False"
    gen = np.random.Generator(np.random.PCG64(11))
    expected = [K.PURE.poisson_draw(gen, lam) for lam in (2.5, 40.0, 2.5, 40.0)]
    assert lines[1] == str(expected)


def test_pure_recursions_match_the_loop_kernels():
    # _LOOP_PURE is the numba source run as plain Python: the row-by-row
    # recursion the blocked scan must reproduce to float rounding
    rng = np.random.default_rng(11)
    for T in (0, 1, 15, 16, 17, 400):
        for n in (1, 3, 24, 200):
            counts = rng.poisson(2.0, size=(T, n)).astype(np.float64)
            for beta in (1e-3, 0.5, 2.0, 30.0):
                G_ref = K._LOOP_PURE.excitation_series(counts, beta)
                H_ref = K._LOOP_PURE.excitation_beta_series(counts, beta, G_ref)
                G = K.PURE.excitation_series(counts, beta)
                H = K.PURE.excitation_beta_series(counts, beta, G)
                for got, ref in ((G, G_ref), (H, H_ref)):
                    assert got.shape == ref.shape == (T + 1, n)
                    tol = 1e-12 * max(1.0, float(np.abs(ref).max()))
                    assert float(np.abs(got - ref).max()) <= tol, (T, n, beta)


def test_pure_recursions_are_bitwise_prefix_consistent():
    # calibrate, rolling_evaluate, intensity and simulate_trajectory take the
    # last row of a history's excitation; it must equal the full panel's row
    rng = np.random.default_rng(12)
    counts = rng.poisson(2.0, size=(70, 4)).astype(np.float64)
    beta = 0.7
    G = K.PURE.excitation_series(counts, beta)
    H = K.PURE.excitation_beta_series(counts, beta, G)
    for t in range(counts.shape[0] + 1):
        G_t = K.PURE.excitation_series(counts[:t], beta)
        H_t = K.PURE.excitation_beta_series(counts[:t], beta, G_t)
        assert np.array_equal(G_t[-1], G[t]), t
        assert np.array_equal(H_t[-1], H[t]), t


def _scan_by_expressions(x, decay):
    # the blocked doubling scan of x as whole-array expressions on (nb, B, n)
    # blocks, each allocating its result: within-block doubling steps adding
    # decay**s times the row s back, a doubling scan of the block-end rows by
    # decay**B, then each block's carry by decay**(1..B); the float
    # operations, in the order, that the pure recursions must make
    T, n = x.shape
    B = K._SCAN_BLOCK
    nb = -(-T // B)
    y = np.zeros((nb * B, n))
    y[:T] = x * decay
    y = y.reshape(nb, B, n)
    s = 1
    while s < B:
        y = np.concatenate([y[:, :s], y[:, s:] + decay**s * y[:, :-s]], axis=1)
        s *= 2
    ends, factor = y[:, -1], decay**B
    s = 1
    while s < nb:
        ends = np.concatenate([ends[:s], ends[s:] + factor**s * ends[:-s]])
        s *= 2
    carry = decay ** np.arange(1.0, B + 1.0)[:, None] * ends[:-1, None, :]
    y = np.concatenate([y[:1], y[1:] + carry])
    return np.concatenate([np.zeros((1, n)), y.reshape(nb * B, n)[:T]])


def test_pure_recursions_repeat_the_blocked_scan_expressions():
    # G and H bit for bit, the sign of zero included: with beta > 1 the H
    # input (1 - beta) * 0 - 0 of an empty row is -0.0
    rng = np.random.default_rng(16)
    for T in (0, 1, 15, 16, 17, 70, 400):
        for n in (0, 1, 3, 24, 200):
            counts = rng.poisson(2.0, size=(T, n)).astype(np.float64)
            counts[:T // 3] = 0.0
            for beta in (1e-3, 0.5, 2.0, 30.0):
                decay = np.exp(-beta)
                G = K.PURE.excitation_series(counts, beta)
                G_ref = _scan_by_expressions(beta * counts, decay)
                x = (1.0 - beta) * counts - G_ref[:-1]
                H = K.PURE.excitation_beta_series(counts, beta, G)
                H_ref = _scan_by_expressions(x, decay)
                assert G.tobytes() == G_ref.tobytes(), (T, n, beta)
                assert H.tobytes() == H_ref.tobytes(), (T, n, beta)
                if beta > 1.0 and T > 3 and n:
                    assert np.signbit(x[0]).all() and not x[0].any()
                work = K.PURE.workspace(counts, 0, T)
                for _ in range(2):  # a reused workspace leaves no trace
                    G = K.PURE.excitation_series(counts, beta, work=work)
                    H = K.PURE.excitation_beta_series(counts, beta, G, work=work)
                    assert G.tobytes() == G_ref.tobytes(), (T, n, beta)
                    assert H.tobytes() == H_ref.tobytes(), (T, n, beta)


def _loglik_grads_by_expressions(counts, G, H, gamma, dgam, mu, A, b0, b1):
    # the pure likelihood kernel as whole-array expressions, each allocating
    # its result: the float operations the buffered kernel must repeat; a
    # value of -inf has zero gradients
    Y = counts[b0:b1]
    n = Y.shape[1]
    none = (-np.inf, np.zeros(n), np.zeros((n, n)), 0.0, 0.0)
    base = mu[None, :] + G[b0:b1] @ A.T
    lam = gamma[b0:b1, None] * base
    if np.any((lam <= 0.0) & (Y > 0.0)):
        return none
    pos = lam > 0.0
    safe = np.where(pos, lam, 1.0)
    # no Y log lam term where Y = 0, but +0.0, and so no 0 * log(inf)
    ylog = np.multiply(Y, np.log(safe), out=np.zeros_like(lam), where=Y > 0.0)
    ll = float(np.sum(ylog - lam))
    if ll == -np.inf:
        return none
    r = np.where(pos, Y / safe - 1.0, -1.0)
    w = gamma[b0:b1, None] * r
    return (ll, w.sum(axis=0), w.T @ G[b0:b1], float(np.sum(w * (H[b0:b1] @ A.T))),
            float(np.sum(dgam[b0:b1, None] * r * base)))


def _same_bits(x, y):
    # equal as float64 bytes: nan equals its own bits, and -0.0 is not 0.0
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def test_pure_loglik_kernels_repeat_the_whole_array_expressions():
    # trials 0-39 zero the rates of some empty bins, about 4 in 5 of them,
    # and every fifth puts a zero rate on a count (-inf): the masked branch;
    # trials 40-59 zero no rate: the all-positive branch; trial 60 overflows
    # one rate to inf on an empty cell (-inf as on the masked branch) and
    # trial 61 makes the rates of one bin nan
    rng = np.random.default_rng(14)
    for trial in range(62):
        counts, beta, mu, A, gamma, dgam = _random_instance(rng, n_max=30, T_max=70)
        T, n = counts.shape
        if trial < 40:
            zero = rng.random(T) < 0.2  # zero rates on empty bins: the r = -1 branch
            gamma[zero], counts[zero] = 0.0, 0.0
            if trial % 5 == 4:
                counts[-1, 0], gamma[-1] = 1.0, 0.0  # a zero rate on a count: -inf
        elif trial == 60:
            mu[0], gamma[-1], counts[-1, 0] = 1e308, 2.0, 0.0
        elif trial == 61:
            gamma[-1] = np.nan
        # trial 60 overflows on purpose; every trial fails on any other numpy
        # warning, trial 60's invalid 0 * log(inf) too
        with np.errstate(over="ignore") if trial == 60 else contextlib.nullcontext():
            G = K.PURE.excitation_series(counts, beta)
            H = K.PURE.excitation_beta_series(counts, beta, G)
            b0 = int(rng.integers(0, T))
            lam = gamma[b0:, None] * (mu + G[b0:T] @ A.T)
            ref = _loglik_grads_by_expressions(counts, G, H, gamma, dgam, mu, A, b0, T)
            if 40 <= trial < 60:
                assert (lam > 0.0).all() and (lam < np.inf).all()
            elif trial == 60:
                assert lam[-1, 0] == np.inf and ref[0] == -np.inf
            elif trial == 61:
                assert np.isnan(ref[0])
            work = K.PURE.workspace(counts, b0, T)
            for w in (None, work, work):
                got = K.PURE.loglik_grads(counts, G, H, gamma, dgam, mu, A, b0, T, work=w)
                assert _same_bits(got[0], ref[0]), trial
                for x, y in zip(got[1:], ref[1:]):
                    assert _same_bits(x, y), trial
            value = K.PURE.loglik_value(counts, G, gamma, mu, A, b0, T)
            assert _same_bits(value, ref[0]), trial


def test_pure_loglik_kernels_take_an_infinite_rate_on_an_empty_cell_silently():
    # mu = [inf, 1] with no count at the infinite cell: the value is -inf,
    # as the loop kernel's, with no numpy warning, from the masked branch's
    # log lam (no 0 * log(inf)) or from the gradients (no 0 * inf in dcap,
    # whose dgam is 0 at an infinite cap)
    counts = np.array([[0.0, 2.0], [0.0, 1.0], [0.0, 0.0]])
    mu, A = np.array([np.inf, 1.0]), np.zeros((2, 2))
    gamma, G = np.ones(3), np.zeros((4, 2))
    assert K._LOOP_PURE.loglik_value(counts, G, gamma, mu, A, 0, 3) == -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert K.PURE.loglik_value(counts, G, gamma, mu, A, 0, 3) == -np.inf
        for dgam in (np.zeros(3), np.full(3, 0.01)):
            ll, dmu, dA, dbeta, dcap = K.PURE.loglik_grads(counts, G, G, gamma, dgam, mu, A,
                                                           0, 3)
            assert ll == -np.inf
            assert not dmu.any() and not dA.any() and dbeta == 0.0 and dcap == 0.0


def _family(name):
    kernels = {"pure": K.PURE, "loop": K._LOOP_PURE, "jit": K.JIT}[name]
    if kernels is None:
        pytest.skip("numba path not active")
    return kernels


@pytest.mark.parametrize("family", ["pure", "loop", "jit"])
def test_loglik_kernels_take_an_infinite_rate_on_a_count_as_minus_infinity(family):
    # y log lam - lam tends to -inf as lam grows: as a zero rate on a count,
    # an infinite one makes the value -inf, with no inf - inf and no numpy
    # warning, in the value and the gradient kernel, and so it does on an
    # empty cell (no 0 * inf where dgam is 0); a nan rate stays nan
    kernels = _family(family)
    counts = np.array([[1.0, 2.0]])
    A, gamma, G = np.zeros((2, 2)), np.ones(1), np.zeros((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y, mu in (([1.0, 2.0], [np.inf, 1.0]), ([1.0, 2.0], [1.0, np.inf]),
                      ([0.0, 2.0], [np.inf, 1.0])):
            y, mu = np.array([y]), np.array(mu)
            assert kernels.loglik_value(y, G, gamma, mu, A, 0, 1) == -np.inf
            assert kernels.loglik_grads(y, G, G, gamma, np.zeros(1), mu, A, 0, 1)[0] == -np.inf
        nan = np.array([np.nan, 1.0])
        assert math.isnan(kernels.loglik_value(counts, G, gamma, nan, A, 0, 1))
        assert math.isnan(kernels.loglik_grads(counts, G, G, gamma, np.zeros(1), nan, A,
                                               0, 1)[0])


@pytest.mark.parametrize("family", ["pure", "loop", "jit"])
def test_simulation_rejects_a_rate_or_total_it_cannot_hold_exactly(family):
    # a rate from 2**53 on (nan included) could give a draw float64 does not
    # hold exactly, and so could a running total: both are NumericalErrors
    kernels = _family(family)
    A, g0, n0 = np.zeros((2, 2)), np.zeros((1, 2)), np.zeros(1)
    for rate in (2.0**53, np.inf, np.nan):
        with pytest.raises(NumericalError, match="rate is not below 2\\*\\*53"):
            kernels.simulate_counts(rng.streams([1], 2), np.array([1.0, rate]), A, 1.0,
                                    np.inf, 0.0, g0, n0, 1)
    # a runaway model: the excitation grows without bound
    with pytest.raises(NumericalError, match="2\\*\\*53"):
        kernels.simulate_counts(rng.streams([1], 2), np.ones(4), np.full((4, 4), 3.0), 1.0,
                                np.inf, 0.0, np.zeros((1, 4)), n0, 30)
    # the first step's draws lift a total of 2**53 - 1 to 2**53 or more; the
    # check follows the state update, so a one-step call makes none
    mu, start = np.full(2, 20.0), np.array([2.0**53 - 1])
    assert kernels.simulate_counts(rng.streams([1], 2), mu, A, 1.0, np.inf, 0.0, g0, start,
                                   1).sum() > 0
    with pytest.raises(NumericalError, match="total reached 2\\*\\*53"):
        kernels.simulate_counts(rng.streams([1], 2), mu, A, 1.0, np.inf, 0.0, g0, start, 2)


@pytest.mark.parametrize("family", ["loop", "jit"])
def test_loop_kernels_on_a_reused_workspace_match_their_allocating_calls(family):
    kernels = K._LOOP_PURE if family == "loop" else K.JIT
    if kernels is None:
        pytest.skip("numba path not active")
    rng = np.random.default_rng(15)
    counts, _, mu, A, gamma, dgam = _random_instance(rng, n_max=5, T_max=30)
    T = counts.shape[0]
    work = kernels.workspace(counts, 1, T)
    for beta in (0.4, 1.9, 0.7):  # each call overwrites the last one's G, H and dA
        G = kernels.excitation_series(counts, beta, work=work)
        H = kernels.excitation_beta_series(counts, beta, G, work=work)
        G_ref = kernels.excitation_series(counts, beta)
        H_ref = kernels.excitation_beta_series(counts, beta, G_ref)
        assert np.array_equal(G, G_ref) and np.array_equal(H, H_ref)
        got = kernels.loglik_grads(counts, G, H, gamma, dgam, mu, A, 1, T, work=work)
        ref = kernels.loglik_grads(counts, G_ref, H_ref, gamma, dgam, mu, A, 1, T)
        assert got[2] is work.dA
        for x, y in zip(got, ref):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("family", ["loop", "jit"])
def test_loglik_grads_agree_across_families_on_a_non_square_coupling(family):
    # the fit's call: an (n, m) coupling B[s] with G and H scanned from the
    # counts summed by an assignment s of width m; both families agree to
    # rounding, with and without a workspace of width m, and both agree with
    # the full-width call on A = B[s][:, s], whose dA summed by s is the (n, m) dA
    kernels = _family(family)
    rng = np.random.default_rng(16)
    for n, m, T in ((5, 2, 30), (12, 3, 41), (24, 6, 60), (7, 7, 20)):
        s = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
        counts = rng.integers(0, 4, (T, n)).astype(np.float64)
        summed = np.stack([counts[:, s == b].sum(axis=1) for b in range(m)], axis=1)
        beta, mu = 0.8, rng.uniform(0.1, 1.0, n)
        B = rng.uniform(0.0, 0.4 / n, (m, m))
        gamma, dgam = rng.uniform(0.5, 1.0, T), rng.uniform(0.0, 0.01, T)
        grads = {}
        for name, fam in (("pure", K.PURE), (family, kernels)):
            work = fam.workspace(counts, 2, T, m)
            for w in (None, work):
                G = fam.excitation_series(summed, beta, work=w)
                H = fam.excitation_beta_series(summed, beta, G, work=w)
                got = fam.loglik_grads(counts, G, H, gamma, dgam, mu, B[s], 2, T, work=w)
                assert got[2].shape == (n, m)
                grads.setdefault(name, got)
                for x, y in zip(got, grads[name]):
                    assert np.allclose(x, y, rtol=1e-12, atol=0.0)
        for x, y in zip(grads["pure"], grads[family]):
            assert np.allclose(x, y, rtol=1e-12, atol=0.0)
        G = K.PURE.excitation_series(counts, beta)
        H = K.PURE.excitation_beta_series(counts, beta, G)
        full = K.PURE.loglik_grads(counts, G, H, gamma, dgam, mu, B[np.ix_(s, s)], 2, T)
        by_block = np.stack([full[2][:, s == b].sum(axis=1) for b in range(m)], axis=1)
        for got in grads.values():
            for x, y in zip(got, (full[0], full[1], by_block, full[3], full[4])):
                assert np.allclose(x, y, rtol=1e-12, atol=1e-300)


@pytest.fixture
def branches(monkeypatch):
    """The outcome of ``_poisson_step``'s guard at every pure step, in order:
    True where the step took the all-positive branch, False the masked one."""
    seen = []
    guard = K._every_rate_by_inversion
    monkeypatch.setattr(K, "_every_rate_by_inversion",
                        lambda lam: seen.append(guard(lam)) or seen[-1])
    return seen


def test_pure_simulate_counts_matches_the_loop_kernel(generator_streams, branches):
    rng = np.random.default_rng(13)
    for K_ in (1, 3, 200):
        for horizon in (1, 7, 52):
            for n in (1, 24, 96):
                mu = rng.uniform(0.05, 1.5, size=n)
                A = rng.uniform(0.0, 0.6 / n, size=(n, n))
                g0 = rng.uniform(0.0, 2.0, size=n)
                branches.clear()
                _assert_simulations_identical(
                    generator_streams, mu, A, 0.8, np.inf, 0.0, g0, 0.0, horizon, K_,
                    seed=K_ * horizon * n,
                )
                # every rate is positive and below the switch: no step is masked
                assert branches == [True] * horizon


def test_one_step_calls_from_shared_start_rows_match_the_loop_kernel(generator_streams,
                                                                       branches):
    # a calibration block: R = 3 start rows, each shared by K streams, one
    # step, every rate positive; the shared rows' thresholds are built once,
    # and the draws and stream words are the loop's
    gen = np.random.default_rng(29)
    n = 24
    for K_ in (2, 200):
        mu = gen.uniform(0.05, 3.0, size=n)
        A = gen.uniform(0.0, 0.6 / n, size=(n, n))
        g0 = gen.uniform(0.0, 2.0, size=(3, n))
        branches.clear()
        _assert_simulations_identical(generator_streams, mu, A, 0.8, 80.0, 0.0, g0,
                                      np.array([0.0, 5.5, 40.0]), 1, K_, [K_, 2**40 + K_, 7])
        assert branches == [True]


def test_pure_simulate_counts_matches_the_loop_kernel_across_the_ptrs_switch(
        generator_streams, branches):
    # only circuit 0 can reach _PTRS_SWITCH: it starts just below it and the
    # excitation from circuits 1 and 3 lifts it over in some trajectories and
    # steps only, so one step mixes rows drawn by the scalar fallback with
    # rows drawn by the vectorized inversion; circuit 4 has rate 0
    S = K._PTRS_SWITCH
    mu = np.array([S - 0.5, 0.4, 0.5, 3.0, 0.0])
    A = np.zeros((5, 5))
    A[0, 1] = A[0, 3] = 0.4
    beta, g0, K_ = 1.0, np.zeros(5), 50
    ref = _assert_simulations_identical(generator_streams, mu, A, beta, np.inf, 0.0, g0, 0.0,
                                       12, K_, seed=5)
    assert (ref[:, :, 4] == 0).all()
    assert branches == [False] * 12  # the zero rate masks every step
    # replay the rates of the reference draws (gamma is 1 with an infinite
    # cap) and count the rows of each step that hold a PTRS rate
    g = np.tile(g0, (K_, 1))
    mixed = 0
    for h in range(ref.shape[1]):
        lam = mu + np.array([np.dot(A, row) for row in g])
        assert (lam[:, 1:] < 5.0).all()
        by_scalar = (lam >= S).any(axis=1)
        mixed += bool(by_scalar.any() and not by_scalar.all())
        g = np.exp(-beta) * (g + beta * ref[:, h])
    assert mixed >= 3
    # a rate exactly at the switch takes PTRS: every row falls back
    mu_at = np.array([S, 0.4, 3.0, 0.0])
    branches.clear()
    ref = _assert_simulations_identical(
        generator_streams, mu_at, np.zeros((4, 4)), 1.0, np.inf, 0.0, np.zeros(4), 0.0, 3, 20,
        seed=6,
    )
    assert (ref[:, :, 3] == 0).all()
    assert branches == [False] * 3
    # and without the zero rate, the rate at the switch alone masks every step
    branches.clear()
    _assert_simulations_identical(
        generator_streams, mu_at[:3], np.zeros((3, 3)), 1.0, np.inf, 0.0, np.zeros(3), 0.0, 3,
        20, seed=7,
    )
    assert branches == [False] * 3


def test_pure_simulate_counts_matches_the_loop_kernel_under_saturation(generator_streams,
                                                                        branches):
    rng = np.random.default_rng(14)
    n = 24
    mu = rng.uniform(0.5, 2.0, size=n)
    A = rng.uniform(0.0, 0.5 / n, size=(n, n))
    g0 = rng.uniform(0.0, 1.0, size=n)
    # floor 0: gamma reaches 0 once the total passes the cap, and a zero rate
    # must draw 0 without consuming a uniform; n0 is fractional, so the
    # running total is a fraction plus the whole number drawn since
    ref = _assert_simulations_identical(generator_streams, mu, A, 0.8, 60.0, 0.0, g0, 0.1, 12, 40,
                                       seed=1)
    capped = ref[:, :-1].sum(axis=(1, 2)) + 0.1 >= 60.0
    assert capped.any() and not ref[capped, -1].any()
    # the steps after the first trajectory reaches the cap hold its zero rates:
    # masked, after all-positive steps
    first = int(np.argmax(ref.sum(axis=2).cumsum(axis=1).max(axis=0) + 0.1 >= 60.0)) + 1
    assert 0 < first < 12 and branches == [True] * first + [False] * (12 - first)
    branches.clear()
    ref = _assert_simulations_identical(generator_streams, mu, A, 0.8, 60.0, 0.25, g0, 0.1, 12, 40,
                                       seed=2)
    assert (ref[:, -1] > 0).any()
    # a cap already exceeded by the history: every rate is 0 from the start
    branches.clear()
    ref = _assert_simulations_identical(generator_streams, mu, A, 0.8, 30.0, 0.0, g0, 31.0, 3, 5,
                                       seed=3)
    assert not ref.any()
    assert branches == [False] * 3


def test_simulate_counts_from_start_rows_matches_separate_calls(generator_streams):
    # R start rows in one call: each row's K trajectories are those of a
    # call from that row alone, across the PTRS switch and the saturation floor
    S = K._PTRS_SWITCH
    mu = np.array([S - 0.5, 0.4, 0.5, 3.0, 0.0])
    A = np.zeros((5, 5))
    A[0, 1] = A[0, 3] = 0.4
    # the circuit-1 excitation of rows 1 and 3 lifts circuit 0 over the switch
    # at step 0, so that step mixes rows drawn by PTRS and by inversion
    g0 = np.zeros((4, 5))
    g0[1, 1], g0[2, 3], g0[3, 1] = 2.0, 0.5, 1.5
    assert [(mu + A @ g)[0] >= S for g in g0] == [False, True, False, True]
    seeds = [3, 2**40 + 1, 0, rng.derive(5, "cal", 9)]
    ref = _assert_simulations_identical(generator_streams, mu, A, 1.0, np.inf, 0.0, g0,
                                        np.zeros(4), 5, 20, seeds)
    assert (ref[:, :, 4] == 0).all()
    # start totals below, near and past a cap of 60: gamma starts at 1 - n0/60,
    # at the floor 0.25 and at the floor; with floor 0 the last row draws nothing
    gen = np.random.default_rng(15)
    n = 24
    mu = gen.uniform(0.5, 2.0, size=n)
    A = gen.uniform(0.0, 0.5 / n, size=(n, n))
    g0 = gen.uniform(0.0, 1.0, size=(4, n))
    n0 = np.array([0.1, 30.0, 50.0, 61.0])
    for floor in (0.25, 0.0):
        ref = _assert_simulations_identical(generator_streams, mu, A, 0.8, 60.0, floor, g0,
                                            n0, 6, 30, [1, 2, 3, 4])
        assert (ref[90:] > 0).any() == (floor > 0)
    # whole start totals just below 2**53, which the rates read through the cap
    _assert_simulations_identical(generator_streams, mu, A, 0.8, 2.0**54, 0.0, g0[:2],
                                  np.array([2.0**53 - 2**12, 2.0**52 + 1]), 6, 5, [4, 5])


def test_excitation_series_matches_closed_form_single_pulse():
    # one event in bin 0 decays geometrically: G[t] = beta * exp(-beta * t)
    beta = 0.7
    counts = np.zeros((6, 1))
    counts[0, 0] = 1.0
    G = K.ACTIVE.excitation_series(counts, beta)
    for t in range(1, 7):
        assert abs(G[t, 0] - beta * np.exp(-beta * t)) < 1e-12


def test_excitation_beta_series_matches_finite_difference():
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 4, size=(15, 3)).astype(np.float64)
    beta = 0.9
    eps = 1e-6
    G = K.ACTIVE.excitation_series(counts, beta)
    H = K.ACTIVE.excitation_beta_series(counts, beta, G)
    Gp = K.ACTIVE.excitation_series(counts, beta + eps)
    Gm = K.ACTIVE.excitation_series(counts, beta - eps)
    fd = (Gp - Gm) / (2 * eps)
    assert np.allclose(H, fd, rtol=1e-5, atol=1e-7)


def test_kernel_benchmark_script_runs():
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--T", "20", "--n", "3", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "excitation_beta_series" in proc.stdout
    assert "fit size" in proc.stdout and "faults" in proc.stdout
    assert "peak B/str" in proc.stdout and "cumulative envelope" in proc.stdout


def test_fit_benchmark_script_runs(tmp_path):
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_fit.py"
    out = tmp_path / "bench_fit.json"
    proc = subprocess.run(
        [sys.executable, str(script), "--shrink", "16", "--seeds", "1", "--json", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fit size" in proc.stdout and "held-out" in proc.stdout
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["timing_rows"]) == 3 and len(doc["heldout_rows"]) == 2
    assert {"tied_ms_per_epoch", "free_ms_per_epoch"} <= set(doc["timing_rows"][0])
    assert {"tied_heldout_minus_constant", "tied_branching_ratio"} <= set(doc["heldout_rows"][0])


def test_cli_import_loads_no_scipy(tmp_path):
    # import scipy.signal alone takes seconds and yaml about 17 ms, so the CLI
    # imports neither at start-up (yaml only to read a config file); numpy.ma,
    # which np.unique imports on its first call, must not load in a command
    code = "\n".join([
        "import sys",
        "import hstconformal.cli as cli",
        "assert not any(m.split('.')[0] in ('scipy', 'yaml') for m in sys.modules)",
        f"out = {str(tmp_path)!r}",
        "def run(*argv): assert cli.main(list(argv)) == 0, argv",
        "run('synth', '--n', '4', '--m', '2', '--T', '60', '--out', out)",
        "io = ['--panel', out + '/panel.json', '--topology', out + '/topology.csv', '--out', out]",
        "run('forecast', *io, '--t0', '31', '--horizon', '5', '--K', '10', '--epochs', '20')",
        "run('evaluate', *io, '--t0', '41', '--test_len', '2', '--alpha', '0.1', '--K', '5',",
        "    '--epochs', '20', '--quantile_method', 'qr')",
        "assert 'numpy.ma' not in sys.modules",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
