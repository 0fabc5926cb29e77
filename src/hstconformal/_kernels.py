"""Hot numeric kernels with a numba JIT path and a pure-numpy fallback.

Selection: the JIT path is used when numba imports successfully, unless the
environment variable ``HSTCONFORMAL_NO_NUMBA`` is set to ``1``/``true``/``yes``,
in which case the vectorized numpy implementations are used.  All public
entry points go through ``ACTIVE``.

Guarantees relied on by the rest of the package:

* The RNG-consuming kernels (``poisson_draw``, ``simulate_counts``) run the
  identical draw algorithm on both paths and consume uniforms from each of
  the caller's ``np.random.Generator`` objects in the same order, so
  simulated counts are bit-identical regardless of path.
* The dense kernels (excitation recursions, likelihood, gradients) agree
  across paths to floating-point roundoff; each path is individually
  deterministic.
* On the pure path both excitation recursions are one blocked decayed scan
  (``_decayed_scan``) instead of a loop over rows.  It sums the same terms
  in another order, so it agrees with the loop kernels to float rounding
  (at most 5e-15 times the largest entry over the tested sizes and decays;
  the tests allow 1e-12), and its row t depends only on the first t input
  rows, bit for bit: the excitation of a history equals the matching row
  of the full panel's.
* ``simulate_counts(gens, ...)`` takes one generator per trajectory and
  returns (K, horizon, n) counts.  The loop family simulates the
  trajectories one after another; the pure path advances all K together,
  one numpy step per bin (``_simulate_counts_np``), and stays bit-identical
  to the loop, draws and generator states alike, by these rules:

  - row k's excitation is ``np.dot(A, g[k])``, the loop's call, not one
    batched matmul, which BLAS may round differently;
  - e^-lambda is ``math.exp`` per element, because ``np.exp`` differs in
    the last ulp on some inputs;
  - row k takes its uniforms from one ``gens[k].random(m)`` call, m being
    its count of positive rates: the same values as m scalar calls, and a
    rate <= 0 consumes none;
  - inversion by sequential search runs elementwise on the cells still
    searching, with the loop's cap;
  - a row with a rate >= ``_PTRS_SWITCH`` is drawn by the scalar
    ``poisson_draw``, because PTRS consumes a variable number of uniforms;
  - the state update and running totals make the loop's float operations
    in its order.

Poisson draws use inversion by sequential search below ``_PTRS_SWITCH`` and
Hörmann's PTRS transformed rejection above it, built only on
``Generator.random()`` so the stream is platform-stable.
"""

import math
import os
from types import SimpleNamespace

import numpy as np

_PTRS_SWITCH = 30.0
_INVERSION_MAX = 2000  # cap on the sequential search's count


def build_loop_kernels(jit):
    """Build the scalar-loop kernel family, wrapped by ``jit``.

    ``jit`` is either ``numba.njit`` or an identity function; the same source
    therefore defines both the compiled path and the reference pure-Python
    path for the RNG kernels.
    """

    @jit
    def poisson_draw(gen, lam):
        if lam <= 0.0:
            return 0
        if lam < _PTRS_SWITCH:
            # Inversion by sequential search: exactly one uniform per draw.
            u = gen.random()
            p = math.exp(-lam)
            c = p
            k = 0
            while u > c and k < _INVERSION_MAX:
                k += 1
                p *= lam / k
                c += p
            return k
        # PTRS transformed rejection: two uniforms per attempt.
        b = 0.931 + 2.53 * math.sqrt(lam)
        a = -0.059 + 0.02483 * b
        vr = 0.9277 - 3.6224 / (b - 2.0)
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        lnlam = math.log(lam)
        while True:
            u = gen.random() - 0.5
            v = gen.random()
            us = 0.5 - abs(u)
            k = int(math.floor((2.0 * a / us + b) * u + lam + 0.43))
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            if math.log(v * invalpha / (a / (us * us) + b)) <= (
                k * lnlam - lam - math.lgamma(k + 1.0)
            ):
                return k

    @jit
    def excitation_series(counts, beta):
        # Row t holds the exponentially-decayed excitation feeding bin t,
        # i.e. sum_{t'<t} counts[t'] * beta * exp(-beta * (t - t')).
        # Row T is usable for the first bin after the panel.
        T, n = counts.shape
        G = np.zeros((T + 1, n))
        decay = np.exp(-beta)
        for t in range(T):
            for i in range(n):
                G[t + 1, i] = decay * (G[t, i] + beta * counts[t, i])
        return G

    @jit
    def excitation_beta_series(counts, beta, G):
        # d/d(beta) of excitation_series, sharing its recursion structure.
        T, n = counts.shape
        H = np.zeros((T + 1, n))
        decay = np.exp(-beta)
        for t in range(T):
            for i in range(n):
                H[t + 1, i] = decay * (H[t, i] - G[t, i] + (1.0 - beta) * counts[t, i])
        return H

    @jit
    def loglik_value(counts, G, gamma, mu, A, b0, b1):
        n = counts.shape[1]
        ll = 0.0
        for t in range(b0, b1):
            gt = gamma[t]
            base = mu + np.dot(A, G[t])
            for i in range(n):
                lam = gt * base[i]
                y = counts[t, i]
                if lam <= 0.0:
                    if y > 0.0:
                        return -np.inf
                    continue
                if y > 0.0:
                    ll += y * np.log(lam) - lam
                else:
                    ll -= lam
        return ll

    @jit
    def loglik_grads(counts, G, H, gamma, dgam, mu, A, b0, b1):
        # Partials of the Poisson log likelihood in constrained coordinates
        # (mu, A, beta, cap); the chain rule to unconstrained space is applied
        # by the caller.  dgam[t] is d(gamma_t)/d(cap), zero where clamped.
        n = counts.shape[1]
        dmu = np.zeros(n)
        dA = np.zeros((n, n))
        dbeta = 0.0
        dcap = 0.0
        ll = 0.0
        for t in range(b0, b1):
            gt = gamma[t]
            base = mu + np.dot(A, G[t])
            ah = np.dot(A, H[t])
            for i in range(n):
                lam = gt * base[i]
                y = counts[t, i]
                if lam <= 0.0 and y > 0.0:
                    return -np.inf, dmu, dA, dbeta, dcap
                if lam > 0.0:
                    r = y / lam - 1.0
                    if y > 0.0:
                        ll += y * np.log(lam) - lam
                    else:
                        ll -= lam
                else:
                    r = -1.0  # smooth limit of d(-lam), value term is 0
                w = gt * r
                dmu[i] += w
                for j in range(n):
                    dA[i, j] += w * G[t, j]
                dbeta += w * ah[i]
                dcap += dgam[t] * r * base[i]
        return ll, dmu, dA, dbeta, dcap

    @jit
    def simulate_one(gen, mu, A, beta, cap, floor, g0, n0, horizon):
        # Recursive forward simulation: each bin's draw is appended to the
        # running excitation state before the next bin is simulated.
        n = mu.shape[0]
        out = np.empty((horizon, n), dtype=np.int64)
        g = g0.copy()
        tot = n0
        decay = np.exp(-beta)
        for h in range(horizon):
            gamma = 1.0 - tot / cap  # cap=inf -> gamma=1
            if gamma < floor:
                gamma = floor
            excit = np.dot(A, g)
            for i in range(n):
                lam = gamma * (mu[i] + excit[i])
                out[h, i] = poisson_draw(gen, lam)
            for i in range(n):
                g[i] = decay * (g[i] + beta * out[h, i])
                tot += out[h, i]
        return out

    def simulate_counts(gens, mu, A, beta, cap, floor, g0, n0, horizon):
        # one (horizon, n) trajectory per generator, in order
        out = np.empty((len(gens), horizon, mu.shape[0]), dtype=np.int64)
        for k, gen in enumerate(gens):
            out[k] = simulate_one(gen, mu, A, beta, cap, floor, g0, n0, horizon)
        return out

    return SimpleNamespace(
        poisson_draw=poisson_draw,
        excitation_series=excitation_series,
        excitation_beta_series=excitation_beta_series,
        loglik_value=loglik_value,
        loglik_grads=loglik_grads,
        simulate_counts=simulate_counts,
    )


# ---------------------------------------------------------------------------
# Vectorized numpy fallbacks: the dense kernels and the batched simulation.

_SCAN_BLOCK = 16


def _decayed_scan(x, decay):
    """Rows ``y[t] = decay * (y[t-1] + x[t])`` from ``y[-1] = 0``, as a
    (T+1, n) array whose row 0 is zero, like the loop kernels' output.

    A two-level blocked scan: the rows are viewed as (nb, B, n) blocks, each
    block is scanned by doubling (step s adds ``decay**s`` times the row s
    back), the block-end rows are scanned the same way with factor
    ``decay**B``, and each block gets its predecessor's end row back with
    factors ``decay**(1..B)``.  Every step reads only earlier rows, in an
    order that does not depend on T, so row t is bitwise the same for any
    panel that shares the first t rows.
    """
    T, n = x.shape
    B = _SCAN_BLOCK
    nb = -(-T // B)
    out = np.zeros((nb * B + 1, n))
    np.multiply(x, decay, out=out[1:T + 1])
    y = out[1:].reshape(nb, B, n)
    s = 1
    while s < B:
        y[:, s:] += decay**s * y[:, :-s]
        s *= 2
    ends = y[:, -1].copy()
    factor = decay**B
    s = 1
    while s < nb:
        ends[s:] += factor**s * ends[:-s]
        s *= 2
    y[1:] += decay ** np.arange(1.0, B + 1.0)[:, None] * ends[:-1, None, :]
    return out[:T + 1]


def _excitation_series_np(counts, beta):
    return _decayed_scan(beta * counts, np.exp(-beta))


def _excitation_beta_series_np(counts, beta, G):
    return _decayed_scan((1.0 - beta) * counts - G[:-1], np.exp(-beta))


def _loglik_pieces_np(counts, G, gamma, mu, A, b0, b1):
    Y = counts[b0:b1]
    base = mu[None, :] + G[b0:b1] @ A.T
    lam = gamma[b0:b1, None] * base
    if np.any((lam <= 0.0) & (Y > 0.0)):
        return None
    pos = lam > 0.0
    safe = np.where(pos, lam, 1.0)
    ll = float(np.sum(np.where(Y > 0.0, Y * np.log(safe), 0.0) - lam))
    return ll, base, lam, pos, safe


def _loglik_value_np(counts, G, gamma, mu, A, b0, b1):
    pieces = _loglik_pieces_np(counts, G, gamma, mu, A, b0, b1)
    if pieces is None:
        return -np.inf
    return pieces[0]


def _loglik_grads_np(counts, G, H, gamma, dgam, mu, A, b0, b1):
    n = counts.shape[1]
    pieces = _loglik_pieces_np(counts, G, gamma, mu, A, b0, b1)
    if pieces is None:
        return -np.inf, np.zeros(n), np.zeros((n, n)), 0.0, 0.0
    ll, base, lam, pos, safe = pieces
    Y = counts[b0:b1]
    r = np.where(pos, Y / safe - 1.0, -1.0)
    w = gamma[b0:b1, None] * r
    dmu = w.sum(axis=0)
    dA = w.T @ G[b0:b1]
    dbeta = float(np.sum(w * (H[b0:b1] @ A.T)))
    dcap = float(np.sum(dgam[b0:b1, None] * r * base))
    return ll, dmu, dA, dbeta, dcap


def _poisson_step(gens, lam):
    """One draw per rate of the (K, n) array ``lam``, row k from ``gens[k]``,
    equal to calling ``poisson_draw`` along each row left to right, in the
    integers drawn and in the uniforms consumed."""
    draws = np.zeros(lam.shape, dtype=np.int64)
    by_scalar = ~(lam < _PTRS_SWITCH).all(axis=1)  # a PTRS (or nan) rate in the row
    pos = (lam > 0.0) & ~by_scalar[:, None]
    chunks = []
    for k, (gen, m) in enumerate(zip(gens, pos.sum(axis=1).tolist())):
        if by_scalar[k]:
            draws[k] = [_LOOP_PURE.poisson_draw(gen, x) for x in lam[k]]
        elif m:
            chunks.append(gen.random(m))
    if not chunks:
        return draws
    # inversion by sequential search on every positive rate at once; a cell
    # leaves the search when its uniform is covered, as the scalar loop stops
    u = np.concatenate(chunks)
    rate = lam[pos]
    p = np.fromiter(map(math.exp, (-rate).tolist()), np.float64, rate.size)
    found = np.zeros(rate.size, dtype=np.int64)
    live = np.flatnonzero(u > p)
    rate, p, u = rate[live], p[live], u[live]
    c = p
    j = 0
    while live.size and j < _INVERSION_MAX:
        j += 1
        p = p * (rate / j)
        c = c + p
        found[live] = j
        more = u > c
        live, rate, p, c, u = live[more], rate[more], p[more], c[more], u[more]
    draws[pos] = found
    return draws


def _simulate_counts_np(gens, mu, A, beta, cap, floor, g0, n0, horizon):
    """The loop ``simulate_counts`` with all K trajectories advanced together,
    one numpy step per bin; every row makes the loop's float operations."""
    K, n = len(gens), mu.shape[0]
    out = np.empty((K, horizon, n), dtype=np.int64)
    g = np.tile(g0, (K, 1))
    tot = np.full(K, n0, dtype=np.float64)
    excit = np.empty((K, n))
    decay = np.exp(-beta)
    for h in range(horizon):
        gamma = 1.0 - tot / cap
        gamma = np.where(gamma < floor, floor, gamma)
        for k in range(K):
            excit[k] = np.dot(A, g[k])  # the loop's call: a batched matmul may round otherwise
        draws = _poisson_step(gens, gamma[:, None] * (mu + excit))
        out[:, h] = draws
        g = decay * (g + beta * draws)
        # running totals add the draws one circuit at a time, as the loop does
        tot = np.add.accumulate(np.column_stack((tot, draws)), axis=1)[:, -1]
    return out


# ---------------------------------------------------------------------------
# Path selection.

def _numba_disabled() -> bool:
    return os.environ.get("HSTCONFORMAL_NO_NUMBA", "").strip().lower() in (
        "1",
        "true",
        "yes",
    )


_LOOP_PURE = build_loop_kernels(lambda f: f)

PURE = SimpleNamespace(
    poisson_draw=_LOOP_PURE.poisson_draw,
    excitation_series=_excitation_series_np,
    excitation_beta_series=_excitation_beta_series_np,
    loglik_value=_loglik_value_np,
    loglik_grads=_loglik_grads_np,
    simulate_counts=_simulate_counts_np,
)

JIT = None
if not _numba_disabled():
    try:
        from numba import njit
    except ImportError:
        JIT = None
    else:
        JIT = build_loop_kernels(njit)

USING_NUMBA = JIT is not None
ACTIVE = JIT if USING_NUMBA else PURE
