"""Hot numeric kernels with a numba JIT path and a pure-numpy fallback.

Selection: the JIT path is used when numba imports successfully, unless the
environment variable ``HSTCONFORMAL_NO_NUMBA`` is set to ``1``/``true``/``yes``,
in which case the vectorized numpy implementations are used.  All public
entry points go through ``ACTIVE``.

Guarantees relied on by the rest of the package:

* The RNG-consuming kernels (``poisson_draw``, ``simulate_counts``) run the
  identical draw algorithm on both paths and consume the same uniforms of
  each stream in the same order, so simulated counts are bit-identical
  regardless of path.
* The dense kernels (excitation recursions, likelihood, gradients) agree
  across paths to floating-point roundoff; each path is individually
  deterministic.
* On the pure path both excitation recursions are one blocked decayed scan
  (``_decayed_scan``) instead of a loop over rows.  It sums the same terms
  in another order, so it agrees with the loop kernels to float rounding
  (at most 5e-15 times the largest entry over the tested sizes and decays;
  the tests allow 1e-12), and its row t depends only on the first t input
  rows, bit for bit: the excitation of a history equals the matching row
  of the full panel's.  It walks groups of whole blocks, about 256 KiB
  each, as contiguous row ranges, and adds -0.0 where a doubling step's
  term would cross into the next block, which leaves every row as a scan
  of each block alone would.
* The pure likelihood takes log lambda directly when every rate is
  positive and finite, which leaves every term as the masked form has it;
  otherwise it masks the rates <= 0, which add no log term and have the
  gradient's -1.  On both families a zero rate on a count, or an infinite
  rate on any cell, makes the value -inf with no numpy warning; a value of
  -inf comes with gradients that the fit does not read (zeros on the pure
  path).  A nan rate makes the value nan.  ``loglik_value`` is the value of
  ``loglik_grads`` on both families (``_value_of``): one sum of the terms.
* ``workspace(counts, b0, b1)`` builds the arrays that the dense kernels
  ``excitation_series``, ``excitation_beta_series`` and ``loglik_grads``
  write on that panel and bin range; each family builds its own.  Passed
  as the trailing keyword ``work``, it replaces every (T, n) and (n, n)
  array those calls would allocate: the loop family writes G, H and dA
  into it, the pure family also one scan group's temporary, the block-end
  rows, and every likelihood and gradient intermediate, with the ``Y > 0``
  masks computed once.  The returned G, H and dA are views into the
  workspace, valid until the next call with the same workspace.  The float
  operations, their operand order and the shapes of the reductions are
  those of the allocating call, so the results are bit-identical with or
  without it.  ``fit`` holds one workspace for all its epochs: an
  allocating epoch makes about 32 (T, n) temporaries, and glibc hands much
  of that memory back to the system (by unmapping or trimming the heap), so
  each epoch faults it in anew.
* ``simulate_counts(streams, mu, A, beta, cap, floor, g0, n0, horizon)``
  takes R start rows, the excitation states ``g0`` (R, n) and network
  totals ``n0`` (R,), and R*K streams (``rng.Streams``, one per
  trajectory): streams r*K .. r*K + K-1 start from row r.  It returns
  (R*K, horizon, n) counts, leaving each stream after its trajectory's last
  uniform.  A calibration block is R bins of K scenarios each; a forecast
  is one start row.  The loop family simulates the trajectories one after
  another, each on a ``Generator`` at its stream's state
  (``streams.generator(k)``, written back with ``set_state``); the pure
  path advances all R*K together, one numpy step per bin
  (``_simulate_counts_np``), builds no ``Generator`` but for rows that take
  PTRS draws, and stays bit-identical to the loop, draws and stream states
  alike, by these rules:

  - the K trajectories of a start row share it until their first draws, so
    step 0 computes R excitation rows and R rate rows, one per start;
  - every excitation row is one BLAS gemv, the kernel of the loop's
    ``np.dot(A, g)``: each step makes them with one stacked
    ``np.matmul(A, g[:, :, None])``, which runs one gemv per row, not one
    gemm over the rows, which BLAS may round differently;
  - e^-lambda of a rate row shared by K > 1 streams (below) is
    ``math.exp``'s, the loop's own, one call per rate cell (``_exp_each``),
    so those cells need no guard; on rows that have diverged (later steps,
    or K = 1) and on masked steps it is ``np.exp``, one call over the
    R*K*n cells, which differs from ``math.exp`` in the last ulp on some
    inputs, and a guarded search (``_inversion``) redoes from ``math.exp``
    each cell whose uniform lies within a relative 2**-30 of a threshold it
    is compared with, so every cell makes the loop's comparisons;
  - one ``streams.random(m)`` call hands every row its uniforms, m_k being
    row k's count of positive rates: the values of m_k scalar
    ``Generator.random()`` calls, and a rate <= 0 consumes none;
  - inversion by sequential search runs elementwise on the cells still
    searching, with the loop's cap;
  - a row with a rate >= ``_PTRS_SWITCH`` is drawn by the scalar
    ``poisson_draw`` on a ``Generator`` at its stream's state, which is
    written back, because PTRS consumes a variable number of uniforms;
  - a step whose every rate is positive and below ``_PTRS_SWITCH``
    (``_every_rate_by_inversion``, which nan fails) builds no mask: it
    calls ``streams.random(n)`` with one count, and searches every cell in
    row order; only the other steps mask their rows and cells as above;
  - on such a step, a rate row shared by K > 1 streams (step 0, so every
    one-step call and calibration block) builds each rate cell's
    thresholds once from ``math.exp``'s e^-lambda, as the loop builds
    them, up to the largest of the cell's K uniforms (``_shared_search``):
    the thresholds only grow, so a uniform's count is the number of them
    it exceeds, the loop's, and no rate or e^-lambda is repeated per
    stream; the rows of later steps, and of K = 1, each hold their own
    rates and take the guarded search cell by cell (``_inversion``);
  - the state update makes the loop's float operations in its order; a
    running total is the start total plus the whole number of events drawn
    since, which both families sum exactly, each in its own order, while
    it stays below 2**53; neither family updates after the last step, so a
    one-step call, a calibration block, makes no update.

  Both families raise ``NumericalError`` when a simulated rate is not
  below 2**53 (nan included), as a draw from it could not be held exactly,
  and when a running total reaches 2**53 after a state update.  The pure
  path tests rates only on a step that masks, as a step with every rate
  below ``_PTRS_SWITCH`` needs no test.

Poisson draws use inversion by sequential search below ``_PTRS_SWITCH`` and
Hörmann's PTRS transformed rejection above it, built only on
``Generator.random()`` so the stream is platform-stable.  The search stops
at ``_INVERSION_MAX`` terms.  For the largest uniforms, 1 - 2**-53 and at
some rates 1 - 2**-52, about a quarter of the rates below the switch have
float64 thresholds that never exceed the uniform, so the search returns
``_INVERSION_MAX``, which is not a draw of the Poisson law.  Every search
(``poisson_draw``, ``_search``, ``_shared_search``) stops there alike, so
the draws stay bit-identical across paths.  A fix would change every
search, the JIT build among them, for an event of probability at most
2**-52 per uniform, and is not made.
"""

import math
import os
from types import SimpleNamespace

import numpy as np

from .errors import NumericalError

_PTRS_SWITCH = 30.0
_INVERSION_MAX = 2000  # cap on the sequential search's count
# float64 holds every whole number below it exactly: a simulated rate must lie
# below it, so that a draw does, and so must a running total
_EXACT = 2.0**53


def _value_of(loglik_grads):
    """A family's ``loglik_value``: the value of its ``loglik_grads``, which
    sums the likelihood's terms in their one order.  H = G and dgam = 0 feed
    only the gradients, which are dropped."""

    def loglik_value(counts, G, gamma, mu, A, b0, b1):
        return loglik_grads(counts, G, G, gamma, np.zeros(gamma.shape[0]), mu, A, b0, b1)[0]

    return loglik_value


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
    def excite_into(G, counts, beta):
        # Row t holds the exponentially-decayed excitation feeding bin t,
        # i.e. sum_{t'<t} counts[t'] * beta * exp(-beta * (t - t')).
        # Row T is usable for the first bin after the panel; row 0 stays 0.
        T, n = counts.shape
        decay = np.exp(-beta)
        for t in range(T):
            for i in range(n):
                G[t + 1, i] = decay * (G[t, i] + beta * counts[t, i])
        return G

    @jit
    def excite_beta_into(H, counts, beta, G):
        # d/d(beta) of excitation_series, sharing its recursion structure.
        T, n = counts.shape
        decay = np.exp(-beta)
        for t in range(T):
            for i in range(n):
                H[t + 1, i] = decay * (H[t, i] - G[t, i] + (1.0 - beta) * counts[t, i])
        return H

    @jit
    def loglik_grads_into(dA, counts, G, H, gamma, dgam, mu, A, b0, b1):
        # Partials of the Poisson log likelihood in constrained coordinates
        # (mu, A, beta, cap); the chain rule to unconstrained space is applied
        # by the caller.  dgam[t] is d(gamma_t)/d(cap), zero where clamped.
        n = counts.shape[1]
        dmu = np.zeros(n)
        dA[:, :] = 0.0
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
                # an infinite rate would make 0 * inf in dcap where dgam is 0
                if lam == np.inf or (y > 0.0 and lam <= 0.0):
                    return -np.inf, dmu, dA, dbeta, dcap
                if lam > 0.0:
                    r = y / lam - 1.0
                    if y > 0.0:
                        ll += y * np.log(lam) - lam
                    else:
                        ll -= lam
                elif lam <= 0.0:
                    r = -1.0  # smooth limit of d(-lam), value term is 0
                else:  # a nan rate makes a nan value
                    return lam, dmu, dA, dbeta, dcap
                w = gt * r
                dmu[i] += w
                for j in range(n):
                    dA[i, j] += w * G[t, j]
                dbeta += w * ah[i]
                dcap += dgam[t] * r * base[i]
        return ll, dmu, dA, dbeta, dcap

    # The dense entry points take an optional ``work`` from ``workspace``
    # and write G, H and dA into it instead of allocating them.

    def workspace(counts, b0, b1):
        T, n = counts.shape
        return SimpleNamespace(G=np.zeros((T + 1, n)), H=np.zeros((T + 1, n)),
                               dA=np.empty((n, n)))

    def excitation_series(counts, beta, work=None):
        G = np.zeros((counts.shape[0] + 1, counts.shape[1])) if work is None else work.G
        return excite_into(G, counts, beta)

    def excitation_beta_series(counts, beta, G, work=None):
        H = np.zeros((counts.shape[0] + 1, counts.shape[1])) if work is None else work.H
        return excite_beta_into(H, counts, beta, G)

    def loglik_grads(counts, G, H, gamma, dgam, mu, A, b0, b1, work=None):
        n = counts.shape[1]
        dA = np.empty((n, n)) if work is None else work.dA
        return loglik_grads_into(dA, counts, G, H, gamma, dgam, mu, A, b0, b1)

    @jit
    def simulate_one(gen, mu, A, beta, cap, floor, g0, n0, horizon):
        # Recursive forward simulation: each bin's draw is appended to the
        # running excitation state before the next bin is simulated.
        n = mu.shape[0]
        out = np.empty((horizon, n), dtype=np.int64)
        g = g0.copy()
        tot = n0
        drawn = 0.0  # the whole number of events drawn so far
        decay = np.exp(-beta)
        for h in range(horizon):
            if h > 0:  # the update after the previous step's draws
                for i in range(n):
                    g[i] = decay * (g[i] + beta * out[h - 1, i])
                    drawn += out[h - 1, i]
                tot = n0 + drawn
                if tot >= _EXACT:
                    raise NumericalError("a simulated running total reached 2**53")
            gamma = 1.0 - tot / cap  # cap=inf -> gamma=1
            if gamma < floor:
                gamma = floor
            excit = np.dot(A, g)
            for i in range(n):
                lam = gamma * (mu[i] + excit[i])
                if not lam < _EXACT:
                    raise NumericalError("a simulated rate is not below 2**53")
                out[h, i] = poisson_draw(gen, lam)
        return out

    def simulate_counts(streams, mu, A, beta, cap, floor, g0, n0, horizon):
        # one (horizon, n) trajectory per stream, in order, each drawn from a
        # Generator at its stream's state, whose final state is written back;
        # start row r of g0 and n0 feeds the streams r*K .. r*K + K-1
        out = np.empty((len(streams), horizon, mu.shape[0]), dtype=np.int64)
        K = len(streams) // g0.shape[0]
        for k in range(len(streams)):
            gen = streams.generator(k)
            out[k] = simulate_one(gen, mu, A, beta, cap, floor, g0[k // K], n0[k // K],
                                  horizon)
            streams.set_state(k, gen)
        return out

    return SimpleNamespace(
        poisson_draw=poisson_draw,
        workspace=workspace,
        excitation_series=excitation_series,
        excitation_beta_series=excitation_beta_series,
        loglik_value=_value_of(loglik_grads),
        loglik_grads=loglik_grads,
        simulate_counts=simulate_counts,
    )


# ---------------------------------------------------------------------------
# Vectorized numpy fallbacks: the dense kernels and the batched simulation.

_SCAN_BLOCK = 16
# 256 KiB of float64: a group of blocks and its temporary stay in cache
_SCAN_GROUP_CELLS = 32768


def _scan_output(T, n):
    # zero row 0, then T rows padded to whole blocks
    return np.zeros((-(-T // _SCAN_BLOCK) * _SCAN_BLOCK + 1, n))


def _scan_scratch(T, n):
    # the contiguous temporary of a group of blocks, as many as fit
    # _SCAN_GROUP_CELLS and at least one, and the block-end rows with theirs
    nb = -(-T // _SCAN_BLOCK)
    group = max(1, _SCAN_GROUP_CELLS // (_SCAN_BLOCK * max(n, 1)))
    return np.empty((min(nb, group) * _SCAN_BLOCK, n)), np.empty((2, nb, n))


def _decayed_scan(out, T, decay, scratch=None):
    """Rows ``y[t] = decay * (y[t-1] + x[t])`` from ``y[-1] = 0``, in place.

    ``out`` comes from ``_scan_output`` with ``x`` in rows 1..T; the result
    is ``out[:T+1]``, whose row 0 is zero, like the loop kernels' output.
    ``scratch`` comes from ``_scan_scratch`` and is built when not given.

    A two-level blocked scan on blocks of B rows: each block is scanned by
    doubling (step s adds ``decay**s`` times the row s back), the block-end
    rows are scanned the same way with factor ``decay**B``, and each block
    gets its predecessor's end row back with factors ``decay**(1..B)``.
    Every step reads only earlier rows, in an order that does not depend on
    T, so row t is bitwise the same for any panel that shares the first t
    rows.  The doubling and the carry walk groups of whole blocks, as many
    as the scratch's temporary holds, as contiguous row ranges: a doubling
    step multiplies every row of the group into the temporary, sets the
    entries that would cross into the next block to -0.0, and adds it in;
    x + (-0.0) is x for every x, -0.0 and +0.0 included, so each row makes
    the same float operations in the same order as a scan of each block
    alone.
    """
    n = out.shape[1]
    B = _SCAN_BLOCK
    nb = -(-T // B)
    tmp, (ends, etmp) = _scan_scratch(T, n) if scratch is None else scratch
    g = max(1, len(tmp) // B)  # blocks per group
    out[T + 1:] = 0.0  # as when fresh: padding rows feed no row <= T, but would grow
    y = out[1:]
    for b in range(0, nb, g):
        rows = y[b * B:(b + g) * B]
        part = tmp[:len(rows)]
        blocks = part.reshape(len(rows) // B, B, n)
        np.multiply(rows, decay, out=rows)
        s = 1
        while s < B:
            np.multiply(decay**s, rows[:-s], out=part[:-s])
            blocks[:, B - s:] = -0.0
            rows[s:] += part[:-s]
            s *= 2
    np.copyto(ends, y[B - 1::B])
    factor = decay**B
    s = 1
    while s < nb:
        np.multiply(factor**s, ends[:-s], out=etmp[:nb - s])
        ends[s:] += etmp[:nb - s]
        s *= 2
    powers = decay ** np.arange(1.0, B + 1.0)[:, None]
    for b in range(1, nb, g):
        rows = y[b * B:(b + g) * B]
        part = tmp[:len(rows)]
        k = len(rows) // B
        np.multiply(powers, ends[b - 1:b - 1 + k, None, :], out=part.reshape(k, B, n))
        rows += part
    return out[:T + 1]


class _LoglikBuffers:
    """The (b1-b0, n) arrays of one likelihood evaluation on bins [b0, b1),
    with the counts-invariant masks ``Y > 0`` and its negation."""

    def __init__(self, counts, b0, b1):
        Y = counts[b0:b1]
        self.ypos = Y > 0.0
        self.yzero = ~self.ypos
        self.base, self.lam, self.r, self.tmp = np.empty((4,) + Y.shape)
        self.pos, self.flag = np.empty((2,) + Y.shape, dtype=bool)
        self.dA = np.empty((Y.shape[1], Y.shape[1]))


def _workspace_np(counts, b0, b1):
    T, n = counts.shape
    return SimpleNamespace(G=_scan_output(T, n), H=_scan_output(T, n),
                           scratch=_scan_scratch(T, n),
                           ll=_LoglikBuffers(counts, b0, b1))


def _excitation_series_np(counts, beta, work=None):
    T, n = counts.shape
    out = _scan_output(T, n) if work is None else work.G
    np.multiply(beta, counts, out=out[1:T + 1])
    return _decayed_scan(out, T, np.exp(-beta), None if work is None else work.scratch)


def _excitation_beta_series_np(counts, beta, G, work=None):
    T, n = counts.shape
    out = _scan_output(T, n) if work is None else work.H
    x = out[1:T + 1]
    np.multiply(1.0 - beta, counts, out=x)
    np.subtract(x, G[:-1], out=x)
    return _decayed_scan(out, T, np.exp(-beta), None if work is None else work.scratch)


def _loglik_np(counts, G, gamma, mu, A, b0, b1, buf):
    """The log likelihood of bins [b0, b1), and whether every rate is
    positive and finite.

    Leaves base = mu + G A^T in ``buf.base`` and lam in ``buf.lam``; unless
    every rate is positive and finite, also lam > 0 in ``buf.pos`` and lam
    where positive, else 1, in ``buf.r``.  A zero or infinite rate on a count
    returns -inf at once, with no inf - inf; an infinite rate on an empty
    cell makes the sum -inf by its term -lam, as the masked form takes no
    Y log lam term where Y = 0, and so makes no 0 * log(inf).  A nan rate
    makes the sum nan.
    """
    Y = counts[b0:b1]
    base, lam, safe, tmp = buf.base, buf.lam, buf.r, buf.tmp
    np.matmul(G[b0:b1], A.T, out=base)
    np.add(mu[None, :], base, out=base)
    np.multiply(gamma[b0:b1, None], base, out=lam)
    positive = 0.0 < lam.min(initial=np.inf) and lam.max(initial=0.0) < np.inf
    src = lam
    if not positive:
        # a count where the rate is 0 or +inf: -inf, as Y log lam - lam tends there
        np.less_equal(lam, 0.0, out=buf.flag)
        np.equal(lam, np.inf, out=buf.pos)
        np.logical_or(buf.flag, buf.pos, out=buf.flag)
        np.logical_and(buf.flag, buf.ypos, out=buf.flag)
        if buf.flag.any():
            return -np.inf, False
        np.greater(lam, 0.0, out=buf.pos)
        np.copyto(safe, 1.0)
        np.copyto(safe, lam, where=buf.pos)
        src = safe
    np.log(src, out=tmp)
    np.multiply(Y, tmp, out=tmp, where=True if positive else buf.ypos)
    if not positive:
        np.copyto(tmp, 0.0, where=buf.yzero)
    # where every rate is positive and finite, log lam is finite, so Y log lam
    # is +-0 where Y = 0 and +-0 - lam is -lam: the zeroed terms, bit for bit
    np.subtract(tmp, lam, out=tmp)
    return float(np.sum(tmp)), positive


def _loglik_grads_np(counts, G, H, gamma, dgam, mu, A, b0, b1, work=None):
    n = counts.shape[1]
    buf = _LoglikBuffers(counts, b0, b1) if work is None else work.ll
    ll, positive = _loglik_np(counts, G, gamma, mu, A, b0, b1, buf)
    if ll == -np.inf:
        # no gradient, which the fit does not read at a likelihood that is not
        # finite: an infinite base would make 0 * inf in dcap where dgam is 0
        return -np.inf, np.zeros(n), np.zeros((n, n)), 0.0, 0.0
    Y = counts[b0:b1]
    base, r, w, tmp = buf.base, buf.r, buf.lam, buf.tmp
    # r = Y / lam - 1 where lam > 0, else -1, over lam or the masked branch's
    # safe lam; w takes the buffer of lam, which the gradients do not read
    np.divide(Y, buf.lam if positive else r, out=r)
    np.subtract(r, 1.0, out=r)
    if not positive:
        np.logical_not(buf.pos, out=buf.flag)
        np.copyto(r, -1.0, where=buf.flag)
    np.multiply(gamma[b0:b1, None], r, out=w)
    dmu = w.sum(axis=0)
    dA = np.matmul(w.T, G[b0:b1], out=buf.dA)
    np.matmul(H[b0:b1], A.T, out=tmp)
    np.multiply(w, tmp, out=tmp)
    dbeta = float(np.sum(tmp))
    np.multiply(dgam[b0:b1, None], r, out=tmp)
    np.multiply(tmp, base, out=tmp)
    dcap = float(np.sum(tmp))
    return ll, dmu, dA, dbeta, dcap


# a uniform within this relative distance of a threshold that the search
# built from np.exp's e^-rate is redone from math.exp (_search, _inversion)
_GUARD = 2.0**-30


def _exp_each(rate):
    """e^-rate by ``math.exp``, as ``poisson_draw`` takes it, one call per
    rate, in the shape of ``rate``."""
    return np.fromiter(map(math.exp, (-rate).ravel().tolist()), np.float64,
                       rate.size).reshape(rate.shape)


def _search(rate, p, u, margin):
    """Inversion by sequential search on every cell at once, making
    ``poisson_draw``'s float operations for rate[i] on uniform u[i] from
    p[i] as e^-rate: a cell goes on while its uniform exceeds the threshold
    by a relative ``margin`` and leaves when it does not.  Returns the counts
    and the indices of the cells whose uniform is not below their last
    threshold by that margin, the cells the margin flags.

    With margin 0 the search makes the loop's comparisons, and its counts
    are the loop's when p is ``math.exp(-rate)``.  With ``_GUARD``, the
    thresholds only grow, so an unflagged cell clears every one it meets by
    the margin, and its count is the one from any p within 2**-40 of
    ``math.exp``'s: thresholds from the two drift apart by at most about
    2**-40 + 4j * 2**-53 relative, below the margin for every j up to
    ``_INVERSION_MAX``.
    """
    found = np.zeros(rate.size, dtype=np.int64)
    above = u * (1.0 - margin)
    last = p.copy()  # the last threshold each cell is compared with
    live = np.flatnonzero(above > p)
    rate, p, above = rate[live], p[live], above[live]
    c = p
    j = 0
    while live.size and j < _INVERSION_MAX:
        j += 1
        p = p * (rate / j)
        c = c + p
        found[live] = j
        last[live] = c
        more = above > c
        live, rate, p, c, above = live[more], rate[more], p[more], c[more], above[more]
    return found, np.flatnonzero(u * (1.0 + margin) > last)


def _shared_search(rate, p, u):
    """``poisson_draw``'s counts on R*K*n cells whose rates repeat along K:
    rate cell (r, 0, i) of the (R, 1, n) ``rate`` and ``p``, ``math.exp``'s
    e^-rate, draws on the K uniforms u[r, :, i] of the (R, K, n) ``u``.  A
    cell's thresholds c_0, c_1, ... do not depend on its uniform, so they
    are built once per rate cell, as the loop builds them, until no uniform
    exceeds one or ``_INVERSION_MAX`` are counted.  As they only grow, a
    uniform's count is the number of c_0, ..., c_(_INVERSION_MAX - 1) that
    it exceeds, the loop's.  Returns the (R, K, n) counts.
    """
    top = u.max(axis=1, keepdims=True)
    found = np.zeros(u.shape, dtype=np.int16)  # holds _INVERSION_MAX, and adds faster
    c = p
    j = 0
    while j < _INVERSION_MAX and (top > c).any():
        found += u > c
        j += 1
        p = p * (rate / j)
        c = c + p
    return found.astype(np.int64)


def _inversion(rate, p, u):
    """``poisson_draw``'s counts for positive rates below ``_PTRS_SWITCH``
    on the flat cells of ``rate``, one uniform each in ``u``, from p,
    ``np.exp``'s e^-rate, which differs from ``math.exp``'s in the last ulp
    on some inputs: a search with margin ``_GUARD`` flags the cells whose
    comparisons could differ (a uniform lands within 2**-30 of a threshold
    about once in 2**29 comparisons at most), and they are redone from
    ``math.exp`` with margin 0.
    """
    found, flagged = _search(rate, p, u, _GUARD)
    if flagged.size:
        rate = rate[flagged]
        found[flagged] = _search(rate, _exp_each(rate), u[flagged], 0.0)[0]
    return found


def _every_rate_by_inversion(lam):
    """Whether every rate is positive and below ``_PTRS_SWITCH``, so that
    each takes one uniform and the inversion; nan fails both tests."""
    return 0.0 < lam.min(initial=np.inf) and lam.max(initial=0.0) < _PTRS_SWITCH


def _inversion_draws(streams, m, rate, p):
    """``_inversion`` on the next m_k uniforms of each stream k, ``m`` one
    count per stream: ``rate`` and ``p`` hold row k's m_k cells, row after
    row."""
    u = streams.random(m)
    # row k's first m[k] uniforms, row after row: the order of the cells
    u = u[np.arange(u.shape[1]) < m[:, None]] if u.size > rate.size else u.ravel()
    return _inversion(rate, p, u)


def _poisson_step(streams, lam):
    """One draw per rate for each stream: row k equals calling
    ``poisson_draw`` along row k of ``lam`` left to right on a Generator at
    stream k's state, in the integers drawn and in the uniforms consumed.
    ``lam`` is (R, n) with R dividing the stream count: rate row r is shared
    by the K = len(streams) / R streams r*K .. r*K + K-1.

    When every rate takes the inversion (``_every_rate_by_inversion``), each
    stream hands over n uniforms and every cell is searched, with no mask:
    a shared rate row takes its n exps from ``math.exp`` and builds its
    thresholds once, for all K of its streams' uniforms
    (``_shared_search``), and unshared rows take ``np.exp`` and the guarded
    search cell by cell (``_inversion``).  Otherwise a rate that is not
    below 2**53 (nan included) raises NumericalError before any draw, the
    rows with a PTRS rate are drawn by the scalar ``poisson_draw``, and the
    positive rates of the other rows by the inversion, a rate <= 0 drawing
    0 from no uniform.
    """
    R, n = lam.shape
    K = len(streams) // R

    def per_stream(*arrays):  # each shared row repeated for its K streams
        return arrays if K == 1 else (np.repeat(a, K, axis=0) for a in arrays)

    if _every_rate_by_inversion(lam):
        u = streams.random(n)
        if K == 1:
            return _inversion(lam.ravel(), np.exp(-lam).ravel(), u.ravel()).reshape(R, n)
        lam = lam[:, None]
        return _shared_search(lam, _exp_each(lam), u.reshape(R, K, n)).reshape(R * K, n)
    if not (lam < _EXACT).all():  # nan fails this test too
        raise NumericalError("a simulated rate is not below 2**53")
    by_scalar = ~(lam < _PTRS_SWITCH).all(axis=1)  # a PTRS rate in the row
    pos = (lam > 0.0) & ~by_scalar[:, None]
    exp = np.zeros(lam.shape)
    exp[pos] = np.exp(-lam[pos])
    lam, by_scalar, pos, exp = per_stream(lam, by_scalar, pos, exp)
    draws = np.zeros(lam.shape, dtype=np.int64)
    for k in np.flatnonzero(by_scalar).tolist():
        gen = streams.generator(k)
        draws[k] = [_LOOP_PURE.poisson_draw(gen, x) for x in lam[k].tolist()]
        streams.set_state(k, gen)
    if pos.any():
        draws[pos] = _inversion_draws(streams, pos.sum(axis=1), lam[pos], exp[pos])
    return draws


def _simulate_counts_np(streams, mu, A, beta, cap, floor, g0, n0, horizon):
    """The loop ``simulate_counts`` with all trajectories advanced together,
    one numpy step per bin; every row makes the loop's float operations.
    No update follows the last step, so a one-step call, a calibration
    block, makes none."""
    out = np.empty((len(streams), horizon, mu.shape[0]), dtype=np.int64)
    # one state row per start until the first draws, then one per trajectory
    g = g0
    tot = start = np.asarray(n0, dtype=np.float64)
    decay = np.exp(-beta)
    for h in range(horizon):
        if h:  # the update after the previous step's draws
            if h == 1:
                K = len(streams) // g0.shape[0]
                g, start, drawn = np.repeat(g, K, axis=0), np.repeat(start, K), 0.0
            g = decay * (g + beta * draws)
            # below 2**53 whole numbers add exactly in any order, so ``drawn``
            # is the loop's; summed as floats, a sum that reaches 2**53 stays
            # at or above it rather than wrapping
            drawn = drawn + draws.sum(axis=1, dtype=np.float64)
            tot = start + drawn
            if (tot >= _EXACT).any():
                raise NumericalError("a simulated running total reached 2**53")
        gamma = 1.0 - tot / cap
        gamma = np.where(gamma < floor, floor, gamma)
        # stacked matmul runs one BLAS gemv per row: the loop's np.dot(A, g)
        excit = np.matmul(A, g[:, :, None])[:, :, 0]
        draws = _poisson_step(streams, gamma[:, None] * (mu + excit))
        out[:, h] = draws
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
    workspace=_workspace_np,
    excitation_series=_excitation_series_np,
    excitation_beta_series=_excitation_beta_series_np,
    loglik_value=_value_of(_loglik_grads_np),
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
