"""Benchmark the compiled kernel family against the pure fallback path.

Runs every kernel that has both a numba build and a pure build, times each
side, and cross-checks their outputs.  The RNG kernel is fed identically
seeded generators, so its draws must agree exactly; the dense kernels may
differ by float summation order only.

Usage:
    python3 benchmarks/bench_kernels.py [--T 400] [--n 24] [--repeats 200]

Without numba (not importable, or HSTCONFORMAL_NO_NUMBA set) only the pure
kernels are timed, and the jit, speedup and diff columns read
"jit unavailable".
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from hstconformal._kernels import JIT, PURE


def best_time(fn, repeats: int) -> float:
    # min over repeats is the standard noise-resistant point estimate
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best


def max_abs_diff(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def build_cases(T: int, n: int, horizon: int):
    rng = np.random.default_rng(0)
    counts = rng.poisson(2.0, (T, n)).astype(float)
    beta = 0.8
    mu = 0.5 + rng.random(n)
    A = rng.random((n, n)) * (0.5 / n)
    gamma = np.ones(T)
    dgam = np.zeros(T)
    G = PURE.excitation_series(counts, beta)
    H = PURE.excitation_beta_series(counts, beta, G)
    g0 = np.zeros(n)

    def fresh_pair():
        return np.random.default_rng(7), np.random.default_rng(7)

    cases = []

    def dense(name, shape, getter):
        cases.append(
            (
                name,
                shape,
                lambda impl: (lambda: getter(impl)),
                lambda: max_abs_diff(getter(JIT), getter(PURE)),
            )
        )

    dense(
        "excitation_series",
        f"T={T} n={n}",
        lambda impl: impl.excitation_series(counts, beta),
    )
    dense(
        "excitation_beta_series",
        f"T={T} n={n}",
        lambda impl: impl.excitation_beta_series(counts, beta, G),
    )
    dense(
        "loglik_value",
        f"T={T} n={n}",
        lambda impl: impl.loglik_value(counts, G, gamma, mu, A, 0, T),
    )

    def grads(impl):
        ll, dmu, dA, dbeta, dcap = impl.loglik_grads(
            counts, G, H, gamma, dgam, mu, A, 0, T
        )
        return np.concatenate([[ll], dmu, dA.ravel(), [dbeta, dcap]])

    dense("loglik_grads", f"T={T} n={n}", grads)

    def sim(impl, gen):
        return impl.simulate_counts(gen, mu, A, beta, np.inf, 0.0, g0, 0.0, horizon)

    cases.append(
        (
            "simulate_counts",
            f"h={horizon} n={n}",
            lambda impl: (lambda: sim(impl, np.random.default_rng(7))),
            lambda: max_abs_diff(sim(JIT, fresh_pair()[0]), sim(PURE, fresh_pair()[1])),
        )
    )
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--T", type=int, default=400, help="panel length")
    parser.add_argument("--n", type=int, default=24, help="circuit count")
    parser.add_argument("--horizon", type=int, default=52, help="simulation bins")
    parser.add_argument("--repeats", type=int, default=200, help="timing repeats")
    args = parser.parse_args(argv)

    cases = build_cases(args.T, args.n, args.horizon)

    # first call per kernel triggers compilation; exclude it from timing
    if JIT is not None:
        for _, _, make, _ in cases:
            make(JIT)()

    header = f"{'kernel':<24}{'size':<16}{'pure':>12}{'jit':>12}{'speedup':>9}{'max|diff|':>12}"
    print(header)
    print("-" * len(header))
    for name, shape, make, check in cases:
        t_pure = best_time(make(PURE), args.repeats)
        row = f"{name:<24}{shape:<16}{t_pure * 1e3:>10.3f}ms"
        if JIT is None:
            print(f"{row}  jit unavailable")
            continue
        t_jit = best_time(make(JIT), args.repeats)
        print(f"{row}{t_jit * 1e3:>10.3f}ms{t_pure / t_jit:>8.1f}x{check():>12.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
