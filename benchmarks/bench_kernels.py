"""Benchmark the compiled kernel family against the pure fallback path.

Runs every kernel that has both a numba build and a pure build, times each
side, and cross-checks their outputs.  The RNG kernel is fed identically
seeded generators, one per scenario, so its draws must agree exactly; the
dense kernels may differ by float summation order only.

A second table times the pure excitation recursions (one blocked numpy
scan) and the pure scenario simulation (all K trajectories per numpy step)
against the loop reference: the numba source run as plain Python, row by
row, trajectory by trajectory and circuit by circuit.  It needs no numba,
so it always has numbers; the simulation row's max diff must read 0.

Usage:
    python3 benchmarks/bench_kernels.py [--T 400] [--n 24] [--horizon 52]
        [--repeats 200]

Each timing is the best of ``--repeats`` calls, or of as many as fit in
TIME_BUDGET_S seconds (at least one).  Without numba (not importable, or
HSTCONFORMAL_NO_NUMBA set) the jit, speedup and diff columns of the first
table read "jit unavailable".
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from hstconformal._kernels import _LOOP_PURE, JIT, PURE

TIME_BUDGET_S = 2.0
K = 200  # simulated scenarios per simulate_counts call, as in a forecast


def best_time(fn, repeats: int, inputs=tuple) -> float:
    # min over repeats is the standard noise-resistant point estimate; the
    # budget keeps the scalar loop reference affordable on large panels;
    # inputs() builds fresh arguments outside the timed region
    best = math.inf
    stop = time.perf_counter() + TIME_BUDGET_S
    for _ in range(repeats):
        args = inputs()
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
        if t0 + dt > stop:
            break
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

    def fresh_gens():
        # one generator per scenario, consumed by the call
        return [np.random.default_rng([7, k]) for k in range(K)]

    cases = []

    def dense(name, shape, getter):
        cases.append(
            (
                name,
                shape,
                lambda impl: (lambda: getter(impl)),
                lambda a, b: max_abs_diff(getter(a), getter(b)),
                tuple,
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

    def sim(impl, gens):
        return impl.simulate_counts(gens, mu, A, beta, np.inf, 0.0, g0, 0.0, horizon)

    cases.append(
        (
            "simulate_counts",
            f"K={K} h={horizon} n={n}",
            lambda impl: (lambda gens: sim(impl, gens)),
            lambda a, b: max_abs_diff(sim(a, fresh_gens()), sim(b, fresh_gens())),
            lambda: (fresh_gens(),),
        )
    )
    return cases


def print_table(cases, base, new, labels, repeats):
    # speedup is the base time over the new time; max|diff| compares outputs
    header = (f"{'kernel':<24}{'size':<20}{labels[0]:>12}{labels[1]:>12}"
              f"{'speedup':>9}{'max|diff|':>12}")
    print(header)
    print("-" * len(header))
    for name, shape, make, check, inputs in cases:
        t_base = best_time(make(base), repeats, inputs)
        row = f"{name:<24}{shape:<20}{t_base * 1e3:>10.3f}ms"
        if new is None:
            print(f"{row}  {labels[1]} unavailable")
            continue
        t_new = best_time(make(new), repeats, inputs)
        print(f"{row}{t_new * 1e3:>10.3f}ms{t_base / t_new:>8.1f}x{check(base, new):>12.3g}")


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
        for _, _, make, _, inputs in cases:
            make(JIT)(*inputs())

    print_table(cases, PURE, JIT, ("pure", "jit"), args.repeats)
    print()
    looped = [c for c in cases if not c[0].startswith("loglik")]
    print_table(looped, _LOOP_PURE, PURE, ("loop ref", "pure"), args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
