"""Benchmark the topology-tied fit against the free fit: epoch cost and held-out fit.

``fit(panel, topo)`` ties the coupling to the topology, A = B[s(i), s(j)]
with B an (m, m) matrix over the substations, and runs its excitation scans
on the substation totals; ``fit(panel, None)`` fits the free (n, n) A.
This script compares the two on ``generate_synthetic`` panels.

The first table times whole fits of TIMING_EPOCHS epochs at the training
sizes of the ``run-fit`` and ``evaluate-qr`` workloads, (299, 24) with
m = 6 and (299, 96) with m = 12, and at a paper-scale (60, 500) with
m = 30, and reports milliseconds per epoch: the best of TIMING_RUNS fits,
over the epochs it ran.

The second table fits each side on the first 299 of 400 bins and scores
bins 299-398 given the bins before them, for seeds 1-10 at (24, 6, 400)
with 1000 epochs and at (96, 12, 400) with 300 epochs (the fit seed is the
panel seed).  It reports each fit's held-out log likelihood minus that of
the constant-rate model (mu the training mean, A = 0, no cap), so a value
above 0 beats the constant rate, and its largest branching ratio, the
expected offspring count of an event (row sum of A times the kernel's
summed mass, as the model's explosive-excitation warning computes it).

Usage:
    python3 benchmarks/bench_fit.py [--seeds 10] [--shrink 1] [--json PATH]

``--shrink K`` divides every n, m, T and epoch count by K (at least 1
circuit per substation, 8 bins and 2 epochs), for a quick run; ``--json``
writes both tables, with the versions and kernel path they ran on
(``benchmarks/BENCH_fit.json``).  BLAS runs on one thread, as in
``perfbench/run.py``.  The script gates nothing: it exits 0 once both
tables are printed.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

from hstconformal import (  # noqa: E402
    FitConfig, HawkesModel, fit, generate_synthetic, log_likelihood)
from hstconformal._kernels import USING_NUMBA  # noqa: E402

TIMING_SIZES = ((299, 24, 6), (299, 96, 12), (60, 500, 30))  # (T, n, m)
TIMING_EPOCHS = 50
TIMING_RUNS = 3
HELDOUT_SIZES = ((24, 6, 400, 1000), (96, 12, 400, 300))  # (n, m, T, epochs)
TRAIN_SHARE = (299, 400)  # fit on the first 299 of 400 bins, score to bin 398


def quiet_fit(panel, topo, epochs, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # supercritical free fits
        return fit(panel, topo, FitConfig(epochs=epochs), seed=seed)


def ms_per_epoch(Y, topo, epochs) -> float:
    best = math.inf
    for _ in range(TIMING_RUNS):
        t0 = time.perf_counter()
        model = quiet_fit(Y, topo, epochs, 0)
        best = min(best, (time.perf_counter() - t0) / model.meta.epochs_run)
    return best * 1e3


def shrunk(k, n, m, T, epochs):
    m = max(1, m // k)
    return max(m, n // k), m, max(8, T // k), max(2, epochs // k)


def print_timing_table(k) -> list:
    header = f"{'fit size':<24}{'epochs':>7}{'free':>12}{'tied':>12}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    rows = []
    for T, n, m in TIMING_SIZES:
        n, m, T, epochs = shrunk(k, n, m, T, TIMING_EPOCHS)
        panel, topo, _ = generate_synthetic(n, m, T, seed=1)
        free, tied = (ms_per_epoch(panel.Y, t, epochs) for t in (None, topo))
        rows.append({"T": T, "n": n, "m": m, "epochs": epochs,
                     "free_ms_per_epoch": round(free, 4), "tied_ms_per_epoch": round(tied, 4)})
        print(f"{f'T={T} n={n} m={m}':<24}{epochs:>7}{free:>10.3f}ms{tied:>10.3f}ms"
              f"{free / tied:>8.1f}x")
    return rows


def print_heldout_table(k, seeds) -> list:
    header = (f"{'panel':<20}{'seed':>5}{'epochs':>7}{'free':>10}{'tied':>10}"
              f"{'free BR':>9}{'tied BR':>9}")
    print("held-out log likelihood minus the constant-rate model's, and branching ratios")
    print(header)
    print("-" * len(header))
    rows = []
    for size in HELDOUT_SIZES:
        n, m, T, epochs = shrunk(k, *size)
        train = T * TRAIN_SHARE[0] // TRAIN_SHARE[1]
        for seed in range(1, seeds + 1):
            panel, topo, _ = generate_synthetic(n, m, T, seed=seed)
            Y = panel.Y[:T - 1]
            constant = HawkesModel(mu=Y[:train].mean(axis=0), A=np.zeros((n, n)), beta=1.0)
            base = log_likelihood(constant, Y, (train, T - 1))
            row = {"n": n, "m": m, "T": T, "train_bins": train, "epochs": epochs, "seed": seed,
                   "constant_heldout": round(base, 6)}
            for side, t in (("free", None), ("tied", topo)):
                model = quiet_fit(Y[:train], t, epochs, seed)
                row[f"{side}_heldout_minus_constant"] = round(
                    log_likelihood(model, Y, (train, T - 1)) - base, 6)
                row[f"{side}_branching_ratio"] = round(model.branching_ratio, 6)
            rows.append(row)
            print(f"{f'n={n} m={m} T={T}':<20}{seed:>5}{epochs:>7}"
                  f"{row['free_heldout_minus_constant']:>10.2f}"
                  f"{row['tied_heldout_minus_constant']:>10.2f}"
                  f"{row['free_branching_ratio']:>9.3f}{row['tied_branching_ratio']:>9.3f}")
    return rows


def summary(rows) -> dict:
    return {
        "tied_at_least_free_on_every_seed": all(
            r["tied_heldout_minus_constant"] >= r["free_heldout_minus_constant"] for r in rows),
        "tied_subcritical_on_every_seed": all(r["tied_branching_ratio"] < 1.0 for r in rows),
        "free_supercritical_seeds": sum(r["free_branching_ratio"] > 1.0 for r in rows),
        "fits_per_side": len(rows),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="held-out seeds 1..SEEDS")
    parser.add_argument("--shrink", type=int, default=1,
                        help="divide every n, m, T and epoch count by this")
    parser.add_argument("--json", help="write both tables to this file")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.shrink < 1:
        parser.error("--seeds and --shrink must be at least 1")

    timing = print_timing_table(args.shrink)
    print()
    heldout = print_heldout_table(args.shrink, args.seeds)
    result = summary(heldout)
    print(", ".join(f"{k}: {v}" for k, v in result.items()))
    if args.json:
        doc = {
            "benchmark": "topology-tied fit against the free fit: ms per epoch, and held-out "
                         "log likelihood and branching ratio",
            "command": (f"python3 benchmarks/bench_fit.py --seeds {args.seeds} "
                        f"--shrink {args.shrink} --json {args.json}"),
            "timing": f"best of {TIMING_RUNS} fits, wall time over the epochs run",
            "kernel_path": "numba" if USING_NUMBA else "pure numpy",
            "blas_threads": 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "timing_rows": timing,
            "heldout_rows": heldout,
            "summary": result,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
