"""Benchmark the compiled kernel family against the pure fallback path.

Runs every kernel that has both a numba build and a pure build, times each
side, and cross-checks their outputs.  The RNG kernel is fed identically
seeded streams (``rng.streams``, one per scenario), so its draws must agree
exactly; the dense kernels may differ by float summation order only.

A second table times the pure excitation recursions (one blocked numpy
scan) and the pure scenario simulation (all K trajectories per numpy step)
against the loop reference: the numba source run as plain Python, row by
row, trajectory by trajectory and circuit by circuit.  It needs no numba,
so it always has numbers; the simulation rows' max diffs must read 0, and
the recursion rows' must be at most RECURSION_RTOL times the larger of 1
and the reference's largest entry, the bound of the tier-1 recursion test.
The simulation runs at ``--horizon`` steps, a forecast, and at one step, a
calibration block of one bin; both tables have a row for each.  Their rates
are all positive and below ``_PTRS_SWITCH``, so every step takes the
unmasked Poisson branch; a check after the second table simulates with a
zero-rate circuit and a circuit that the excitation lifts over the switch
in some trajectories, so that steps take the masked branch and mix PTRS
rows with inversion rows.  It prints how many trajectories' draws or final
stream states differ from the loop reference's, which must be 0.

A third table times the per-trajectory streams and their first uniforms:
the scalar loop ``[rng.generator(s, k).random(24) for s in seeds for k in
range(K)]`` against ``rng.streams(seeds, K).random(24)``, and the seeding
``rng.streams(seeds, K)`` alone.  It runs one seed at K = 1, 10 and 200,
and the 100 seeds that ``calibrate`` derives for 100 calibration bins at
K = 10 and 200, as the ``calibrate`` calls of the CLI commands seed them.
Its mismatch column counts rows whose uniforms or final state differ from
the loop's, over five seeds of one to four 32-bit words in the one-seed
rows; it must read 0.

A fourth table times whole ``fit`` calls at the sizes of the ``run-fit``
and ``evaluate-qr`` fits, (300, 24) and (300, 96) at the default ``--T``
and ``--n`` and scaled with them, for FIT_EPOCHS epochs.  It reports wall
time, system time (``ru_stime``) and minor page faults (``ru_minflt``)
per fit from ``resource.getrusage``, once with the dense kernels called
without the fit's workspace, allocating every array each epoch, and once
as ``fit`` runs them, on one workspace.  The allocator's cost shows only
here: glibc hands much of an epoch's freed memory back to the system,
unmapping arrays above its mmap threshold and trimming the top of the
heap, and the next epoch faults it in again, page by page, in system
time.  The first two tables cannot see that: a best-of-N loop gets back
the memory it just freed, and its best call is one that did not fault.
At (300, 96), on a 2-vCPU VM, the two allocating scans and the gradient
kernel summed to 1.5-1.9 ms best-of-1000, yet the allocating fit took
3.3-5.9 ms per epoch, 0.6-0.8 ms of it system time; on the workspace it
took 2.3-2.5 ms with no system time to speak of.  The fault count also
depends on the state of the heap: at (300, 24) this script's allocating
fits fault about 100 times each, while the 1000-epoch (301, 24) fit of a
``run-fit`` command faulted 95,000-108,000 times.  So compare the two
columns of one run, and measure a command with ``getrusage`` around it.

A fifth table times the calibration walk: the per-bin walk, one one-step
``simulate_trajectory`` and one ``score_bin`` per bin, against ``calibrate``,
which simulates and scores blocks of consecutive bins with one kernel call
and one scoring reduction each.  It runs on a synthetic panel and its
truth model, scoring the last quarter of the bins, at (n, K) = (24, 10),
(96, 10) and (24, 200) for --n 24, n scaled with --n; the default --T
gives 100 calibration bins.  The per-bin walk rescans each bin's history,
as ``simulate_trajectory`` does, where ``calibrate`` scans the panel once.  Its
mismatch column counts bins whose scores differ from the per-bin walk's;
it must read 0.  ``--json PATH`` writes the second table's recursion and
simulation rows, the stream table, the fit table and this table to PATH,
with the versions and kernel path they ran on
(``benchmarks/BENCH_simulate.json``).

Usage:
    python3 benchmarks/bench_kernels.py [--T 400] [--n 24] [--horizon 52]
        [--repeats 200] [--json PATH]

Each timing is the best of ``--repeats`` calls, or of as many as fit in
TIME_BUDGET_S seconds (at least one).  Without numba (not importable, or
HSTCONFORMAL_NO_NUMBA set) the jit, speedup and diff columns of the first
table read "jit unavailable".  The script exits with status 1 when a stream,
masked-step or calibration mismatch count or a simulation max diff is not 0,
or when a recursion max diff exceeds its bound.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import platform
import resource
import sys
import time
import warnings

import numpy as np

from hstconformal import (FitConfig, calibrate, fit, generate_synthetic, rng, score_bin,
                          simulate_trajectory, training_scale)
from hstconformal._kernels import _LOOP_PURE, _PTRS_SWITCH, ACTIVE, JIT, PURE, USING_NUMBA

TIME_BUDGET_S = 2.0
K = 200  # simulated scenarios per simulate_counts call, as in a forecast
# (seeds, K): a synthetic panel, a calibration bin and a forecast, then the
# calibration bins of a command at its default and forecast scenario counts
STREAM_SIZES = ((1, 1), (1, 10), (1, 200), (100, 10), (100, 200))
STREAM_DRAWS = 24  # uniforms per row: one per circuit of a 24-circuit panel
# small, one-word, two-word and post-pool (four-word) seeds
STREAM_SEEDS = (0, 5, 2**32 + 1, 2**64 - 1, 2**100 + 3)
FIT_SIZES = ((300, 24), (300, 96))  # (T, n) at --T 400 --n 24
FIT_EPOCHS = 100
FIT_RUNS = 3  # fits per cell, fewer when --repeats is smaller
# (n, m, K) at --n 24: the forecast-sim and evaluate-qr panels at the
# default scenario count, and forecast-sim's 200 scenarios
CAL_SIZES = ((24, 6, 10), (96, 12, 10), (24, 6, 200))
CAL_SEED = 5
RECURSION_RTOL = 1e-12  # pure G and H off the loop reference, times max(1, max|ref|)


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


def max_abs(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def compare(ref, got) -> tuple:
    # the largest difference from the reference, and the reference's largest entry
    ref = np.asarray(ref, dtype=float)
    return max_abs(ref - np.asarray(got, dtype=float)), max_abs(ref)


def build_cases(T: int, n: int, horizon: int):
    gen = np.random.default_rng(0)
    counts = gen.poisson(2.0, (T, n)).astype(float)
    beta = 0.8
    mu = 0.5 + gen.random(n)
    A = gen.random((n, n)) * (0.5 / n)
    gamma = np.ones(T)
    dgam = np.zeros(T)
    G = PURE.excitation_series(counts, beta)
    H = PURE.excitation_beta_series(counts, beta, G)
    g0 = np.zeros((1, n))  # one start row for all K trajectories
    n0 = np.zeros(1)

    def fresh_streams():
        # one stream per scenario, consumed by the call
        return rng.streams(7, K)

    cases = []

    def dense(name, shape, getter):
        cases.append(
            (
                name,
                shape,
                lambda impl: (lambda: getter(impl)),
                lambda a, b: compare(getter(a), getter(b)),
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

    def sim(impl, streams, steps):
        return impl.simulate_counts(streams, mu, A, beta, np.inf, 0.0, g0, n0, steps)

    # a forecast, and a calibration block of one bin
    for steps in dict.fromkeys((horizon, 1)):
        cases.append(
            (
                "simulate_counts",
                f"K={K} h={steps} n={n}",
                lambda impl, steps=steps: (lambda streams: sim(impl, streams, steps)),
                lambda a, b, steps=steps: compare(sim(a, fresh_streams(), steps),
                                                  sim(b, fresh_streams(), steps)),
                lambda: (fresh_streams(),),
            )
        )
    return cases


def masked_mismatches(n: int, horizon: int) -> tuple:
    # the pure simulation where steps take the masked Poisson branch: circuit
    # 0 has rate 0 and circuit 1 starts just below _PTRS_SWITCH, which the
    # excitation from circuit 2 lifts it over in some trajectories and steps;
    # returns the trajectories whose draws or final stream state differ from
    # the loop reference's, and the steps with a row of each kind
    n = max(n, 3)
    mu = 0.5 + np.random.default_rng(1).random(n)
    mu[:3] = 0.0, _PTRS_SWITCH - 0.5, 3.0
    A = np.zeros((n, n))
    A[1, 2] = 0.4
    streams = [rng.streams(7, K) for _ in range(2)]
    ref, got = (impl.simulate_counts(s, mu, A, 1.0, np.inf, 0.0, np.zeros((1, n)), np.zeros(1),
                                     max(horizon, 5))
                for impl, s in zip((_LOOP_PURE, PURE), streams))
    bad = int(((ref != got).any(axis=(1, 2)) | (streams[0].words != streams[1].words).any(axis=1))
              .sum())
    # replay the rates (gamma is 1 at an infinite cap): steps mixing PTRS rows
    # with inversion rows
    g = np.zeros((K, n))
    mixed = 0
    for h in range(ref.shape[1]):
        ptrs = (mu[1] + g[:, 2] * A[1, 2]) >= _PTRS_SWITCH
        mixed += bool(ptrs.any() and not ptrs.all())
        g = math.exp(-1.0) * (g + ref[:, h])
    return bad, mixed


def print_table(cases, base, new, labels, repeats) -> list:
    # speedup is the base time over the new time; max|diff| compares outputs,
    # max_abs_ref is the largest entry of the base's; returns the rows that
    # have both sides
    header = (f"{'kernel':<24}{'size':<20}{labels[0]:>12}{labels[1]:>12}"
              f"{'speedup':>9}{'max|diff|':>12}")
    print(header)
    print("-" * len(header))
    rows = []
    for name, shape, make, check, inputs in cases:
        t_base = best_time(make(base), repeats, inputs)
        row = f"{name:<24}{shape:<20}{t_base * 1e3:>10.3f}ms"
        if new is None:
            print(f"{row}  {labels[1]} unavailable")
            continue
        t_new = best_time(make(new), repeats, inputs)
        diff, ref = check(base, new)
        base_key, new_key = (f"{label.replace(' ', '_')}_ms" for label in labels)
        rows.append({"kernel": name, "size": shape, base_key: round(t_base * 1e3, 3),
                     new_key: round(t_new * 1e3, 3), "max_diff": diff, "max_abs_ref": ref})
        print(f"{row}{t_new * 1e3:>10.3f}ms{t_base / t_new:>8.1f}x{diff:>12.3g}")
    return rows


def stream_seeds(count, seed) -> list:
    # the seed, or the seeds calibrate derives for count calibration bins
    return [seed] if count == 1 else [rng.derive(seed, "cal", t) for t in range(count)]


def stream_mismatches(seeds, k_count) -> int:
    # rows of rng.streams whose uniforms or final state differ from the loop's
    streams = rng.streams(seeds, k_count)
    u = streams.random(STREAM_DRAWS)
    gens = [rng.generator(s, k) for s in seeds for k in range(k_count)]
    bad = 0
    for row, gen in enumerate(gens):
        bad += not (np.array_equal(u[row], gen.random(STREAM_DRAWS))
                    and streams.generator(row).bit_generator.state == gen.bit_generator.state)
    return bad


def print_stream_table(repeats) -> list:
    # speedup is the loop time over the streams time, both for base seed 5;
    # returns the rows
    header = (f"{'seeds':<7}{'K':<6}{'scalar loop':>14}{'seeding':>12}{'streams':>12}"
              f"{'speedup':>9}{'mismatches':>12}")
    print(header)
    print("-" * len(header))
    rows = []
    for count, k_count in STREAM_SIZES:
        seeds = stream_seeds(count, 5)
        t_loop = best_time(lambda: [rng.generator(s, k).random(STREAM_DRAWS)
                                    for s in seeds for k in range(k_count)], repeats)
        t_seed = best_time(lambda: rng.streams(seeds, k_count), repeats)
        t_streams = best_time(lambda: rng.streams(seeds, k_count).random(STREAM_DRAWS), repeats)
        checked = [[s] for s in STREAM_SEEDS] if count == 1 else [seeds]
        bad = sum(stream_mismatches(s, k_count) for s in checked)
        rows.append({"seeds": count, "K": k_count, "draws": STREAM_DRAWS,
                     "scalar_loop_ms": round(t_loop * 1e3, 3),
                     "seeding_ms": round(t_seed * 1e3, 3),
                     "streams_ms": round(t_streams * 1e3, 3), "mismatches": bad})
        print(f"{count:<7}{k_count:<6}{t_loop * 1e3:>12.3f}ms{t_seed * 1e3:>10.3f}ms"
              f"{t_streams * 1e3:>10.3f}ms{t_loop / t_streams:>8.1f}x{bad:>12}")
    return rows


@contextlib.contextmanager
def allocating_fit_kernels():
    # fit's kernel calls with their workspace argument dropped
    saved = {name: getattr(ACTIVE, name)
             for name in ("excitation_series", "excitation_beta_series", "loglik_grads")}
    for name, fn in saved.items():
        setattr(ACTIVE, name, lambda *args, _fn=fn, work=None: _fn(*args))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(ACTIVE, name, fn)


def fit_usage(counts, runs):
    # per-fit means of wall seconds, system seconds and minor faults
    cfg = FitConfig(epochs=FIT_EPOCHS)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # supercritical fits
        epochs = [fit(counts, None, cfg, seed=0).meta.epochs_run for _ in range(runs)]
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (max(epochs), wall / runs, (after.ru_stime - before.ru_stime) / runs,
            (after.ru_minflt - before.ru_minflt) / runs)


def print_fit_table(T, n, repeats) -> list:
    # returns the rows
    header = (f"{'fit size':<16}{'epochs':>7}{'allocating':>30}{'workspace':>30}")
    sub = f"{'':<23}" + f"{'wall':>10}{'sys':>10}{'faults':>10}" * 2
    print(header)
    print(sub)
    print("-" * len(sub))
    runs = max(1, min(repeats, FIT_RUNS))
    rows = []
    for t_base, n_base in FIT_SIZES:
        size = (max(2, t_base * T // 400), max(1, n_base * n // 24))
        counts = np.random.default_rng(0).poisson(1.0, size).astype(float)
        with allocating_fit_kernels():
            epochs, *alloc = fit_usage(counts, runs)
        _, *work = fit_usage(counts, runs)
        row = f"T={size[0]} n={size[1]}"
        cells = "".join(f"{w * 1e3:>8.1f}ms{s * 1e3:>8.1f}ms{f:>10.0f}"
                        for w, s, f in (alloc, work))
        print(f"{row:<16}{epochs:>7}{cells}")
        record = {"T": size[0], "n": size[1], "epochs": epochs, "fits": runs}
        for side, (w, s, f) in (("allocating", alloc), ("workspace", work)):
            record.update({f"{side}_wall_ms": round(w * 1e3, 3),
                           f"{side}_sys_ms": round(s * 1e3, 3), f"{side}_faults": round(f, 1)})
        rows.append(record)
    return rows


def per_bin_walk(Y, topo, model, b0, b1, k_count):
    # the (m, bins) scores of one one-step simulate_trajectory and one score_bin per bin
    scale = training_scale(Y[:b0])
    return np.column_stack([
        score_bin(Y[t], simulate_trajectory(model, Y[:t], horizon=1, K=k_count,
                                            seed=rng.derive(CAL_SEED, "cal", t))[:, 0],
                  topo, scale)
        for t in range(b0, b1)])


def print_calibrate_table(T, n, repeats) -> list:
    # speedup is the per-bin time over the calibrate time; returns the rows
    header = (f"{'calibration':<24}{'bins':>6}{'per-bin walk':>15}{'calibrate':>12}"
              f"{'speedup':>9}{'mismatches':>12}")
    print(header)
    print("-" * len(header))
    rows = []
    for n_base, m_base, k_count in CAL_SIZES:
        size = max(1, n_base * n // 24)
        panel, topo, model = generate_synthetic(size, max(1, min(size, m_base * n // 24)),
                                                T, seed=CAL_SEED)
        Y = panel.Y
        b0 = T - max(1, T // 4)
        want = per_bin_walk(Y, topo, model, b0, T, k_count)
        got = calibrate(Y, model, topo, (b0, T), K=k_count, seed=CAL_SEED).scores
        bad = int((got != want).any(axis=0).sum())
        t_bin = best_time(lambda: per_bin_walk(Y, topo, model, b0, T, k_count), repeats)
        t_cal = best_time(lambda: calibrate(Y, model, topo, (b0, T), K=k_count,
                                            seed=CAL_SEED), repeats)
        rows.append({"n": size, "m": topo.m, "K": k_count, "bins": T - b0,
                     "per_bin_walk_ms": round(t_bin * 1e3, 3),
                     "calibrate_ms": round(t_cal * 1e3, 3), "mismatches": bad})
        print(f"{f'n={size} K={k_count}':<24}{T - b0:>6}{t_bin * 1e3:>13.3f}ms"
              f"{t_cal * 1e3:>10.3f}ms{t_bin / t_cal:>8.1f}x{bad:>12}")
    return rows


def write_json(path, recursion_rows, simulate_rows, stream_rows, fit_rows, calibrate_rows,
               args):
    doc = {
        "benchmark": ("pure excitation recursions and scenario simulation against the "
                      "loop reference, PCG64 streams against numpy Generators, whole "
                      "fits allocating and on one workspace, and the calibration walk: "
                      "per-bin one-step simulate_trajectory + score_bin against "
                      "calibrate"),
        "command": (f"python3 benchmarks/bench_kernels.py --T {args.T} --n {args.n} "
                    f"--horizon {args.horizon} --repeats {args.repeats} --json {path}"),
        "timing": f"best of --repeats calls or of {TIME_BUDGET_S} s of calls",
        "kernel_path": "numba" if USING_NUMBA else "pure numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "recursion_rows": recursion_rows,
        "simulate_rows": simulate_rows,
        "stream_rows": stream_rows,
        "fit_rows": fit_rows,
        "calibrate_rows": calibrate_rows,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--T", type=int, default=400, help="panel length")
    parser.add_argument("--n", type=int, default=24, help="circuit count")
    parser.add_argument("--horizon", type=int, default=52, help="simulation bins")
    parser.add_argument("--repeats", type=int, default=200, help="timing repeats")
    parser.add_argument("--json", help="write the recursion, simulation, stream, fit and "
                        "calibration tables to this file")
    args = parser.parse_args(argv)

    cases = build_cases(args.T, args.n, args.horizon)

    # first call per kernel triggers compilation; exclude it from timing
    if JIT is not None:
        for _, _, make, _, inputs in cases:
            make(JIT)(*inputs())

    jit_rows = print_table(cases, PURE, JIT, ("pure", "jit"), args.repeats)
    print()
    looped = [c for c in cases if not c[0].startswith("loglik")]
    loop_rows = print_table(looped, _LOOP_PURE, PURE, ("loop ref", "pure"), args.repeats)
    masked_bad, mixed = masked_mismatches(args.n, args.horizon)
    print(f"masked simulation steps (a zero rate, PTRS rows in {mixed} steps): "
          f"{masked_bad} of {K} trajectories differ from the loop reference")
    print()
    stream_rows = print_stream_table(args.repeats)
    print()
    fit_rows = print_fit_table(args.T, args.n, args.repeats)
    print()
    cal_rows = print_calibrate_table(args.T, args.n, args.repeats)
    rec_rows = [r for r in loop_rows if r["kernel"].startswith("excitation")]
    sim_rows = [r for r in loop_rows if r["kernel"] == "simulate_counts"]
    if args.json:
        write_json(args.json, rec_rows, sim_rows, stream_rows, fit_rows, cal_rows, args)
    mismatches = sum(r["mismatches"] for r in stream_rows)
    cal_mismatches = sum(r["mismatches"] for r in cal_rows)
    sim_diffs = [r["max_diff"] for r in jit_rows + loop_rows if r["kernel"] == "simulate_counts"]
    # the bound of the tier-1 recursion test, relative to the loop reference
    rec_over = [r["kernel"] for r in rec_rows
                if not r["max_diff"] <= RECURSION_RTOL * max(1.0, r["max_abs_ref"])]
    if mismatches or cal_mismatches or any(sim_diffs) or masked_bad or rec_over:
        print(f"FAILED: {mismatches} stream mismatches, {cal_mismatches} calibration "
              f"mismatches, simulation max diffs {sim_diffs}, {masked_bad} masked-step "
              f"mismatches, recursions off the loop reference by more than "
              f"{RECURSION_RTOL:g} relative: {rec_over}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
