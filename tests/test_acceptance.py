"""End-to-end acceptance gates.

Each test prints exactly one [criterion N] PASS/FAIL line with the measured
quantities, then asserts.  Tolerances are pinned in the asserts.
"""

import csv
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hstconformal import (
    HawkesModel,
    NetworkTopology,
    PipelineSettings,
    ScoreSet,
    SplitSpec,
    empirical_quantile,
    generate_synthetic,
    horizon_forecast,
    hst_conformal_pipeline,
    log_likelihood,
    log_likelihood_gradient,
    nonconformity_score,
    qr_quantile,
    rolling_evaluate,
    simulate_trajectory,
)
from hstconformal.hawkes import _softplus, _softplus_inv


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_hierarchical_coverage_on_preset():
    # 20 circuits, 5 substations, 200 bins; 40 calibration + 20 test bins.
    # One run yields 400 circuit cells, so two seeds are pooled to clear the
    # 500-cell floor.
    start = time.monotonic()
    circuit_hits = circuit_cells = sub_hits = sub_cells = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in (0, 1):
            panel, topo, _ = generate_synthetic(20, 5, 200, seed=seed)
            rep = rolling_evaluate(
                panel, topo, SplitSpec(t0=141, test=20),
                PipelineSettings(), seed=seed,
            )
            circuit_hits += int(rep.circuit_hits.sum())
            circuit_cells += rep.circuit_hits.size
            sub_hits += int(rep.sub_hits.sum())
            sub_cells += rep.sub_hits.size
    elapsed = time.monotonic() - start
    val = circuit_hits / circuit_cells
    agg_val = sub_hits / sub_cells
    ok = (circuit_cells >= 500 and sub_cells >= 100
          and val >= 0.90 and agg_val >= 0.90 and elapsed < 300.0)
    _verdict(
        1, ok,
        f"val={val:.4f} ({circuit_cells} cells) agg_val={agg_val:.4f} "
        f"({sub_cells} cells) in {elapsed:.1f}s (floors 0.90/0.90, 500/100 "
        "cells, 300s)",
    )


def test_criterion_2_score_matches_brute_force():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        K = int(rng.integers(1, 6))
        y = rng.integers(0, 12, size=n).astype(float)
        scen = rng.integers(0, 12, size=(K, n)).astype(float)
        s = rng.uniform(1.0, 3.0, size=n)
        size = int(rng.integers(1, n + 1))
        group = rng.choice(n, size=size, replace=False)
        best = math.inf
        for k in range(K):
            worst = 0.0
            for i in group:
                err = abs(y[i] - scen[k, i]) / s[i]
                worst = max(worst, err)
            best = min(best, worst)
        if nonconformity_score(y, scen, group, s) != best:
            mismatches += 1
    _verdict(2, mismatches == 0,
             f"{mismatches} mismatches in 1000 brute-force comparisons "
             "(requirement: exact equality)")


def test_criterion_3_quantile_oracles():
    rng = np.random.default_rng(77)
    alphas = ["0.01", "0.05", "0.1", "0.2", "0.25", "0.5"]
    bad_rank = 0
    with pytest.warns(UserWarning, match="needs conformal rank"):
        for _ in range(500):
            alpha_s = alphas[int(rng.integers(0, len(alphas)))]
            n_cal = int(rng.integers(1, 60))
            row = rng.uniform(0, 30, size=(1, n_cal))
            got = empirical_quantile(
                ScoreSet(scores=row, scale=np.ones(1), alpha=float(alpha_s))
            ).q[0]
            rank = math.ceil((Fraction(1) - Fraction(alpha_s)) * (n_cal + 1))
            rank = min(max(rank, 1), n_cal)
            if got != np.sort(row[0])[rank - 1]:
                bad_rank += 1
    const = qr_quantile(
        ScoreSet(scores=np.full((1, 16), 1.75), scale=np.ones(1), alpha=0.05),
        window=5,
    ).q[0]
    const_err = abs(const - 1.75)
    ok = bad_rank == 0 and const_err <= 1e-6
    _verdict(3, ok,
             f"empirical rank mismatches={bad_rank}/500 (exact), "
             f"qr constant-sequence error={const_err:.2e} (tol 1e-6)")


def _fd_gradient(model, Y, eps=1e-5):
    u_mu = np.log(model.mu)
    u_A = np.log(model.A)
    u_beta = _softplus_inv(model.beta)
    u_cap = math.log(model.cap)

    def ll_at(um, uA, ub, uc):
        m = HawkesModel(mu=np.exp(um), A=np.exp(uA), beta=_softplus(ub),
                        cap=math.exp(uc))
        return log_likelihood(m, Y)

    n = model.n
    g_mu = np.zeros(n)
    for i in range(n):
        up, dn = u_mu.copy(), u_mu.copy()
        up[i] += eps
        dn[i] -= eps
        g_mu[i] = (ll_at(up, u_A, u_beta, u_cap) - ll_at(dn, u_A, u_beta, u_cap)) / (2 * eps)
    g_A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            up, dn = u_A.copy(), u_A.copy()
            up[i, j] += eps
            dn[i, j] -= eps
            g_A[i, j] = (ll_at(u_mu, up, u_beta, u_cap)
                         - ll_at(u_mu, dn, u_beta, u_cap)) / (2 * eps)
    g_beta = (ll_at(u_mu, u_A, u_beta + eps, u_cap)
              - ll_at(u_mu, u_A, u_beta - eps, u_cap)) / (2 * eps)
    g_cap = (ll_at(u_mu, u_A, u_beta, u_cap + eps)
             - ll_at(u_mu, u_A, u_beta, u_cap - eps)) / (2 * eps)
    return g_mu, g_A, g_beta, g_cap


def test_criterion_4_gradient_vs_finite_differences():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        T = int(rng.integers(3, 51))
        Y = rng.integers(0, 5, size=(T, n))
        model = HawkesModel(
            mu=rng.uniform(0.2, 1.5, n),
            A=rng.uniform(0.01, 0.4 / n, (n, n)),
            beta=float(rng.uniform(0.5, 1.5)),
            cap=float(max(Y.sum(), 1) * rng.uniform(2.0, 4.0)),
        )
        g = log_likelihood_gradient(model, Y)
        fd_mu, fd_A, fd_beta, fd_cap = _fd_gradient(model, Y, eps=1e-5)
        for a, b in ((g.d_mu, fd_mu), (g.d_A, fd_A),
                     (np.array([g.d_beta]), np.array([fd_beta])),
                     (np.array([g.d_cap]), np.array([fd_cap]))):
            rel = np.max(np.abs(np.asarray(a) - b) / np.maximum(1.0, np.abs(b)))
            worst = max(worst, float(rel))
    _verdict(4, worst < 1e-5,
             f"max relative gradient error {worst:.2e} over 50 instances "
             "(tol 1e-5, central differences, step 1e-5)")


def test_criterion_5_sampler_moments_and_saturation():
    flat = HawkesModel(mu=np.array([4.0]), A=np.zeros((1, 1)), beta=1.0)
    s = simulate_trajectory(flat, None, horizon=1, K=100_000, seed=0)[:, 0]
    mean = float(s.mean())

    capped = HawkesModel(
        mu=np.full(5, 1.0), A=np.full((5, 5), 0.04), beta=1.0,
        cap=50.0,
    )
    traj = simulate_trajectory(capped, None, horizon=40, K=500, seed=1)
    violations = 0
    for k in range(traj.shape[0]):
        per_bin = traj[k].sum(axis=1)
        cum = per_bin.cumsum()
        over = np.nonzero(cum >= 50.0)[0]
        if over.size:
            first = over[0]
            if cum[-1] > 50.0 + per_bin[first] or np.any(per_bin[first + 1:] != 0):
                violations += 1
    ok = 3.94 <= mean <= 4.06 and violations == 0
    _verdict(5, ok,
             f"mean draw {mean:.4f} at rate 4 over 100000 samples "
             f"(bounds [3.94, 4.06]); cap violations {violations}/500 "
             "trajectories (cap 50)")


def _read_lines(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_criterion_6_substation_rows_are_exact_column_sums(tmp_path):
    out = tmp_path / "gate6"
    env = dict(os.environ)
    base = [sys.executable, "-m", "hstconformal.cli"]
    r = subprocess.run(
        [*base, "synth", "--n", "20", "--m", "5", "--T", "60",
         "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr
    r = subprocess.run(
        [*base, "run", "--panel", str(out / "panel.json"),
         "--topology", str(out / "topology.csv"),
         "--t0", "41", "--epochs", "150", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr

    topo = NetworkTopology.from_csv(out / "topology.csv")
    with open(out / "circuit_intervals.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_id = {row["id"]: row for row in rows}
    t = rows[0]["bin"]
    rebuilt = ["id,bin,lower_raw,lower_clamped,upper,width"]
    for j, sid in enumerate(topo.substation_ids):
        members = [topo.circuit_ids[i] for i in topo.members[j]]
        lo = float(np.sum(np.array([float(by_id[c]["lower_raw"]) for c in members])))
        up = float(np.sum(np.array([float(by_id[c]["upper"]) for c in members])))
        rebuilt.append(
            f"{sid},{t},{lo!r},{max(lo, 0.0)!r},{up!r},{(up - lo)!r}"
        )
    expected = ("\n".join(rebuilt) + "\n").encode()
    actual = _read_lines(out / "substation_intervals.csv")
    ok = expected == actual
    _verdict(6, ok,
             "substation interval file matches byte-for-byte a reconstruction "
             f"from circuit sums ({len(topo.substation_ids)} substations, "
             "requirement: byte equality)")


def test_criterion_7_width_nonincreasing_in_alpha():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        panel, topo, _ = generate_synthetic(8, 3, 60, seed=5)
        widths = []
        for alpha in (0.01, 0.05, 0.1, 0.2, 0.5):
            f, _a = hst_conformal_pipeline(
                panel, topo, t0=31,
                settings=PipelineSettings(alpha=alpha, epochs=200), seed=0,
            )
            widths.append(float(f.width.mean()))
    monotone = all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))
    _verdict(7, monotone,
             "mean width over alpha grid {0.01,0.05,0.1,0.2,0.5} = "
             + "[" + ", ".join(f"{w:.3f}" for w in widths) + "] "
             "(requirement: non-increasing)")


def test_criterion_8_cli_reruns_byte_identical(tmp_path):
    # the fallback kernel path keeps subprocess startup cheap; its draws are
    # bit-identical to the compiled path by construction
    env = dict(os.environ)
    env["HSTCONFORMAL_NO_NUMBA"] = "1"
    base = [sys.executable, "-m", "hstconformal.cli"]

    def run(cmd, outdir, *extra):
        args = [*base, cmd, "--out", str(outdir), *extra]
        r = subprocess.run(args, capture_output=True, text=True, env=env)
        assert r.returncode == 0, (cmd, r.stderr)
        return r.stdout

    diffs = []
    for rep in ("a", "b"):
        d = tmp_path / rep
        run("synth", d, "--n", "6", "--m", "2", "--T", "50", "--seed", "0")
        run("run", d, "--panel", str(d / "panel.json"),
            "--topology", str(d / "topology.csv"), "--t0", "31",
            "--epochs", "60")
        run("evaluate", d, "--panel", str(d / "panel.json"),
            "--topology", str(d / "topology.csv"), "--t0", "31",
            "--test_len", "4", "--epochs", "60")
        run("forecast", d, "--panel", str(d / "panel.json"),
            "--topology", str(d / "topology.csv"), "--t0", "31",
            "--horizon", "6", "--epochs", "60")
    names = [
        "panel.json", "topology.csv", "truth_model.json",
        "circuit_intervals.csv", "substation_intervals.csv", "audit.json",
        "metrics.txt", "eval_cells.csv", "forecast_envelopes.csv",
    ]
    for name in names:
        if _read_lines(tmp_path / "a" / name) != _read_lines(tmp_path / "b" / name):
            diffs.append(name)
    _verdict(8, not diffs,
             f"synth+run+evaluate+forecast reruns compared over {len(names)} "
             f"output files, differing: {diffs or 'none'} (requirement: "
             "byte-identical)")


def test_criterion_9_cumulative_envelope_plateau():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        panel, topo, _ = generate_synthetic(4, 2, 24, seed=6, cap=40.0)
        hf = horizon_forecast(
            panel, topo, t0=13,
            settings=PipelineSettings(epochs=300, K=20),
            horizon=60, seed=0,
        )
    rel = []
    for arr in (hf.cum_sub_upper, hf.cum_sub_lower):
        terminal = np.maximum(np.abs(arr[-1]), 1.0)
        rel.append(float(np.max(np.abs(arr[-1] - arr[-2]) / terminal)))
    worst = max(rel)
    _verdict(9, worst < 0.01,
             f"60-step cumulative substation envelopes: final-step relative "
             f"change {worst:.2e} (tol 1e-2)")
