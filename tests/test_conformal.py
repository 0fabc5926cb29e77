import contextlib
import itertools
import json
import math
import re
import warnings
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest

from hstconformal import (
    CountPanel,
    DataValidationError,
    IntervalForecast,
    NetworkTopology,
    PipelineSettings,
    PreconditionError,
    QuantileEstimate,
    ScoreSet,
    SplitSpec,
    build_interval,
    calibrate,
    empirical_quantile,
    fit,
    generate_synthetic,
    horizon_forecast,
    hst_conformal_pipeline,
    log_likelihood,
    nonconformity_score,
    qr_quantile,
    rolling_evaluate,
    score_bin,
    simulate_bin,
    simulate_trajectory,
    training_scale,
)
from hstconformal import _kernels
from hstconformal import conformal as _conformal
from hstconformal import hawkes as _hawkes
from hstconformal import rng as _rng
from hstconformal.cli import main as cli_main
from hstconformal.hawkes import FitConfig, HawkesModel, intensity


def _topo(assign):
    return NetworkTopology.from_assignments(
        [f"c{i}" for i in range(len(assign))], [f"s{j}" for j in assign]
    )


def _scores(mat, alpha=0.05, scale=None):
    mat = np.asarray(mat, dtype=np.float64)
    if scale is None:
        scale = np.ones(mat.shape[0])
    return ScoreSet(scores=mat, scale=scale, alpha=alpha)


# -- nonconformity scores -----------------------------------------------------

def test_score_hand_example():
    # two scenarios, one shared substation, unit scale
    y = np.array([3, 1])
    scen = np.array([[1, 1], [5, 2]])
    got = nonconformity_score(y, scen, [0, 1], np.ones(2))
    assert got == 2.0


def test_score_zero_when_any_scenario_is_exact():
    y = np.array([4, 0, 2])
    scen = np.array([[1, 1, 1], [4, 0, 2], [9, 9, 9]])
    assert nonconformity_score(y, scen, [0, 1, 2], np.ones(3)) == 0.0


def test_score_rejects_out_of_range_circuit_indices():
    # past the last circuit numpy would raise IndexError, and -1 would
    # silently score the last circuit
    y = np.array([1, 2, 3])
    scen = np.array([[1, 1, 1]])
    for S_row, named in (([5], "[5]"), ([0, -1], "[-1]")):
        with pytest.raises(PreconditionError, match=re.escape(named)):
            nonconformity_score(y, scen, S_row, np.ones(3))


def test_score_singleton_group_is_standardized_residual():
    rng = np.random.default_rng(1)
    for _ in range(50):
        y = rng.integers(0, 20, size=3).astype(float)
        scen = rng.integers(0, 20, size=(1, 3)).astype(float)
        s = rng.uniform(1.0, 4.0, size=3)
        for i in range(3):
            expect = abs(y[i] - scen[0, i]) / s[i]
            assert nonconformity_score(y, scen, [i], s) == expect


def test_score_matches_brute_force_triple_loop():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        K = int(rng.integers(1, 6))
        y = rng.integers(0, 15, size=n).astype(float)
        scen = rng.integers(0, 15, size=(K, n)).astype(float)
        s = rng.uniform(1.0, 3.0, size=n)
        size = int(rng.integers(1, n + 1))
        group = rng.choice(n, size=size, replace=False)
        best = math.inf
        for k in range(K):
            worst = 0.0
            for i in group:
                err = abs(y[i] - scen[k, i]) / s[i]
                if err > worst:
                    worst = err
            best = min(best, worst)
        assert nonconformity_score(y, scen, group, s) == best


def test_score_adding_a_scenario_never_increases():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        K = int(rng.integers(1, 5))
        y = rng.integers(0, 10, size=n).astype(float)
        scen = rng.integers(0, 10, size=(K, n)).astype(float)
        extra = rng.integers(0, 10, size=(1, n)).astype(float)
        s = np.ones(n)
        grp = list(range(n))
        base = nonconformity_score(y, scen, grp, s)
        grown = nonconformity_score(y, np.vstack([scen, extra]), grp, s)
        assert grown <= base


def test_score_group_superset_never_decreases():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = 5
        y = rng.integers(0, 10, size=n).astype(float)
        scen = rng.integers(0, 10, size=(3, n)).astype(float)
        s = np.ones(n)
        small = rng.choice(n, size=2, replace=False).tolist()
        big = small + [i for i in range(n) if i not in small][:2]
        assert nonconformity_score(y, scen, big, s) >= \
            nonconformity_score(y, scen, small, s)


def test_score_bin_constant_within_substation():
    rng = np.random.default_rng(5)
    topo = _topo([0, 1, 0, 1, 2])
    y = rng.integers(0, 12, size=5)
    scen = rng.integers(0, 12, size=(4, 5))
    s = rng.uniform(1.0, 2.0, size=5)
    out = score_bin(y, scen, topo, s)
    assert out.shape == (topo.m,)
    per_circuit = _conformal.to_circuits(out, topo)
    for j, idx in enumerate(topo.members):
        assert np.all(per_circuit[idx] == out[j])
        assert out[j] == nonconformity_score(y, scen, idx, s)


def test_score_bin_equals_one_nonconformity_score_per_substation():
    # criterion 2 substation by substation is the oracle of the one (K, n)
    # error array; one-circuit substations and scales above 1 included
    rng = np.random.default_rng(31)
    singles = 0
    for trial in range(60):
        n = int(rng.integers(1, 12))
        topo = _topo(rng.integers(0, int(rng.integers(1, n + 1)), size=n))
        singles += any(idx.size == 1 for idx in topo.members)
        K = int(rng.integers(1, 30))
        scen = rng.poisson(rng.uniform(0.0, 6.0), size=(K, n))
        y = rng.poisson(3.0, size=n)
        scale = np.maximum(1.0, rng.uniform(0.0, 4.0, size=n))
        got = score_bin(y, scen, topo, scale)
        expect = [nonconformity_score(y, scen, idx, scale) for idx in topo.members]
        assert got.dtype == np.float64 and got.shape == (topo.m,)
        assert np.array_equal(got, expect), trial
    assert singles > 10
    assert np.array_equal(score_bin([5, 0, 2], [[1, 1, 1]], _topo([0, 1, 1]), [2.0, 1.0, 1.5]),
                          [2.0, 1.0])


def test_score_bin_names_empty_substations():
    # a topology with an empty substation cannot be built, so none reaches score_bin
    with pytest.raises(DataValidationError, match=r"no circuits: \['s1'\]"):
        NetworkTopology(("a", "b"), ("s0", "s1"), np.array([0, 0]))


def test_training_scale_clamps_at_one():
    Y = np.array([[4, 0], [4, 10], [4, 20], [4, 30]])
    s = training_scale(Y)
    assert s[0] == 1.0  # constant column, std 0
    assert abs(s[1] - np.std([0, 10, 20, 30])) < 1e-12


def test_training_scale_rejects_an_empty_block():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice" on the way
        with pytest.raises(PreconditionError, match="at least one training bin"):
            training_scale(np.zeros((0, 3)))


def test_quantile_estimate_rejects_a_nonfinite_q():
    # a NaN quantile would turn into NaN bounds that pass the order check
    for bad in (np.nan, np.inf):
        with pytest.raises(PreconditionError, match="finite"):
            QuantileEstimate(np.array([bad, 1.0]))


def test_score_set_rejects_a_nonfinite_scale():
    # a NaN scale fails every comparison, so only a test for >= 1 catches it
    for bad in (np.nan, 0.5):
        with pytest.raises(PreconditionError, match="scale"):
            ScoreSet(scores=np.ones((1, 2)), scale=np.array([1.0, bad]), alpha=0.1)


def test_score_set_extend_takes_one_score_per_substation():
    ss = ScoreSet(scores=np.ones((3, 2)), scale=np.ones(4), alpha=0.1)
    assert np.array_equal(ss.extend([0.5, 1.0, 2.0]).scores[:, -1], [0.5, 1.0, 2.0])
    for bad in (np.ones(2), np.ones(4), np.ones((3, 1)), 1.0):
        with pytest.raises(PreconditionError, match="one score per substation"):
            ss.extend(bad)


# -- quantiles -----------------------------------------------------------------

def test_empirical_quantile_hand_ranks():
    row = np.arange(1.0, 20.0)  # 1..19
    q05 = empirical_quantile(_scores(row[None, :], alpha=0.05))
    assert q05.q[0] == 19.0  # rank ceil(0.95 * 20) = 19
    q50 = empirical_quantile(_scores(row[None, :], alpha=0.5))
    assert q50.q[0] == 10.0  # rank ceil(0.5 * 20) = 10


def test_empirical_quantile_matches_sort_oracle():
    rng = np.random.default_rng(11)
    alphas = ["0.01", "0.05", "0.1", "0.2", "0.25", "0.32", "0.5"]
    for _ in range(400):
        alpha_s = alphas[int(rng.integers(0, len(alphas)))]
        alpha = float(alpha_s)
        n_cal = int(rng.integers(1, 41))
        n = int(rng.integers(1, 4))
        mat = rng.uniform(0, 50, size=(n, n_cal))
        # exact-arithmetic oracle for the rank, which warns exactly when clamped
        rank = math.ceil((Fraction(1) - Fraction(alpha_s)) * (n_cal + 1))
        with pytest.warns(UserWarning, match="needs conformal rank") if rank > n_cal \
                else contextlib.nullcontext():
            got = empirical_quantile(_scores(mat, alpha=alpha))
        rank = min(max(rank, 1), n_cal)
        for i in range(n):
            assert got.q[i] == np.sort(mat[i])[rank - 1]


def test_empirical_quantile_warns_when_rank_is_clamped():
    # alpha=0.05 needs n_cal >= 19 for rank ceil(0.95 * (n_cal + 1)) <= n_cal
    with pytest.warns(UserWarning, match="finite-sample") as caught:
        q = empirical_quantile(_scores(np.arange(1.0, 19.0)[None, :], alpha=0.05))
    assert q.q[0] == 18.0
    (w,) = caught
    assert "alpha=0.05" in str(w.message) and "n_cal=18" in str(w.message)
    assert w.filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert empirical_quantile(_scores(np.arange(1.0, 20.0)[None, :], alpha=0.05)).q[0] == 19.0


def test_empirical_quantile_all_equal_scores():
    with pytest.warns(UserWarning, match="needs conformal rank"):
        q = empirical_quantile(_scores(np.full((2, 8), 3.25)))
    assert np.all(q.q == 3.25)


def test_qr_quantile_constant_sequence_recovers_constant():
    seq = np.full((1, 15), 2.5)
    q = qr_quantile(_scores(seq), window=5)
    assert abs(q.q[0] - 2.5) <= 1e-12


def test_qr_quantile_extrapolates_linear_trend():
    seq = np.arange(1.0, 21.0)[None, :]  # 1..20, next value 21
    q = qr_quantile(_scores(seq), window=3)
    assert abs(q.q[0] - 21.0) <= 1e-12 * 21.0
    # a rising trend must not predict below the recent empirical level
    assert q.q[0] >= seq[0, -3:].max() - 1e-6


def test_qr_quantile_never_negative():
    rng = np.random.default_rng(13)
    for trial in range(10):
        seq = rng.uniform(0.0, 0.05, size=(2, 14))
        q = qr_quantile(_scores(seq), window=4)
        assert np.all(q.q >= 0.0)


def test_qr_quantile_needs_enough_history():
    with pytest.raises(PreconditionError, match="qr_window=10 needs at least 11 .*"
                       "quantile_method: empirical"):
        qr_quantile(_scores(np.ones((1, 5))), window=10)


def _qr_design(seq, window):
    # one row's design and targets, as qr_quantile builds them
    nwin = seq.size - window
    X = np.lib.stride_tricks.sliding_window_view(seq, window)[:nwin]
    std = X.std(axis=0)
    D = np.hstack([(X - X.mean(axis=0)) / np.where(std > 1e-12, std, 1.0),
                   np.ones((nwin, 1))])
    return D, seq[window:]


def _pinball_loss(D, y, theta, tau):
    # the loss of each coefficient vector in the last axis of theta
    r = y - theta @ D.T
    return np.where(r >= 0.0, tau * r, (tau - 1.0) * r).sum(axis=-1)


def _vertex_optimum(D, y, tau):
    # oracle: a full-rank pinball LP attains its optimum at a vertex, where p
    # residuals are zero; the smallest loss over every exactly fitted p-subset
    nwin, p = D.shape
    subsets = np.array(list(itertools.combinations(range(nwin), p)))
    subsets = subsets[np.linalg.matrix_rank(D[subsets]) == p]
    thetas = np.linalg.solve(D[subsets], y[subsets][:, :, None])[:, :, 0]
    return _pinball_loss(D, y, thetas, tau).min()


def test_pinball_fit_reaches_the_vertex_optimum():
    # the exact optimum on full-rank designs, including tied 0/k rows whose
    # Newton matrices become singular to rounding near their degenerate optimum
    rng = np.random.default_rng(31)
    cases = [
        (np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0]), 1, 0.5),
        (np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
         2, 0.2),
        (np.array([3.0, 0.0, 3.0, 0.0, 0.0, 0.0, 3.0, 0.0]), 3, 0.5),
        (np.array([0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 2.0, 0.0, 0.0, 0.0]), 3, 0.1),
    ]
    for window in (1, 2, 3):
        for n_cal in (window + 5, window + 12, window + 20):
            for alpha in (0.05, 0.1, 0.5):
                cases += [(seq, window, alpha) for seq in _score_rows(n_cal, rng)]
    checked = 0
    for seq, window, alpha in cases:
        D, y = _qr_design(seq, window)
        if np.linalg.matrix_rank(D) < D.shape[1]:
            continue
        tau = 1.0 - alpha
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, exhausted = _conformal._pinball_fit(D[None], y[None], tau)
        best = _vertex_optimum(D, y, tau)
        assert not exhausted[0] and best > 0.0
        assert _pinball_loss(D, y, theta[0], tau) == pytest.approx(best, rel=1e-9), \
            (seq, window, alpha)
        checked += 1
    assert checked >= 200


def test_qr_quantile_fits_rank_deficient_designs_exactly():
    # periodic rows repeat their windows, so the standardized window columns
    # are linearly dependent; the rank rule still fits them exactly
    for seq, window, expect in ((np.tile([0.0, 1.0], 20), 2, 0.0),
                                (np.tile([0.5, 2.0, 1.0], 14), 4, 0.5)):
        D, _ = _qr_design(seq, window)
        assert np.linalg.matrix_rank(D) < D.shape[1]
        for alpha in (0.05, 0.1, 0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                q = qr_quantile(_scores(seq[None], alpha=alpha), window=window)
            assert abs(q.q[0] - expect) <= 1e-12, (seq, window, alpha)


def _score_rows(n_cal, rng):
    # a constant row, a trend row, and noisy rows of several shapes
    t = np.arange(n_cal, dtype=np.float64)
    rows = [np.full(n_cal, 1.75), 0.5 + 0.1 * t]
    for shape, level in ((0.5, 1.0), (2.0, 0.3), (5.0, 2.0), (1.0, 0.05)):
        rows.append(rng.gamma(shape, level, n_cal))
    rows.append(np.abs(np.sin(t / 3.0)) + rng.uniform(0.0, 0.2, n_cal))
    rows.append(np.where(rng.uniform(size=n_cal) < 0.1, 5.0, 0.2))
    rows.append(np.maximum(0.0, 3.0 - 0.05 * t + rng.normal(0.0, 0.5, n_cal)))
    rows.append(rng.exponential(1.0, n_cal) * (1.0 + t / n_cal))
    rows.append(np.round(rng.uniform(0.0, 4.0, n_cal), 1))
    rows.append(rng.lognormal(0.0, 1.0, n_cal))
    return np.array(rows)


def _qr_alone(rows, alpha, window):
    # oracle: each row's quantile from a qr_quantile call that fits it alone
    return [qr_quantile(_scores(rows[i:i + 1], alpha=alpha), window=window).q[0]
            for i in range(len(rows))]


def test_qr_quantile_matches_the_per_row_fit():
    # a row's quantile does not depend on the rows fitted with it, bit for
    # bit, and every row meets the gap tolerance within the iteration cap
    rng = np.random.default_rng(29)
    for window in (1, 3, 10):
        for n_cal in (window + 1, 40, 99):
            pool = _score_rows(n_cal, rng)
            for j, alpha in enumerate((0.05, 0.1, 0.5)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    oracle = _qr_alone(pool, alpha, window)
                    for m in (1, 3, 12):
                        rows = (np.arange(m) * 5 + j) % len(pool)  # all 12 rows when m = 12
                        got = qr_quantile(_scores(pool[rows], alpha=alpha), window=window).q
                        assert np.array_equal(got, [oracle[i] for i in rows]), \
                            (window, n_cal, alpha, m)


def test_qr_quantile_warns_when_a_fit_runs_out_of_iterations(monkeypatch):
    rng = np.random.default_rng(29)
    mat = _score_rows(40, rng)[1:6]
    uncapped = _qr_alone(mat, 0.1, 3)
    # the smallest cap under which each row, fitted alone, does not warn
    iters = []
    for i in range(len(mat)):
        for cap in range(1, 51):
            monkeypatch.setattr(_conformal, "_PINBALL_MAX_ITER", cap)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                qr_quantile(_scores(mat[i:i + 1], alpha=0.1), window=3)
            if not caught:
                iters.append(cap)
                break
    assert len(iters) == len(mat)
    # a cap that one row meets on its last iteration
    budget = sorted(iters)[1]
    monkeypatch.setattr(_conformal, "_PINBALL_MAX_ITER", budget)
    with pytest.warns(UserWarning, match="iterations") as caught:
        q = qr_quantile(_scores(mat, alpha=0.1), window=3)
    (w,) = caught
    short = [i for i, k in enumerate(iters) if k > budget]
    assert 1 <= len(short) < len(iters) - 1
    assert f"rows {short} " in str(w.message)
    assert f"cap of {budget} iterations" in str(w.message)
    assert w.filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        capped = _qr_alone(mat, 0.1, 3)
    for i, k in enumerate(iters):
        assert q.q[i] == capped[i]
        if k <= budget:
            assert q.q[i] == uncapped[i]


def test_qr_quantile_keeps_an_exact_warm_start():
    # a constant row is fitted exactly by its least-squares start, up to
    # rounding, and the interior-point steps keep it, with no cap warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = qr_quantile(ScoreSet(np.full((1, 40), 1.75), np.ones(1), 0.05), window=1)
    assert abs(q.q[0] - 1.75) <= 1e-12


def test_quantile_estimate_validation():
    with pytest.raises(PreconditionError):
        QuantileEstimate(q=np.array([-0.5]))


# -- interval construction --------------------------------------------------------

def test_interval_hand_example():
    topo = _topo([0])
    scen = np.array([[2], [5]])
    q = QuantileEstimate(q=np.array([1.5]))
    f = build_interval(scen, q, np.ones(1), topo, t=4)
    assert f.lower[0] == 0.5 and f.upper[0] == 6.5
    assert f.sub_lower[0] == 0.5 and f.sub_upper[0] == 6.5
    assert f.t == 4


def test_interval_degenerate_single_scenario_zero_quantile():
    topo = _topo([0, 0])
    scen = np.array([[3, 7]])
    q = QuantileEstimate(q=np.zeros(1))
    f = build_interval(scen, q, np.ones(2), topo, t=0)
    assert np.array_equal(f.lower, [3.0, 7.0])
    assert np.array_equal(f.upper, [3.0, 7.0])
    assert np.array_equal(f.width, [0.0, 0.0])


def test_interval_substation_rows_are_member_sums():
    topo = _topo([0, 0, 1])
    scen = np.array([[1, 2, 3], [4, 0, 5]])
    q = QuantileEstimate(q=np.array([1.5, 0.5]))
    s = np.array([1.0, 2.0, 1.0])
    f = build_interval(scen, q, s, topo, t=0)
    assert np.array_equal(f.lower, [1.0 - 1.5, 0.0 - 3.0, 3.0 - 0.5])
    assert np.allclose(f.sub_lower, [f.lower[0] + f.lower[1], f.lower[2]])
    assert np.allclose(f.sub_upper, [f.upper[0] + f.upper[1], f.upper[2]])


def test_interval_needs_one_quantile_per_substation():
    topo = _topo([0, 0, 1])
    scen = np.array([[1, 2, 3]])
    per_circuit = QuantileEstimate(q=np.ones(3))
    with pytest.raises(PreconditionError, match="one quantile per substation"):
        build_interval(scen, per_circuit, np.ones(3), topo, t=0)
    per_substation = QuantileEstimate(q=np.ones(2))
    with pytest.raises(PreconditionError, match="one scale per circuit"):
        build_interval(scen, per_substation, np.ones(2), topo, t=0)
    assert build_interval(scen, per_substation, np.ones(3), topo, t=7).t == 7


def test_interval_clamp_is_reporting_only():
    topo = _topo([0])
    scen = np.array([[0], [1]])
    q = QuantileEstimate(q=np.array([2.0]))
    f = build_interval(scen, q, np.ones(1), topo, t=0)
    assert f.lower[0] == -2.0
    rows = list(f.unit_bounds(("c0",), ("s0",)))
    assert rows == [("circuit", "c0", 0, -2.0, 0.0, 3.0),
                    ("substation", "s0", 0, -2.0, 0.0, 3.0)]


def test_interval_rejects_inverted_bounds():
    with pytest.raises(PreconditionError):
        IntervalForecast(
            lower=np.array([2.0]), upper=np.array([1.0]),
            sub_lower=np.array([2.0]), sub_upper=np.array([1.0]), t=0,
        )


# -- calibration ------------------------------------------------------------------

def test_calibrate_zero_model_scores_standardized_group_max():
    topo = _topo([0, 0, 1])
    model = HawkesModel(mu=np.zeros(3), A=np.zeros((3, 3)), beta=1.0)
    Y = np.array([[0, 0, 0], [1, 0, 0], [2, 5, 1], [0, 0, 4]])
    ss = calibrate(Y, model, topo, (2, 4), K=3, seed=0)
    # zero model simulates all-zero scenarios; scale is 1 everywhere here
    assert ss.n_cal == 2
    assert ss.scores.shape == (topo.m, 2)
    assert np.all(ss.scale == np.maximum(1.0, Y[:2].std(axis=0)))
    assert ss.scores[0, 0] == 5.0  # max(2, 5) over substation s0
    assert ss.scores[1, 0] == 1.0
    assert ss.scores[1, 1] == 4.0


def test_calibrate_names_empty_substations():
    # the empty substation is named where the topology is built, before calibrate
    with pytest.raises(DataValidationError, match=r"no circuits: \['s1'\]"):
        NetworkTopology(("a", "b"), ("s0", "s1", "s2"), np.array([0, 2]))


def test_calibrate_matches_manual_recount(small_triple):
    panel, topo, _ = small_triple
    model = fit(panel.rows(0, 40), topo, FitConfig(epochs=60), seed=0)
    ss = calibrate(panel, model, topo, (40, 44), K=5, seed=3)
    scale = training_scale(panel.Y[:40])
    assert np.array_equal(ss.scale, scale)
    for t in range(40, 44):
        scen = simulate_bin(model, panel.Y[:t], K=5, seed=_rng.derive(3, "cal", t))
        expect = score_bin(panel.Y[t], scen, topo, scale)
        assert np.array_equal(ss.scores[:, t - 40], expect)


def _assert_calibrate_matches_recount(monkeypatch, Y, model, topo, bins, K, seed):
    # every bin's scenarios and scores equal those of simulating it from its
    # own history and scoring it alone, the per-bin rescan that calibrate
    # replaces with one scan of the panel and one kernel call per block;
    # returns the block lengths
    blocks = []
    walk = _conformal._bin_scenarios
    monkeypatch.setattr(_conformal, "_bin_scenarios", lambda *a: (
        blocks.append((t, np.array(scen))) or (t, scen) for t, scen in walk(*a)))
    ss = calibrate(Y, model, topo, bins, K=K, seed=seed)
    monkeypatch.undo()
    scale = training_scale(Y[:bins[0]])
    assert np.array_equal(ss.scale, scale)
    assert [t for t, _ in blocks] == list(np.cumsum([bins[0]] + [len(b) for _, b in blocks[:-1]]))
    scored = np.concatenate([b for _, b in blocks])
    assert len(scored) == bins[1] - bins[0]
    for t, samples in zip(range(*bins), scored):
        scen = simulate_bin(model, Y[:t], K=K, seed=_rng.derive(seed, "cal", t))
        assert np.array_equal(samples, scen), t
        assert np.array_equal(ss.scores[:, t - bins[0]], score_bin(Y[t], scen, topo, scale)), t
    return [len(b) for _, b in blocks]


@pytest.mark.parametrize("K", [1, 200])
def test_calibrate_matches_the_per_bin_recount(monkeypatch, small_triple, K):
    # strong excitation, so that a start state one bin off changes the draws
    panel, topo, _ = small_triple
    model = HawkesModel(mu=np.full(6, 0.3), A=np.full((6, 6), 0.12), beta=0.8)
    _assert_calibrate_matches_recount(monkeypatch, panel.Y, model, topo, (30, 80), K, 11)


def test_calibrate_matches_the_recount_across_blocks(monkeypatch, small_triple):
    # blocks of as many bins as fit _BLOCK_CELLS: two whole blocks, then a
    # partial one, each bin still drawn as if simulated alone
    panel, topo, _ = small_triple
    model = HawkesModel(mu=np.full(6, 0.3), A=np.full((6, 6), 0.12), beta=0.8)
    K = 300
    per_block = _hawkes._BLOCK_CELLS // (K * 6)
    assert per_block >= 2
    lengths = _assert_calibrate_matches_recount(monkeypatch, panel.Y, model, topo,
                                                (30, 31 + 2 * per_block), K, 6)
    assert lengths == [per_block, per_block, 1]


def test_calibrate_matches_the_recount_with_unequal_interleaved_groups(monkeypatch,
                                                                         small_triple):
    # substations of 3, 2 and 1 circuits whose members interleave in the
    # circuit order, scored in blocks of many bins: a reduction that assumed
    # equal or contiguous groups would score some bin wrong
    panel, _, _ = small_triple
    topo = _topo([1, 0, 2, 1, 0, 1])
    assert [g.tolist() for g in topo.members] == [[0, 3, 5], [1, 4], [2]]
    model = HawkesModel(mu=np.full(6, 0.3), A=np.full((6, 6), 0.12), beta=0.8)
    K = 40
    per_block = _hawkes._BLOCK_CELLS // (K * 6)
    bins = (20, 20 + per_block + 5)
    lengths = _assert_calibrate_matches_recount(monkeypatch, panel.Y, model, topo, bins, K, 9)
    assert lengths == [per_block, 5]
    # and each score is the definition's, group by group and scenario by scenario
    Y, scale = panel.Y, training_scale(panel.Y[:bins[0]])
    ss = calibrate(Y, model, topo, bins, K=K, seed=9)
    for t in range(*bins):
        scen = simulate_bin(model, Y[:t], K=K, seed=_rng.derive(9, "cal", t))
        want = [min(max(abs(Y[t, i] - x[i]) / scale[i] for i in g) for x in scen)
                for g in topo.members]
        assert ss.scores[:, t - bins[0]].tolist() == want, t


def test_calibrate_matches_the_recount_when_saturation_reaches_its_floor(monkeypatch,
                                                                        small_triple):
    # a finite cap: gamma is 1 - N/cap at the first bins of the block and
    # the floor 0.3 at the last, so the start totals enter every rate
    panel, topo, _ = small_triple
    Y = panel.Y
    before = np.concatenate(([0], np.cumsum(Y.sum(axis=1))))
    cap = before[60] / 0.7
    model = HawkesModel(mu=np.full(6, 0.4), A=np.full((6, 6), 0.05), beta=0.9,
                        cap=cap, floor=0.3)
    assert 1.0 - before[45] / cap > 0.3 >= 1.0 - before[75] / cap
    _assert_calibrate_matches_recount(monkeypatch, Y, model, topo, (45, 75), 50, 4)


def test_calibrate_matches_the_recount_across_the_ptrs_switch(monkeypatch, small_triple):
    # circuit 0 sits just below _PTRS_SWITCH and its excitation lifts it over
    # in some bins, whose rows are all drawn by PTRS; circuit 5 has rate 0
    panel, topo, _ = small_triple
    Y = panel.Y
    S = _kernels._PTRS_SWITCH
    mu = np.array([S - 0.3, 0.5, 0.4, 0.8, 0.3, 0.0])
    A = np.zeros((6, 6))
    A[0, 1:5] = 0.4
    model = HawkesModel(mu=mu, A=A, beta=1.0)
    rates = [intensity(model, Y[:t]) for t in range(20, 60)]
    assert any(r[0] >= S for r in rates) and any(r[0] < S for r in rates)
    assert all(r[5] == 0.0 for r in rates)
    _assert_calibrate_matches_recount(monkeypatch, Y, model, topo, (20, 60), 30, 8)


def test_calibrate_scans_the_panel_once(monkeypatch, small_triple):
    panel, topo, _ = small_triple
    model = HawkesModel(mu=np.full(6, 0.5), A=np.full((6, 6), 0.02), beta=0.8)
    scanned = []
    scan = _kernels.ACTIVE.excitation_series
    monkeypatch.setattr(_kernels.ACTIVE, "excitation_series",
                        lambda counts, *a, **k: scanned.append(counts.shape[0])
                        or scan(counts, *a, **k))
    monkeypatch.setattr(_hawkes, "simulate_bin", None)
    calibrate(panel, model, topo, (40, 70), K=3, seed=0)
    assert scanned == [70]


def test_calibrate_without_training_bins_fails_clearly():
    # a model without fit metadata may calibrate from bin 0, which leaves no
    # training bins for the scale
    topo = _topo([0, 0, 1])
    model = HawkesModel(mu=np.ones(3), A=np.zeros((3, 3)), beta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="at least one training bin"):
            calibrate(np.ones((6, 3), dtype=int), model, topo, (0, 4), K=3)


def test_calibrate_rejects_overlap_with_training(small_triple):
    panel, topo, _ = small_triple
    model = fit(panel.rows(0, 40), topo, FitConfig(epochs=30), seed=0)
    with pytest.raises(PreconditionError, match="overlap"):
        calibrate(panel, model, topo, (30, 50), K=3, seed=0)


def test_quantiles_fit_once_per_substation_and_match_per_circuit_rows(monkeypatch):
    # each substation's score row is fitted once, and broadcasting the
    # substation quantiles reproduces quantiles computed on one row per circuit
    panel, topo, _ = generate_synthetic(8, 3, 60, seed=4)
    model = fit(panel.rows(0, 20), topo, FitConfig(epochs=40), seed=0)
    ss = calibrate(panel, model, topo, (20, 60), K=5, seed=1)
    assert ss.scores.shape == (3, 40)
    per_circuit = ScoreSet(scores=_conformal.to_circuits(ss.scores, topo),
                           scale=ss.scale, alpha=ss.alpha)
    assert per_circuit.n == 8
    for quantile in (empirical_quantile, qr_quantile):
        assert np.array_equal(_conformal.to_circuits(quantile(ss).q, topo),
                              quantile(per_circuit).q)

    # one batched fit per qr_quantile call, carrying one row per substation
    fit_rows = []
    qr_calls = []
    pinball_fit, qr = _conformal._pinball_fit, _conformal.qr_quantile
    monkeypatch.setattr(_conformal, "_pinball_fit",
                        lambda D, *a, **k: fit_rows.append(D.shape[0]) or pinball_fit(D, *a, **k))
    monkeypatch.setattr(_conformal, "qr_quantile",
                        lambda *a, **k: qr_calls.append(1) or qr(*a, **k))
    settings = PipelineSettings(quantile_method="qr", epochs=40)
    hst_conformal_pipeline(panel, topo, t0=21, settings=settings, seed=0)
    assert len(qr_calls) == 1
    assert fit_rows == [topo.m] * len(qr_calls)


def test_score_set_extend_appends_column():
    ss = _scores(np.array([[1.0, 2.0], [3.0, 4.0]]))
    grown = ss.extend(np.array([9.0, 9.0]))
    assert grown.n_cal == 3
    assert grown.scores[:, -1].tolist() == [9.0, 9.0]
    assert ss.n_cal == 2  # original untouched
    assert np.array_equal(grown.scale, ss.scale)


# -- pipeline -----------------------------------------------------------------------

def test_pipeline_deterministic_and_seed_sensitive(small_triple, fast_settings):
    panel, topo, _ = small_triple
    f1, a1 = hst_conformal_pipeline(panel, topo, t0=41, settings=fast_settings, seed=2)
    f2, a2 = hst_conformal_pipeline(panel, topo, t0=41, settings=fast_settings, seed=2)
    assert np.array_equal(f1.lower, f2.lower)
    assert np.array_equal(f1.upper, f2.upper)
    assert np.array_equal(a1.scores, a2.scores)
    f3, _ = hst_conformal_pipeline(panel, topo, t0=41, settings=fast_settings, seed=3)
    assert not np.array_equal(f1.lower, f3.lower)


def test_pipeline_audit_supports_full_recount(small_triple, fast_settings):
    panel, topo, _ = small_triple
    f, audit = hst_conformal_pipeline(panel, topo, t0=41, settings=fast_settings, seed=1)
    # quantiles recompute from the recorded scores
    redo = empirical_quantile(
        ScoreSet(scores=audit.scores, scale=audit.scale, alpha=audit.alpha)
    )
    assert np.array_equal(redo.q, audit.quantiles)
    # interval bounds recompute from the recorded target scenarios
    margin = audit.quantiles * audit.scale
    assert np.array_equal(f.lower, audit.target_scenarios.min(axis=0) - margin)
    assert np.array_equal(f.upper, audit.target_scenarios.max(axis=0) + margin)
    assert audit.target_bin == panel.T
    assert audit.circuit_ids == panel.circuit_ids


def test_pipeline_width_nonincreasing_in_alpha(small_triple):
    panel, topo, _ = small_triple
    widths = []
    for alpha in (0.01, 0.05, 0.1, 0.2, 0.5):
        settings = PipelineSettings(alpha=alpha, epochs=120)
        # the 40 calibration bins clamp the rank of alpha < 1/41 only
        with pytest.warns(UserWarning, match="needs conformal rank") if alpha < 1 / 41 \
                else contextlib.nullcontext():
            f, _ = hst_conformal_pipeline(panel, topo, t0=41, settings=settings, seed=0)
        widths.append(float((f.width / 1.0).mean()))
    for a, b in zip(widths, widths[1:]):
        assert b <= a + 1e-12


def test_pipeline_covers_hierarchically_over_many_repetitions():
    # the conformal guarantee is distribution-free: with 24 calibration bins
    # at alpha=0.05 the rank-24 quantile gives >= 0.95 marginal coverage, so a
    # 0.90 floor over 500 pooled repetitions has wide slack
    settings = PipelineSettings(alpha=0.05, K=10, epochs=40)
    circuit_hits = 0
    circuit_cells = 0
    sub_hits = 0
    sub_cells = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(500):
            full, topo, _ = generate_synthetic(3, 2, 37, seed=10_000 + rep)
            panel = full.rows(0, 36)
            truth_next = full.Y[36]
            f, _ = hst_conformal_pipeline(panel, topo, t0=13, settings=settings,
                                          seed=rep)
            circuit_hits += int(np.sum((f.lower <= truth_next) & (truth_next <= f.upper)))
            circuit_cells += 3
            sub_truth = topo.aggregate(truth_next)
            sub_hits += int(np.sum((f.sub_lower <= sub_truth) & (sub_truth <= f.sub_upper)))
            sub_cells += 2
    assert circuit_cells == 1500 and sub_cells == 1000
    assert circuit_hits / circuit_cells >= 0.90
    assert sub_hits / sub_cells >= 0.90


def test_pipeline_settings_validation():
    with pytest.raises(PreconditionError):
        PipelineSettings(alpha=0.0)
    with pytest.raises(PreconditionError):
        PipelineSettings(alpha=1.0)
    with pytest.raises(PreconditionError):
        PipelineSettings(K=0)
    with pytest.raises(PreconditionError):
        PipelineSettings(quantile_method="kernel")
    with pytest.raises(PreconditionError, match="epochs"):
        PipelineSettings(epochs=0)
    with pytest.raises(PreconditionError, match="learning_rate"):
        PipelineSettings(learning_rate=0.0)
    with pytest.raises(PreconditionError, match="qr_window"):
        PipelineSettings(quantile_method="qr", qr_window=0)


def test_count_settings_must_be_integers():
    # a float or bool count would fail later in range or np.arange with a raw
    # TypeError; numpy integers are integers
    for bad in ({"K": 2.5}, {"K": True}, {"epochs": 2.5}, {"epochs": False},
                {"qr_window": 1.5}, {"qr_window": np.float64(3.0)}):
        (name, value), = bad.items()
        with pytest.raises(PreconditionError, match=f"{name} must be an integer, got"):
            PipelineSettings(**bad)
    for bad in (2.5, True, "3"):
        with pytest.raises(PreconditionError, match="epochs must be an integer"):
            FitConfig(epochs=bad)
    settings = PipelineSettings(K=np.int64(3), epochs=np.int32(5), qr_window=np.uint8(2))
    assert (settings.K, settings.epochs, settings.qr_window) == (3, 5, 2)


def test_pipeline_settings_take_the_fit_settings_from_fit_config():
    # epochs, learning_rate and fit_cap are declared, defaulted and checked once
    for bad in ({"epochs": 0}, {"learning_rate": 0}):
        with pytest.raises(PreconditionError) as by_fit:
            FitConfig(**bad)
        with pytest.raises(PreconditionError) as by_settings:
            PipelineSettings(**bad)
        assert str(by_settings.value) == str(by_fit.value)
    defaults = PipelineSettings()
    assert isinstance(defaults, FitConfig)
    assert {f.name: getattr(defaults, f.name) for f in fields(FitConfig)} == asdict(FitConfig())
    assert [f.name for f in fields(FitConfig)] == ["epochs", "learning_rate", "fit_cap"]


def test_counts_must_be_whole_numbers(small_triple, fast_settings):
    # arrays follow CountPanel's rule: fractional or infinite counts are data errors
    panel, topo, _ = small_triple
    model = HawkesModel(mu=np.ones(topo.n), A=np.zeros((topo.n, topo.n)), beta=1.0)
    with pytest.raises(DataValidationError, match="whole numbers"):
        hst_conformal_pipeline(panel.Y + 0.5, topo, 21, settings=fast_settings)
    with pytest.raises(DataValidationError, match="whole numbers"):
        simulate_bin(model, np.full((2, topo.n), 0.5))
    with pytest.raises(DataValidationError, match="whole numbers"):
        fit(np.full((3, topo.n), math.inf), topo)
    with pytest.raises(DataValidationError, match="whole numbers"):
        CountPanel(Y=[[0.5]], bin_start_times=("2020-01-01",))
    with pytest.raises(DataValidationError, match="numbers"):
        training_scale([["1", "2"]])
    # whole floats are counts
    assert np.array_equal(training_scale(panel.Y.astype(float)), training_scale(panel))


def test_counts_from_2_53_on_are_data_errors():
    # counts are read as float64, which holds whole numbers exactly only below
    # 2**53; a JSON count above 2**63 arrives as uint64
    times = ("2020-01-01",)
    assert CountPanel(Y=[[2**53 - 1]], bin_start_times=times).Y[0, 0] == 2**53 - 1
    for big in (2**53, 2**62, np.array([[10**19]], dtype=np.uint64), 1e300):
        with pytest.raises(DataValidationError, match="below 2\\*\\*53"):
            CountPanel(Y=np.broadcast_to(big, (1, 1)), bin_start_times=times)
    with pytest.raises(DataValidationError, match="below 2\\*\\*53"):
        training_scale([[1.0, 2.0**60]])


def test_a_panel_total_from_2_53_on_is_a_data_error():
    # every count is below 2**53, but a running total of the panel would not be
    times = ("2020-01-01", "2020-07-01")
    below = [[2**52, 0], [2**52 - 1, 0]]
    assert CountPanel(Y=below, bin_start_times=times).Y.sum() == 2**53 - 1
    for Y in ([[2**52, 0], [2**52, 0]], [[2**52, 2**52], [0, 0]], [[2**52 + 1, 0], [2**52, 0]]):
        with pytest.raises(DataValidationError, match="total below 2\\*\\*53"):
            CountPanel(Y=Y, bin_start_times=times)
    with pytest.raises(DataValidationError, match="total below 2\\*\\*53"):
        training_scale([[2.0**52], [2.0**52]])


_COUNT_ARGUMENTS = [  # the argument named, and a call on the panel, topology and truth
    pytest.param("K", lambda p, t, m: simulate_trajectory(m, p.Y[:10], 3, K=2.5),
                 id="simulate_trajectory-K"),
    pytest.param("K", lambda p, t, m: simulate_trajectory(m, p.Y[:10], 3, K=True),
                 id="simulate_trajectory-K-bool"),
    pytest.param("horizon", lambda p, t, m: simulate_trajectory(m, p.Y[:10], 2.5),
                 id="simulate_trajectory-horizon"),
    pytest.param("K", lambda p, t, m: calibrate(p, m, t, (20, 30), K=2.5),
                 id="calibrate-K"),
    pytest.param("bin range start", lambda p, t, m: calibrate(p, m, t, (20.5, 30)),
                 id="calibrate-bin_range_start"),
    pytest.param("bin range start", lambda p, t, m: log_likelihood(m, p.Y, bins=(0.9, 3)),
                 id="log_likelihood-bin_range_start"),
    pytest.param("bin range stop", lambda p, t, m: log_likelihood(m, p.Y, bins=(0, 3.0)),
                 id="log_likelihood-bin_range_stop"),
    pytest.param("window", lambda p, t, m: qr_quantile(_scores(np.ones((2, 30))), window=2.5),
                 id="qr_quantile-window"),
    pytest.param("horizon", lambda p, t, m: horizon_forecast(p, t, 21, horizon=2.0),
                 id="horizon_forecast-horizon"),
    pytest.param("t0", lambda p, t, m: horizon_forecast(p, t, 21.5),
                 id="horizon_forecast-t0"),
    pytest.param("test", lambda p, t, m: rolling_evaluate(p, t, SplitSpec(t0=21, test=2.5)),
                 id="rolling_evaluate-test"),
    pytest.param("n", lambda p, t, m: generate_synthetic(4.5, 2, 30),
                 id="generate_synthetic-n"),
    pytest.param("m", lambda p, t, m: generate_synthetic(4, 2.0, 30),
                 id="generate_synthetic-m"),
    pytest.param("T", lambda p, t, m: generate_synthetic(4, 2, np.float64(30)),
                 id="generate_synthetic-T"),
    pytest.param("K", lambda p, t, m: _rng.streams(5, True), id="streams-K-bool"),
]


@pytest.mark.parametrize("argument, call", _COUNT_ARGUMENTS)
def test_count_arguments_must_be_integers(small_triple, argument, call):
    # a float or bool count is a precondition error naming the argument, not
    # a TypeError from deep inside, one stream or a truncated bin
    with pytest.raises(PreconditionError, match=f"^{argument} must be an integer"):
        call(*small_triple)


def test_bin_ranges_must_be_pairs(small_triple):
    # a third entry was ignored, so (0, 3, 99) read as (0, 3)
    panel, topo, truth = small_triple
    pair = re.escape("bin range must be a range or a (start, stop) pair")
    for bins in ((0, 3, 99), [0, 3, 99], (3,), np.arange(3), 3):
        with pytest.raises(PreconditionError, match=pair):
            log_likelihood(truth, panel.Y, bins=bins)
    with pytest.raises(PreconditionError, match=pair):
        calibrate(panel, truth, topo, (20, 30, 99))
    assert log_likelihood(truth, panel.Y, bins=np.array([0, 3])) == log_likelihood(
        truth, panel.Y, bins=(0, 3))


def test_constructors_leave_the_callers_arrays_writable():
    # each class freezes its own copy: freezing the given array made the
    # caller's next write raise "assignment destination is read-only"
    given = [np.ones(3), np.zeros((3, 3)), np.ones((2, 4)), np.ones(3), np.ones(2),
             np.zeros(3), np.ones(3), np.zeros(2), np.ones(2)]
    mu, A, scores, scale, q, lo, up, slo, sup = given
    made = [HawkesModel(mu=mu, A=A, beta=1.0), ScoreSet(scores, scale, 0.1),
            QuantileEstimate(q), IntervalForecast(lo, up, slo, sup, t=0)]
    kept = [made[0].mu, made[0].A, made[1].scores, made[1].scale, made[2].q,
            made[3].lower, made[3].upper, made[3].sub_lower, made[3].sub_upper]
    for a, b in zip(given, kept):
        before = a.copy()
        a += 1.0
        assert np.array_equal(b, before) and not b.flags.writeable


def test_numpy_integer_counts_are_counts(small_triple):
    panel, topo, truth = small_triple
    traj = simulate_trajectory(truth, panel.Y[:10], np.int64(2), K=np.uint8(3))
    assert np.array_equal(traj, simulate_trajectory(truth, panel.Y[:10], 2, K=3))
    assert np.array_equal(calibrate(panel, truth, topo, (np.int32(20), np.int64(30))).scores,
                          calibrate(panel, truth, topo, (20, 30)).scores)


def _one_per_circuit(what, got, n):
    return re.escape(f"need one {what} per circuit: {got} columns for {n} circuits")


def test_every_circuit_count_mismatch_has_one_message(small_triple, fast_settings,
                                                      tmp_path, capsys):
    panel, topo, _ = small_triple  # 6 circuits
    topo5 = NetworkTopology.from_assignments(topo.circuit_ids[:5],
                                             [f"s{j}" for j in (0, 1, 2, 0, 1)])
    wrong = _one_per_circuit("count", 6, 5)
    with pytest.raises(PreconditionError, match=wrong):
        fit(panel, topo5, FitConfig(epochs=5))
    model = fit(panel.rows(0, 40), topo, FitConfig(epochs=5))
    with pytest.raises(PreconditionError, match=wrong):
        calibrate(panel, model, topo5, (40, 50), K=3)
    with pytest.raises(PreconditionError, match=wrong):
        rolling_evaluate(panel, topo5, SplitSpec(t0=41, test=3), fast_settings)
    with pytest.raises(PreconditionError, match=wrong):
        horizon_forecast(panel, topo5, 41, fast_settings, horizon=2)
    with pytest.raises(PreconditionError, match=wrong):
        hst_conformal_pipeline(panel, topo5, 41, fast_settings)

    y = panel.Y[50]
    with pytest.raises(PreconditionError, match=_one_per_circuit("draw", 7, 6)):
        score_bin(y, np.ones((2, 7)), topo, np.ones(6))
    with pytest.raises(PreconditionError, match=_one_per_circuit("scale", 4, 6)):
        score_bin(y, np.ones((2, 6)), topo, np.ones(4))
    with pytest.raises(PreconditionError, match=_one_per_circuit("draw", 4, 3)):
        nonconformity_score([1, 2, 3], [[1, 1, 1, 4]], [2], np.ones(3))
    with pytest.raises(PreconditionError, match=_one_per_circuit("draw", 7, 6)):
        build_interval(np.ones((2, 7)), QuantileEstimate(np.ones(3)), np.ones(6), topo, t=0)

    # two input files that disagree are a data error of the CLI (exit code 3)
    panel.save(tmp_path / "panel.json")
    topo5.to_csv(tmp_path / "topology.csv")
    code = cli_main(["run", "--panel", str(tmp_path / "panel.json"),
                     "--topology", str(tmp_path / "topology.csv"), "--t0", "41",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert re.search(wrong, err), err


def test_every_entry_holds_a_panel_to_the_topology_circuit_order(small_triple,
                                                                  fast_settings):
    # a panel naming the same circuits in another order would put one circuit's
    # counts under another's substation; a panel without ids, or an array, is
    # in the topology's order by contract
    panel, topo, _ = small_triple
    order = [1, 0, 2, 3, 4, 5]
    swapped = CountPanel(panel.Y[:, order], panel.bin_start_times, panel.bin_length,
                         tuple(panel.circuit_ids[i] for i in order))
    model = fit(panel.rows(0, 40), topo, FitConfig(epochs=5))
    wrong = "panel circuit ordering disagrees with topology"
    with pytest.raises(DataValidationError, match=wrong):
        fit(swapped.rows(0, 40), topo, FitConfig(epochs=5))
    with pytest.raises(DataValidationError, match=wrong):
        calibrate(swapped, model, topo, (40, 50), K=3)
    with pytest.raises(DataValidationError, match=wrong):
        rolling_evaluate(swapped, topo, SplitSpec(t0=41, test=3), fast_settings)
    with pytest.raises(DataValidationError, match=wrong):
        horizon_forecast(swapped, topo, 41, fast_settings, horizon=2)
    with pytest.raises(DataValidationError, match=wrong):
        hst_conformal_pipeline(swapped, topo, 41, fast_settings)
    unnamed = CountPanel(swapped.Y, swapped.bin_start_times, swapped.bin_length)
    assert fit(unnamed.rows(0, 40), topo, FitConfig(epochs=5)).circuit_ids == topo.circuit_ids
    assert fit(swapped.rows(0, 40), None, FitConfig(epochs=5)).circuit_ids is None


def test_calibrate_holds_a_model_to_the_topology_circuit_order(small_triple):
    # a model fitted on c000, c001, ... must not score against a topology that
    # lists c001, c000, ...: its rates would land on the other circuit
    panel, topo, _ = small_triple
    order = [1, 0, 2, 3, 4, 5]
    reordered = NetworkTopology.from_assignments(
        [topo.circuit_ids[i] for i in order],
        [topo.substation_ids[topo.substation_of[i]] for i in order])
    model = fit(panel.rows(0, 40), topo, FitConfig(epochs=5))
    assert model.circuit_ids == topo.circuit_ids
    with pytest.raises(DataValidationError,
                       match="^model circuit ordering disagrees with topology$"):
        calibrate(panel.Y[:, order], model, reordered, (40, 50), K=3)
    # a model without ids is taken in the topology's order
    unnamed = HawkesModel(mu=model.mu, A=model.A, beta=model.beta, cap=model.cap,
                          floor=model.floor, meta=model.meta)
    named = calibrate(panel, model, topo, (40, 50), K=3)
    assert np.array_equal(calibrate(panel, unnamed, topo, (40, 50), K=3).scores, named.scores)


def test_library_entries_check_their_counts(small_triple, fast_settings):
    panel, topo, _ = small_triple
    model = fit(panel.rows(0, 40), topo, FitConfig(epochs=5), seed=0)
    negative = panel.Y.copy()
    negative[45, 0] = -1
    with pytest.raises(DataValidationError, match="nonnegative"):
        calibrate(negative, model, topo, (40, panel.T), K=3)
    with pytest.raises(PreconditionError, match="matrix"):
        calibrate(panel.Y[:, 0], model, topo, (40, panel.T), K=3)
    with pytest.raises(DataValidationError, match="nonnegative"):
        training_scale(negative)
    with pytest.raises(DataValidationError, match="nonnegative"):
        hst_conformal_pipeline(negative, topo, t0=41, settings=fast_settings)
    with pytest.raises(PreconditionError, match="matrix"):
        hst_conformal_pipeline(panel.Y.ravel(), topo, t0=41, settings=fast_settings)


def test_audit_record_format_is_pinned(small_triple, fast_settings, tmp_path):
    panel, topo, _ = small_triple
    _, audit = hst_conformal_pipeline(panel, topo, t0=41, settings=fast_settings, seed=1)
    doc = audit.to_dict()
    assert set(doc) == {
        "format", "t0", "alpha", "K", "quantile_method", "seed", "circuit_ids",
        "scale", "scores", "quantiles", "target_bin", "target_scenarios", "model_meta",
    }
    assert doc["format"] == "hstconformal-audit-v1"
    # JSON-native: a round trip through the text gives the same document back
    assert json.loads(json.dumps(doc)) == doc
    assert doc["circuit_ids"] == list(panel.circuit_ids)
    assert doc["target_scenarios"] == audit.target_scenarios.tolist()
    path = tmp_path / "audit.json"
    audit.save(path)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
