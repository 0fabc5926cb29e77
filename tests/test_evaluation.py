import csv
import tracemalloc
import warnings

import numpy as np
import pytest

from hstconformal import (
    DataValidationError,
    IntervalForecast,
    NetworkTopology,
    PipelineSettings,
    PreconditionError,
    SplitSpec,
    coverage_counts,
    generate_synthetic,
    horizon_forecast,
    hst_conformal_pipeline,
    rolling_evaluate,
    write_cells_csv,
    write_forecast_csv,
    write_metrics,
)
from hstconformal import _kernels
from hstconformal import conformal as _conformal
from hstconformal import evaluation as _evaluation
from hstconformal import rng as _rng
from hstconformal.conformal import build_interval, score_bin
from hstconformal.hawkes import (_topology_counts, fit, log_likelihood_gradient,
                                simulate_trajectory)


def _interval(lower, upper, topo, t=0):
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    return IntervalForecast(
        lower=lower, upper=upper,
        sub_lower=topo.aggregate(lower), sub_upper=topo.aggregate(upper), t=t,
    )


def _topo(assign):
    return NetworkTopology.from_assignments(
        [f"c{i}" for i in range(len(assign))], [f"s{j}" for j in assign]
    )


# -- coverage bookkeeping -------------------------------------------------------

def test_coverage_counts_forced_outcomes():
    topo = _topo([0, 0, 1])
    y = np.array([2, 3, 4])
    wide = _interval([-10, -10, -10], [50, 50, 50], topo)
    hits, shits = coverage_counts(wide, y, topo)
    assert hits.all() and shits.all()
    narrow = _interval([90, 90, 90], [99, 99, 99], topo)
    hits, shits = coverage_counts(narrow, y, topo)
    assert not hits.any() and not shits.any()


def test_coverage_counts_use_raw_bounds():
    # raw lower bounds may be negative; they are the ones that must count
    topo = _topo([0])
    f = _interval([-5.0], [1.0], topo)
    hits, shits = coverage_counts(f, np.array([0.0]), topo)
    assert hits[0] and shits[0]


def test_coverage_counts_read_the_row_as_counts():
    # the truth row goes through the one count reader, as scoring reads it
    topo = _topo([0, 0, 1, 1, 2, 2])
    wide = _interval([-10] * 6, [50] * 6, topo)
    for row, error, match in (
        ([np.nan, 1, 1, 1, 1, 1], DataValidationError, "nonnegative"),
        ([-5, 2, 1, 1, 1, 1], DataValidationError, "nonnegative"),
        ([0, 2.5, 1, 1, 1, 1], DataValidationError, "whole"),
        ([1, 1, 1, 1, 1], PreconditionError, "one count per circuit: 5 columns for 6"),
    ):
        with pytest.raises(error, match=match):
            coverage_counts(wide, np.array(row), topo)
    hits, shits = coverage_counts(wide, [0, 2, 1, 1, 1, 1], topo)
    assert hits.all() and shits.all()


def test_coverage_counts_aggregate_before_comparing():
    # circuits miss individually but the substation total is covered
    topo = _topo([0, 0])
    f = _interval([3.0, 3.0], [4.0, 4.0], topo)  # substation bounds [6, 8]
    y = np.array([2, 5])  # each outside, sum = 7 inside
    hits, shits = coverage_counts(f, y, topo)
    assert not hits.any()
    assert shits[0]


# -- rolling evaluation -----------------------------------------------------------

def test_result_records_hold_read_only_copies(small_triple, fast_settings):
    # as the model and interval records do: a later write to the caller's
    # array reaches no record, and no record's array can be written
    panel, topo, truth = small_triple
    Y = np.array(panel.Y, dtype=np.float64)
    report = rolling_evaluate(Y, topo, SplitSpec(t0=41, test=3), fast_settings, seed=1)
    assert not np.shares_memory(report.truth, Y)
    hf = horizon_forecast(Y, topo, 41, fast_settings, horizon=2, seed=1)
    _, audit = hst_conformal_pipeline(Y, topo, t0=41, settings=fast_settings, seed=1)
    grad = log_likelihood_gradient(truth, Y)
    arrays = {
        "EvalReport": [report.truth, report.sub_truth, report.circuit_hits, report.sub_hits,
                       report.widths_std],
        "HorizonForecast": [hf.cum_lower, hf.cum_upper, hf.cum_sub_lower, hf.cum_sub_upper],
        "AuditRecord": [audit.scale, audit.scores, audit.quantiles, audit.target_scenarios],
        "GradientResult": [grad.d_mu, grad.d_A],
    }
    assert {name: [a.flags.writeable for a in group] for name, group in arrays.items()} == {
        name: [False] * len(group) for name, group in arrays.items()}
    Y[-1] += 1.0
    assert np.array_equal(report.truth, panel.Y[-3:])

def test_rolling_report_internally_consistent(tmp_path, small_triple, fast_settings):
    panel, topo, _ = small_triple
    spec = SplitSpec(t0=41, test=10)
    rep = rolling_evaluate(panel, topo, spec, fast_settings, seed=0)

    assert rep.bins == tuple(range(70, 80))
    assert rep.truth.shape == (10, 6)
    assert np.array_equal(rep.truth, panel.Y[70:80])

    # recount every metric from the stored forecasts
    hits = np.empty_like(rep.circuit_hits)
    shits = np.empty_like(rep.sub_hits)
    for step, f in enumerate(rep.forecasts):
        h, sh = coverage_counts(f, rep.truth[step], topo)
        hits[step] = h
        shits[step] = sh
    assert np.array_equal(hits, rep.circuit_hits)
    assert np.array_equal(shits, rep.sub_hits)
    assert rep.val == hits.mean()
    assert rep.agg_val == shits.mean()
    C = np.eye(topo.m, dtype=int)[topo.substation_of]  # the (n, m) incidence matrix
    assert np.array_equal(rep.sub_truth, rep.truth @ C)

    assert rep.config["t0"] == 41 and rep.config["test"] == 10

    # the metrics file's per-bin lines are the row means of the stored arrays
    path = tmp_path / "metrics.txt"
    write_metrics(rep, path)
    lines = path.read_text().splitlines()
    header = dict(line.split("=", 1) for line in lines[:4])
    assert header == {
        "val": repr(rep.val), "agg_val": repr(rep.agg_val),
        "size": repr(rep.size), "size_raw": repr(rep.size_raw),
    }
    assert rep.size_raw == np.stack([f.width for f in rep.forecasts]).mean()
    bin_lines = [line for line in lines if line.startswith("bin=")]
    assert len(bin_lines) == len(rep.bins)
    for step, (t, line) in enumerate(zip(rep.bins, bin_lines)):
        assert line == (
            f"bin={t} val={float(rep.circuit_hits[step].mean())!r} "
            f"agg_val={float(rep.sub_hits[step].mean())!r} "
            f"size={float(rep.widths_std[step].mean())!r}"
        )


def test_rolling_deterministic_and_nondegenerate(small_triple, fast_settings):
    panel, topo, _ = small_triple
    spec = SplitSpec(t0=41, test=6)
    a = rolling_evaluate(panel, topo, spec, fast_settings, seed=4)
    b = rolling_evaluate(panel, topo, spec, fast_settings, seed=4)
    assert a.val == b.val and a.size == b.size
    for fa, fb in zip(a.forecasts, b.forecasts):
        assert np.array_equal(fa.lower, fb.lower)
        assert np.array_equal(fa.upper, fb.upper)
    assert a.size > 0.0


def test_rolling_requires_test_suffix(small_triple, fast_settings):
    panel, topo, _ = small_triple
    with pytest.raises(PreconditionError):
        rolling_evaluate(panel, topo, SplitSpec(t0=41, test=0), fast_settings)


def test_refit_each_step_changes_later_bins(small_triple):
    panel, topo, _ = small_triple
    spec = SplitSpec(t0=41, test=4)
    fixed = PipelineSettings(epochs=60)
    refit = PipelineSettings(epochs=60, refit_each_step=True)
    a = rolling_evaluate(panel, topo, spec, fixed, seed=0)
    b = rolling_evaluate(panel, topo, spec, refit, seed=0)
    assert b.config["refit_each_step"] is True
    diffs = [
        not (np.array_equal(fa.lower, fb.lower) and np.array_equal(fa.upper, fb.upper))
        for fa, fb in zip(a.forecasts, b.forecasts)
    ]
    assert any(diffs)


def test_forecasts_reject_refit_each_step(small_triple):
    # only the rolling evaluation refits; a forecast that took the setting
    # would return the bounds of one fit as if it had refit
    panel, topo, _ = small_triple
    refit = PipelineSettings(epochs=5, refit_each_step=True)
    with pytest.raises(PreconditionError, match="refit_each_step"):
        hst_conformal_pipeline(panel, topo, 41, refit, seed=0)
    with pytest.raises(PreconditionError, match="refit_each_step"):
        horizon_forecast(panel, topo, 41, refit, horizon=3, seed=0)


@pytest.mark.parametrize("refit", [False, True])
def test_rolling_matches_the_per_bin_recount(monkeypatch, small_triple, refit):
    # every test bin's scenarios, interval and score equal those of
    # simulating it from its own history with the model in force at t
    panel, topo, _ = small_triple
    Y, T = panel.Y, panel.T
    spec = SplitSpec(t0=41, test=4)
    settings = PipelineSettings(epochs=40, K=200, refit_each_step=refit)
    seed = 3
    scored = []
    score = _evaluation.score_bin
    monkeypatch.setattr(_evaluation, "score_bin",
                        lambda y, scen, *a: scored.append(np.array(scen)) or score(y, scen, *a))
    report = rolling_evaluate(panel, topo, spec, settings, seed=seed)
    monkeypatch.undo()

    # the calibration block before the test suffix has its own recount tests
    model, scores = _conformal._prepare(Y, topo, spec.t0, settings, seed,
                                        cal_stop=T - spec.test)
    for t, forecast, samples in zip(report.bins, report.forecasts, scored):
        if refit:
            model = fit(panel.rows(0, t), topo, settings, _rng.derive(seed, "fit", t))
        scen = simulate_trajectory(model, Y[:t], horizon=1, K=settings.K,
                                   seed=_rng.derive(seed, "cal", t))[:, 0]
        assert np.array_equal(samples, scen), t
        expect = build_interval(scen, _conformal._quantile_for(scores, settings),
                                scores.scale, topo, t=t)
        for name in ("lower", "upper", "sub_lower", "sub_upper"):
            assert np.array_equal(getattr(forecast, name), getattr(expect, name)), (t, name)
        assert forecast.t == expect.t == t
        scores = scores.extend(score_bin(Y[t], scen, topo, scores.scale))
    assert len(scored) == spec.test


@pytest.mark.parametrize("refit", [False, True])
def test_rolling_draws_the_scenarios_of_each_bin_once(monkeypatch, small_triple, refit):
    # K simulated rows per calibration and test bin: a refit walks its bin
    # alone, and no walk draws bins it does not score
    panel, topo, _ = small_triple
    spec = SplitSpec(t0=41, test=4)
    settings = PipelineSettings(epochs=40, K=30, refit_each_step=refit)
    rows = []
    simulate = _kernels.ACTIVE.simulate_counts
    monkeypatch.setattr(_kernels.ACTIVE, "simulate_counts",
                        lambda streams, *a: rows.append(len(streams)) or simulate(streams, *a))
    rolling_evaluate(panel, topo, spec, settings, seed=3)
    monkeypatch.undo()
    n_cal = panel.T - spec.test - (spec.t0 - 1)
    assert sum(rows) == settings.K * (n_cal + spec.test)
    if refit:
        assert rows[-spec.test:] == [settings.K] * spec.test


def test_rolling_and_horizon_take_an_array_panel(small_triple, fast_settings):
    # counts are read like every other entry's: an array works as a panel,
    # with the topology's circuit ids
    panel, topo, _ = small_triple
    spec = SplitSpec(t0=61, test=3)
    with pytest.warns(UserWarning, match="needs conformal rank"):
        a = rolling_evaluate(panel.Y, topo, spec, fast_settings, seed=2)
    with pytest.warns(UserWarning, match="needs conformal rank"):
        b = rolling_evaluate(panel, topo, spec, fast_settings, seed=2)
    for name in ("truth", "sub_truth", "circuit_hits", "sub_hits", "widths_std"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.circuit_ids == tuple(topo.circuit_ids) == tuple(b.circuit_ids)
    a = horizon_forecast(panel.Y, topo, 61, fast_settings, horizon=2, seed=2)
    b = horizon_forecast(panel, topo, 61, fast_settings, horizon=2, seed=2)
    for name in ("cum_lower", "cum_upper", "cum_sub_lower", "cum_sub_upper"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for fa, fb in zip(a.steps, b.steps):
        assert np.array_equal(fa.lower, fb.lower) and np.array_equal(fa.upper, fb.upper)


# -- horizon forecasts ---------------------------------------------------------------

def test_horizon_first_step_equals_single_bin_pipeline(small_triple, fast_settings):
    panel, topo, _ = small_triple
    hf = horizon_forecast(panel, topo, t0=41, settings=fast_settings,
                          horizon=3, seed=5)
    f, _ = hst_conformal_pipeline(panel, topo, t0=41, settings=fast_settings, seed=5)
    first = hf.steps[0]
    assert np.array_equal(first.lower, f.lower)
    assert np.array_equal(first.upper, f.upper)
    assert hf.horizon == 3
    assert hf.start_bin == panel.T


def test_horizon_forecast_matches_the_per_step_recount(small_triple, fast_settings):
    # every step is build_interval on that step's draws, and the cumulative
    # bounds are the envelope of the observed totals plus the cumulative
    # trajectories, widened by the same margin, with substation sums
    panel, topo, _ = small_triple
    seed, horizon = 4, 5
    hf = horizon_forecast(panel, topo, 41, fast_settings, horizon=horizon, seed=seed)
    model, scores = _conformal._prepare(panel.Y, topo, 41, fast_settings, seed)
    qest = _conformal._quantile_for(scores, fast_settings)
    traj = simulate_trajectory(model, panel.Y, horizon, K=fast_settings.K,
                               seed=_rng.derive(seed, "target"))
    for h, step in enumerate(hf.steps):
        expect = build_interval(traj[:, h], qest, scores.scale, topo, t=panel.T + h)
        for name in ("lower", "upper", "sub_lower", "sub_upper"):
            assert np.array_equal(getattr(step, name), getattr(expect, name)), (h, name)
        assert step.t == expect.t
    margin = np.array([qest.q[topo.substation_of[i]] * scores.scale[i] for i in range(topo.n)])
    cum = panel.Y.sum(axis=0) + np.cumsum(traj, axis=1)
    lower, upper = cum.min(axis=0) - margin, cum.max(axis=0) + margin
    assert np.array_equal(hf.cum_lower, lower)
    assert np.array_equal(hf.cum_upper, upper)
    for j, idx in enumerate(topo.members):
        assert np.array_equal(hf.cum_sub_lower[:, j], lower[:, idx].sum(axis=1)), j
        assert np.array_equal(hf.cum_sub_upper[:, j], upper[:, idx].sum(axis=1)), j


@pytest.fixture(scope="module")
def forecast_sim_panel():
    # the panel size, split and scenario count of a 200-scenario forecast,
    # with a short fit
    panel, topo, _ = generate_synthetic(24, 6, 400, seed=1)
    return panel, topo, PipelineSettings(epochs=5, K=200, alpha=0.1)


@pytest.mark.parametrize("horizon", [1, 52])
def test_stepwise_cumulative_envelope_matches_the_whole_array_one(forecast_sim_panel,
                                                                   horizon):
    # the cumulative bounds built one step at a time equal, byte for byte,
    # the envelope of the observed totals plus the cumulative sum of all steps
    panel, topo, settings = forecast_sim_panel
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, scores, qest, traj, _, cumulative = _conformal._forecast(
            _topology_counts(panel, topo), topo, 301, settings, 3, horizon)
    assert traj.shape == (200, horizon, 24)
    margin = _conformal.to_circuits(qest.q, topo, scores.scale)
    whole = _conformal._envelope(panel.Y.sum(axis=0) + np.cumsum(traj, axis=1), margin, topo)
    for name, got, want in zip(("lower", "upper", "sub_lower", "sub_upper"), cumulative, whole):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_horizon_forecast_holds_no_scenario_cube_of_cumulative_counts(forecast_sim_panel):
    # the cumulative envelope keeps (2, horizon, n) extremes, not the (K,
    # horizon, n) cumulative counts, and the calibration walk seeds its
    # 20,000 streams in bounded passes: a peak of 2.5 MiB, against 6.0 MiB
    # with two whole (200, 52, 24) arrays and one seeding pass
    panel, topo, settings = forecast_sim_panel
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        horizon_forecast(panel, topo, 301, settings, horizon=52, seed=1)
        tracemalloc.start()
        try:
            horizon_forecast(panel, topo, 301, settings, horizon=52, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**20, peak / 2**20


def test_horizon_cumulative_envelopes_are_monotone(small_triple, fast_settings):
    panel, topo, _ = small_triple
    hf = horizon_forecast(panel, topo, t0=41, settings=fast_settings,
                          horizon=8, seed=0)
    assert np.all(np.diff(hf.cum_upper, axis=0) >= 0)
    assert np.all(np.diff(hf.cum_lower, axis=0) >= 0)
    assert np.all(hf.cum_upper >= hf.cum_lower)
    # cumulative bounds start from the observed totals
    observed = panel.Y.sum(axis=0)
    assert np.all(hf.cum_upper[0] >= observed)


def test_horizon_envelope_plateaus_under_saturation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        panel, topo, _ = generate_synthetic(4, 2, 24, seed=6, cap=40.0)
        hf = horizon_forecast(
            panel, topo, t0=13,
            settings=PipelineSettings(epochs=300, K=20),
            horizon=60, seed=0,
        )
    terminal = hf.cum_sub_upper[-1]
    delta = np.abs(hf.cum_sub_upper[-1] - hf.cum_sub_upper[-2])
    assert np.all(delta <= 0.01 * np.maximum(terminal, 1.0))
    circ_terminal = hf.cum_upper[-1]
    circ_delta = np.abs(hf.cum_upper[-1] - hf.cum_upper[-2])
    assert np.all(circ_delta <= 0.01 * np.maximum(circ_terminal, 1.0))


def test_horizon_step_width_never_below_calibration_margin(small_triple, fast_settings):
    panel, topo, _ = small_triple
    hf = horizon_forecast(panel, topo, t0=41, settings=fast_settings,
                          horizon=5, seed=3)
    for f in hf.steps:
        assert np.all(f.width >= 0.0)
    # spread accumulates: the last step envelope is at least as wide on
    # average as the first for a self-exciting fit
    assert hf.steps[-1].width.mean() >= hf.steps[0].width.mean() - 1e-9


def test_horizon_rejects_zero_horizon(small_triple, fast_settings):
    panel, topo, _ = small_triple
    with pytest.raises(PreconditionError):
        horizon_forecast(panel, topo, t0=41, settings=fast_settings, horizon=0)


# -- exports ---------------------------------------------------------------------

def test_metric_and_cell_exports(tmp_path, small_triple, fast_settings):
    panel, topo, _ = small_triple
    spec = SplitSpec(t0=41, test=5)
    rep = rolling_evaluate(panel, topo, spec, fast_settings, seed=0)

    mpath = tmp_path / "metrics.txt"
    write_metrics(rep, mpath)
    text = mpath.read_text()
    assert text.splitlines()[0] == f"val={rep.val!r}"
    assert f"cells_circuit={rep.circuit_hits.size}" in text

    cpath = tmp_path / "cells.csv"
    write_cells_csv(rep, cpath)
    with open(cpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * (topo.n + topo.m)
    by_bin = {}
    for row in rows:
        by_bin.setdefault(row["bin"], []).append(row)
    for t, group in by_bin.items():
        circuits = {r["id"]: r for r in group if r["kind"] == "circuit"}
        for r in group:
            if r["kind"] != "substation":
                continue
            j = topo.substation_ids.index(r["id"])
            members = [topo.circuit_ids[i] for i in topo.members[j]]
            lo = sum(float(circuits[c]["lower_raw"]) for c in members)
            hi = sum(float(circuits[c]["upper"]) for c in members)
            assert float(r["lower_raw"]) == lo
            assert float(r["upper"]) == hi
            assert int(r["truth"]) == sum(int(circuits[c]["truth"]) for c in members)


def test_forecast_export_rows(tmp_path, small_triple, fast_settings):
    panel, topo, _ = small_triple
    hf = horizon_forecast(panel, topo, t0=41, settings=fast_settings,
                          horizon=4, seed=1)
    path = tmp_path / "forecast.csv"
    write_forecast_csv(hf, topo, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 4 * (topo.n + topo.m)
    assert rows[0][:4] == ["kind", "id", "step", "bin"]
    assert rows[1][3] == str(panel.T)

