"""Rolling one-step evaluation, horizon forecasts, and their CSV writers.

The rolling harness fits once on the training block, then walks the test
suffix bin by bin, as calibration does: each bin gets an interval built from
all data before it, and its score joins the calibration pool before the next
bin.  A full refit per step is available behind ``refit_each_step``.
Coverage at circuit and substation level is checked against the truth once
the walk is done.  Counts are read through ``hawkes._topology_counts``, in
the topology's circuit order, and ``horizon_forecast`` is the multi-step case
of the forecast core ``conformal._forecast``, whose horizon-1 case is
``hst_conformal_pipeline``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import hawkes as _hawkes
from . import rng as _rng
from .conformal import (
    IntervalForecast,
    PipelineSettings,
    _bin_scenarios,
    _forecast,
    _prepare,
    _quantile_for,
    build_interval,
    score_bin,
    to_circuits,
)
from .data import SplitSpec
from .errors import PreconditionError
from .topology import NetworkTopology


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Per-cell truth, coverage and width over the test suffix.

    The arrays are the measurements; the summaries ``val``, ``agg_val``,
    ``size`` and ``size_raw`` are derived from them on access.
    """

    config: dict
    bins: tuple
    circuit_ids: tuple
    substation_ids: tuple
    truth: np.ndarray  # (n_test, n)
    sub_truth: np.ndarray  # (n_test, m)
    circuit_hits: np.ndarray  # (n_test, n) bool
    sub_hits: np.ndarray  # (n_test, m) bool
    widths_std: np.ndarray  # (n_test, n)
    forecasts: tuple  # per-bin IntervalForecast

    @property
    def val(self) -> float:
        """Pooled circuit coverage."""
        return float(self.circuit_hits.mean())

    @property
    def agg_val(self) -> float:
        """Pooled substation coverage."""
        return float(self.sub_hits.mean())

    @property
    def size(self) -> float:
        """Mean circuit width in units of the training scale."""
        return float(self.widths_std.mean())

    @property
    def size_raw(self) -> float:
        """Mean circuit width in counts."""
        return float(np.stack([f.width for f in self.forecasts]).mean())


def coverage_counts(forecast: IntervalForecast, y_t, topo: NetworkTopology):
    """Coverage indicators for one bin's count row, from RAW bounds at both levels."""
    y = _hawkes._panel_counts(np.asarray(y_t)[None], topo.n)[0]
    hits = (forecast.lower <= y) & (y <= forecast.upper)
    sub_y = topo.aggregate(y)
    sub_hits = (forecast.sub_lower <= sub_y) & (sub_y <= forecast.sub_upper)
    return hits, sub_hits


def rolling_evaluate(panel, topo: NetworkTopology, spec: SplitSpec,
                     settings: PipelineSettings = PipelineSettings(),
                     seed: int = 0) -> EvalReport:
    """One-step-ahead intervals over the test suffix; see module docstring.

    Bin t's K scenarios come from ``conformal._bin_scenarios``, the walk
    ``calibrate`` takes, bit for bit; a ``refit_each_step`` refit, which
    moves beta and with it every start state, begins a new walk at t.
    """
    Y = _hawkes._topology_counts(panel, topo)
    T = Y.shape[0]
    spec.validate(T)
    if spec.test < 1:
        raise PreconditionError("rolling evaluation needs a nonempty test suffix")
    test_start = T - spec.test
    model, scores = _prepare(Y, topo, spec.t0, settings, seed, cal_stop=test_start)
    scale = scores.scale

    walk = _bin_scenarios(model, Y, test_start, T, settings.K, seed)
    forecasts = []
    for t in range(test_start, T):
        if settings.refit_each_step:
            model = _hawkes.fit(Y[:t], topo,
                                settings.fit_config(_rng.derive(seed, "fit", t)))
            walk = _bin_scenarios(model, Y, t, T, settings.K, seed)
        qest = _quantile_for(scores, settings)
        scen = next(walk)
        forecasts.append(build_interval(scen, qest, scale, topo, t=t))
        # the bin's own score joins the pool before the next bin is predicted
        scores = scores.extend(score_bin(Y[t], scen, topo, scale))

    truth = Y[test_start:]
    hits = [coverage_counts(f, y, topo) for f, y in zip(forecasts, truth)]
    return EvalReport(
        config={
            "alpha": settings.alpha,
            "K": settings.K,
            "quantile_method": settings.quantile_method,
            "seed": seed,
            "t0": spec.t0,
            "test": spec.test,
            "refit_each_step": settings.refit_each_step,
        },
        bins=tuple(range(test_start, T)),
        circuit_ids=topo.circuit_ids,
        substation_ids=tuple(topo.substation_ids),
        truth=truth,
        sub_truth=topo.aggregate(truth),
        circuit_hits=np.stack([h for h, _ in hits]),
        sub_hits=np.stack([sh for _, sh in hits]),
        widths_std=np.stack([f.width for f in forecasts]) / scale,
        forecasts=tuple(forecasts),
    )


@dataclass(frozen=True, eq=False)
class HorizonForecast:
    """Per-step interval forecasts plus cumulative-count envelopes."""

    steps: tuple  # IntervalForecast per horizon step
    cum_lower: np.ndarray  # (H, n) raw circuit cumulative bounds
    cum_upper: np.ndarray
    cum_sub_lower: np.ndarray  # (H, m)
    cum_sub_upper: np.ndarray
    start_bin: int

    @property
    def horizon(self) -> int:
        return len(self.steps)


def horizon_forecast(panel, topo: NetworkTopology, t0: int,
                     settings: PipelineSettings = PipelineSettings(),
                     horizon: int = 1, seed: int = 0) -> HorizonForecast:
    """K recursive trajectories wrapped in calibrated per-step envelopes.

    Step h's interval applies the one-step calibrated quantile to the
    min/max envelope of the K trajectories at that step (``conformal._forecast``,
    whose horizon-1 case is the one-shot pipeline forecast); cumulative
    envelopes add the observed history totals to cumulative trajectory
    counts before enveloping, so they flatten once trajectories saturate.
    """
    if horizon < 1:
        raise PreconditionError("need horizon >= 1")
    Y = _hawkes._topology_counts(panel, topo)
    _, scores, qest, traj, steps = _forecast(Y, topo, t0, settings, seed, horizon)
    margin = to_circuits(qest.q, topo, scores.scale)
    observed = Y.sum(axis=0)
    cum_traj = observed[None, None, :] + np.cumsum(traj, axis=1)
    cum_lower = cum_traj.min(axis=0) - margin[None, :]
    cum_upper = cum_traj.max(axis=0) + margin[None, :]
    return HorizonForecast(
        steps=steps,
        cum_lower=cum_lower,
        cum_upper=cum_upper,
        cum_sub_lower=topo.aggregate(cum_lower),
        cum_sub_upper=topo.aggregate(cum_upper),
        start_bin=Y.shape[0],
    )


# ---------------------------------------------------------------------------
# Plot-ready exports.

def write_metrics(report: EvalReport, path):
    """Plain-text metric summary; fixed key order, repr floats."""
    lines = [
        f"val={report.val!r}",
        f"agg_val={report.agg_val!r}",
        f"size={report.size!r}",
        f"size_raw={report.size_raw!r}",
        f"cells_circuit={report.circuit_hits.size}",
        f"cells_substation={report.sub_hits.size}",
    ]
    for key in sorted(report.config):
        lines.append(f"config.{key}={report.config[key]!r}")
    for step, t in enumerate(report.bins):
        lines.append(
            f"bin={t} val={float(report.circuit_hits[step].mean())!r} "
            f"agg_val={float(report.sub_hits[step].mean())!r} "
            f"size={float(report.widths_std[step].mean())!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_cells_csv(report: EvalReport, path):
    """Flat per-(unit, bin) rows: bounds, truth, coverage indicator."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["kind", "id", "bin", "truth", "lower_raw", "lower_clamped", "upper",
             "width", "covered"]
        )
        for step, t in enumerate(report.bins):
            truth = {"circuit": report.truth[step], "substation": report.sub_truth[step]}
            hits = {"circuit": report.circuit_hits[step],
                    "substation": report.sub_hits[step]}
            rows = report.forecasts[step].unit_bounds(report.circuit_ids,
                                                      report.substation_ids)
            for kind, uid, j, lo, lo_c, up in rows:
                writer.writerow([
                    kind, uid, t, int(truth[kind][j]), repr(lo), repr(lo_c),
                    repr(up), repr(up - lo), int(hits[kind][j]),
                ])


def write_forecast_csv(hf: HorizonForecast, topo: NetworkTopology, path):
    """Per-step interval rows plus cumulative envelopes for plotting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["kind", "id", "step", "bin", "lower_raw", "lower_clamped", "upper",
             "cum_lower", "cum_upper"]
        )
        for h, f in enumerate(hf.steps):
            cum_lower = {"circuit": hf.cum_lower[h], "substation": hf.cum_sub_lower[h]}
            cum_upper = {"circuit": hf.cum_upper[h], "substation": hf.cum_sub_upper[h]}
            rows = f.unit_bounds(topo.circuit_ids, topo.substation_ids)
            for kind, uid, j, lo, lo_c, up in rows:
                writer.writerow([
                    kind, uid, h, hf.start_bin + h, repr(lo), repr(lo_c), repr(up),
                    repr(float(cum_lower[kind][j])), repr(float(cum_upper[kind][j])),
                ])
