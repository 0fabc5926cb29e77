"""Rolling one-step evaluation, horizon forecasts, and their CSV writers.

The rolling harness fits once on the training block, then walks the test
suffix with calibration's walk (``conformal._bin_scenarios`` over the
simulator walk ``hawkes._walk``), which simulates blocks of bins at once:
each bin gets an interval (``build_interval``) built from all data before
it, and its score joins the calibration pool before the next bin.  A full
refit per step is available behind ``refit_each_step``; each refit
simulates its own bin only.  Coverage at circuit and substation level is
checked against the truth once the walk is done.  Counts are read through
``hawkes._topology_counts``, in the topology's circuit order.
``horizon_forecast`` packs the per-step and cumulative bounds of the
forecast core ``conformal._forecast``, whose horizon-1 case is
``hst_conformal_pipeline``; this module makes no bound of its own.
"""

from __future__ import annotations

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
)
from .data import SplitSpec
from .errors import PreconditionError, check_integer, freeze, write_csv, write_lines
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

    def __post_init__(self):
        freeze(self, "truth", "sub_truth", "circuit_hits", "sub_hits", "widths_std")

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
    ``calibrate`` takes, bit for bit, in blocks of bins; a
    ``refit_each_step`` refit, which moves beta and with it every start
    state, walks bin t alone.
    """
    Y = _hawkes._topology_counts(panel, topo)
    T = Y.shape[0]
    spec.validate(T)
    if spec.test < 1:
        raise PreconditionError("rolling evaluation needs a nonempty test suffix")
    test_start = T - spec.test
    model, scores = _prepare(Y, topo, spec.t0, settings, seed, cal_stop=test_start)
    scale = scores.scale

    def walk(model, b0, b1):
        # each bin's (K, n) scenarios, one at a time
        return (scen for _, block in _bin_scenarios(model, Y, b0, b1, settings.K, seed)
                for scen in block)

    bins = walk(model, test_start, T)
    forecasts = []
    for t in range(test_start, T):
        if settings.refit_each_step:
            model = _hawkes.fit(Y[:t], topo, settings, _rng.derive(seed, "fit", t))
            bins = walk(model, t, t + 1)
        qest = _quantile_for(scores, settings)
        scen = next(bins)
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

    def __post_init__(self):
        freeze(self, "cum_lower", "cum_upper", "cum_sub_lower", "cum_sub_upper",
               dtype=np.float64)

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
    counts before enveloping with the same margin, so they flatten once
    trajectories saturate.
    """
    check_integer(horizon, "horizon")
    if horizon < 1:
        raise PreconditionError("need horizon >= 1")
    Y = _hawkes._topology_counts(panel, topo)
    *_, steps, cumulative = _forecast(Y, topo, t0, settings, seed, horizon)
    return HorizonForecast(steps, *cumulative, start_bin=Y.shape[0])


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
    lines += (f"config.{key}={report.config[key]!r}" for key in sorted(report.config))
    lines += (f"bin={t} val={float(report.circuit_hits[step].mean())!r} "
              f"agg_val={float(report.sub_hits[step].mean())!r} "
              f"size={float(report.widths_std[step].mean())!r}"
              for step, t in enumerate(report.bins))
    write_lines(path, lines)


def write_cells_csv(report: EvalReport, path):
    """Flat per-(unit, bin) rows: bounds, truth, coverage indicator."""
    def rows():  # one bin at a time, not the whole table at once
        for step, t in enumerate(report.bins):
            # one entry per row of unit_bounds: every circuit, then every substation
            truth = np.concatenate([report.truth[step], report.sub_truth[step]]).tolist()
            hits = np.concatenate([report.circuit_hits[step], report.sub_hits[step]]).tolist()
            bounds = report.forecasts[step].unit_bounds(report.circuit_ids,
                                                        report.substation_ids)
            for (kind, uid, _, lo, lo_c, up), y, hit in zip(bounds, truth, hits):
                yield [kind, uid, t, int(y), lo, lo_c, up, up - lo, int(hit)]
    write_csv(path, ["kind", "id", "bin", "truth", "lower_raw", "lower_clamped", "upper",
                     "width", "covered"], rows(), line_end="\r\n")


def write_forecast_csv(hf: HorizonForecast, topo: NetworkTopology, path):
    """Per-step interval rows plus cumulative envelopes for plotting."""
    def rows():  # one step at a time, as write_cells_csv's
        for h, f in enumerate(hf.steps):
            cum_lower = np.concatenate([hf.cum_lower[h], hf.cum_sub_lower[h]]).tolist()
            cum_upper = np.concatenate([hf.cum_upper[h], hf.cum_sub_upper[h]]).tolist()
            bounds = f.unit_bounds(topo.circuit_ids, topo.substation_ids)
            for (kind, uid, _, lo, lo_c, up), cum_lo, cum_up in zip(bounds, cum_lower,
                                                                    cum_upper):
                yield [kind, uid, h, hf.start_bin + h, lo, lo_c, up, cum_lo, cum_up]
    write_csv(path, ["kind", "id", "step", "bin", "lower_raw", "lower_clamped", "upper",
                     "cum_lower", "cum_upper"], rows(), line_end="\r\n")
