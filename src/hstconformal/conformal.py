"""Substation-aware conformal calibration and hierarchical intervals.

One calibration score per substation per bin: the smallest (over K
scenarios) substation maximum error, i.e. the largest standardized absolute
residual among the substation's circuits.  `nonconformity_score` (one
group), `score_bin` (every substation of one bin) and `calibrate` (every
substation of a block of bins) share that one reduction, `_group_scores`.
Scores and quantiles are substation rows; `to_circuits` is the one place
they reach the circuits.  Each input has one checked reader:
`hawkes._panel_counts` for counts, which `hawkes._topology_counts` also holds
to the topology's circuit order, `_scenario_matrix` for scenario draws, a
(K, n) array, and `_scale_vector` for circuit scales.  Every scenario
comes from the simulator walk `hawkes._walk`; `_bin_scenarios` only names
the seed of each calibration bin.  `_forecast` is the one forecast core,
fit -> calibrate -> quantile -> K target trajectories -> per-step and
cumulative envelopes, and `hst_conformal_pipeline` is its horizon-1 case.

Every bound comes from `_envelope`: the scenario min/max widened by each
substation quantile de-standardized by the circuit's own scale, with
substation bounds that aggregate the RAW circuit bounds so the Cᵀ
relationship is exact.  `build_interval` is its checked one-bin case, and
`_forecast` widens every step and cumulative count by one margin.  The
nonnegativity clamp on lower bounds exists only in the reported view.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import hawkes as _hawkes
from . import rng as _rng
from .data import SplitSpec
from .errors import (DataValidationError, PreconditionError, check_circuits, check_integer,
                     freeze, write_json)
from .topology import NetworkTopology

_QUANTILE_METHODS = ("empirical", "qr")


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Per-substation score sequences in time order (``topo.substation_ids`` rows)."""

    scores: np.ndarray  # (m, n_cal)
    scale: np.ndarray  # (n,)
    alpha: float

    def __post_init__(self):
        s, _ = freeze(self, "scores", "scale", dtype=np.float64)
        _scale_vector(self.scale)  # the check of every scale
        if s.ndim != 2:
            raise PreconditionError("scores must be (substations, calibration bins)")
        if not np.isfinite(s).all() or (s < 0).any():
            raise PreconditionError("scores must be finite and nonnegative")
        if not (0.0 < self.alpha < 1.0):
            raise PreconditionError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def n(self) -> int:
        return self.scores.shape[0]  # rows: one per substation

    @property
    def n_cal(self) -> int:
        return self.scores.shape[1]

    def extend(self, new_scores) -> "ScoreSet":
        """Append one bin's (m,) score column (time order preserved)."""
        column = np.asarray(new_scores, dtype=np.float64)
        if column.shape != (self.n,):
            raise PreconditionError(
                f"need one score per substation: shape {column.shape} for {self.n} substations")
        return ScoreSet(np.column_stack([self.scores, column]), self.scale, self.alpha)


@dataclass(frozen=True, eq=False)
class QuantileEstimate:
    """One calibrated quantile per substation, in ``topo.substation_ids`` order.

    The estimator that produced it is the caller's choice
    (``PipelineSettings.quantile_method``, recorded in ``AuditRecord``).
    """

    q: np.ndarray  # (m,)

    def __post_init__(self):
        (q,) = freeze(self, "q", dtype=np.float64)
        if q.ndim != 1 or not (np.isfinite(q) & (q >= 0)).all():
            raise PreconditionError("quantiles must be a finite nonnegative vector")


@dataclass(frozen=True, eq=False)
class IntervalForecast:
    """Circuit bounds (raw) plus their exact substation aggregates."""

    lower: np.ndarray
    upper: np.ndarray
    sub_lower: np.ndarray
    sub_upper: np.ndarray
    t: int

    def __post_init__(self):
        lo, up, slo, sup = freeze(self, "lower", "upper", "sub_lower", "sub_upper",
                                  dtype=np.float64)
        if lo.shape != up.shape or slo.shape != sup.shape:
            raise PreconditionError("bound shape mismatch")
        if (lo > up).any() or (slo > sup).any():
            raise PreconditionError("lower bounds must not exceed upper bounds")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def unit_bounds(self, circuit_ids, substation_ids):
        """Yield (kind, id, lower_raw, lower_clamped, upper) rows.

        One row per circuit, then one per substation: the reported view that
        every interval table writer prints, with lower bounds clamped at 0.
        """
        for kind, ids, lower, upper in (
            ("circuit", circuit_ids, self.lower, self.upper),
            ("substation", substation_ids, self.sub_lower, self.sub_upper),
        ):
            for j, uid in enumerate(ids):
                lo = float(lower[j])
                yield kind, uid, lo, max(lo, 0.0), float(upper[j])


def training_scale(train_counts) -> np.ndarray:
    """Frozen per-circuit standardization scale: max(1, train std)."""
    Y = _hawkes._panel_counts(train_counts)
    if Y.shape[0] == 0:
        raise PreconditionError("training scale needs at least one training bin")
    return np.maximum(1.0, Y.std(axis=0))


def _scenario_matrix(scenarios, n: int) -> np.ndarray:
    """The finite (K >= 1, n) array of scenario draws as floats."""
    samples = np.asarray(scenarios, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise PreconditionError("need a nonempty (K, n) scenario matrix")
    check_circuits(samples.shape[1], n, "draw")
    if not np.isfinite(samples).all():
        raise PreconditionError("scenario draws must be finite")
    return samples


def _scale_vector(scale, n: int | None = None) -> np.ndarray:
    """The per-circuit scales as floats, finite and >= 1 as ``training_scale``
    clamps them, one per circuit when ``n`` is given: the one reader of scales."""
    s = np.asarray(scale, dtype=np.float64)
    if s.ndim != 1:
        raise PreconditionError("scale must be a vector")
    if n is not None:
        check_circuits(s.shape[0], n, "scale")
    if not (np.isfinite(s) & (s >= 1.0)).all():
        raise PreconditionError("scale entries must be finite and >= 1 (clamped)")
    return s


def _members(groups, scale):
    """The arguments of ``_group_scores`` after the bins: the circuit indices
    of every group, one group after another, where each group starts in
    them, and the read (n,) ``scale`` of each of them."""
    idx = np.concatenate(groups)
    return idx, np.cumsum([0] + [g.size for g in groups[:-1]]), scale[idx]


def _group_scores(y, samples, idx, starts, scale) -> np.ndarray:
    """Per group and bin: the smallest, over the bin's K scenarios, of the
    group's largest standardized absolute error.  The one scoring reduction,
    for R bins at once, on read inputs, which it does not check: ``y`` holds
    R count rows (R, n), ``samples`` their draws (R, K, n), and the rest is
    ``_members`` of the groups; returns (groups, R).  The errors lie
    with circuits on the leading axis, (members, R, K), so that each group's
    maximum runs over contiguous rows; max and min are exact, so the scores
    do not depend on the layout."""
    errs = np.abs(y.T[idx, :, None] - samples.transpose(2, 0, 1)[idx])
    errs /= scale[:, None, None]
    return np.maximum.reduceat(errs, starts, axis=0).min(axis=2)


def _one_bin_scores(y_t, scenarios, groups, scale, n: int) -> np.ndarray:
    """``_group_scores`` of one bin, each input read by its checked reader."""
    samples = _scenario_matrix(scenarios, n)[None]
    y = _hawkes._panel_counts(np.asarray(y_t)[None], n)
    return _group_scores(y, samples, *_members(groups, _scale_vector(scale, n)))[:, 0]


def nonconformity_score(y_t, scenarios, S_row, scale) -> float:
    """Smallest substation maximum error over the K scenarios.

    min over k of max over i' in S_row of |y_{i'} - yhat^(k)_{i'}| / s_{i'}.
    """
    idx = np.asarray(list(S_row) if isinstance(S_row, (set, frozenset)) else S_row,
                     dtype=np.int64).ravel()
    if idx.size == 0:
        raise PreconditionError("S_row must contain at least the circuit itself")
    n = np.size(y_t)
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise PreconditionError(
            f"S_row indices {bad.tolist()} are out of range for {n} circuits")
    return float(_one_bin_scores(y_t, scenarios, [idx], scale, n)[0])


def score_bin(y_t, scenarios, topo: NetworkTopology, scale) -> np.ndarray:
    """One bin's (m,) scores, one per substation in ``topo.substation_ids`` order:
    ``nonconformity_score`` of every substation's members at once."""
    return _one_bin_scores(y_t, scenarios, topo.members, scale, topo.n)


def _bin_scenarios(model: _hawkes.HawkesModel, Y, b0: int, b1: int, K: int, seed: int):
    """The walk (``hawkes._walk``) of calibration bins b0, ..., b1-1, one step
    from each: (t, (R, K, n) draws of bins t, ..., t+R-1) blocks, where bin t
    draws from the seed ``rng.derive(seed, "cal", t)``."""
    seeds = [_rng.derive(seed, "cal", t) for t in range(b0, b1)]
    return ((t, block[:, :, 0]) for t, block in _hawkes._walk(model, Y, b0, b1, seeds, K, 1))


def calibrate(panel, model: _hawkes.HawkesModel, topo: NetworkTopology, cal_bins,
              K: int = 10, seed: int = 0, alpha: float = 0.05) -> ScoreSet:
    """Score every calibration bin, conditioning on the true history.

    Bin t's scenarios come from ``_bin_scenarios`` on a stream derived from
    seed and t, so any suffix of bins scores identically whether done here
    or incrementally, and each block of bins is scored by one
    ``_group_scores`` call, bit for bit ``score_bin`` on each of its bins;
    the counts and the scale are read, and the members laid out, once per
    call.  A model that names its circuits must name the topology's, in its
    order.
    """
    Y = _hawkes._topology_counts(panel, topo)
    check_circuits(model.n, topo.n, "model rate")
    if model.circuit_ids is not None and tuple(model.circuit_ids) != topo.circuit_ids:
        raise DataValidationError("model circuit ordering disagrees with topology")
    b0, b1 = _hawkes._normalize_bins(cal_bins, Y.shape[0])
    if model.meta is not None and b0 < model.meta.n_train_bins:
        raise PreconditionError(
            f"calibration bins [{b0}, {b1}) overlap the {model.meta.n_train_bins} "
            "training bins"
        )
    scale = training_scale(Y[:b0])
    members = _members(topo.members, scale)
    scores = np.empty((topo.m, b1 - b0))
    for t, scen in _bin_scenarios(model, Y, b0, b1, K, seed):
        stop = t + scen.shape[0]
        scores[:, t - b0:stop - b0] = _group_scores(Y[t:stop], scen, *members)
    return ScoreSet(scores=scores, scale=scale, alpha=alpha)


def _conformal_rank(alpha: float, n_cal: int) -> int:
    # ceil((1-alpha)(n_cal+1)) with protection against float ulp pushing an
    # exact integer up one rank; at least 1, not yet clamped to n_cal
    v = (1.0 - alpha) * (n_cal + 1)
    return max(math.ceil(v - 1e-9), 1)


def empirical_quantile(scores: ScoreSet) -> QuantileEstimate:
    """Split-conformal empirical quantile at rank ceil((1-alpha)(n_cal+1)).

    A rank above n_cal is clamped to n_cal, the largest score, with a
    UserWarning: too few calibration bins for alpha void the finite-sample
    guarantee.
    """
    if scores.n_cal < 1:
        raise PreconditionError("need at least one calibration score per substation")
    rank = _conformal_rank(scores.alpha, scores.n_cal)
    if rank > scores.n_cal:
        warnings.warn(
            f"alpha={scores.alpha!r} needs conformal rank {rank} but n_cal="
            f"{scores.n_cal}: using the largest score; the finite-sample coverage "
            "guarantee does not hold",
            UserWarning,
            stacklevel=2,
        )
        rank = scores.n_cal
    q = np.sort(scores.scores, axis=1)[:, rank - 1]
    return QuantileEstimate(q=q)


# pinball fit: the relative duality gap at which a row is solved, the
# iteration cap of every row, and the fraction of the step to the boundary
_PINBALL_GAP = 1e-12
_PINBALL_MAX_ITER = 50
_PINBALL_STEP = 0.99995


def _pinv(a):
    # stacked pseudo-inverses at matrix_rank's tolerance: the one rank rule, for
    # rank-deficient designs and for the Newton matrices of a degenerate optimum
    return np.linalg.pinv(a, rcond=max(a.shape[-2:]) * np.finfo(np.float64).eps)


def _step(*pairs):
    # per row: _PINBALL_STEP of the largest step keeping all v + step * dv >= 0, at most 1
    ratio = np.min([np.divide(-v, dv, out=np.full_like(v, np.inf), where=dv < 0.0).min(axis=1)
                    for v, dv in pairs], axis=0)
    return np.minimum(1.0, _PINBALL_STEP * ratio)[:, None]


def _pinball_fit(D, y, tau):
    """Fit every row's linear pinball regression together; returns (theta, exhausted).

    D is (rows, nwin, p) and y is (rows, nwin).  Each row solves Koenker's
    bounded dual, max yᵀa subject to Dᵀa = (1-tau)Dᵀ1 and 0 <= a <= 1, whose
    multipliers are theta, by Frisch-Newton steps with Mehrotra's corrector.
    It leaves the batch once its duality gap is at most _PINBALL_GAP (1 + |yᵀa|),
    bit for bit as if fitted alone, or is `exhausted` after _PINBALL_MAX_ITER.
    """
    rows, nwin, p = D.shape
    theta = np.matmul(_pinv(D), y[:, :, None])[:, :, 0]  # least squares
    e = y - np.matmul(D, theta[:, :, None])[:, :, 0]
    a = np.full((rows, nwin), 1.0 - tau)  # feasible
    s = np.full((rows, nwin), tau)  # 1 - a, kept apart for its precision near a = 1
    w = np.maximum(e, 0.0) + 1.0  # bound slacks z, w > 0 with w - z = e: dual feasible
    z = w - e
    out = np.empty((rows, p))
    live = np.arange(rows)  # original row of each running row
    for k in range(_PINBALL_MAX_ITER + 1):
        gap = (a * z).sum(axis=1) + (s * w).sum(axis=1)
        run = gap > _PINBALL_GAP * (1.0 + np.abs((y * a).sum(axis=1)))
        out[live[~run]] = theta[~run]
        live, D, y, a, s, z, w, theta, gap = (
            v[run] for v in (live, D, y, a, s, z, w, theta, gap))
        if live.size == 0 or k == _PINBALL_MAX_ITER:
            break
        q = 1.0 / (z / a + w / s)
        P = _pinv(np.matmul(D.transpose(0, 2, 1) * q[:, None, :], D))

        def newton(raz, rsw):
            # the step that changes a∘z by raz and (1-a)∘w by rsw, to first order,
            # and its length: one for a and theta, as separate lengths can grow the gap
            rho = raz / a - rsw / s
            dtheta = np.matmul(P, np.matmul((q * rho)[:, None, :], D)[:, 0, :, None])[:, :, 0]
            da = q * (rho - np.matmul(D, dtheta[:, :, None])[:, :, 0])
            dz, dw = (raz - z * da) / a, (rsw + w * da) / s
            return dtheta, da, dz, dw, _step((a, da), (s, -da), (z, dz), (w, dw))

        dtheta, da, dz, dw, t = newton(-a * z, -s * w)  # predictor
        aff = ((a + t * da) * (z + t * dz) + (s - t * da) * (w + t * dw)).sum(axis=1)
        mu = (gap * (aff / gap) ** 3 / (2 * nwin))[:, None]  # Mehrotra's centring
        dtheta, da, dz, dw, t = newton(mu - a * z - da * dz, mu - s * w + da * dw)
        a, s, z, w = a + t * da, s - t * da, z + t * dz, w + t * dw
        theta = theta + t * dtheta
    out[live] = theta
    return out, np.isin(np.arange(rows), live)


def _check_qr_history(n_cal: int, window: int):
    if n_cal < window + 1:
        raise PreconditionError(
            f"qr_window={window} needs at least {window + 1} calibration scores per "
            f"substation, have {n_cal}; use quantile_method: empirical instead")


def qr_quantile(scores: ScoreSet, window: int = 10) -> QuantileEstimate:
    """Conditional quantile by linear pinball regression on recent scores.

    Per substation, each sliding window of `window` scores predicts the next
    score at level 1-alpha; the fitted model is evaluated on the most recent
    window.  Negative predictions are clamped to 0.  All substation rows are
    fitted in one `_pinball_fit` call, bit for bit as if fitted alone; rows
    that reach its iteration cap keep their last iterate, named in a UserWarning.
    """
    check_integer(window, "window")
    if window < 1:
        raise PreconditionError("window must be >= 1")
    _check_qr_history(scores.n_cal, window)
    nwin = scores.n_cal - window
    X = np.lib.stride_tricks.sliding_window_view(scores.scores, window, axis=1)[:, :nwin]
    mean = X.mean(axis=1)
    std = X.std(axis=1)
    std = np.where(std > 1e-12, std, 1.0)
    D = np.ones((scores.n, nwin, window + 1))  # standardized windows, then intercept
    np.subtract(X, mean[:, None], out=D[:, :, :-1])
    np.divide(D[:, :, :-1], std[:, None], out=D[:, :, :-1])
    theta, exhausted = _pinball_fit(D, scores.scores[:, window:], 1.0 - scores.alpha)
    if exhausted.any():
        warnings.warn(
            f"pinball fit of substation rows {np.flatnonzero(exhausted).tolist()} "
            f"reached its cap of {_PINBALL_MAX_ITER} iterations with a relative "
            f"duality gap above {_PINBALL_GAP!r}; their quantiles use the last iterate",
            UserWarning,
            stacklevel=2,
        )
    x_last = (scores.scores[:, -window:] - mean) / std
    q = np.array([max(0.0, float(x_last[i] @ theta[i, :-1] + theta[i, -1]))
                  for i in range(scores.n)])
    return QuantileEstimate(q=q)


def to_circuits(rows, topo: NetworkTopology, scale=1.0) -> np.ndarray:
    """Substation rows as circuit rows times scale: margin = substation q * own scale."""
    return np.asarray(rows)[topo.substation_of] * scale


def _envelope(samples, margin, topo: NetworkTopology):
    """The min and max of ``samples`` along its leading axis, widened by the
    (n,) circuit ``margin``, with their substation sums: (lower, upper,
    sub_lower, sub_upper), the one rule behind every interval bound."""
    lower = samples.min(axis=0) - margin
    upper = samples.max(axis=0) + margin
    return lower, upper, topo.aggregate(lower), topo.aggregate(upper)


def build_interval(scenarios, q: QuantileEstimate, scale, topo: NetworkTopology,
                   t: int) -> IntervalForecast:
    """Bin t's interval: the ``_envelope`` of its (K, n) scenario draws widened
    by (m,) quantiles times (n,) circuit scales."""
    samples = _scenario_matrix(scenarios, topo.n)
    s = _scale_vector(scale, topo.n)
    if q.q.shape != (topo.m,):
        raise PreconditionError(
            f"need one quantile per substation: {q.q.size} for {topo.m} substations")
    return IntervalForecast(*_envelope(samples, to_circuits(q.q, topo, s), topo), t=int(t))


# ---------------------------------------------------------------------------
# End-to-end pipeline.

@dataclass(frozen=True)
class PipelineSettings(_hawkes.FitConfig):
    """``FitConfig``'s fit settings, which ``fit`` reads off it, plus calibration's
    level, scenario count and quantile method and the rolling evaluation's refit."""

    alpha: float = 0.05
    K: int = 10
    quantile_method: str = "empirical"
    qr_window: int = 10
    refit_each_step: bool = False

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise PreconditionError(f"alpha must lie in (0, 1), got {self.alpha}")
        check_integer(self.K, "K")
        if self.K < 1:
            raise PreconditionError("need K >= 1 scenarios")
        if self.quantile_method not in _QUANTILE_METHODS:
            raise PreconditionError(
                f"quantile_method must be one of {_QUANTILE_METHODS}, "
                f"got {self.quantile_method!r}"
            )
        check_integer(self.qr_window, "qr_window")
        if self.qr_window < 1:
            raise PreconditionError("qr_window must be >= 1")
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class AuditRecord:
    """Everything needed to recompute an interval by hand."""

    t0: int
    alpha: float
    K: int
    quantile_method: str
    seed: int
    circuit_ids: tuple
    scale: np.ndarray
    scores: np.ndarray
    quantiles: np.ndarray
    target_bin: int
    target_scenarios: np.ndarray
    model_meta: dict | None

    def __post_init__(self):
        freeze(self, "scale", "scores", "quantiles", "target_scenarios")

    def to_dict(self) -> dict:
        """Every field, arrays and tuples as lists, plus the format tag."""
        doc = {"format": "hstconformal-audit-v1"}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc

    def save(self, path):
        write_json(path, self.to_dict())


def _quantile_for(scores: ScoreSet, settings: PipelineSettings) -> QuantileEstimate:
    if settings.quantile_method == "qr":
        return qr_quantile(scores, window=settings.qr_window)
    return empirical_quantile(scores)


def _prepare(Y, topo, t0: int, settings: PipelineSettings, seed: int, cal_stop=None):
    """Fit on read counts ``Y`` before t0 and score calibration bins up to cal_stop."""
    T = Y.shape[0]
    SplitSpec(t0=t0, test=0).validate(T)
    stop = T if cal_stop is None else cal_stop
    if settings.quantile_method == "qr":
        _check_qr_history(stop - (t0 - 1), settings.qr_window)
    model = _hawkes.fit(Y[: t0 - 1], topo, settings, _rng.derive(seed, "fit"))
    scores = calibrate(
        Y, model, topo, (t0 - 1, stop), K=settings.K, seed=seed,
        alpha=settings.alpha,
    )
    return model, scores


def _forecast(Y, topo, t0: int, settings: PipelineSettings, seed: int, horizon: int):
    """fit -> calibrate -> quantile -> K "target" trajectories of ``horizon``
    steps after the read counts ``Y`` -> the ``_envelope`` of every step and
    of the cumulative counts, both widened by one circuit margin.

    Returns (model, scores, quantiles, (K, horizon, n) trajectories, steps,
    cumulative), steps holding one ``IntervalForecast`` per step and
    cumulative the (horizon, n) and (horizon, m) bounds of the observed
    totals plus the cumulative trajectories.
    """
    model, scores = _prepare(Y, topo, t0, settings, seed)
    qest = _quantile_for(scores, settings)
    traj = _hawkes.simulate_trajectory(model, Y, horizon=horizon, K=settings.K,
                                       seed=_rng.derive(seed, "target"))
    margin = to_circuits(qest.q, topo, scores.scale)
    bounds = _envelope(traj, margin, topo)
    steps = tuple(IntervalForecast(*(b[h] for b in bounds), t=Y.shape[0] + h)
                  for h in range(horizon))
    cumulative = _envelope(Y.sum(axis=0) + np.cumsum(traj, axis=1), margin, topo)
    return model, scores, qest, traj, steps, cumulative


def hst_conformal_pipeline(panel, topo: NetworkTopology, t0: int,
                           settings: PipelineSettings = PipelineSettings(),
                           seed: int = 0):
    """fit -> calibrate -> quantile -> simulate target bin -> intervals: the
    horizon-1 case of the forecast core ``_forecast``.

    t0 is the 1-based index of the first calibration bin (bins before it
    train the model); the target is the bin after the panel ends.  Returns
    (IntervalForecast, AuditRecord); deterministic given seed.
    """
    model, scores, qest, traj, (forecast,), _ = _forecast(
        _hawkes._topology_counts(panel, topo), topo, t0, settings, seed, 1)
    audit = AuditRecord(
        t0=t0,
        alpha=settings.alpha,
        K=settings.K,
        quantile_method=settings.quantile_method,
        seed=seed,
        circuit_ids=topo.circuit_ids,
        scale=scores.scale,
        scores=to_circuits(scores.scores, topo),
        quantiles=to_circuits(qest.q, topo),
        target_bin=forecast.t,
        target_scenarios=traj[:, 0],
        model_meta=None if model.meta is None else asdict(model.meta),
    )
    return forecast, audit
