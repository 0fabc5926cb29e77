"""Substation-aware conformal calibration and hierarchical intervals.

One calibration score per substation per bin: the smallest (over K
scenarios) substation maximum error, i.e. the largest standardized absolute
residual among the substation's circuits.  `nonconformity_score` (one
group) and `score_bin` (every substation) share that one reduction,
`_group_scores`.  Scores and quantiles are substation rows; `to_circuits` is
the one place they reach the circuits.  Counts are read through
`hawkes._panel_counts` and scenario draws through `_scenario_matrix`, each
with its checks; calibration bins' scenarios through `_bin_scenarios`.

Intervals de-standardize each substation quantile by the circuit's own scale
and wrap the scenario min/max envelope; substation bounds aggregate the RAW
circuit bounds so the Cᵀ relationship is exact.  The nonnegativity clamp on
lower bounds exists only in the reported view.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import hawkes as _hawkes
from . import rng as _rng
from .data import SplitSpec
from .errors import PreconditionError, write_json
from .topology import NetworkTopology

_QUANTILE_METHODS = ("empirical", "qr")


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Per-substation score sequences in time order (``topo.substation_ids`` rows)."""

    scores: np.ndarray  # (m, n_cal)
    scale: np.ndarray  # (n,)
    alpha: float

    def __post_init__(self):
        s = np.ascontiguousarray(self.scores, dtype=np.float64)
        sc = np.ascontiguousarray(self.scale, dtype=np.float64)
        if s.ndim != 2:
            raise PreconditionError("scores must be (substations, calibration bins)")
        if not np.isfinite(s).all() or (s < 0).any():
            raise PreconditionError("scores must be finite and nonnegative")
        if not (sc >= 1.0).all():
            raise PreconditionError("scale entries must be >= 1 (clamped)")
        if not (0.0 < self.alpha < 1.0):
            raise PreconditionError(f"alpha must lie in (0, 1), got {self.alpha}")
        s.flags.writeable = False
        sc.flags.writeable = False
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "scale", sc)

    @property
    def n(self) -> int:
        return self.scores.shape[0]  # rows: one per substation

    @property
    def n_cal(self) -> int:
        return self.scores.shape[1]

    def extend(self, new_scores) -> "ScoreSet":
        """Append one bin's (m,) score column (time order preserved)."""
        return ScoreSet(np.column_stack([self.scores, new_scores]), self.scale, self.alpha)


@dataclass(frozen=True, eq=False)
class QuantileEstimate:
    """One calibrated quantile per substation, in ``topo.substation_ids`` order.

    The estimator that produced it is the caller's choice
    (``PipelineSettings.quantile_method``, recorded in ``AuditRecord``).
    """

    q: np.ndarray  # (m,)

    def __post_init__(self):
        q = np.ascontiguousarray(self.q, dtype=np.float64)
        if q.ndim != 1 or (q < 0).any():
            raise PreconditionError("quantiles must be a nonnegative vector")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)


@dataclass(frozen=True, eq=False)
class IntervalForecast:
    """Circuit bounds (raw) plus their exact substation aggregates."""

    lower: np.ndarray
    upper: np.ndarray
    sub_lower: np.ndarray
    sub_upper: np.ndarray
    t: int

    def __post_init__(self):
        lo = np.ascontiguousarray(self.lower, dtype=np.float64)
        up = np.ascontiguousarray(self.upper, dtype=np.float64)
        slo = np.ascontiguousarray(self.sub_lower, dtype=np.float64)
        sup = np.ascontiguousarray(self.sub_upper, dtype=np.float64)
        if lo.shape != up.shape or slo.shape != sup.shape:
            raise PreconditionError("bound shape mismatch")
        if (lo > up).any() or (slo > sup).any():
            raise PreconditionError("lower bounds must not exceed upper bounds")
        for a in (lo, up, slo, sup):
            a.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "sub_lower", slo)
        object.__setattr__(self, "sub_upper", sup)

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def unit_bounds(self, circuit_ids, substation_ids):
        """Yield (kind, id, index, lower_raw, lower_clamped, upper) floats.

        One row per circuit, then one per substation: the reported view that
        every interval table writer prints, with lower bounds clamped at 0.
        """
        for kind, ids, lower, upper in (
            ("circuit", circuit_ids, self.lower, self.upper),
            ("substation", substation_ids, self.sub_lower, self.sub_upper),
        ):
            for j, uid in enumerate(ids):
                lo = float(lower[j])
                yield kind, uid, j, lo, max(lo, 0.0), float(upper[j])


def training_scale(train_counts) -> np.ndarray:
    """Frozen per-circuit standardization scale: max(1, train std)."""
    Y = np.asarray(_hawkes._panel_counts(train_counts), dtype=np.float64)
    if Y.shape[0] == 0:
        raise PreconditionError("training scale needs at least one training bin")
    return np.maximum(1.0, Y.std(axis=0))


def _scenario_matrix(scenarios) -> np.ndarray:
    """The (K, n) draws of a ``ScenarioSet`` or an array, K >= 1, as floats."""
    samples = np.asarray(getattr(scenarios, "samples", scenarios), dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise PreconditionError("need a nonempty (K, n) scenario matrix")
    return samples


def _group_scores(y_t, scenarios, groups, scale) -> np.ndarray:
    """Per group of circuit indices: the smallest, over the K scenarios, of the
    group's largest standardized absolute error.  The one scoring reduction."""
    samples = _scenario_matrix(scenarios)
    idx = np.concatenate(groups)
    y = np.asarray(y_t, dtype=np.float64)[idx]
    s = np.asarray(scale, dtype=np.float64)[idx]
    errs = np.abs(y[None, :] - samples[:, idx]) / s[None, :]
    starts = np.cumsum([0] + [g.size for g in groups[:-1]])
    return np.maximum.reduceat(errs, starts, axis=1).min(axis=0)


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
    return float(_group_scores(y_t, scenarios, [idx], scale)[0])


def score_bin(y_t, scenarios, topo: NetworkTopology, scale) -> np.ndarray:
    """One bin's (m,) scores, one per substation in ``topo.substation_ids`` order:
    ``nonconformity_score`` of every substation's members at once."""
    empty = [sid for sid, idx in zip(topo.substation_ids, topo.members) if idx.size == 0]
    if empty:
        raise PreconditionError(f"cannot score substations with no circuits: {empty}")
    return _group_scores(y_t, scenarios, topo.members, scale)


def _bin_scenarios(model: _hawkes.HawkesModel, Y, b0: int, b1: int, K: int, seed: int):
    """Yield the (K, n) scenarios of bins b0, ..., b1-1, one bin at a time.

    Bin t starts from row t of one scan of ``Y[:b1]`` (``hawkes._start_states``)
    and draws from its own derived stream, so its scenarios are bit for bit
    those of ``simulate_bin`` on ``Y[:t]`` with that stream's seed.
    """
    G, before = _hawkes._start_states(model, Y[:b1])
    for t in range(b0, b1):
        yield _hawkes._simulate_from(model, G[t], before[t], 1, K,
                                     _rng.derive(seed, "cal", t))[:, 0]


def calibrate(panel, model: _hawkes.HawkesModel, topo: NetworkTopology, cal_bins,
              K: int = 10, seed: int = 0, alpha: float = 0.05) -> ScoreSet:
    """Score every calibration bin, conditioning on the true history.

    Bin t's scenarios come from ``_bin_scenarios`` on a stream derived from
    seed and t, so any suffix of bins scores identically whether done here
    or incrementally.
    """
    Y = _hawkes._model_counts(panel, model)
    b0, b1 = _hawkes._normalize_bins(cal_bins, Y.shape[0])
    if topo.n != model.n:
        raise PreconditionError("topology and model disagree on circuit count")
    if model.meta is not None and b0 < model.meta.n_train_bins:
        raise PreconditionError(
            f"calibration bins [{b0}, {b1}) overlap the {model.meta.n_train_bins} "
            "training bins"
        )
    scale = training_scale(Y[:b0])
    scores = np.empty((topo.m, b1 - b0))
    for j, scen in enumerate(_bin_scenarios(model, Y, b0, b1, K, seed)):
        scores[:, j] = score_bin(Y[b0 + j], scen, topo, scale)
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


# pinball fit: Adam step size, relative stopping tolerance on the loss, the
# iteration budget of every row, and the relative residual below which a
# warm start is already an exact fit
_PINBALL_LR = 0.02
_PINBALL_TOL = 1e-6
_PINBALL_MAX_ITER = 2000
_PINBALL_EXACT = 1e-12


def _pinball_residual(D, y, theta):
    # stacked matmul runs one BLAS gemv per row, the kernel of a 2-D @ 1-D
    return y - np.matmul(D, theta[:, :, None])[:, :, 0]


def _pinball_loss(r, tau):
    return np.where(r >= 0.0, tau * r, (tau - 1.0) * r).mean(axis=1)


def _pinball_fit(D, y, tau):
    """Fit every row's linear pinball regression together; returns (theta, exhausted).

    D is (rows, nwin, p) and y is (rows, nwin).  Each row gets a
    least-squares warm start.  A row whose warm-start residual is zero to
    rounding, max|r| <= _PINBALL_EXACT * (1 + max|y|), is already fitted and
    keeps its warm start.  Every other row runs adaptive-moment subgradient
    descent with best-loss tracking, and stops on its own once its loss
    changes by at most _PINBALL_TOL relative; the returned (rows, p) thetas
    are the best points ever visited.  One numpy step advances all rows
    still running, and each row's arithmetic is that of fitting it alone,
    bit for bit.  `exhausted` flags the rows that used up _PINBALL_MAX_ITER
    iterations without meeting the tolerance.
    """
    rows, nwin, _ = D.shape
    theta = np.stack([np.linalg.lstsq(D[i], y[i], rcond=None)[0] for i in range(rows)])
    r = _pinball_residual(D, y, theta)
    best_loss = _pinball_loss(r, tau)
    best_theta = theta.copy()
    exact = np.abs(r).max(axis=1) <= _PINBALL_EXACT * (1.0 + np.abs(y).max(axis=1))
    live = np.flatnonzero(~exact)  # original row of each running row
    D, y, r, theta = D[live], y[live], r[live], theta[live]
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    prev = best_loss[live]
    for k in range(1, _PINBALL_MAX_ITER + 1):
        if live.size == 0:
            break
        # r is the residual at theta from the previous loss evaluation
        dpred = np.where(r > 0.0, -tau, np.where(r < 0.0, 1.0 - tau, 0.0))
        g = np.matmul(dpred[:, None, :], D)[:, 0, :] / nwin
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta = theta - _PINBALL_LR * (m / (1.0 - 0.9**k)) / (
            np.sqrt(v / (1.0 - 0.999**k)) + 1e-8)
        r = _pinball_residual(D, y, theta)
        cur = _pinball_loss(r, tau)
        better = cur < best_loss[live]
        best_loss[live[better]] = cur[better]
        best_theta[live[better]] = theta[better]
        run = ~(np.abs(cur - prev) <= _PINBALL_TOL * (1.0 + np.abs(prev)))
        if not run.all():
            live, D, y, r, theta, m, v = (a[run] for a in (live, D, y, r, theta, m, v))
            cur = cur[run]
        prev = cur
    exhausted = np.zeros(rows, dtype=bool)
    exhausted[live] = True
    return best_theta, exhausted


def qr_quantile(scores: ScoreSet, window: int = 10) -> QuantileEstimate:
    """Conditional quantile by linear pinball regression on recent scores.

    Per substation, each sliding window of `window` scores predicts the next
    score at level 1-alpha; the fitted model is evaluated on the most recent
    window.  Negative predictions are clamped to 0.  All substation rows are
    fitted in one `_pinball_fit` call, and each row's quantile is bit for bit
    the one of fitting that row alone.  A row whose fit runs out of
    iterations keeps its best point, with a UserWarning naming the rows.
    """
    if window < 1:
        raise PreconditionError("window must be >= 1")
    if scores.n_cal < window + 1:
        raise PreconditionError(
            f"quantile regression needs at least window+1={window + 1} scores per "
            f"substation, have {scores.n_cal}; use empirical_quantile instead"
        )
    tau = 1.0 - scores.alpha
    nwin = scores.n_cal - window
    X = np.lib.stride_tricks.sliding_window_view(scores.scores, window, axis=1)[:, :nwin]
    mean = X.mean(axis=1)
    std = X.std(axis=1)
    std = np.where(std > 1e-12, std, 1.0)
    D = np.ones((scores.n, nwin, window + 1))  # standardized windows, then intercept
    np.subtract(X, mean[:, None], out=D[:, :, :-1])
    np.divide(D[:, :, :-1], std[:, None], out=D[:, :, :-1])
    theta, exhausted = _pinball_fit(D, scores.scores[:, window:], tau)
    if exhausted.any():
        warnings.warn(
            f"pinball fit of substation rows {np.flatnonzero(exhausted).tolist()} "
            f"stopped at its budget of {_PINBALL_MAX_ITER} iterations without "
            f"meeting the tolerance {_PINBALL_TOL!r}; their quantiles use the best "
            "point visited",
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


def build_interval(scenarios, q: QuantileEstimate, scale, topo: NetworkTopology,
                   t=None) -> IntervalForecast:
    """Scenario min/max envelope widened by (m,) quantiles times (n,) circuit scales."""
    samples = _scenario_matrix(scenarios)
    if samples.shape[1] != topo.n:
        raise PreconditionError("scenarios must be (K, n) matching the topology")
    s = np.asarray(scale, dtype=np.float64)
    if q.q.shape != (topo.m,) or s.shape != (topo.n,):
        raise PreconditionError("need one quantile per substation and one scale per circuit")
    margin = to_circuits(q.q, topo, s)
    lower = samples.min(axis=0) - margin
    upper = samples.max(axis=0) + margin
    if t is None:
        t = int(getattr(scenarios, "t", 0))
    return IntervalForecast(
        lower=lower,
        upper=upper,
        sub_lower=topo.aggregate(lower),
        sub_upper=topo.aggregate(upper),
        t=int(t),
    )


# ---------------------------------------------------------------------------
# End-to-end pipeline.

@dataclass(frozen=True)
class PipelineSettings:
    alpha: float = 0.05
    K: int = 10
    quantile_method: str = "empirical"
    qr_window: int = 10
    epochs: int = 1000
    learning_rate: float = 0.01
    fit_cap: bool = True
    refit_each_step: bool = False

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise PreconditionError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.K < 1:
            raise PreconditionError("need K >= 1 scenarios")
        if self.quantile_method not in _QUANTILE_METHODS:
            raise PreconditionError(
                f"quantile_method must be one of {_QUANTILE_METHODS}, "
                f"got {self.quantile_method!r}"
            )
        if self.qr_window < 1:
            raise PreconditionError("qr_window must be >= 1")
        self.fit_config(0)  # checks epochs and learning_rate

    def fit_config(self, seed: int) -> _hawkes.FitConfig:
        return _hawkes.FitConfig(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            seed=seed,
            fit_cap=self.fit_cap,
        )


@dataclass(frozen=True, eq=False)
class AuditRecord:
    """Everything needed to recompute an interval by hand."""

    t0: int
    alpha: float
    K: int
    quantile_method: str
    seed: int
    circuit_ids: tuple | None
    scale: np.ndarray
    scores: np.ndarray
    quantiles: np.ndarray
    target_bin: int
    target_scenarios: np.ndarray
    model_meta: dict | None

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


def _prepare(panel, topo, t0: int, settings: PipelineSettings, seed: int,
             cal_stop=None):
    """Fit on bins before t0 and score calibration bins up to cal_stop."""
    Y = _hawkes._panel_counts(panel)
    T = Y.shape[0]
    SplitSpec(t0=t0, test=0).validate(T)
    stop = T if cal_stop is None else cal_stop
    model = _hawkes.fit(Y[: t0 - 1], topo, settings.fit_config(_rng.derive(seed, "fit")))
    scores = calibrate(
        Y, model, topo, (t0 - 1, stop), K=settings.K, seed=seed,
        alpha=settings.alpha,
    )
    return model, scores


def hst_conformal_pipeline(panel, topo: NetworkTopology, t0: int,
                           settings: PipelineSettings = PipelineSettings(),
                           seed: int = 0):
    """fit -> calibrate -> quantile -> simulate target bin -> intervals.

    t0 is the 1-based index of the first calibration bin (bins before it
    train the model); the target is the bin after the panel ends.  Returns
    (IntervalForecast, AuditRecord); deterministic given seed.
    """
    Y = _hawkes._panel_counts(panel)
    T = Y.shape[0]
    model, scores = _prepare(Y, topo, t0, settings, seed)
    qest = _quantile_for(scores, settings)
    scen = _hawkes.simulate_bin(model, Y, K=settings.K, seed=_rng.derive(seed, "target"))
    forecast = build_interval(scen, qest, scores.scale, topo, t=T)
    audit = AuditRecord(
        t0=t0,
        alpha=settings.alpha,
        K=settings.K,
        quantile_method=settings.quantile_method,
        seed=seed,
        circuit_ids=getattr(panel, "circuit_ids", None) or
        (model.circuit_ids if model.circuit_ids else None),
        scale=scores.scale,
        scores=to_circuits(scores.scores, topo),
        quantiles=to_circuits(qest.q, topo),
        target_bin=T,
        target_scenarios=np.asarray(scen.samples),
        model_meta=None if model.meta is None else asdict(model.meta),
    )
    return forecast, audit
