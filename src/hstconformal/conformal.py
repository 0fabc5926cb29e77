"""Substation-aware conformal calibration and hierarchical intervals.

One calibration score per substation per bin: the smallest (over K
scenarios) substation maximum error, i.e. the largest standardized absolute
residual among the substation's circuits.  Scores and quantiles are
substation rows; `to_circuits` is the one place they reach the circuits.

Intervals de-standardize each substation quantile by the circuit's own scale
and wrap the scenario min/max envelope; substation bounds aggregate the RAW
circuit bounds so the Cᵀ relationship is exact.  The nonnegativity clamp on
lower bounds exists only in the reported view.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import hawkes as _hawkes
from . import rng as _rng
from .data import CountPanel, SplitSpec
from .errors import PreconditionError
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
        if (sc < 1.0).any():
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
    alpha: float
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
    Y = np.asarray(getattr(train_counts, "Y", train_counts), dtype=np.float64)
    if Y.ndim != 2:
        raise PreconditionError("training counts must be a (bins, circuits) matrix")
    return np.maximum(1.0, Y.std(axis=0))


def nonconformity_score(y_t, scenarios, S_row, scale) -> float:
    """Smallest substation maximum error over the K scenarios.

    min over k of max over i' in S_row of |y_{i'} - yhat^(k)_{i'}| / s_{i'}.
    """
    samples = np.asarray(getattr(scenarios, "samples", scenarios), dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise PreconditionError("need a nonempty (K, n) scenario matrix")
    idx = np.asarray(list(S_row) if isinstance(S_row, (set, frozenset)) else S_row,
                     dtype=np.int64).ravel()
    if idx.size == 0:
        raise PreconditionError("S_row must contain at least the circuit itself")
    y = np.asarray(y_t, dtype=np.float64)
    s = np.asarray(scale, dtype=np.float64)
    errs = np.abs(y[idx][None, :] - samples[:, idx]) / s[idx][None, :]
    return float(errs.max(axis=1).min())


def score_bin(y_t, scenarios, topo: NetworkTopology, scale) -> np.ndarray:
    """One bin's (m,) scores, one per substation in ``topo.substation_ids`` order."""
    samples = np.asarray(getattr(scenarios, "samples", scenarios), dtype=np.float64)
    return np.array([nonconformity_score(y_t, samples, idx, scale) for idx in topo.members])


def calibrate(panel, model: _hawkes.HawkesModel, topo: NetworkTopology, cal_bins,
              K: int = 10, seed: int = 0, alpha: float = 0.05) -> ScoreSet:
    """Score every calibration bin, conditioning on the true history.

    Scenario draws for bin t use the derived stream (seed, "cal", t), so any
    suffix of bins scores identically whether done here or incrementally.
    """
    Y = np.asarray(getattr(panel, "Y", panel))
    T = Y.shape[0]
    b0, b1 = _hawkes._normalize_bins(cal_bins, T)
    if Y.shape[1] != model.n:
        raise PreconditionError(f"panel has {Y.shape[1]} circuits, model has {model.n}")
    if topo.n != model.n:
        raise PreconditionError("topology and model disagree on circuit count")
    empty = [sid for sid, idx in zip(topo.substation_ids, topo.members) if idx.size == 0]
    if empty:
        raise PreconditionError(f"cannot score substations with no circuits: {empty}")
    if model.meta is not None and b0 < model.meta.n_train_bins:
        raise PreconditionError(
            f"calibration bins [{b0}, {b1}) overlap the {model.meta.n_train_bins} "
            "training bins"
        )
    scale = training_scale(Y[:b0])
    scores = np.empty((topo.m, b1 - b0))
    for t in range(b0, b1):
        scen = _hawkes.simulate_bin(model, Y[:t], K=K, seed=_rng.derive(seed, "cal", t))
        scores[:, t - b0] = score_bin(Y[t], scen, topo, scale)
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


def _pinball_loss(theta, D, y, tau):
    r = y - D @ theta
    return float(np.where(r >= 0.0, tau * r, (tau - 1.0) * r).mean())


def _pinball_fit(D, y, tau, tol=1e-6, max_iter=2000, lr=0.02):
    # least-squares warm start, then adaptive-moment subgradient descent with
    # best-loss tracking; the returned point is the best ever visited
    theta, *_ = np.linalg.lstsq(D, y, rcond=None)
    best_theta, best_loss = theta.copy(), _pinball_loss(theta, D, y, tau)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    prev = best_loss
    for k in range(1, max_iter + 1):
        r = y - D @ theta
        dpred = np.where(r > 0.0, -tau, np.where(r < 0.0, 1.0 - tau, 0.0))
        g = D.T @ dpred / D.shape[0]
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta = theta - lr * (m / (1.0 - 0.9**k)) / (np.sqrt(v / (1.0 - 0.999**k)) + 1e-8)
        cur = _pinball_loss(theta, D, y, tau)
        if cur < best_loss:
            best_loss, best_theta = cur, theta.copy()
        if abs(cur - prev) <= tol * (1.0 + abs(prev)):
            break
        prev = cur
    return best_theta


def qr_quantile(scores: ScoreSet, window: int = 10) -> QuantileEstimate:
    """Conditional quantile by linear pinball regression on recent scores.

    Per substation, each sliding window of `window` scores predicts the next
    score at level 1-alpha; the fitted model is evaluated on the most recent
    window.  Negative predictions are clamped to 0.
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
    q = np.empty(scores.n)
    for i, seq in enumerate(scores.scores):
        X = np.lib.stride_tricks.sliding_window_view(seq, window)[:nwin]
        y = seq[window:]
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std > 1e-12, std, 1.0)
        D = np.hstack([(X - mean) / std, np.ones((nwin, 1))])
        theta = _pinball_fit(D, y, tau)
        x_last = (seq[-window:] - mean) / std
        q[i] = max(0.0, float(x_last @ theta[:-1] + theta[-1]))
    return QuantileEstimate(q=q)


def to_circuits(rows, topo: NetworkTopology, scale=1.0) -> np.ndarray:
    """Substation rows as circuit rows times scale: margin = substation q * own scale."""
    return np.asarray(rows)[topo.substation_of] * scale


def build_interval(scenarios, q: QuantileEstimate, scale, topo: NetworkTopology,
                   alpha: float, t=None) -> IntervalForecast:
    """Scenario min/max envelope widened by (m,) quantiles times (n,) circuit scales."""
    samples = np.asarray(getattr(scenarios, "samples", scenarios), dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != topo.n:
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
        alpha=alpha,
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
        return {
            "format": "hstconformal-audit-v1",
            "t0": self.t0,
            "alpha": self.alpha,
            "K": self.K,
            "quantile_method": self.quantile_method,
            "seed": self.seed,
            "circuit_ids": None if self.circuit_ids is None else list(self.circuit_ids),
            "scale": self.scale.tolist(),
            "scores": self.scores.tolist(),
            "quantiles": self.quantiles.tolist(),
            "target_bin": self.target_bin,
            "target_scenarios": self.target_scenarios.tolist(),
            "model_meta": self.model_meta,
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _quantile_for(scores: ScoreSet, settings: PipelineSettings) -> QuantileEstimate:
    if settings.quantile_method == "qr":
        return qr_quantile(scores, window=settings.qr_window)
    return empirical_quantile(scores)


def _prepare(panel, topo, t0: int, settings: PipelineSettings, seed: int,
             cal_stop=None):
    """Fit on bins before t0 and score calibration bins up to cal_stop."""
    Y = np.asarray(getattr(panel, "Y", panel))
    T = Y.shape[0]
    SplitSpec(t0=t0, test=0).validate(T)
    stop = T if cal_stop is None else cal_stop
    train = panel.rows(0, t0 - 1) if isinstance(panel, CountPanel) else Y[: t0 - 1]
    model = _hawkes.fit(train, topo, settings.fit_config(_rng.derive(seed, "fit")))
    scores = calibrate(
        panel, model, topo, (t0 - 1, stop), K=settings.K, seed=seed,
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
    Y = np.asarray(getattr(panel, "Y", panel))
    T = Y.shape[0]
    model, scores = _prepare(panel, topo, t0, settings, seed)
    qest = _quantile_for(scores, settings)
    scen = _hawkes.simulate_bin(model, Y, K=settings.K, seed=_rng.derive(seed, "target"))
    forecast = build_interval(scen, qest, scores.scale, topo, settings.alpha, t=T)
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
