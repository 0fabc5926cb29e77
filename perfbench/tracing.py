"""In-memory spans around the package's public calls, installed from outside.

The tracer patches module attributes, class attributes and the attributes of
``_kernels.ACTIVE`` for the duration of ``installed()``, and restores them on
exit.  Nothing under ``src/`` is edited.  Spans are strictly nested because
the package is single-threaded, so a span's self time is its duration minus
the summed durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np

from hstconformal import _kernels, cli, conformal, data, evaluation, hawkes, topology


def _branching_ratio(model) -> float:
    # same expression as the explosive-excitation warning in HawkesModel
    mass = model.beta * math.exp(-model.beta) / -math.expm1(-model.beta)
    return float(model.A.sum(axis=1).max()) * mass


def _count_fit(c, model, *args, **kwargs):
    c["hawkes.fit_epochs"] += model.meta.epochs_run
    c["hawkes.fit_loglik_final"] = model.meta.loglik_final
    c["hawkes.branching_ratio"] = _branching_ratio(model)


def _count_rows(c, out, counts, *args, **kwargs):
    c["kernels.excitation_rows"] += counts.shape[0]


def _count_draws(c, out, gen, mu, *args, **kwargs):
    c["kernels.poisson_draws"] += out.shape[0] * mu.shape[0]


def _count_bins(c, scores, *args, **kwargs):
    c["conformal.calibrate_bins"] += scores.n_cal


def _count_quantile(c, q, scores, *args, **kwargs):
    c["conformal.quantile_rows"] += scores.n
    c["conformal.distinct_score_rows"] += np.unique(scores.scores, axis=0).shape[0]


# (owner, attribute, span name, counter); owners that import a name from
# another module get their own entry, because rebinding one leaves the other
_MODULE_TARGETS = (
    (hawkes, "fit", "hawkes.fit", _count_fit),
    (hawkes, "simulate_bin", "hawkes.simulate_bin", None),
    (hawkes, "simulate_trajectory", "hawkes.simulate_trajectory", None),
    (conformal, "hst_conformal_pipeline", "conformal.pipeline", None),
    (conformal, "calibrate", "conformal.calibrate", _count_bins),
    (conformal, "score_bin", "conformal.score_bin", None),
    (evaluation, "score_bin", "conformal.score_bin", None),
    (conformal, "empirical_quantile", "conformal.empirical_quantile", _count_quantile),
    (conformal, "qr_quantile", "conformal.qr_quantile", _count_quantile),
    (conformal, "build_interval", "conformal.build_interval", None),
    (evaluation, "build_interval", "conformal.build_interval", None),
    (evaluation, "rolling_evaluate", "evaluation.rolling_evaluate", None),
    (evaluation, "horizon_forecast", "evaluation.horizon_forecast", None),
    (evaluation, "write_metrics", "evaluation.write", None),
    (evaluation, "write_cells_csv", "evaluation.write", None),
    (evaluation, "write_forecast_csv", "evaluation.write", None),
    (cli, "_write_interval_tables", "cli.write", None),
    (conformal.AuditRecord, "save", "cli.write", None),
)
_KERNEL_TARGETS = (
    ("excitation_series", _count_rows),
    ("excitation_beta_series", _count_rows),
    ("loglik_value", None),
    ("loglik_grads", None),
    ("simulate_counts", _count_draws),
)
_CLASSMETHOD_TARGETS = (
    (data.CountPanel, "load", "data.load_panel"),
    (topology.NetworkTopology, "from_csv", "topology.from_csv"),
)


class Tracer:
    """Spans as [name, start, end, parent index, run id] plus exact counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # run id -> counter
        self.run_id = 0
        self._stack = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts[self.run_id], out, *args, **kwargs)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in _MODULE_TARGETS:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, count))
            for attr, count in _KERNEL_TARGETS:
                orig = getattr(_kernels.ACTIVE, attr)
                saved.append((_kernels.ACTIVE, attr, orig))
                setattr(_kernels.ACTIVE, attr, self.wrap(f"kernels.{attr}", orig, count))
            for cls, attr, name in _CLASSMETHOD_TARGETS:
                orig = cls.__dict__[attr]
                saved.append((cls, attr, orig))
                setattr(cls, attr, classmethod(self.wrap(name, orig.__func__)))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def self_times(self, run_id):
        """Per span name: (self seconds summed over calls, calls, total seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, rid in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0, 0.0])
        for i, (name, t0, t1, parent, rid) in enumerate(self.spans):
            if rid == run_id:
                acc = out[name]
                acc[0] += (t1 - t0) - child[i]
                acc[1] += 1
                acc[2] += t1 - t0
        return dict(out)
