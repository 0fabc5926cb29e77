"""Binned count panels: event ingestion, synthetic generation, splits.

Bins are left-closed right-open on a monthly grid: bin_length "6M" means
each bin spans six calendar months and starts on the first of a month.
An event exactly on a boundary belongs to the later bin.  A synthetic
topology is a shuffled round-robin circuit→substation assignment, so every
substation has a circuit.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, replace
from datetime import date, datetime

import numpy as np

from . import hawkes as _hawkes
from . import rng as _rng
from .errors import (DataValidationError, PreconditionError, check_integer, document_keys,
                     document_numbers, freeze, read_csv_pairs, read_json, write_csv,
                     write_json)
from .topology import NetworkTopology

_PANEL_FORMAT = "hstconformal-panel-v1"
# every key a panel document may hold; a null covariates is read as absent
_PANEL_KEYS = ("format", "bin_length", "bin_start_times", "circuit_ids", "counts", "covariates")


def _parse_bin_length(bin_length: str) -> int:
    m = re.fullmatch(r"(\d+)M", str(bin_length))
    if not m or int(m.group(1)) < 1:
        raise DataValidationError(
            f"bin_length must look like '6M' (whole months), got {bin_length!r}"
        )
    return int(m.group(1))


def _parse_date(value, what="date") -> date:
    if isinstance(value, datetime):
        return value.date()
    if isinstance(value, date):
        return value
    try:
        return date.fromisoformat(str(value))
    except ValueError:
        raise DataValidationError(f"unparseable {what}: {value!r}") from None


def _add_months(d: date, k: int) -> date:
    months = d.year * 12 + (d.month - 1) + k
    return date(months // 12, months % 12 + 1, d.day)


def _months_between(a: date, b: date) -> int:
    return (b.year - a.year) * 12 + (b.month - a.month)


def make_bin_grid(start, T: int, bin_length: str = "6M") -> tuple:
    """T bin start dates stepping by bin_length from a first-of-month start."""
    start = _parse_date(start, "grid start")
    if start.day != 1:
        raise DataValidationError("bin grid must start on the first of a month")
    step = _parse_bin_length(bin_length)
    return tuple(_add_months(start, k * step) for k in range(T))


@dataclass(frozen=True, eq=False)
class CountPanel:
    """Installation counts per bin (rows) per circuit (columns)."""

    Y: np.ndarray
    bin_start_times: tuple
    bin_length: str = "6M"
    circuit_ids: tuple | None = None

    def __post_init__(self):
        if np.ndim(self.Y) != 2:
            raise DataValidationError("counts must be a (bins, circuits) matrix")
        _hawkes._panel_counts(self.Y)  # the check of every count
        (Y,) = freeze(self, "Y", dtype=np.int64)
        T, n = Y.shape
        times = tuple(_parse_date(t, "bin start") for t in self.bin_start_times)
        if len(times) != T:
            raise DataValidationError(
                f"{len(times)} bin start times for {T} count rows"
            )
        step = _parse_bin_length(self.bin_length)
        for a, b in zip(times, times[1:]):
            if _months_between(a, b) != step or a.day != b.day:
                raise DataValidationError(
                    f"bin starts must advance by exactly {self.bin_length}: {a} -> {b}"
                )
        if self.circuit_ids is not None and len(self.circuit_ids) != n:
            raise DataValidationError("circuit_ids length must match circuit count")
        object.__setattr__(self, "bin_start_times", times)
        if self.circuit_ids is not None:
            object.__setattr__(self, "circuit_ids", tuple(self.circuit_ids))

    @property
    def T(self) -> int:
        return self.Y.shape[0]

    @property
    def n(self) -> int:
        return self.Y.shape[1]

    def rows(self, start: int, stop: int) -> "CountPanel":
        """Contiguous bin-range view (order preserving)."""
        if not (0 <= start <= stop <= self.T):
            raise PreconditionError(f"row range [{start}, {stop}) outside {self.T} bins")
        return CountPanel(
            Y=self.Y[start:stop],
            bin_start_times=self.bin_start_times[start:stop],
            bin_length=self.bin_length,
            circuit_ids=self.circuit_ids,
        )

    def to_dict(self) -> dict:
        return {
            "format": _PANEL_FORMAT,
            "bin_length": self.bin_length,
            "bin_start_times": [t.isoformat() for t in self.bin_start_times],
            "circuit_ids": None if self.circuit_ids is None else list(self.circuit_ids),
            "counts": self.Y.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CountPanel":
        document_keys(doc, _PANEL_KEYS, "panel")
        if doc.get("format") != _PANEL_FORMAT:
            raise DataValidationError(f"unsupported panel format {doc.get('format')!r}")
        if doc.get("covariates") is not None:
            raise DataValidationError("panel has covariates; the model has no covariate term")
        times, cids = doc.get("bin_start_times"), doc.get("circuit_ids")
        if not isinstance(times, list):
            raise DataValidationError("bin_start_times must be a list of dates")
        if cids is not None and not isinstance(cids, list):
            raise DataValidationError("circuit_ids must be a list")
        # integral floats go on to the constructor's check
        Y = document_numbers(doc.get("counts"), "counts must be a rectangular matrix of integers")
        return cls(
            Y=Y,
            bin_start_times=tuple(times),
            bin_length=doc.get("bin_length"),
            circuit_ids=None if cids is None else tuple(cids),
        )

    def save(self, path):
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "CountPanel":
        return read_json(path, cls.from_dict)


@dataclass(frozen=True)
class SplitSpec:
    """Cut-off based partition: t0 is the 1-based index of the first
    calibration bin, so bins 1..t0-1 train; an optional suffix of ``test``
    bins is held out at the end."""

    t0: int
    test: int = 0

    def validate(self, T: int):
        check_integer(self.t0, "t0")
        check_integer(self.test, "test")
        if self.test < 0:
            raise PreconditionError("test length must be nonnegative")
        if not (1 < self.t0 < T):
            raise PreconditionError(f"need 1 < t0 < T, got t0={self.t0}, T={T}")
        if self.t0 > T - self.test:
            raise PreconditionError(
                f"no calibration bins left: t0={self.t0}, T={T}, test={self.test}"
            )


def split(panel: CountPanel, spec: SplitSpec):
    """(train, calibration, test) views; concatenation restores the panel."""
    spec.validate(panel.T)
    cut = spec.t0 - 1
    hold = panel.T - spec.test
    return panel.rows(0, cut), panel.rows(cut, hold), panel.rows(hold, panel.T)


# ---------------------------------------------------------------------------
# Event-file ingestion.

def _parse_timestamp(text: str, where: str):
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise DataValidationError(f"{where}: unparseable timestamp {text!r}") from None
    if ts.tzinfo is not None:
        raise DataValidationError(
            f"{where}: timestamp {text!r} has a UTC offset; bins are on local dates"
        )
    return ts


def ingest_events(events_file, topo: NetworkTopology, bin_length: str = "6M",
                  start=None, end=None) -> CountPanel:
    """Bin an event CSV (header circuit_id,timestamp) onto [start, end).

    Events outside the range are dropped with a counted warning; unknown
    circuit ids are an error listing the offenders.
    """
    if start is None or end is None:
        raise PreconditionError("ingest_events requires an explicit [start, end) range")
    start = _parse_date(start, "start")
    end = _parse_date(end, "end")
    if start.day != 1 or end.day != 1:
        raise DataValidationError("start and end must fall on the first of a month")
    step = _parse_bin_length(bin_length)
    months = _months_between(start, end)
    if months <= 0 or months % step != 0:
        raise DataValidationError(
            f"[{start}, {end}) does not cover a whole number of {bin_length} bins"
        )
    T = months // step
    n = topo.n
    index = {cid: i for i, cid in enumerate(topo.circuit_ids)}
    Y = np.zeros((T, n), dtype=np.int64)
    start_dt = datetime(start.year, start.month, 1)
    end_dt = datetime(end.year, end.month, 1)

    unknown = set()
    dropped = 0
    for ln, cid, stamp in read_csv_pairs(events_file, ("circuit_id", "timestamp"), "events"):
        ts = _parse_timestamp(stamp, f"{events_file}:{ln}")
        i = index.get(cid)
        if i is None:
            unknown.add(cid)
            continue
        if not (start_dt <= ts < end_dt):
            dropped += 1
            continue
        t = _months_between(start, ts.date()) // step
        Y[t, i] += 1
    if unknown:
        raise DataValidationError(
            f"{events_file}: unknown circuit ids: {sorted(unknown)[:10]}"
        )
    if dropped:
        warnings.warn(
            f"dropped {dropped} events outside [{start}, {end})",
            UserWarning,
            stacklevel=2,
        )
    return CountPanel(
        Y=Y,
        bin_start_times=make_bin_grid(start, T, bin_length),
        bin_length=bin_length,
        circuit_ids=topo.circuit_ids,
    )


def write_events(panel: CountPanel, path):
    """Serialize a panel to the event CSV format (bin start as timestamp).

    Re-ingesting on the same grid reproduces the counts exactly.
    """
    if panel.circuit_ids is None:
        raise PreconditionError("panel carries no circuit ids to write events with")
    rows = ([cid, stamp.isoformat()]
            for stamp, counts in zip(panel.bin_start_times, panel.Y.tolist())
            for cid, count in zip(panel.circuit_ids, counts) for _ in range(count))
    write_csv(path, ["circuit_id", "timestamp"], rows, line_end="\r\n")


# ---------------------------------------------------------------------------
# Synthetic generation.

def _synthetic_topology(n: int, m: int, gen) -> NetworkTopology:
    # round-robin assignment keeps every substation nonempty; the shuffle
    # decorrelates circuit index from substation
    assign = np.array([i % m for i in range(n)])
    gen.shuffle(assign)
    width = max(3, len(str(n)))
    swidth = max(2, len(str(m)))
    return NetworkTopology.from_assignments(
        [f"c{i:0{width}d}" for i in range(n)],
        [f"s{j:0{swidth}d}" for j in assign],
    )


def _truth_model(n: int, cap: float, gen) -> _hawkes.HawkesModel:
    # mu uniform on [0.2, 1); A uniform, each row scaled to sum 0.5 / beta;
    # beta 1; saturation floor 0
    beta = 1.0
    mu = gen.uniform(0.2, 1.0, n)
    A = gen.uniform(0.0, 1.0, (n, n))
    A *= (0.5 / beta) / A.sum(axis=1, keepdims=True)
    return _hawkes.HawkesModel(mu=mu, A=A, beta=beta, cap=cap)


def generate_synthetic(n: int, m: int, T: int, model: _hawkes.HawkesModel | None = None,
                       seed: int = 0, cap: float = np.inf, start="2020-01-01",
                       bin_length: str = "6M"):
    """Random topology + ground-truth model + simulated panel.

    Returns (panel, topology, truth model); deterministic given seed.  The
    default truth draws mu uniform on [0.2, 1), a uniform A with row sums
    0.5, beta 1 and the given ``cap``; pass ``model`` to simulate from a
    fixed ground truth instead, whose own cap and floor apply (a finite
    ``cap`` next to ``model`` is a ``PreconditionError``).  The truth returned
    is labelled with the topology's circuit ids.
    """
    if model is not None and not np.isinf(cap):
        raise PreconditionError(f"cap={cap!r} has no effect with a supplied model, "
                                "which carries its own cap")
    for value, name in ((n, "n"), (m, "m"), (T, "T")):
        check_integer(value, name)
    if m < 1 or n < m:
        raise PreconditionError(f"need n >= m >= 1, got n={n}, m={m}")
    if T < 2:
        raise PreconditionError(f"need T >= 2 bins, got {T}")
    topo = _synthetic_topology(n, m, _rng.generator(seed, "synth", "topo"))
    if model is None:
        truth = _truth_model(n, cap, _rng.generator(seed, "synth", "truth"))
    else:
        if model.n != n:
            raise PreconditionError(f"supplied model has n={model.n}, requested n={n}")
        truth = model
    truth = replace(truth, circuit_ids=topo.circuit_ids)
    Y = _hawkes.simulate_trajectory(
        truth, None, horizon=T, K=1, seed=_rng.derive(seed, "synth", "panel")
    )[0]
    panel = CountPanel(
        Y=Y,
        bin_start_times=make_bin_grid(start, T, bin_length),
        bin_length=bin_length,
        circuit_ids=topo.circuit_ids,
    )
    return panel, topo, truth
