"""Output checks for one CLI command's output directory.

Each check parses the CSV tables the command wrote and verifies, exactly:
substation rows equal ``NetworkTopology.aggregate`` of the parsed raw
circuit bounds (``repr`` floats round-trip), ``lower_raw <= upper``, and
``lower_clamped == max(lower_raw, 0)``.  ``check_outputs`` returns the
facts the benchmark reports, or raises ``OutputError``.
"""

from __future__ import annotations

import csv
import hashlib
import os
from collections import defaultdict

import numpy as np


class OutputError(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise OutputError(msg)


def digest(out_dir: str) -> str:
    """SHA-256 over the sorted file names and bytes of an output directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_rows(rows, topo, where, extra=()):
    """Check one bin's circuit and substation rows; return circuit widths."""
    circ = {r["id"]: r for r in rows if r["kind"] == "circuit"}
    subs = {r["id"]: r for r in rows if r["kind"] == "substation"}
    _require(tuple(circ) == topo.circuit_ids, f"{where}: circuit rows out of order")
    _require(tuple(subs) == topo.substation_ids, f"{where}: substation rows out of order")
    for r in (*circ.values(), *subs.values()):
        lo, loc, up = float(r["lower_raw"]), float(r["lower_clamped"]), float(r["upper"])
        _require(lo <= up, f"{where}: {r['id']} lower_raw > upper")
        _require(loc == max(lo, 0.0), f"{where}: {r['id']} lower_clamped != max(lower_raw, 0)")
        if "width" in r:
            _require(float(r["width"]) == up - lo, f"{where}: {r['id']} width != upper - lower_raw")
    for col in ("lower_raw", "upper", *extra):
        agg = topo.aggregate(np.array([float(circ[c][col]) for c in topo.circuit_ids]))
        got = np.array([float(subs[s][col]) for s in topo.substation_ids])
        _require(np.array_equal(agg, got), f"{where}: substation {col} != aggregate of circuits")
    return [float(r["upper"]) - float(r["lower_raw"]) for r in circ.values()]


def _by(rows, key):
    groups = defaultdict(list)
    for r in rows:
        groups[r[key]].append(r)
    return groups


def check_outputs(command: str, out_dir: str, topo) -> dict:
    """Verify the command's tables; return mean_width and coverage facts."""
    facts = {}
    widths = []
    if command == "run":
        circ = _read(os.path.join(out_dir, "circuit_intervals.csv"))
        subs = _read(os.path.join(out_dir, "substation_intervals.csv"))
        for r in circ:
            r["kind"] = "circuit"
        for r in subs:
            r["kind"] = "substation"
        widths += _check_rows(circ + subs, topo, "run")
    elif command == "evaluate":
        cells = _read(os.path.join(out_dir, "eval_cells.csv"))
        hits = {"circuit": [], "substation": []}
        for b, rows in _by(cells, "bin").items():
            widths += _check_rows(rows, topo, f"evaluate bin {b}", extra=("truth",))
            for r in rows:
                y = float(r["truth"])
                covered = float(r["lower_raw"]) <= y <= float(r["upper"])
                _require(int(r["covered"]) == covered, f"evaluate bin {b}: {r['id']} covered flag wrong")
                hits[r["kind"]].append(covered)
        metrics = {}
        with open(os.path.join(out_dir, "metrics.txt"), encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.strip().partition("=")
                if key in ("val", "agg_val", "config.alpha"):
                    metrics[key] = float(value)
        alpha = metrics["config.alpha"]
        _require(metrics.get("val") == float(np.mean(hits["circuit"])), "metrics.txt val != covered share")
        _require(metrics.get("agg_val") == float(np.mean(hits["substation"])),
                 "metrics.txt agg_val != covered share")
        facts["undercoverage_circuit"] = max(0.0, (1.0 - alpha) - metrics["val"])
        facts["undercoverage_substation"] = max(0.0, (1.0 - alpha) - metrics["agg_val"])
    elif command == "forecast":
        rows = _read(os.path.join(out_dir, "forecast_envelopes.csv"))
        for step, group in _by(rows, "step").items():
            widths += _check_rows(group, topo, f"forecast step {step}", extra=("cum_lower", "cum_upper"))
    else:
        raise OutputError(f"no check for command {command!r}")
    _require(widths, "no circuit rows written")
    facts["mean_width"] = float(np.mean(widths))
    return facts
