"""Command-line surface: synth, run, evaluate, forecast.

Config is a flat YAML mapping; every key can be overridden by a CLI flag of
the same name.  Each command accepts only the keys it reads (``_COMMANDS``);
a key of another command is a usage error.  The keys that name
``PipelineSettings`` fields build the one settings object of the run, with
that class's defaults and checks, before any input file is read.  All
outputs land under --out with fixed filenames and are byte-deterministic
given the config (seed included).

Exit codes: 0 success, 2 usage/precondition, 3 data validation, 4 numerical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields

from . import conformal as _conformal
from . import data as _data
from . import evaluation as _evaluation
from .errors import (DataValidationError, HstcError, NumericalError, PreconditionError,
                     check_circuits, read_config, write_csv)
from .topology import NetworkTopology


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _parse_cap(value):
    if value is None:
        return math.inf
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity", ""):
        return math.inf
    cap = float(value)
    if not cap > 0:
        raise argparse.ArgumentTypeError("cap must be positive")
    return cap


@dataclass
class RunConfig:
    # input/output paths
    events: str | None = None
    topology: str | None = None
    panel: str | None = None
    out: str = "."
    # synthesis
    n: int | None = None
    m: int | None = None
    T: int | None = None
    cap: float = math.inf
    start: str = "2020-01-01"
    end: str | None = None
    bin_length: str = "6M"
    # pipeline: the split and seed, plus the library's settings and defaults
    t0: int | None = None
    test_len: int | None = None
    horizon: int | None = None
    seed: int = 0
    settings: _conformal.PipelineSettings = field(default_factory=_conformal.PipelineSettings)


_SETTINGS_KEYS = tuple(f.name for f in fields(_conformal.PipelineSettings))


# each key's converter, read off its field's annotation ("int | None" converts
# like "int"); the cap also takes "inf"
_CONVERTERS = {"str": str, "int": int, "float": float, "bool": _parse_bool}
_FIELD_TYPES = {
    f.name: _CONVERTERS[f.type.removesuffix(" | None")]
    for f in (*fields(RunConfig), *fields(_conformal.PipelineSettings))
    if f.name != "settings"
}
_FIELD_TYPES["cap"] = _parse_cap


def _config_value(key, value):
    # YAML gives typed scalars that int() and float() would silently truncate
    # or coerce; a flag's text goes through the converter unchecked
    conv = _FIELD_TYPES[key]
    if conv in (int, float, _parse_cap) and isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if conv is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return conv(value)


def _build_config(args, keys) -> RunConfig:
    values = {}
    if args.config:
        for key, value in read_config(args.config).items():
            if key not in _FIELD_TYPES:
                raise PreconditionError(f"unknown config key {key!r}")
            if key not in keys:
                raise PreconditionError(
                    f"config key {key!r} is not read by {args.command!r}"
                )
            if value is None:
                continue
            try:
                values[key] = _config_value(key, value)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise PreconditionError(f"config key {key!r}: {exc}") from None
    for key in keys:
        override = getattr(args, key, None)
        if override is not None:
            values[key] = override
    # settings are checked here, before any input file is read
    settings = _conformal.PipelineSettings(
        **{k: values[k] for k in _SETTINGS_KEYS if k in values})
    cfg = RunConfig(settings=settings,
                    **{k: v for k, v in values.items() if k not in _SETTINGS_KEYS})
    _reject_ineffective(cfg, values)
    return cfg


def _reject_ineffective(cfg: RunConfig, given):
    # an explicitly given key that the run would ignore is a usage error
    if "panel" in given:
        if "events" in given:
            raise PreconditionError("config keys 'panel' and 'events' exclude each "
                                    "other: give exactly one")
        grid = [k for k in ("start", "end", "bin_length") if k in given]
        if grid:
            raise PreconditionError(f"config keys {grid} only bin an events file and "
                                    "have no effect with 'panel'")
    if "qr_window" in given and cfg.settings.quantile_method != "qr":
        raise PreconditionError(f"config key 'qr_window' has no effect with "
                                f"quantile_method {cfg.settings.quantile_method!r}")


def _require(cfg: RunConfig, *keys):
    missing = [k for k in keys if getattr(cfg, k) is None]
    if missing:
        raise PreconditionError(f"missing required config keys: {missing}")


def _outpath(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _load_inputs(cfg: RunConfig):
    """Topology plus panel, from a panel document or an event file."""
    _require(cfg, "topology")
    topo = NetworkTopology.from_csv(cfg.topology)
    if cfg.panel is not None:
        panel = _data.CountPanel.load(cfg.panel)
        check_circuits(panel.n, topo.n, "count", DataValidationError)
    elif cfg.events is not None:
        _require(cfg, "end")
        panel = _data.ingest_events(cfg.events, topo, cfg.bin_length, cfg.start, cfg.end)
    else:
        raise PreconditionError("either a panel document or an events file is required")
    return topo, panel


def _staged(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except HstcError as exc:
        raise type(exc)(f"[{stage}] {exc}") from exc


# ---------------------------------------------------------------------------
# Commands.

def cmd_synth(cfg: RunConfig) -> int:
    _require(cfg, "n", "m", "T")
    panel, topo, truth = _staged(
        "synthesize", _data.generate_synthetic,
        cfg.n, cfg.m, cfg.T, seed=cfg.seed, cap=cfg.cap,
        start=cfg.start, bin_length=cfg.bin_length,
    )
    _staged("write outputs", panel.save, _outpath(cfg, "panel.json"))
    _staged("write outputs", topo.to_csv, _outpath(cfg, "topology.csv"))
    _staged("write outputs", truth.save, _outpath(cfg, "truth_model.json"))
    print(f"synth: n={cfg.n} m={cfg.m} T={cfg.T} total={int(panel.Y.sum())}")
    return 0


def _write_interval_tables(cfg: RunConfig, forecast, topo):
    rows = {"circuit": [], "substation": []}
    for kind, uid, _, lo, lo_c, up in forecast.unit_bounds(topo.circuit_ids,
                                                           topo.substation_ids):
        rows[kind].append([uid, forecast.t, lo, lo_c, up, up - lo])
    for kind, table in rows.items():
        write_csv(_outpath(cfg, f"{kind}_intervals.csv"),
                  ["id", "bin", "lower_raw", "lower_clamped", "upper", "width"], table,
                  line_end="\n")


def cmd_run(cfg: RunConfig) -> int:
    _require(cfg, "t0")
    topo, panel = _staged("load inputs", _load_inputs, cfg)
    forecast, audit = _staged(
        "pipeline", _conformal.hst_conformal_pipeline,
        panel, topo, cfg.t0, settings=cfg.settings, seed=cfg.seed,
    )
    _staged("write outputs", _write_interval_tables, cfg, forecast, topo)
    _staged("write outputs", audit.save, _outpath(cfg, "audit.json"))
    print(f"run: target_bin={forecast.t} alpha={cfg.settings.alpha} "
          f"mean_width={float(forecast.width.mean())!r}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    _require(cfg, "t0", "test_len")
    topo, panel = _staged("load inputs", _load_inputs, cfg)
    spec = _data.SplitSpec(t0=cfg.t0, test=cfg.test_len)
    report = _staged(
        "evaluate", _evaluation.rolling_evaluate,
        panel, topo, spec, cfg.settings, seed=cfg.seed,
    )
    _staged("write outputs", _evaluation.write_metrics, report, _outpath(cfg, "metrics.txt"))
    _staged("write outputs", _evaluation.write_cells_csv, report, _outpath(cfg, "eval_cells.csv"))
    print(f"evaluate: val={report.val!r} agg_val={report.agg_val!r} "
          f"size={report.size!r}")
    return 0


def cmd_forecast(cfg: RunConfig) -> int:
    _require(cfg, "t0", "horizon")
    topo, panel = _staged("load inputs", _load_inputs, cfg)
    hf = _staged(
        "forecast", _evaluation.horizon_forecast,
        panel, topo, cfg.t0, cfg.settings, cfg.horizon, seed=cfg.seed,
    )
    _staged("write outputs", _evaluation.write_forecast_csv, hf, topo,
            _outpath(cfg, "forecast_envelopes.csv"))
    print(f"forecast: steps={hf.horizon} units={topo.n + topo.m}")
    return 0


_INPUT_KEYS = ("events", "topology", "panel", "start", "end", "bin_length")
# every command that fits reads every setting, except the refit that only
# the rolling evaluation makes
_PIPELINE_KEYS = ("t0", *(k for k in _SETTINGS_KEYS if k != "refit_each_step"))


# name -> (handler, help text, the config keys the command reads)
_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic panel, topology, and ground-truth model",
              ("out", "seed", "n", "m", "T", "cap", "start", "bin_length")),
    "run": (cmd_run, "one-shot calibrated interval forecast for the next bin",
            ("out", "seed", *_INPUT_KEYS, *_PIPELINE_KEYS)),
    "evaluate": (cmd_evaluate, "rolling one-step evaluation over a test suffix",
                 ("out", "seed", *_INPUT_KEYS, *_PIPELINE_KEYS, "test_len",
                  "refit_each_step")),
    "forecast": (cmd_forecast, "multi-step trajectory envelopes",
                 ("out", "seed", *_INPUT_KEYS, *_PIPELINE_KEYS, "horizon")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hstconformal",
        description="Hierarchical conformal intervals for circuit/substation "
                    "event-count forecasts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="flat YAML config file")
        for key in keys:
            p.add_argument(f"--{key}", type=_FIELD_TYPES[key], default=None)
    return parser


def main(argv=None) -> int:
    try:
        # argparse exits 2 on a usage error and 0 after --help
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        handler, _, keys = _COMMANDS[args.command]
        return handler(_build_config(args, keys))
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except DataValidationError as exc:
        print(f"data validation error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
