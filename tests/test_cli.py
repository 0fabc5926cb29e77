import csv
import json
import subprocess
import sys

import numpy as np

from hstconformal.cli import main


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _synth(path, capsys, n=6, m=2, T=50, seed=0, extra=()):
    code, out, err = _run(
        ["synth", "--n", str(n), "--m", str(m), "--T", str(T),
         "--seed", str(seed), "--out", str(path), *extra],
        capsys,
    )
    assert code == 0, err
    return out


def test_synth_writes_consistent_outputs(tmp_path, capsys):
    out = _synth(tmp_path, capsys)
    assert (tmp_path / "panel.json").exists()
    assert (tmp_path / "topology.csv").exists()
    assert (tmp_path / "truth_model.json").exists()
    doc = json.loads((tmp_path / "panel.json").read_text())
    total = sum(sum(row) for row in doc["counts"])
    assert f"total={total}" in out
    assert out.startswith("synth: n=6 m=2 T=50")


def test_synth_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _synth(a, capsys)
    _synth(b, capsys)
    for name in ("panel.json", "topology.csv", "truth_model.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_outputs_and_substation_recount(tmp_path, capsys):
    _synth(tmp_path, capsys)
    code, out, err = _run(
        ["run", "--panel", str(tmp_path / "panel.json"),
         "--topology", str(tmp_path / "topology.csv"),
         "--t0", "31", "--epochs", "120", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0, err
    assert out.startswith("run: target_bin=50")

    with open(tmp_path / "circuit_intervals.csv", newline="") as fh:
        circuits = {r["id"]: r for r in csv.DictReader(fh)}
    with open(tmp_path / "substation_intervals.csv", newline="") as fh:
        subs = list(csv.DictReader(fh))
    with open(tmp_path / "topology.csv", newline="") as fh:
        members = {}
        for r in csv.DictReader(fh):
            members.setdefault(r["substation_id"], []).append(r["circuit_id"])
    assert len(circuits) == 6 and len(subs) == 2
    for row in subs:
        lo = sum(float(circuits[c]["lower_raw"]) for c in members[row["id"]])
        up = sum(float(circuits[c]["upper"]) for c in members[row["id"]])
        assert float(row["lower_raw"]) == lo
        assert float(row["upper"]) == up
        assert float(row["lower_clamped"]) == max(lo, 0.0)

    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["format"] == "hstconformal-audit-v1"
    assert audit["t0"] == 31
    assert len(audit["scale"]) == 6


def test_run_reruns_are_byte_identical(tmp_path, capsys):
    _synth(tmp_path, capsys)
    args = ["run", "--panel", str(tmp_path / "panel.json"),
            "--topology", str(tmp_path / "topology.csv"),
            "--t0", "31", "--epochs", "80"]
    a, b = tmp_path / "r1", tmp_path / "r2"
    assert _run([*args, "--out", str(a)], capsys)[0] == 0
    assert _run([*args, "--out", str(b)], capsys)[0] == 0
    for name in ("circuit_intervals.csv", "substation_intervals.csv", "audit.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_evaluate_summary_matches_metrics_file(tmp_path, capsys):
    _synth(tmp_path, capsys)
    code, out, err = _run(
        ["evaluate", "--panel", str(tmp_path / "panel.json"),
         "--topology", str(tmp_path / "topology.csv"),
         "--t0", "31", "--test_len", "5", "--epochs", "80",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0, err
    metrics = dict(
        line.split("=", 1)
        for line in (tmp_path / "metrics.txt").read_text().splitlines()
        if "=" in line and not line.startswith("bin")
    )
    assert f"val={metrics['val']}" in out
    assert f"agg_val={metrics['agg_val']}" in out
    assert 0.0 <= float(metrics["val"]) <= 1.0
    assert metrics["config.t0"] == "31"
    with open(tmp_path / "eval_cells.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * (6 + 2)
    # coverage column recounts from bounds and truth
    for r in rows:
        covered = float(r["lower_raw"]) <= float(r["truth"]) <= float(r["upper"])
        assert int(r["covered"]) == int(covered)


def test_forecast_row_count_and_rerun(tmp_path, capsys):
    _synth(tmp_path, capsys)
    args = ["forecast", "--panel", str(tmp_path / "panel.json"),
            "--topology", str(tmp_path / "topology.csv"),
            "--t0", "31", "--horizon", "7", "--epochs", "80"]
    a, b = tmp_path / "f1", tmp_path / "f2"
    code, out, err = _run([*args, "--out", str(a)], capsys)
    assert code == 0, err
    assert "steps=7" in out and "units=8" in out
    lines = (a / "forecast_envelopes.csv").read_text().splitlines()
    assert len(lines) == 1 + 7 * (6 + 2)
    assert _run([*args, "--out", str(b)], capsys)[0] == 0
    assert (a / "forecast_envelopes.csv").read_bytes() == \
        (b / "forecast_envelopes.csv").read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "job.yaml"
    cfg.write_text(
        f"n: 5\nm: 2\nT: 40\nseed: 3\nout: {tmp_path}\n"
    )
    code, out, err = _run(["synth", "--config", str(cfg), "--n", "4"], capsys)
    assert code == 0, err
    assert out.startswith("synth: n=4 m=2 T=40")
    doc = json.loads((tmp_path / "panel.json").read_text())
    assert len(doc["counts"][0]) == 4


def test_events_ingestion_path(tmp_path, capsys):
    _synth(tmp_path, capsys, n=4, m=2, T=4)
    # panel -> events -> run through the events loader
    from hstconformal import CountPanel, write_events

    panel = CountPanel.load(tmp_path / "panel.json")
    write_events(panel, tmp_path / "events.csv")
    code, out, err = _run(
        ["run", "--events", str(tmp_path / "events.csv"),
         "--topology", str(tmp_path / "topology.csv"),
         "--start", "2020-01-01", "--end", "2022-01-01",
         "--t0", "3", "--epochs", "40", "--out", str(tmp_path / "ev")],
        capsys,
    )
    assert code == 0, err


def test_exit_codes_for_bad_inputs(tmp_path, capsys):
    # precondition: n < m
    code, _, err = _run(
        ["synth", "--n", "2", "--m", "3", "--T", "10", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2 and "precondition" in err

    _synth(tmp_path, capsys, n=4, m=2, T=20)
    base = ["--panel", str(tmp_path / "panel.json"),
            "--topology", str(tmp_path / "topology.csv"),
            "--out", str(tmp_path)]

    code, _, err = _run(
        ["forecast", *base, "--t0", "11", "--horizon", "0", "--epochs", "20"],
        capsys,
    )
    assert code == 2 and "[forecast]" in err

    # data validation: duplicate circuit ids in the topology
    bad = tmp_path / "bad_topo.csv"
    bad.write_text("circuit_id,substation_id\nx,s0\nx,s1\n")
    code, _, err = _run(
        ["run", "--panel", str(tmp_path / "panel.json"),
         "--topology", str(bad), "--t0", "11", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 3 and "data validation" in err

    # i/o problems map to usage errors
    code, _, err = _run(
        ["run", "--panel", str(tmp_path / "missing.json"),
         "--topology", str(tmp_path / "topology.csv"),
         "--t0", "11", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2

    # unknown config keys are rejected
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("nn: 5\n")
    code, _, err = _run(["synth", "--config", str(cfg)], capsys)
    assert code == 2 and "nn" in err

    # malformed YAML is a data problem
    cfg.write_text("n: [unclosed\n")
    code, _, err = _run(["synth", "--config", str(cfg)], capsys)
    assert code == 3

    # a config value of the wrong type is a usage error naming the key
    for text, key in (("alpha: abc\n", "alpha"), ("fit_cap: maybe\n", "fit_cap")):
        cfg.write_text(text)
        code, _, err = _run(["synth", "--config", str(cfg)], capsys)
        assert code == 2 and f"config key '{key}'" in err

    # argparse usage errors return 2 instead of raising SystemExit; --help is 0
    code, _, err = _run(["synth", "--bogus", "1"], capsys)
    assert code == 2 and "--bogus" in err
    code, out, _ = _run(["synth", "--help"], capsys)
    assert code == 0 and "--config" in out


def test_covariates_and_threads_are_rejected(tmp_path, capsys):
    # the model has no covariate term and the package runs on one thread
    _synth(tmp_path, capsys, n=4, m=2, T=20)
    base = ["run", "--topology", str(tmp_path / "topology.csv"),
            "--t0", "11", "--out", str(tmp_path / "fc")]
    with_panel = base + ["--panel", str(tmp_path / "panel.json")]
    for flag, value in (("--threads", "8"), ("--covariates", "cov.csv")):
        code, _, err = _run(with_panel + [flag, value], capsys)
        assert code == 2 and flag in err
    cfg = tmp_path / "old.yaml"
    for key in ("threads", "covariates"):
        cfg.write_text(f"{key}: 8\n")
        code, _, err = _run(with_panel + ["--config", str(cfg)], capsys)
        assert code == 2 and key in err

    # a panel document that carries covariates is invalid data
    doc = json.loads((tmp_path / "panel.json").read_text())
    assert "covariates" not in doc
    doc["covariates"] = [[[1.0]] * 4] * 20
    bad = tmp_path / "cov_panel.json"
    bad.write_text(json.dumps(doc))
    code, _, err = _run(base + ["--panel", str(bad)], capsys)
    assert code == 3 and "covariates" in err


def test_missing_required_keys_are_usage_errors(tmp_path, capsys):
    code, _, err = _run(["synth", "--n", "4", "--m", "2"], capsys)
    assert code == 2 and "T" in err
    _synth(tmp_path, capsys, n=4, m=2, T=20)
    code, _, err = _run(
        ["run", "--panel", str(tmp_path / "panel.json"),
         "--topology", str(tmp_path / "topology.csv"), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2 and "t0" in err


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hstconformal.cli", "synth", "--n", "3",
         "--m", "1", "--T", "12", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("synth: n=3 m=1 T=12")
    assert (tmp_path / "panel.json").exists()
