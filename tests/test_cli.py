import csv
import json
import subprocess
import sys

import numpy as np
import pytest

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


def test_run_quotes_ids_with_commas_and_quotes(tmp_path, capsys):
    # ids are CSV cells: a comma or a quote in one must not split the row
    _synth(tmp_path, capsys, n=4, m=2)
    rename = {}
    with open(tmp_path / "topology.csv", newline="") as fh:
        rows = [[rename.setdefault(c, f'{c},"x"') for c in row] for row in csv.reader(fh)]
    with open(tmp_path / "topology.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["circuit_id", "substation_id"], *rows[1:]])
    doc = json.loads((tmp_path / "panel.json").read_text())
    doc["circuit_ids"] = [rename[c] for c in doc["circuit_ids"]]
    (tmp_path / "panel.json").write_text(json.dumps(doc))
    code, _, err = _run(
        ["run", "--panel", str(tmp_path / "panel.json"),
         "--topology", str(tmp_path / "topology.csv"),
         "--t0", "31", "--epochs", "20", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0, err
    for kind, column in (("circuit", 0), ("substation", 1)):
        with open(tmp_path / f"{kind}_intervals.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert all(None not in r for r in table)  # no row wider than the header
        assert [r["id"] for r in table] == list(dict.fromkeys(r[column] for r in rows[1:]))


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
    with pytest.warns(UserWarning, match="needs conformal rank"):
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
    with pytest.warns(UserWarning, match="needs conformal rank"):
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

    # data validation: a topology with fewer circuits than the panel
    short = tmp_path / "short_topo.csv"
    short.write_text("circuit_id,substation_id\nc0,s0\nc1,s1\n")
    code, _, err = _run(
        ["run", "--panel", str(tmp_path / "panel.json"),
         "--topology", str(short), "--t0", "11", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 3 and "per circuit" in err

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

    # a config value of the wrong type is a usage error naming the key; YAML
    # numbers are not truncated and booleans are not numbers
    for command, text, key in (
        ("run", "alpha: abc\n", "alpha"), ("run", "fit_cap: maybe\n", "fit_cap"),
        ("synth", "n: 4.7\nm: 2\nT: 20\n", "n"), ("synth", "n: 4\nm: true\nT: 20\n", "m"),
        ("run", "K: 2.9\n", "K"), ("run", "learning_rate: true\n", "learning_rate"),
        ("synth", "cap: false\n", "cap"),
    ):
        cfg.write_text(text)
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += [*base, "--t0", "11"]
        code, _, err = _run(argv, capsys)
        assert code == 2 and f"config key '{key}':" in err, (text, err)
    cfg.write_text("n: 4.0\nm: 2\nT: 20\n")
    code, out, _ = _run(["synth", "--config", str(cfg), "--out", str(tmp_path / "w")], capsys)
    assert code == 0 and out.startswith("synth: n=4 m=2 T=20")

    # malformed input files are data errors naming the file (and the line
    # for events), not tracebacks
    good = json.loads((tmp_path / "panel.json").read_text())
    ragged = dict(good, counts=[[1, 2], [3]])
    stringy = dict(good, counts=[["a"] * 4] * 20)
    fractional = dict(good, counts=[[1.5] * 4] * 20)
    no_counts = {k: v for k, v in good.items() if k != "counts"}
    no_times = {k: v for k, v in good.items() if k != "bin_start_times"}
    not_utf8 = b"\xff\xfe\x00bad"
    cases = [  # (flag, file content, location the message must name)
        ("--panel", b"{not json", ":1"),
        ("--panel", b"[1, 2]", ""),
        ("--panel", json.dumps(no_counts).encode(), ""),
        ("--panel", json.dumps(no_times).encode(), ""),
        ("--panel", json.dumps(dict(good, circuit_ids=5)).encode(), ""),
        ("--panel", json.dumps(ragged).encode(), ""),
        ("--panel", json.dumps(stringy).encode(), ""),
        ("--panel", json.dumps(fractional).encode(), ""),
        ("--panel", not_utf8, ":1"),
        ("--topology", b"circuit_id,substation_id\nc000,s\xe9\n", ":2"),
        ("--events", b"circuit_id,timestamp\nc000,2020-03-01\nc001,\xff\n", ":3"),
        ("--events", b"circuit_id,timestamp\nc000,2020-03-01T00:00:00+00:00\n", ":2"),
        ("--config", not_utf8, ":1"),
    ]
    for i, (flag, content, where) in enumerate(cases):
        path = tmp_path / f"malformed_{i}"
        path.write_bytes(content)
        if flag == "--config":
            argv = ["synth", "--config", str(path)]
        else:
            files = {"--panel": str(tmp_path / "panel.json"),
                     "--topology": str(tmp_path / "topology.csv"), flag: str(path)}
            if flag == "--events":
                files.pop("--panel")
                files["--end"] = "2030-01-01"
            argv = ["run", *[x for kv in files.items() for x in kv],
                    "--t0", "11", "--out", str(tmp_path / "o")]
        code, _, err = _run(argv, capsys)
        assert code == 3 and "data validation" in err and f"{path}{where}" in err, (i, err)

    # argparse usage errors return 2 instead of raising SystemExit; --help is 0
    code, _, err = _run(["synth", "--bogus", "1"], capsys)
    assert code == 2 and "--bogus" in err
    code, out, _ = _run(["synth", "--help"], capsys)
    assert code == 0 and "--config" in out


def test_panel_counts_from_2_53_on_fail_at_loading(tmp_path, capsys):
    # JSON reads 10**19 as uint64 and 2**62 as int64; counts are read as
    # float64, so both are data errors naming the file, with no cast warning
    _synth(tmp_path, capsys, n=4, m=2, T=20)
    doc = json.loads((tmp_path / "panel.json").read_text())
    for count in (10**19, 2**62):
        doc["counts"][3][1] = count
        path = tmp_path / f"big_{count}.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(["run", "--panel", str(path), "--topology",
                             str(tmp_path / "topology.csv"), "--t0", "11",
                             "--out", str(tmp_path / "o")], capsys)
        assert code == 3, err
        assert f"[load inputs] {path}: counts must be whole numbers below 2**53" in err
        assert "Warning" not in err
    assert not (tmp_path / "o").exists()


def test_panel_file_in_another_circuit_order_is_a_data_error(tmp_path, capsys):
    _synth(tmp_path, capsys)
    path = tmp_path / "panel.json"
    doc = json.loads(path.read_text())
    ids = doc["circuit_ids"]
    doc["circuit_ids"] = [ids[1], ids[0], *ids[2:]]
    path.write_text(json.dumps(doc))
    files = ["--panel", str(path), "--topology", str(tmp_path / "topology.csv"),
             "--t0", "31", "--out", str(tmp_path / "o")]
    for argv in (["run", *files], ["evaluate", *files, "--test_len", "5"],
                 ["forecast", *files, "--horizon", "3"]):
        code, _, err = _run(argv, capsys)
        assert code == 3, err
        assert "data validation error" in err
        assert "panel circuit ordering disagrees with topology" in err
    assert not (tmp_path / "o").exists()


def test_panel_file_with_a_misspelled_key_is_a_data_error(tmp_path, capsys):
    # "circuit_id" for "circuit_ids", with the ids reversed: read as a panel
    # without ids, it would skip the ordering check and the run would exit 0
    _synth(tmp_path, capsys)
    path = tmp_path / "panel.json"
    doc = json.loads(path.read_text())
    doc["circuit_id"] = doc.pop("circuit_ids")[::-1]
    path.write_text(json.dumps(doc))
    code, _, err = _run(["run", "--panel", str(path), "--topology", str(tmp_path / "topology.csv"),
                         "--t0", "31", "--out", str(tmp_path / "o")], capsys)
    assert code == 3 and "panel document has unknown keys ['circuit_id']" in err, err
    assert not (tmp_path / "o").exists()


def test_a_fit_step_past_float_range_is_halved(tmp_path, capsys):
    # the README quick-start panel: a step of 10000 sends mu, A and the cap
    # coordinate past float range, and the fit halves it like any trial with
    # no finite likelihood, with no numpy warning; an infinite step is a
    # usage error, not a numerical one after numpy warnings
    _synth(tmp_path, capsys, n=8, m=3, T=120, seed=7)
    argv = ["run", "--panel", str(tmp_path / "panel.json"),
            "--topology", str(tmp_path / "topology.csv"),
            "--t0", "91", "--alpha", "0.1", "--seed", "7"]
    code, _, err = _run([*argv, "--learning_rate", "10000", "--out", str(tmp_path / "big")],
                        capsys)
    assert code == 0 and "Warning" not in err, err
    code, _, err = _run([*argv, "--learning_rate", "inf", "--out", str(tmp_path / "inf")],
                        capsys)
    assert code == 2 and "learning_rate must be positive and finite" in err, err
    assert not (tmp_path / "inf").exists()


def test_commands_reach_no_tooling_only_name(tmp_path, capsys, monkeypatch):
    # hawkes.simulate_bin and _kernels.ACTIVE.loglik_value stay only because
    # the benchmark tracer binds them: no command may call either
    from hstconformal import _kernels, hawkes

    def tooling_only(*args, **kwargs):
        raise AssertionError("a command called a name kept for the benchmark tracer")

    monkeypatch.setattr(hawkes, "simulate_bin", tooling_only)
    monkeypatch.setattr(_kernels.ACTIVE, "loglik_value", tooling_only)
    _synth(tmp_path, capsys, n=4, m=2, T=30)
    files = ["--panel", str(tmp_path / "panel.json"),
             "--topology", str(tmp_path / "topology.csv"), "--t0", "21", "--epochs", "20",
             "--alpha", "0.2"]
    for command, extra in (("run", []), ("evaluate", ["--test_len", "3"]),
                           ("forecast", ["--horizon", "3"])):
        code, _, err = _run([command, *files, *extra, "--out", str(tmp_path / command)],
                            capsys)
        assert code == 0, (command, err)


def test_covariates_and_threads_are_rejected(tmp_path, capsys):
    # the model has no covariate term, the package runs on one thread and the
    # synthetic generator has one truth model, not a choice of presets
    _synth(tmp_path, capsys, n=4, m=2, T=20)
    base = ["run", "--topology", str(tmp_path / "topology.csv"),
            "--t0", "11", "--out", str(tmp_path / "fc")]
    with_panel = base + ["--panel", str(tmp_path / "panel.json")]
    removed = (("threads", "8"), ("covariates", "cov.csv"), ("preset", "small"))
    for key, value in removed:
        code, _, err = _run(with_panel + [f"--{key}", value], capsys)
        assert code == 2 and f"--{key}" in err
    cfg = tmp_path / "old.yaml"
    for key, value in removed:
        cfg.write_text(f"{key}: {value}\n")
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


def test_each_command_accepts_only_its_keys(tmp_path, capsys):
    _synth(tmp_path, capsys, n=4, m=2, T=20)
    base = ["run", "--panel", str(tmp_path / "panel.json"),
            "--topology", str(tmp_path / "topology.csv"),
            "--t0", "11", "--epochs", "10", "--out", str(tmp_path / "o")]
    # keys of evaluate and forecast are not flags of run
    for key, value in (("horizon", "9"), ("test_len", "3"), ("refit_each_step", "true")):
        code, _, err = _run(base + [f"--{key}", value], capsys)
        assert code == 2 and f"--{key}" in err, err
    code, _, err = _run(["synth", "--n", "4", "--m", "2", "--T", "20", "--alpha", "0.1",
                         "--out", str(tmp_path / "s")], capsys)
    assert code == 2 and "--alpha" in err
    # nor config keys: the error names the key and the command
    cfg = tmp_path / "job.yaml"
    for command, text, key in (("run", "horizon: 9\n", "horizon"),
                               ("run", "refit_each_step: true\n", "refit_each_step"),
                               ("synth", "t0: 5\n", "t0")):
        cfg.write_text(text)
        argv = base + ["--config", str(cfg)] if command == "run" else \
            ["synth", "--config", str(cfg)]
        code, _, err = _run(argv, capsys)
        assert code == 2 and f"config key '{key}' is not read by '{command}'" in err, err
    # the commands that read them still take them
    tail = base[1:] + ["--test_len", "2", "--refit_each_step", "true"]
    for argv in (base, ["evaluate", *tail], ["forecast", *base[1:], "--horizon", "2"]):
        with pytest.warns(UserWarning, match="needs conformal rank"):
            assert _run(argv, capsys)[0] == 0


def test_inputs_without_effect_are_usage_errors(tmp_path, capsys):
    # a key the run would ignore fails, from a flag or from the config file,
    # and the error names it; defaults never trigger this
    _synth(tmp_path, capsys, n=8, m=3, T=60)
    events = tmp_path / "events.csv"
    events.write_text("circuit_id,timestamp\nno_such_circuit,2020-03-01\n")
    files = ["--panel", str(tmp_path / "panel.json"),
             "--topology", str(tmp_path / "topology.csv")]
    tail = ["--t0", "31", "--epochs", "20", "--alpha", "0.2"]
    cases = (
        (("events", str(events)), "'panel' and 'events' exclude each other"),
        (("start", "2021-01-01"), "['start'] only bin an events file"),
        (("end", "2040-01-01"), "['end'] only bin an events file"),
        (("bin_length", "3M"), "['bin_length'] only bin an events file"),
        (("qr_window", "5"), "'qr_window' has no effect"),
    )
    cfg = tmp_path / "job.yaml"
    for command, extra in (("run", []), ("evaluate", ["--test_len", "2"]),
                           ("forecast", ["--horizon", "2"])):
        for (key, value), named in cases:
            out = tmp_path / f"{command}_{key}"
            argv = [command, *files, *tail, *extra, "--out", str(out)]
            code, _, err = _run(argv + [f"--{key}", value], capsys)
            assert code == 2 and named in err, (command, key, err)
            cfg.write_text(f"{key}: '{value}'\n")
            code, _, err = _run(argv + ["--config", str(cfg)], capsys)
            assert code == 2 and named in err, (command, key, err)
            assert not out.exists()
        assert _run([command, *files, *tail, *extra, "--out", str(tmp_path / command)],
                    capsys)[0] == 0
    code, _, err = _run(["run", *files, *tail, "--start", "2021-01-01", "--end", "2040-01-01",
                         "--out", str(tmp_path / "o")], capsys)
    assert code == 2 and "['start', 'end']" in err
    code, _, err = _run(["run", *files, *tail, "--quantile_method", "empirical",
                         "--qr_window", "5", "--out", str(tmp_path / "o")], capsys)
    assert code == 2 and "quantile_method 'empirical'" in err
    # qr_window with the qr method, and the grid keys with events, take effect
    assert _run(["run", *files, *tail, "--quantile_method", "qr", "--qr_window", "5",
                 "--out", str(tmp_path / "qr")], capsys)[0] == 0


def test_qr_without_enough_calibration_bins_fails_before_the_fit(tmp_path, capsys,
                                                                 monkeypatch):
    # bins 44-49 give 6 calibration scores, fewer than qr_window + 1 = 11
    from hstconformal import hawkes

    _synth(tmp_path, capsys)
    fits = []
    real_fit = hawkes.fit
    monkeypatch.setattr(hawkes, "fit", lambda *a, **k: fits.append(1) or real_fit(*a, **k))
    files = ["--panel", str(tmp_path / "panel.json"),
             "--topology", str(tmp_path / "topology.csv"),
             "--t0", "45", "--epochs", "20", "--quantile_method", "qr"]
    for command, extra in (("run", []), ("evaluate", ["--test_len", "2"]),
                           ("forecast", ["--horizon", "2"])):
        out = tmp_path / command
        code, _, err = _run([command, *files, *extra, "--out", str(out)], capsys)
        assert code == 2, (command, err)
        assert "qr_window=10" in err and "quantile_method: empirical" in err, err
        assert "empirical_quantile" not in err
        assert fits == [] and not out.exists()


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


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    _synth(tmp_path, capsys, n=4, m=2, T=20)
    for argv in (["synth", "--n", "4", "--m", "2", "--T", "20", "--seed", "-1",
                  "--out", str(tmp_path / "neg")],
                 ["run", "--panel", str(tmp_path / "panel.json"),
                  "--topology", str(tmp_path / "topology.csv"),
                  "--t0", "11", "--seed", "-1", "--out", str(tmp_path / "neg")]):
        proc = subprocess.run([sys.executable, "-m", "hstconformal.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2, (argv[0], proc.stderr)
        assert "seed" in proc.stderr and "-1" in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr


def test_settings_errors_come_before_inputs_are_read(tmp_path, capsys):
    # the panel does not exist: a settings error must still be the one reported
    missing = ["--panel", str(tmp_path / "missing.json"),
               "--topology", str(tmp_path / "missing.csv"), "--t0", "11",
               "--out", str(tmp_path)]
    for flags, key in ((["--quantile_method", "foo"], "quantile_method"),
                       (["--epochs", "0"], "epochs"),
                       (["--learning_rate", "0"], "learning_rate"),
                       (["--K", "0"], "K"),
                       (["--alpha", "1.5"], "alpha"),
                       (["--quantile_method", "qr", "--qr_window", "0"], "qr_window")):
        code, _, err = _run(["run", *missing, *flags], capsys)
        assert code == 2, (flags, err)
        assert key in err and "i/o error" not in err, (flags, err)
