"""Self-test of the benchmark itself.

Two traced runs of one workload and seed must report identical exact counts,
the traced commands must write the same bytes as the untraced ones, and on
every workload the predicted dominant span must hold the largest self time.
Without the package source next to it the benchmark must fail without a
result.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import EXACT, OUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD, SEED = "run-fit", 7


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _traced_result(workload=WORKLOAD):
    """One untraced and one traced command (--seconds 1 still runs two)."""
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"result-{workload}-seed{SEED}-trace1.json"), encoding="utf-8") as fh:
        detail = json.load(fh)["detail"]
    # correct covers: exit 0, output checks, traced bytes == untraced bytes
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert detail["walls_untraced_s"] and detail["walls_traced_s"]
    return result, detail


def test_exact_counts_repeat_and_tracing_keeps_outputs():
    (a, da), (b, db) = _traced_result(), _traced_result()
    assert da["outputs_sha256"] == db["outputs_sha256"]
    assert a["metrics"]["hawkes.fit_epochs"]["value"] > 0
    differing = [k for k in EXACT if a["metrics"][k] != b["metrics"][k]]
    assert not differing, differing


def test_dominant_layer_holds_largest_self_time():
    for name, workload in WORKLOADS.items():
        _, detail = _traced_result(name)
        print(f"{name}: largest self time {detail['largest_self_time']}")
        assert detail["largest_self_time"] in workload.dominant, (name, detail["largest_self_time"])


def test_fails_without_package_source():
    os.makedirs(OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        bench_json = os.path.join(ROOT, "BENCHMARK.json")
        if os.path.exists(bench_json):
            shutil.copy(bench_json, bare)
        proc = _bench("--workload", WORKLOAD, "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_fails_without_package_source,
                 test_exact_counts_repeat_and_tracing_keeps_outputs,
                 test_dominant_layer_holds_largest_self_time):
        test()
        print(f"ok {test.__name__}")
