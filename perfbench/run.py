"""Benchmark of the fit -> simulate -> calibrate -> report pipeline.

Runs one CLI command (``hstconformal.cli.main``) repeatedly on seeded
synthetic inputs, in this single-threaded process, and prints one JSON
result as the last line of standard output.

    python3 perfbench/run.py --workload run-fit --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
commands.  ``--trace 1`` alternates untraced and traced commands, writes the
spans to ``perfbench/out/`` and reports the per-layer metrics.  Run it from
the root of a checkout: the package is imported from ``src/``.
"""

import os

# one BLAS thread, set before numpy loads; probes inherit it
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import speed  # noqa: E402
from workloads import TINY_SIZES, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60
# two same-seed outputs to compare byte for byte; with --trace 1, one of them traced
MIN_COMMANDS = 2

# a single-threaded command uses at most one second of CPU per wall second;
# above this the CPU-speed scaling, which assumes one core, does not hold
MAX_CPU_PER_WALL = 1.1

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

KERNELS = ("excitation_series", "excitation_beta_series", "loglik_value",
           "loglik_grads", "simulate_counts")
# per-layer metrics that must repeat exactly between traced commands; the
# others are medians over traced commands, and those in s or 1/s are scaled
# to the reference CPU speed like wall_s
EXACT = frozenset({
    "hawkes.fit_epochs", "hawkes.fit_loglik_final", "hawkes.branching_ratio",
    "hawkes.simulate_bin_calls", *(f"kernels.{k}_calls" for k in KERNELS),
    "kernels.excitation_rows", "kernels.objective_evals_per_epoch",
    "kernels.poisson_draws", "conformal.calibrate_bins", "conformal.score_bin_calls",
    "conformal.quantile_calls", "conformal.quantile_rows",
    "conformal.distinct_score_rows_ratio", "conformal.build_interval_calls",
    "cli.output_bytes", "cli.mean_width", "evaluation.undercoverage_circuit",
    "evaluation.undercoverage_substation", "trace.spans",
})


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    """Kernel path, library versions, CPUs and the BLAS thread count."""
    import ctypes

    import numpy as np
    import yaml

    from hstconformal import _kernels

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "not installed"
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    blas_threads = fn()
                    break
    return {
        "kernel_path": "numba" if _kernels.USING_NUMBA else "pure",
        "jit_path": "measured" if _kernels.USING_NUMBA
        else "unavailable (numba not importable); unmeasured",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "yaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_env": {v: os.environ[v] for v in _BLAS_VARS},
    }


def _generate(work, sizes, seed, prefix):
    from hstconformal.data import generate_synthetic

    with warnings.catch_warnings():
        # the preset truth model can be supercritical; that is the input, not a failure
        warnings.simplefilter("ignore")
        panel, topo, _ = generate_synthetic(*sizes, seed=seed)
    paths = (os.path.join(work, f"{prefix}panel.json"), os.path.join(work, f"{prefix}topology.csv"))
    panel.save(paths[0])
    topo.to_csv(paths[1])
    return paths


def _setup_seconds(job):
    """Import + load times and first-call excesses, one of each per fresh interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    loads, excesses = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, probe, json.dumps(job)], capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        loads.append(r["load_s"] * r["speed_scale"])
        excesses.append((r["first_s"] - r["second_s"]) * r["speed_scale"])
    return loads, excesses


def _call_cli(call, argv):
    """Run one CLI command; return (exit code or None on exception, wall s,
    wall s scaled to the reference CPU speed, CPU s per wall s, log)."""
    log = io.StringIO()
    with speed.sampling() as samples:
        cpu0 = time.process_time()  # every thread of the process
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                rc = call(argv)
            except Exception:  # a crash is a failed command, reported with its traceback
                traceback.print_exc(file=log)
                rc = None
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    scaled = wall * speed.scale(samples) if samples else wall
    return rc, wall, scaled, cpu / wall, log.getvalue()


def layer_metrics(st: dict, c, dominant) -> dict:
    """Per-layer metrics of one traced command from its self times and counts."""
    def s(name):
        return st.get(name, (0.0, 0, 0.0))[0]

    def calls(name):
        return st.get(name, (0.0, 0, 0.0))[1]

    epochs = c["hawkes.fit_epochs"]
    fit_total = st.get("hawkes.fit", (0.0, 0, 0.0))[2]
    rows = c["conformal.quantile_rows"]
    m = {
        "hawkes.fit_s": s("hawkes.fit"),
        "hawkes.fit_total_s": fit_total,
        "hawkes.fit_epochs": epochs,
        "hawkes.fit_s_per_epoch": fit_total / epochs if epochs else 0.0,
        "hawkes.fit_loglik_final": c["hawkes.fit_loglik_final"],
        "hawkes.branching_ratio": c["hawkes.branching_ratio"],
        "hawkes.simulate_bin_s": s("hawkes.simulate_bin"),
        "hawkes.simulate_bin_calls": calls("hawkes.simulate_bin"),
        "hawkes.simulate_trajectory_s": s("hawkes.simulate_trajectory"),
    }
    for k in KERNELS:
        m[f"kernels.{k}_s"] = s(f"kernels.{k}")
        m[f"kernels.{k}_calls"] = calls(f"kernels.{k}")
    objective = calls("kernels.loglik_value") + calls("kernels.loglik_grads")
    draws = c["kernels.poisson_draws"]
    sim_s = s("kernels.simulate_counts")
    quantile = ("conformal.empirical_quantile", "conformal.qr_quantile")
    total_self = sum(v[0] for v in st.values())
    m.update({
        "kernels.excitation_rows": c["kernels.excitation_rows"],
        "kernels.objective_evals_per_epoch": objective / epochs if epochs else 0.0,
        "kernels.poisson_draws": draws,
        "kernels.draws_per_s": draws / sim_s if sim_s else 0.0,
        "conformal.pipeline_s": s("conformal.pipeline"),
        "conformal.calibrate_s": s("conformal.calibrate"),
        "conformal.calibrate_bins": c["conformal.calibrate_bins"],
        "conformal.score_bin_s": s("conformal.score_bin"),
        "conformal.score_bin_calls": calls("conformal.score_bin"),
        "conformal.quantile_s": sum(s(q) for q in quantile),
        "conformal.quantile_calls": sum(calls(q) for q in quantile),
        "conformal.quantile_rows": rows,
        "conformal.distinct_score_rows_ratio":
            c["conformal.distinct_score_rows"] / rows if rows else 0.0,
        "conformal.build_interval_s": s("conformal.build_interval"),
        "conformal.build_interval_calls": calls("conformal.build_interval"),
        "evaluation.rolling_evaluate_s": s("evaluation.rolling_evaluate"),
        "evaluation.horizon_forecast_s": s("evaluation.horizon_forecast"),
        "evaluation.write_s": s("evaluation.write"),
        "data.load_panel_s": s("data.load_panel"),
        "topology.from_csv_s": s("topology.from_csv"),
        "cli.main_s": s("cli.main"),
        "cli.write_s": s("cli.write"),
        "trace.spans": sum(v[1] for v in st.values()),
        "trace.dominant_share": sum(s(d) for d in dominant) / total_self if total_self else 0.0,
    })
    return m


def bench(workload, seed: int, seconds: float, trace: bool) -> dict:
    from checks import OutputError, check_outputs, digest, output_bytes
    from hstconformal import cli
    from hstconformal.topology import NetworkTopology
    from tracing import Tracer

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT)
    try:
        panel, topo_path = _generate(work, workload.sizes, seed, "")
        tiny_panel, tiny_topo = _generate(work, TINY_SIZES, seed, "tiny_")
        out_dir = os.path.join(work, "out")
        argv = workload.argv(panel, topo_path, out_dir, seed)
        tiny_argv = workload.argv(tiny_panel, tiny_topo, os.path.join(work, "tiny_out"),
                                  seed, tiny=True)
        topo = NetworkTopology.from_csv(topo_path)

        setup_loads, setup_excesses = [], []
        if not trace:
            setup_loads, setup_excesses = _setup_seconds({"src": SRC, "panel": panel, "topology": topo_path,
                                    "tiny_argv": tiny_argv})
        rc, _, _, _, log = _call_cli(cli.main, tiny_argv)  # warm-up
        if rc != 0:
            raise RuntimeError(f"warm-up command exited {rc}:\n{log}")

        tracer = Tracer()
        walls = {False: [], True: []}
        raw_walls = {False: [], True: []}
        cpu_per_wall = []
        layers, hashes, failures = [], [], []
        facts = None
        attempted = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or attempted < MIN_COMMANDS:
            traced = trace and attempted % 2 == 1
            attempted += 1
            shutil.rmtree(out_dir, ignore_errors=True)
            if traced:
                tracer.run_id = attempted
                with tracer.installed():
                    rc, raw, wall, cpu_ratio, log = _call_cli(tracer.wrap("cli.main", cli.main),
                                                              argv)
            else:
                rc, raw, wall, cpu_ratio, log = _call_cli(cli.main, argv)
            cpu_per_wall.append(cpu_ratio)
            try:
                if rc != 0:
                    raise OutputError(f"exit code {rc}\n{log}")
                if cpu_ratio > MAX_CPU_PER_WALL:
                    raise OutputError(f"used {cpu_ratio:.2f} CPU s per wall s; the CPU-speed "
                                      "scaling assumes one core")
                h = digest(out_dir)
                if facts is None:
                    facts = check_outputs(workload.command, out_dir, topo)
                    facts["output_bytes"] = output_bytes(out_dir)
                elif h != hashes[0]:
                    raise OutputError("outputs differ from the first command's")
                hashes.append(h)
            except (OutputError, OSError, KeyError, ValueError) as exc:
                failures.append(f"command {attempted}: {exc}")
                continue
            walls[traced].append(wall)
            raw_walls[traced].append(raw)
            if traced:
                m = layer_metrics(tracer.self_times(attempted), tracer.counts[attempted],
                                  workload.dominant)
                factor = wall / raw  # self times to the reference CPU speed, like wall_s
                for k in m:
                    if PER_LAYER_UNITS[k] == "s":
                        m[k] *= factor
                    elif PER_LAYER_UNITS[k] == "1/s":
                        m[k] /= factor
                m["cli.output_bytes"] = facts["output_bytes"]
                m["cli.mean_width"] = facts["mean_width"]
                m["evaluation.undercoverage_circuit"] = facts.get("undercoverage_circuit", 0.0)
                m["evaluation.undercoverage_substation"] = facts.get("undercoverage_substation", 0.0)
                layers.append(m)

        if trace:
            units = PER_LAYER_UNITS
            metrics = dict.fromkeys(units, 0.0)  # reported as 0 when every traced command failed
            if layers:
                for k in EXACT:
                    if any(m[k] != layers[0][k] for m in layers):
                        failures.append(f"exact count {k} differs between traced commands")
                metrics = {k: layers[0][k] if k in EXACT else statistics.median(m[k] for m in layers)
                           for k in layers[0]}
                metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                               - statistics.median(walls[False])
                                               if walls[False] else 0.0)
        else:
            units = END_TO_END_UNITS
            metrics = {
                "wall_s": statistics.median(walls[False]) if walls[False] else 0.0,
                "setup_s": (statistics.median(setup_loads)
                            + max(0.0, statistics.median(setup_excesses))),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_share": (attempted - len(failures)) / attempted,
            }
        if set(metrics) != set(units):
            raise RuntimeError("measured metrics and BENCHMARK.json disagree on "
                               f"{sorted(set(metrics) ^ set(units))}")
        spans_file = None
        if trace:
            spans_file = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.json")
            with open(spans_file, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "run"],
                           "spans": tracer.spans}, fh)
        with open(os.path.join(HERE, "reference_hashes.json"), encoding="utf-8") as fh:
            reference = json.load(fh).get(workload.name, {}).get(str(seed))
        return {
            "correct": not failures and bool(hashes),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
            "detail": {
                "workload": workload.name, "seed": seed, "trace": int(trace),
                "argv": argv, "sizes": workload.sizes,
                "outputs_sha256": hashes[0] if hashes else None,
                "reference_sha256": reference,
                "walls_untraced_s": walls[False], "walls_traced_s": walls[True],
                "raw_walls_untraced_s": raw_walls[False], "raw_walls_traced_s": raw_walls[True],
                "setup_load_s": setup_loads, "setup_first_call_excess_s": setup_excesses,
                "cpu_s_per_wall_s": cpu_per_wall, "failures": failures, "spans_file": spans_file,
                "largest_self_time": _largest(tracer) if trace else None,
                "environment": environment(),
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _largest(tracer):
    totals = {}
    for rid in {s[4] for s in tracer.spans}:
        for name, (self_s, _, _) in tracer.self_times(rid).items():
            totals[name] = totals.get(name, 0.0) + self_s
    return max(totals, key=totals.get) if totals else None


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hstconformal", "cli.py")):
        print(f"perfbench: package source not found under {SRC}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "detail": detail}, fh, indent=2)
    print("environment: " + json.dumps(detail["environment"], sort_keys=True))
    ref = detail["reference_sha256"]
    match = ("no reference for this seed" if ref is None
             else "matches reference" if ref == detail["outputs_sha256"] else "DIFFERS from reference")
    print(f"outputs sha256: {detail['outputs_sha256']} ({match})")
    if detail["raw_walls_untraced_s"]:
        print(f"unscaled wall median: {statistics.median(detail['raw_walls_untraced_s'])!r} s")
    if detail["largest_self_time"]:
        print(f"largest self time: {detail['largest_self_time']}")
    for failure in detail["failures"]:
        print(f"failure: {failure}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
