"""Fresh-interpreter probe for ``setup_s``; started by run.py, one JSON argument.

Times the import of ``hstconformal.cli`` plus loading the workload's panel and
topology, then runs the workload's tiny command twice and reports both wall
times, so that first-call work (such as JIT compilation) shows as the excess
of the first over the second.  CPU-speed probes taken before, during (every
SAMPLE_INTERVAL_S) and after give the factor that scales these times to the
reference speed.
"""

import time

from speed import probe, sampling, scale

# about 2% of the probed time; the load alone lasts only about 150 ms
SAMPLE_INTERVAL_S = 0.01

before = [probe() for _ in range(15)]
with sampling(SAMPLE_INTERVAL_S) as during:
    _t0 = time.perf_counter()

    import contextlib  # noqa: E402
    import io  # noqa: E402
    import json  # noqa: E402
    import sys  # noqa: E402

    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])

    from hstconformal import cli  # noqa: E402
    from hstconformal.data import CountPanel  # noqa: E402
    from hstconformal.topology import NetworkTopology  # noqa: E402

    CountPanel.load(job["panel"])
    NetworkTopology.from_csv(job["topology"])
    load_s = time.perf_counter() - _t0

    calls = []
    for _ in range(2):
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(job["tiny_argv"])
        calls.append(time.perf_counter() - t)
        if rc != 0:
            sys.exit(f"tiny command exited {rc}")
after = [probe() for _ in range(15)]
print(json.dumps({"load_s": load_s, "first_s": calls[0], "second_s": calls[1],
                  "speed_scale": scale(before + during + after)}))
