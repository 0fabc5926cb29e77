"""CPU-speed probe used to scale measured times to a reference machine speed.

On a shared machine the speed available to one process drifts by tens of
percent over seconds, as other tenants load it.  A fixed pure-Python loop
timed during or around a measurement tracks most of that drift; scaling a
measured time by ``PROBE_REF_S / probe median`` expresses it at the speed
where the loop takes ``PROBE_REF_S``.
"""

import contextlib
import signal
import statistics
import time

# median duration of probe() on the reference CPU; it sets the scale only
PROBE_REF_S = 200e-6
PROBE_INTERVAL_S = 0.1


def probe() -> float:
    """Duration of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    x = 0
    for j in range(3000):
        x += j * j
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Factor that takes a time measured at the samples' speed to the reference speed."""
    return PROBE_REF_S / statistics.median(samples)


@contextlib.contextmanager
def sampling(interval=PROBE_INTERVAL_S):
    """Time ``probe`` every ``interval`` seconds while the body runs; yields the list.

    At the default interval the probes cost about 0.2% of the body's time.
    """
    samples = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
