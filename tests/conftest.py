import os
from pathlib import Path

import numpy as np
import pytest

from hstconformal import PipelineSettings, generate_synthetic
from hstconformal import rng as _rng

# pyproject's pythonpath puts src/ on this process's path only; the tests that
# start `python -m hstconformal.cli` or `python -c` need it in PYTHONPATH too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def small_triple():
    """6-circuit / 3-substation panel reused by pipeline-level tests."""
    return generate_synthetic(6, 3, 80, seed=21)


@pytest.fixture(scope="session")
def fast_settings():
    # fewer epochs than the production default; conformal validity does not
    # depend on fit quality, so tests trade accuracy for speed
    return PipelineSettings(epochs=120)


class _GeneratorStreams:
    """The interface of ``rng.Streams`` over numpy's own Generators, one per
    row, each drawn by its own ``random`` calls: the oracle for the streams."""

    def __init__(self, gens):
        self.gens = list(gens)

    def __len__(self):
        return len(self.gens)

    def __getitem__(self, rows):
        # the same Generators, as rng.Streams slices are views of its rows
        return _GeneratorStreams(self.gens[rows])

    def random(self, m):
        m = np.broadcast_to(m, (len(self.gens),)).tolist()
        out = np.zeros((len(self.gens), max(m, default=0)))
        for row, gen, count in zip(out, self.gens, m):
            row[:count] = gen.random(count)
        return out

    def generator(self, k):
        return self.gens[k]

    def set_state(self, k, gen):
        assert gen is self.gens[k]


@pytest.fixture(scope="session")
def generator_streams():
    """``make(seed, K)``: ``rng.generator(seed, k)`` for k < K behind the
    stream interface that the simulation kernels take."""
    return lambda seed, K: _GeneratorStreams(_rng.generator(seed, k) for k in range(K))
