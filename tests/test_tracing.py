"""The benchmark tracer in perfbench/tracing.py patches names it finds by
attribute; a renamed or removed traced name must fail here, not only in a
traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from hstconformal import _kernels, hawkes

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_traced_name():
    tracing = _load_tracing()
    targets = [(owner, attr) for owner, attr, _, _ in tracing._MODULE_TARGETS]
    targets += [(_kernels.ACTIVE, attr) for attr, _ in tracing._KERNEL_TARGETS]
    targets += [(cls, attr) for cls, attr, _ in tracing._CLASSMETHOD_TARGETS]
    before = [vars(owner)[attr] for owner, attr in targets]

    tracer = tracing.Tracer()
    with tracer.installed():
        for (owner, attr), orig in zip(targets, before):
            assert vars(owner)[attr] is not orig, (owner, attr)
        model = hawkes.HawkesModel(mu=np.ones(2), A=np.zeros((2, 2)), beta=1.0)
        hawkes.simulate_bin(model, np.zeros((3, 2), dtype=int), K=2, seed=0)

    for (owner, attr), orig in zip(targets, before):
        assert vars(owner)[attr] is orig, (owner, attr)
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["hawkes.simulate_bin", "hawkes.simulate_trajectory"]
    assert "kernels.simulate_counts" in names
