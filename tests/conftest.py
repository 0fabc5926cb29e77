import os
from pathlib import Path

import pytest

from hstconformal import PipelineSettings, generate_synthetic

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
