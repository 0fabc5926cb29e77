import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_usage_runs():
    # a name dropped from the API but left in the docs fails here
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library usage'"
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the documented example runs clean
        exec(compile(block.group(1), str(README), "exec"), namespace)
    report = namespace["report"]
    assert 0.0 <= report.val <= 1.0 and report.size > 0.0
