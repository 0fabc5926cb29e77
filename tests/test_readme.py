import re
import shlex
import warnings
from pathlib import Path

from hstconformal import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_steps():
    # (argv, printed lines, output paths) for each command of the quick start:
    # a `# <command>: ...` comment is a line it prints, `# -> ...` its files
    section = README.read_text(encoding="utf-8").split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S)
    assert block is not None, "no bash block under 'Quick start (CLI)'"
    steps = []
    for line in block.group(1).replace("\\\n", " ").splitlines():
        if line.startswith("hstconformal "):
            steps.append((shlex.split(line)[1:], [], []))
        elif line.startswith("# -> "):
            steps[-1][2].extend(line[5:].split())
        elif steps and line.startswith(f"# {steps[-1][0][0]}: "):
            steps[-1][1].append(line[2:])
    return steps


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = _quick_start_steps()
    assert [argv[0] for argv, _, _ in steps] == ["synth", "run", "evaluate", "forecast"]
    for argv, printed, paths in steps:
        with warnings.catch_warnings():
            # a documented command runs without warnings, such as the
            # conformal rank clamp of too few calibration scores
            warnings.simplefilter("error", UserWarning)
            assert cli.main(argv) == 0, argv
        stdout = capsys.readouterr().out.splitlines()
        assert printed, argv
        for line in printed:
            assert line in stdout, (argv, line, stdout)
        for path in paths:
            assert (tmp_path / path).is_file(), (argv, path)


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


def test_readme_key_settings_table_names_each_key_with_its_commands():
    # one row per key (or group of keys), "all" meaning every command; a key
    # added to or moved between commands without its row fails here
    section = README.read_text(encoding="utf-8").split("### Key settings", 1)[1]
    documented = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        if not line.startswith("| `"):
            continue
        keys, read_by = [c.strip() for c in line.strip("|").split("|")][:2]
        commands = set(cli._COMMANDS) if read_by == "all" else set(read_by.split(", "))
        for key in re.findall(r"`([^`]+)`", keys):
            assert key not in documented, key
            documented[key] = commands
    readers = {}
    for command, (_, _, keys) in cli._COMMANDS.items():
        for key in keys:
            readers.setdefault(key, set()).add(command)
    assert documented == readers
