"""Exception hierarchy, mapped to CLI exit codes by cli.main.

``check_circuits`` is the one circuit-count check; ``read_text`` reads input
files so that undecodable bytes are a data error; ``write_json`` is the one
JSON output format of every document the package saves.
"""

import json


class HstcError(Exception):
    """Base class for all package errors."""


class PreconditionError(HstcError):
    """A caller violated an operation's contract (exit code 2)."""


class DataValidationError(HstcError):
    """Input files or panels failed validation (exit code 3)."""


class NumericalError(HstcError):
    """A numerical procedure could not make progress (exit code 4)."""


def check_circuits(got: int, n: int, what: str, error=PreconditionError):
    """Raise ``error`` unless ``got`` columns give one ``what`` per circuit of ``n``."""
    if got != n:
        raise error(f"need one {what} per circuit: {got} columns for {n} circuits")


def read_text(path) -> str:
    """The file's contents decoded as UTF-8.

    Undecodable bytes raise DataValidationError naming the file and the line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataValidationError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def write_json(path, doc):
    """Write ``doc`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
