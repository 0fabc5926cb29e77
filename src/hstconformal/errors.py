"""Exception hierarchy, mapped to CLI exit codes by cli.main.

``check_circuits`` is the one circuit-count check.  Every input file is read
here, through ``read_text``, so undecodable bytes are a data error: CSV inputs
by ``read_csv_pairs``, JSON documents by ``read_json``, and the numbers in
those documents by ``document_numbers``.  ``write_json`` is the one JSON output
format of every document the package saves.
"""

import csv
import io
import json

import numpy as np


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


def read_csv_pairs(path, header: tuple, what: str):
    """Yield (line, first, second), cells stripped, for each row of a two-column
    CSV file with header ``header``, skipping blank rows; line is the file line
    on which the row starts.  An empty ``what`` file, another header or another
    row width is a DataValidationError."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    first = next(reader, None)
    if first is None:
        raise DataValidationError(f"{path}: empty {what} file")
    if [h.strip() for h in first] != list(header):
        raise DataValidationError(f"{path}: expected header {','.join(header)}, got {first}")
    ln = reader.line_num + 1  # the file line on which the next record starts
    for row in reader:
        if any(c.strip() for c in row):
            if len(row) != 2:
                raise DataValidationError(f"{path}:{ln}: expected 2 columns")
            yield ln, row[0].strip(), row[1].strip()
        ln = reader.line_num + 1


def read_json(path, parse):
    """``parse`` of the JSON document in the file at ``path``: malformed JSON, or a
    DataValidationError or PreconditionError from ``parse``, is a DataValidationError
    naming the file."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataValidationError(
            f"{path}:{exc.lineno}: not a JSON document: {exc.msg}") from None
    try:
        return parse(doc)
    except (DataValidationError, PreconditionError) as exc:
        raise DataValidationError(f"{path}: {exc}") from None


def document_numbers(value, message: str, ndim: int | None = None) -> np.ndarray:
    """``value`` of a parsed document as an array of numbers, of ``ndim``
    dimensions when given: ragged rows, another shape, or a string, null or
    boolean among its values raise DataValidationError(message)."""
    try:
        array = np.array(value)
    except ValueError:  # ragged rows
        array = np.array(None)
    if array.dtype.kind not in "iuf" or ndim not in (None, array.ndim):
        raise DataValidationError(message)
    return array


def write_json(path, doc):
    """Write ``doc`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
