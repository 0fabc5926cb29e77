"""Exception hierarchy, mapped to CLI exit codes by cli.main, shared checks,
and the reader and writer of every file format.

``check_circuits`` checks circuit counts, ``check_integer`` count settings,
and ``freeze`` gives a record read-only copies of its arrays.  Every input
file is read through ``read_text``, so undecodable bytes are a data error: CSV
by ``read_csv_pairs``, JSON by ``read_json``, ``document_keys`` and
``document_numbers``, the YAML config by ``read_config``.  Every output is
written by ``write_json``, ``write_csv`` or ``write_lines``."""

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


def check_integer(value, name: str):
    """Raise PreconditionError unless ``value`` is a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise PreconditionError(f"{name} must be an integer, got {value!r}")


def freeze(record, *names, dtype=None) -> list:
    """Set each named field of the frozen dataclass ``record`` to a read-only
    C-ordered copy of its value, of ``dtype`` when given; return the copies."""
    copies = [np.array(getattr(record, name), dtype=dtype, order="C") for name in names]
    for name, copy in zip(names, copies):
        copy.flags.writeable = False
        object.__setattr__(record, name, copy)
    return copies


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


def read_config(path) -> dict:
    """The flat key/value mapping of the YAML document at ``path``, empty for an
    empty document.  A file that cannot be read is a PreconditionError; malformed
    YAML, or a document that is not a mapping, is a DataValidationError."""
    import yaml  # here, not at module level: it costs every command's start-up

    try:
        doc = yaml.safe_load(read_text(path))
    except OSError as exc:
        raise PreconditionError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise DataValidationError(f"malformed config {path}: {exc}") from None
    if not isinstance(doc, (dict, type(None))):
        raise DataValidationError(f"config {path} must be a flat key/value mapping")
    return doc or {}


def document_keys(doc, keys, what: str):
    """Raise DataValidationError unless the parsed ``what`` document ``doc`` is
    a JSON object whose every key is one of ``keys``, the keys its reader reads."""
    if not isinstance(doc, dict):
        raise DataValidationError(f"{what} document must be a JSON object")
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise DataValidationError(f"{what} document has unknown keys {unknown}")


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


def write_lines(path, lines):
    """Write each of ``lines`` as UTF-8 text ending in LF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def write_json(path, doc):
    """Write ``doc`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)  # in chunks, not one string
        fh.write("\n")


def write_csv(path, header, rows, line_end: str):
    """Write the ``header`` row, then ``rows``, as CSV with ``line_end`` after each
    row.  The csv module writes a float as its repr and any other cell as its str,
    so cells are str, int or float: the repr of a numpy float names its type."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow(header)
        writer.writerows(rows)
