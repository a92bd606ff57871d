"""Artifact text format and file-error policy.

Every CSV and JSON file the package writes, and every file it reads, goes
through here.  Numbers are written with 17 significant digits, which
round-trip a double exactly; CSV lines end with LF, and readers accept LF
or CRLF.  A failed open, read or write raises OSError naming the path.  A
CSV row that does not fit its header raises ConfigError naming the file
and line.
"""

from __future__ import annotations

import itertools

from .errors import ConfigError


_FLOAT = "%.17g"
_FIELDS = {float: _FLOAT, int: "%d"}


def _fmt(value: float) -> str:
    return _FLOAT % value


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows of already formatted fields."""
    return "".join(",".join(row) + "\n" for row in (header, *rows))


def _csv_numbers(header, types, rows) -> str:
    """CSV text of a header and rows of numbers, formatted by one printf
    template for the whole table: a field whose entry of ``types`` is float
    is written as _fmt writes it, an int one as a whole number."""
    rows = list(rows)
    line = ",".join(_FIELDS[t] for t in types) + "\n"
    return _csv_text(header, ()) + (line * len(rows)) % tuple(itertools.chain.from_iterable(rows))


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


def _read_text(path) -> str:
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"reading {path}: {exc}") from exc


def _read_csv(path, what: str, known, types=None) -> tuple:
    """(header, rows) of the CSV file at ``path``.

    ``known(header)`` says whether the header is one of a ``what`` CSV.
    Blank lines are skipped; every other row needs one field per header
    field, parsed by the matching entry of ``types`` (float for all fields
    by default), and becomes a tuple.
    """
    lines = _read_text(path).splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty file, expected a header row")
    header = lines[0].split(",")
    if not known(header):
        raise ConfigError(f"{path} is not a {what} CSV (header {header})")
    types = types or (float,) * len(header)
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise ConfigError(f"{path}, line {number}: {len(fields)} fields, expected {len(header)}")
        try:
            rows.append(tuple(parse(field) for parse, field in zip(types, fields)))
        except ValueError as exc:
            raise ConfigError(f"{path}, line {number}: {exc}") from exc
    return header, rows
