"""The one CSV table format every artifact is written and read in.

A table is an optional leading block of ``# `` comment lines, a column row,
then one row per record, ``\\n``-terminated. Floats are written as their
``repr`` (only finite ones: a NaN or an infinity is refused on write as on
read), None as an empty cell and booleans as ``true``/``false``.

A writer declares every column with its cell type, and a reader each column
it needs: ``str``, ``int``, ``float``, ``bool`` or ``T | None``, whose empty
or whitespace-only cell is None. Only the leading ``#`` lines are comments
(a later one may continue a quoted cell) and blank lines are skipped; any
other row must have as many cells as the column row, each parsing as its
column's type (a ``float`` as a finite number, so not ``nan``, ``inf`` or
``1e999``), and every quote must close; a reader may add a key and row rules.
"""

from __future__ import annotations

import csv
import math
from itertools import chain
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, Sequence, get_args


class TableError(ValueError):
    """A table lacks a needed column, has a ragged row, a bad cell, a repeated key or a broken rule, or is not UTF-8."""


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(value)
    return value


def _flag(value):
    return "true" if value is True else "false" if value is False else value


# The one step a cell of each type takes before csv writes it; other types are written as they are.
_FORMATTERS = {float: _finite, bool: _flag}


def _base(kind) -> type:
    """The cell type of ``kind``, ``T`` of ``T | None``."""
    (base,) = set(get_args(kind) or (kind,)) - {type(None)}
    return base


def write_table(
    path: str | Path,
    columns: Mapping[str, object],
    rows: Iterable[Sequence],
    header: Sequence[str] = (),
) -> None:
    """Write ``header`` as ``# `` lines, then the column row, then ``rows``.

    ``columns`` maps each column to its cell type, as ``read_table`` takes
    it. Each column's formatter is picked once: a ``float`` cell is checked
    to be finite and a ``bool`` cell written ``true``/``false``; every other
    cell goes to csv as it is (None as an empty cell). A NaN or an infinity,
    which no reader accepts, is a TableError naming the row and column, and
    no file is left behind.
    """
    steps = [
        (i, name, step) for i, (name, kind) in enumerate(columns.items()) if (step := _FORMATTERS.get(_base(kind)))
    ]

    def formatted(rows):
        for number, row in enumerate(rows, 1):
            row = list(row)
            for i, name, step in steps:
                try:
                    row[i] = step(row[i])
                except ValueError:
                    raise TableError(f"{path}: row {number}: column {name} would hold {row[i]}, not a finite number") from None
            yield row

    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            for line in header:
                handle.write(f"# {line}\n")
            # Each record is formatted with a \r\n terminator, so that csv also quotes
            # a cell holding a bare \r (which a reader takes for a line end), and is
            # written with \n.
            records = SimpleNamespace(write=lambda record: handle.write(record[:-2] + "\n"))
            writer = csv.writer(records, lineterminator="\r\n")
            writer.writerow(columns)
            writer.writerows(formatted(rows) if steps else rows)
    except TableError:
        Path(path).unlink()
        raise


def _bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(cell)
    return cell == "true"


def _float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):  # no test or mean can use a NaN or an infinity
        raise ValueError(cell)
    return value


# The parser of each cell type, and what its error message says it expects.
_PARSERS = {str: (str, "text"), int: (int, "an integer"), float: (_float, "a number"), bool: (_bool, "true or false")}


def _parser(kind) -> tuple[Callable[[str], object], str]:
    """The parser of a ``kind`` cell and what it expects; ``T | None`` reads a blank cell as None."""
    if kind in _PARSERS:
        return _PARSERS[kind]
    parse, expected = _PARSERS[_base(kind)]
    return (lambda cell: parse(cell) if cell.strip() else None), f"{expected}, or empty"


def read_table(
    path: str | Path, columns: Mapping[str, object], key: Sequence[str] = (), rules: Mapping[str, Callable] = {}
) -> Iterator[dict]:
    """Yield each row of a table as a dict of ``columns``, every cell parsed as its type.

    Columns the table has beyond ``columns`` are not read. No two rows share
    their ``key`` cells, and each row passes every predicate of ``rules`` (its
    text -> a test of the parsed row). Raises TableError naming the file, and
    the line, column and value where there is one, or the key cells and rule.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            comments = 0
            line = handle.readline()
            while line.startswith("#"):
                comments += 1
                line = handle.readline()
            reader = csv.reader(chain((line,), handle), strict=True)
            names = next(reader, [])
            missing = [c for c in columns if c not in names]
            if missing:
                raise TableError(f"{path}: missing column(s) {', '.join(missing)}")
            # Each cell's index and parser are found once, not per row.
            cells = [(names.index(name), name, *_parser(kind)) for name, kind in columns.items()]
            key_of = itemgetter(*key) if key else None
            first_line = {}  # each key's first line, as the reader counts them

            def refused(record, what):  # the message is built only for a row that fails
                named = ", ".join(f"{name} {record[name]}" for name in key)
                return TableError(f"{path}: line {comments + reader.line_num}: {named} {what}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(names):
                    where = f"{path}: line {comments + reader.line_num}"
                    raise TableError(f"{where} has {len(row)} cells, expected {len(names)}")
                record = {}
                for i, name, parse, expected in cells:
                    try:
                        record[name] = parse(row[i])
                    except ValueError:
                        where = f"{path}: line {comments + reader.line_num}: column {name}"
                        raise TableError(f"{where} holds {row[i]!r}, expected {expected}") from None
                if key_of and first_line.setdefault(key_of(record), reader.line_num) != reader.line_num:
                    raise refused(record, f"repeats line {comments + first_line[key_of(record)]}")
                for text, holds in rules.items():
                    if not holds(record):
                        raise refused(record, f"breaks the rule {text}")
                yield record
        except UnicodeDecodeError:
            raise TableError(f"{path}: not UTF-8") from None
        except csv.Error as exc:  # such as a quote that no later quote closes
            raise TableError(f"{path}: line {comments + reader.line_num}: {exc}") from None
