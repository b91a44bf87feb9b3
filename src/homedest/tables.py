"""The one CSV table format every artifact is written and read in.

A table is an optional leading block of ``# `` comment lines, a column row,
then one row per record, ``\\n``-terminated. Floats are written as their
``repr``, None as an empty cell and booleans as ``true``/``false``.

A reader declares each column it needs with its cell type: ``str``, ``int``,
``float``, ``bool`` or ``T | None``, whose empty or whitespace-only cell is
None. Only the leading ``#`` lines are comments (a later one may continue a
quoted cell) and blank lines are skipped; any other row must have as many
cells as the column row, each parsing as its column's type (a ``float`` as a
finite number, so not ``nan``, ``inf`` or ``1e999``), and every quote must close.
"""

from __future__ import annotations

import csv
import math
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, Sequence, get_args


class TableError(ValueError):
    """A table lacks a column its reader needs, has a ragged row or a cell that does not parse, or is not UTF-8."""


def _cell(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    return value


def write_table(
    path: str | Path,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    header: Sequence[str] = (),
) -> None:
    """Write ``header`` as ``# `` lines, then the column row, then ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for line in header:
            handle.write(f"# {line}\n")
        # Each record is formatted with a \r\n terminator, so that csv also quotes
        # a cell holding a bare \r (which a reader takes for a line end), and is
        # written with \n.
        records = SimpleNamespace(write=lambda record: handle.write(record[:-2] + "\n"))
        writer = csv.writer(records, lineterminator="\r\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)


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
    (base,) = set(get_args(kind)) - {type(None)}
    parse, expected = _PARSERS[base]
    return (lambda cell: parse(cell) if cell.strip() else None), f"{expected}, or empty"


def read_table(path: str | Path, columns: Mapping[str, object]) -> Iterator[dict]:
    """Yield each row of a table as a dict of ``columns``, every cell parsed as its type.

    Columns the table has beyond ``columns`` are not read. Raises TableError
    naming the file, and the line, column and value where there is one.
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
                yield record
        except UnicodeDecodeError:
            raise TableError(f"{path}: not UTF-8") from None
        except csv.Error as exc:  # such as a quote that no later quote closes
            raise TableError(f"{path}: line {comments + reader.line_num}: {exc}") from None
