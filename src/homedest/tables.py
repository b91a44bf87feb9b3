"""The one CSV table format every artifact is written and read in.

A table is an optional block of ``# `` comment lines, a column row, then one
row per record, ``\\n``-terminated. Floats are written as their ``repr``,
None as an empty cell and booleans as ``true``/``false``; readers skip every
line that starts with ``#``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, Sequence


class TableError(ValueError):
    """A table lacks columns its reader needs, or holds a cell it cannot parse."""


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
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)


def read_table(path: str | Path, columns: Sequence[str]) -> Iterator[dict[str, str]]:
    """Yield the rows of a table as dicts, skipping ``#`` lines.

    Raises TableError naming the file and every one of ``columns`` its
    column row lacks.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(line for line in handle if not line.startswith("#"))
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise TableError(f"{path}: missing column(s) {', '.join(missing)}")
        yield from reader


def bool_cell(path: str | Path, row: dict[str, str], column: str) -> bool | None:
    """A ``true``/``false`` cell as a bool, an empty one as None.

    Raises TableError naming the file, the column and the value for any
    other cell.
    """
    value = row[column]
    if value == "":
        return None
    if value in ("true", "false"):
        return value == "true"
    raise TableError(f"{path}: column {column} holds {value!r}, expected true, false or empty")
