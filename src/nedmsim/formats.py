"""Byte-stable file formats: CSV tables, JSON summaries, atomic writes.

Every number is emitted in shortest round-trip form (``repr``), integers
as integers, so parsing an emitted file and re-emitting it reproduces the
bytes exactly. Files are written to temporary siblings and renamed into
place. Schema identifiers are recorded in manifests so consumers can
detect format drift.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from typing import Iterable, Iterator, Sequence

import numpy as np

from .comagnetometer import CycleTable
from .inference import _float64, _int64_counts

__all__ = [
    "SCHEMA_CYCLES_CSV",
    "SCHEMA_SCAN_CSV",
    "SCHEMA_CONTRAST_CSV",
    "SCHEMA_SUMMARY_JSON",
    "SCHEMA_MANIFEST_JSON",
    "CYCLES_HEADER",
    "FLIPS_HEADER",
    "SCAN_HEADER",
    "CONTRAST_HEADER",
    "ROW_SLICE",
    "format_number",
    "parse_number",
    "column_rows",
    "csv_lines",
    "render_csv",
    "parse_csv",
    "render_json",
    "atomic_write_text",
    "atomic_write_texts",
    "cycles_to_rows",
    "rows_to_cycles",
]

SCHEMA_CYCLES_CSV = "nedmsim.cycles-csv/1"
SCHEMA_SCAN_CSV = "nedmsim.scan-csv/1"
SCHEMA_CONTRAST_CSV = "nedmsim.contrast-csv/1"
SCHEMA_SUMMARY_JSON = "nedmsim.summary-json/1"
SCHEMA_MANIFEST_JSON = "nedmsim.manifest-json/1"

CYCLES_HEADER = ("index", "polarity", "n_up", "n_down", "f_n", "f_hg", "R")
FLIPS_HEADER = ("xi", "trials", "flips")
SCAN_HEADER = ("xi", "p_closed", "p_quadrature", "abs_diff")
CONTRAST_HEADER = ("model", "trials", "flips", "fraction", "expected_fraction")

# Tables whose every cell is a number: parse_csv refuses text in them
_NUMBER_TABLES = (CYCLES_HEADER, FLIPS_HEADER, SCAN_HEADER)

# Rows that column_rows turns into Python numbers at a time
ROW_SLICE = 4096

# The least int-string digit limit Python can be set to; interpreters
# without the limit (before 3.10.7) convert integral text of any length
_LEAST_DIGIT_LIMIT = 640


def format_number(value) -> str:
    """Shortest exact text for an int or float (ints stay integral)."""
    if isinstance(value, bool):
        raise TypeError("booleans are not table values")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def parse_number(text: str):
    """Inverse of :func:`format_number`: int if integral text, else float.

    OverflowError for integral text that ``int`` refuses for its length
    (Python's int-string digit limit, 4300 digits by default), and for
    float text beyond the double range, such as 1e400: ``float`` would read
    either as inf, a value the text does not hold. The spellings of inf
    and nan read as ``float`` reads them.
    """
    try:
        return int(text)
    except ValueError:
        value = float(text)  # ValueError for text that spells no number
    if len(text) > _LEAST_DIGIT_LIMIT:
        digits = text.strip().lstrip("+-").replace("_", "")
        if digits.isdigit():  # integral text that int() refused: it passed the limit
            raise OverflowError(f"an integer of {len(digits)} digits, more than Python converts")
    if math.isinf(value) and text.strip().lstrip("+-").lower() not in ("inf", "infinity"):
        raise OverflowError(f"{text!r}, a number beyond the double range")
    return value


# format_number's text for these exact types; bool and numpy scalars go through it
_CELL_FORMATTERS = {int: str, float: float.__repr__, str: str}


def column_rows(columns: Sequence[np.ndarray]) -> Iterator[tuple]:
    """The rows of equal-length arrays as tuples of Python numbers, made a slice
    of ROW_SLICE rows at a time: no whole column of Python numbers is held."""
    for at in range(0, len(columns[0]), ROW_SLICE):
        yield from zip(*[column[at : at + ROW_SLICE].tolist() for column in columns])


def csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """A table's lines, header first, each newline-terminated.

    Cells are numbers or strings. ``rows`` is read once, as lines are taken.
    """
    formatter = _CELL_FORMATTERS.get
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join([formatter(type(c), format_number)(c) for c in row]) + "\n"


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The text of :func:`csv_lines`."""
    return "".join(csv_lines(header, rows))


def parse_csv(text: str, expected_header: Sequence[str]) -> list[list]:
    """Parse a table emitted by :func:`render_csv`.

    The header must match, every row must have one cell per column, no
    cell may hold a number that :func:`parse_number` refuses, and every
    cell of a cycle, flip or scan table must be a number; a ValueError
    names the first line that does not, and the column and cell. Other
    tables keep a cell that is not a number as its text.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    if header != list(expected_header):
        raise ValueError(
            f"unexpected CSV header {header!r}, expected {list(expected_header)!r}"
        )
    numbers_only = tuple(header) in _NUMBER_TABLES
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"CSV line {number} has {len(cells)} cells, expected {len(header)}"
            )
        row = []
        for name, cell in zip(header, cells):
            try:
                row.append(parse_number(cell))
            except ValueError:
                if numbers_only:
                    raise ValueError(
                        f"CSV line {number}: {name} holds {cell!r}, not a number"
                    ) from None
                row.append(cell)
            except OverflowError as error:
                raise ValueError(f"CSV line {number}: {name} holds {error}") from None
        rows.append(row)
    return rows


def render_json(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write text, or each of its pieces, via a temporary sibling renamed into place."""
    atomic_write_texts({path: text})


def atomic_write_texts(texts: dict[str, str | Iterable[str]]) -> None:
    """:func:`atomic_write_text` for each path, renaming none until all are
    written; a failure removes each temporary file and each path renamed."""
    temporary, renamed = {}, []  # path -> its temporary sibling; paths in place
    try:
        for path, text in texts.items():
            fd, temporary[path] = tempfile.mkstemp(
                dir=os.path.dirname(os.path.abspath(path)), prefix=".nedmsim-", suffix=".tmp")
            with os.fdopen(fd, "w", newline="\n") as handle:
                handle.writelines([text] if isinstance(text, str) else text)
        for path, tmp in temporary.items():
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for path, tmp in temporary.items():
            with contextlib.suppress(OSError):
                os.unlink(path if path in renamed else tmp)
        raise


def cycles_to_rows(table: CycleTable) -> Iterator[tuple]:
    return column_rows(table)


def rows_to_cycles(rows: Sequence[Sequence]) -> CycleTable:
    """A cycle table from parsed rows, a count column float64 where a cell is
    a float (``expected`` mode); ValueError for a polarity other than +1 or
    -1, a negative count, an index or integer count beyond int64, or an
    integer beyond the double range in a float64 column."""
    index, polarity, *counts, f_n, f_hg, r = list(zip(*rows)) or [()] * 7
    if not set(polarity) <= {1, -1}:
        raise ValueError("polarity must be +1 or -1")
    counts = [_float64(cells, name) if any(isinstance(c, float) for c in cells)
              else _int64_counts(cells, name) for cells, name in zip(counts, CYCLES_HEADER[2:4])]
    table = CycleTable(_int64_counts(index, "index"), np.array(polarity, np.int64),
                       *counts, *map(_float64, (f_n, f_hg, r), CYCLES_HEADER[4:]))
    if np.any(table.n_up < 0) or np.any(table.n_down < 0):
        raise ValueError("counts must be >= 0")
    return table

