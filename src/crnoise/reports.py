"""Plain-text tables, CSV emission and atomic file writes for reports."""

from __future__ import annotations

import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Row:
    quantity: str
    value: float | str
    unit: str
    source: str


def format_value(value: float | str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.6g}"


def render_table(title: str, rows: list[Row], footnotes: tuple[str, ...] = ()) -> str:
    """Aligned four-column text table."""
    header = ("quantity", "value", "unit", "source")
    cells = [header] + [
        (r.quantity, format_value(r.value), r.unit, r.source) for r in rows
    ]
    widths = [max(len(c[i]) for c in cells) for i in range(4)]
    sep = "  "
    lines = [title, "-" * len(title)]
    for i, c in enumerate(cells):
        lines.append(sep.join(c[j].ljust(widths[j]) for j in range(4)).rstrip())
        if i == 0:
            lines.append(sep.join("-" * widths[j] for j in range(4)))
    for note in footnotes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


@contextmanager
def atomic_open(path):
    """Text handle on a temporary name, fsynced and renamed to `path` on exit.

    If the body raises, the temporary is removed and `path` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".part")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_report(path, title: str, rows: list[Row],
                 comments: tuple[str, ...] = (), footnotes: tuple[str, ...] = ()) -> str:
    """Write the table under '# ' comment lines; returns the rendered table."""
    table = render_table(title, rows, footnotes)
    with atomic_open(path) as handle:
        handle.write("".join(f"# {c}\n" for c in comments) + table)
    return table


# rows formatted per `%` call; the formatted cells of one block are all that
# is held in memory at once
_BLOCK_ROWS = 1 << 12


@contextmanager
def csv_writer(path, header: str, comments: tuple[str, ...] = ()):
    """Open a CSV whose rows arrive in blocks; yields write(columns).

    write appends equal-length columns (numpy arrays, tuples or lists) as
    comma-separated rows: a str cell as is, every other cell as %.12g.  A
    numpy column is formatted by its dtype, a Python sequence cell by cell.
    Comment lines (prefixed '# ') and the header go on top.  The file
    appears under `path` when the block is left (see `atomic_open`).
    """
    with atomic_open(path) as handle:
        handle.write("".join(f"# {c}\n" for c in comments) + header + "\n")
        yield lambda columns: _write_rows(handle, columns)


def write_csv(path, header: str, columns, comments: tuple[str, ...] = ()) -> None:
    """Write equal-length columns as rows under a header line (see `csv_writer`)."""
    with csv_writer(path, header, comments) as write:
        write(columns)


def _cell_formats(column):
    """The format of a column's cells: one for a numpy column, from its dtype
    (%s for strings, %.12g otherwise); one per cell for a Python sequence or
    an object array, whose cells may mix strings and numbers."""
    if isinstance(column, np.ndarray) and column.dtype.kind != "O":
        return "%s" if column.dtype.kind == "U" else "%.12g"
    return ["%s" if isinstance(v, str) else "%.12g" for v in column]


def _write_rows(handle, columns) -> None:
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    for start in range(0, n_rows, _BLOCK_ROWS):
        block = [column[start:start + _BLOCK_ROWS] for column in columns]
        formats = [_cell_formats(b) for b in block]
        if all(isinstance(f, str) for f in formats):
            template = (",".join(formats) + "\n") * len(block[0])
        else:
            per_row = zip(*(itertools.repeat(f) if isinstance(f, str) else f for f in formats))
            template = "".join(",".join(row) + "\n" for row in per_row)
        block = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
        handle.write(template % tuple(itertools.chain.from_iterable(zip(*block))))


def write_rows_csv(path, rows: list[Row], comments: tuple[str, ...] = ()) -> None:
    """quantity,value,unit,source CSV used by budget and resolution reports."""
    write_csv(
        path,
        "quantity,value,unit,source",
        list(zip(*[(r.quantity, r.value, r.unit, r.source) for r in rows])),
        comments,
    )
