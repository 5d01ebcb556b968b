"""Plain-text tables, CSV emission and atomic file writes for reports."""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


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
    """Text handle on a temporary name, fsynced and renamed to `path` on exit."""
    path = Path(path)
    tmp = path.with_name(path.name + ".part")
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def atomic_write(path, text: str) -> None:
    """Write via a temporary name and rename, so no file is ever partial."""
    with atomic_open(path) as handle:
        handle.write(text)


def write_report(path, title: str, rows: list[Row],
                 comments: tuple[str, ...] = (), footnotes: tuple[str, ...] = ()) -> None:
    body = "".join(f"# {c}\n" for c in comments)
    atomic_write(path, body + render_table(title, rows, footnotes))


def csv_field(value: float | str) -> str:
    if isinstance(value, str):
        return value
    return f"{value:.12g}"


def write_csv(path, header: str, data_rows: list[tuple], comments: tuple[str, ...] = ()) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    for row in data_rows:
        lines.append(",".join(csv_field(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def write_rows_csv(path, rows: list[Row], comments: tuple[str, ...] = ()) -> None:
    """quantity,value,unit,source CSV used by budget and resolution reports."""
    write_csv(
        path,
        "quantity,value,unit,source",
        [(r.quantity, r.value, r.unit, r.source) for r in rows],
        comments,
    )
