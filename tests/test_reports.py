"""The one CSV formatter and the report writer."""

import math

import numpy as np
import pytest

from crnoise.reports import _BLOCK_ROWS, Row, render_table, write_csv, write_report


def per_cell_reference(header, columns, comments):
    """The cell-by-cell format write_csv must reproduce: str as is, else %.12g."""
    lines = [f"# {c}" for c in comments] + [header]
    for row in zip(*columns):
        lines.append(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_cell_reference(tmp_path):
    n = 2 * _BLOCK_ROWS + 7  # three blocks, the last one partial
    special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300, 123456789012345.0]
    floats = np.array([
        special[i % len(special)] if i % 5 == 0 else math.sin(i) * 10.0 ** (i % 40 - 20)
        for i in range(n)
    ])
    labels = [f"mode_{i}%s" if i % 3 else "in_phase" for i in range(n)]
    # a str/number column like Row.value, whose cells change type row by row
    mixed = [("dominant", i, -0.0, math.pi / (i + 1))[i % 4] for i in range(n)]
    ints = tuple(i - n // 2 for i in range(n))
    columns = (floats, labels, mixed, ints)
    header, comments = "a,b%d,c,d", ("k = 5%", "note with %s")
    path = tmp_path / "mixed.csv"
    write_csv(path, header, columns, comments)
    assert path.read_text() == per_cell_reference(header, columns, comments)
    assert not list(tmp_path.glob("*.part"))


def test_numpy_and_sequence_columns_write_alike(tmp_path):
    """A numpy column is formatted by its dtype, a Python sequence cell by
    cell: both give the per-cell bytes, for mixed and homogeneous columns."""
    n = _BLOCK_ROWS + 3
    floats = np.sin(np.arange(n)) * 10.0 ** (np.arange(n) % 30 - 15)
    ints = np.arange(n) - n // 2
    labels = np.array(["in_phase", "out_of_phase", "degenerate"])[np.arange(n) % 3]
    for name, columns in (("mixed", (floats, labels, ints)), ("homogeneous", (floats, ints))):
        as_lists = tuple(column.tolist() for column in columns)
        write_csv(tmp_path / f"{name}_numpy.csv", "h", columns)
        write_csv(tmp_path / f"{name}_lists.csv", "h", as_lists)
        got = (tmp_path / f"{name}_numpy.csv").read_bytes()
        assert got == (tmp_path / f"{name}_lists.csv").read_bytes(), name
        assert got.decode() == per_cell_reference("h", as_lists, ()), name


def test_write_csv_without_rows_writes_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, "x,y", (np.array([]), []), ("c = 1",))
    assert path.read_text() == "# c = 1\nx,y\n"


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "bad.csv", "x,y", ([1.0, 2.0], [1.0]))


def test_write_report_returns_the_written_table(tmp_path):
    rows = [Row("f1", 2474.73, "Hz", "input"), Row("label", "in_phase", "-", "mode")]
    path = tmp_path / "report.txt"
    table = write_report(path, "title", rows, comments=("a = 1",), footnotes=("n",))
    assert table == render_table("title", rows, ("n",))
    assert path.read_text() == "# a = 1\n" + table


def test_failed_write_leaves_no_temporary(tmp_path):
    """A cell that cannot be formatted raises; neither the file nor its
    temporary is left behind, and an existing file keeps its content."""
    path = tmp_path / "x.csv"
    with pytest.raises(TypeError):
        write_csv(path, "a", ([None, 1.0],))
    assert list(tmp_path.iterdir()) == []
    path.write_text("kept\n")
    with pytest.raises(TypeError):
        write_csv(path, "a", ([None, 1.0],))
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "kept\n"
