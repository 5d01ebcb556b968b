"""The one CSV formatter and the report writer."""

import math

import numpy as np
import pytest
from conftest import per_cell_reference, per_cell_write_rows

from crnoise import reports
from crnoise.cli import main
from crnoise.reports import _BLOCK_CELLS, Row, render_table, write_csv, write_report


def test_write_csv_matches_per_cell_reference(tmp_path):
    n = 2 * (_BLOCK_CELLS // 4) + 7  # three blocks of four columns, the last one partial
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
    n = _BLOCK_CELLS // 2 + 3
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


def adversarial_doubles() -> np.ndarray:
    """Doubles where a %.12g formatter is most likely to go wrong, with their
    neighbours and negatives."""
    rng = np.random.default_rng(14)
    # exact ties at the 13th significant digit, and the nearest doubles to
    # decimal ties (just above or below one, by less than the kernel's error)
    ties = [1234567890125.0, 1234567890135.0, 123456789012.5, 999999999999.5, 0.5, 2.5]
    mantissas = rng.integers(10**11, 10**12, 4000) * 10 + 5
    exponents = rng.integers(-300, 300, 4000)
    ties += [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    # where the notation switches between fixed and scientific
    switches = [1e-5, 1e-4, 9.999999999995e-5, 9.9999999999949e-5, 1e11, 1e12,
                999999999999.5, 999999999999.4, 99999999999.95, 0.001, 1.0, 10.0]
    powers = [float(f"1e{k}") for k in range(-320, 309)]
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1.7976931348623157e308, 1e-297, 1.234e-300, 4.5e299]
    base = np.array(ties + switches + powers + special)
    with np.errstate(over="ignore"):
        around = [np.nextafter(base, -np.inf), np.nextafter(base, np.inf)]
    values = np.concatenate([base, *around])
    return np.concatenate([values, -values])


def random_doubles(n: int) -> np.ndarray:
    """Seeded doubles over every exponent: random bit patterns (nan, inf and
    subnormals included), plus values with few significant digits, so that
    trailing zeros are dropped, and values in the fixed-notation range."""
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, n // 2, dtype=np.uint64, endpoint=False)
    digits = rng.integers(1, 13, n // 4)
    short = np.rint(rng.uniform(-1, 1, n // 4) * 10.0**digits) * 10.0 ** rng.integers(
        -30, 30, n // 4)
    fixed = rng.uniform(1, 10, n - n // 2 - n // 4) * 10.0 ** rng.integers(-6, 14, n - n // 2 - n // 4)
    return np.concatenate([bits.view(np.float64), short, fixed])


def written_cells(tmp_path, column) -> list[str]:
    path = tmp_path / "one.csv"
    write_csv(path, "v", (column,))
    return path.read_text().splitlines()[1:]


@pytest.mark.parametrize("values", [adversarial_doubles(), random_doubles(10**6)],
                         ids=["adversarial", "random"])
def test_numpy_doubles_are_written_as_percent_12g(tmp_path, values):
    """Every float64 cell equals '%.12g' % v, the kernel's cells and the ones
    it hands to Python alike."""
    want = ["%.12g" % v for v in values.tolist()]
    got = written_cells(tmp_path, values)
    mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not mismatches, mismatches[:10]


def test_python_formats_only_near_ties(tmp_path, monkeypatch):
    """On a psd-like record (times, and displacements of two scales) the
    numpy kernel writes all but ~0.8% of the cells itself: those within
    4e-3 of a tie at the 13th digit (and the first time, 0) go to Python."""
    rng = np.random.default_rng(5)
    n = 3 * _BLOCK_CELLS
    columns = (np.arange(n) / 131072.0 * 7.3, rng.standard_normal(n) * 1e-9,
               rng.standard_normal(n) * 3e-11)
    handed = []
    python_cells = reports._format_in_python
    monkeypatch.setattr(reports, "_format_in_python",
                        lambda words, values, slow, seps: handed.append(slow.size)
                        or python_cells(words, values, slow, seps))
    write_csv(tmp_path / "ts.csv", "t,x1,x2", columns)
    assert (tmp_path / "ts.csv").read_text() == per_cell_reference("t,x1,x2", columns, ())
    assert 0 < sum(handed) < 0.02 * 3 * n


def test_integer_bool_and_single_columns_are_written_as_percent_12g(tmp_path):
    """Other numeric dtypes are written as Python writes their cells: as
    '%.12g' % cell of the Python int, bool or float that tolist() gives."""
    i64 = np.iinfo(np.int64)
    f32 = np.finfo(np.float32)
    columns = [
        np.array([i64.min, i64.max, 0, -1, 1, 2**53 + 1, 10**15, -(10**12) + 1], np.int64),
        np.array([0, 2**64 - 1, 2**63, 123456789012345], np.uint64),
        np.array([True, False, True]),
        np.array([f32.max, f32.tiny, f32.smallest_subnormal, -0.0, 0.1, 1 / 3, np.nan, -np.inf],
                 np.float32),
        np.array([65504.0, 6.1e-5, 0.1], np.float16),
    ]
    for column in columns:
        want = ["%.12g" % v for v in column.tolist()]
        assert written_cells(tmp_path, column) == want, column.dtype


def test_str_cells_round_trip(tmp_path):
    """str cells are written as they are, separators, '%' and non-ASCII text
    included, from Python sequences and numpy string columns alike."""
    labels = ["a,b", "50%", "%s %d %%", "Ünïcödé µm²", "日本語", "", "x" * 70, 'q"uote']
    numbers = np.arange(len(labels)) * 0.25
    for column in (labels, np.array(labels)):
        path = tmp_path / "text.csv"
        write_csv(path, "label,value", (column, numbers))
        assert path.read_text(encoding="utf-8") == per_cell_reference(
            "label,value", (labels, numbers), ())


def test_nul_in_a_str_cell_is_rejected(tmp_path):
    """A NUL cannot be told apart from the writer's padding: it raises a
    ValueError naming the cell, and no file is left behind."""
    for column in (["ok", "bad\0cell"], np.array(["ok", "bad\0cell"])):
        with pytest.raises(ValueError, match="NUL character: 'bad\\\\x00cell'"):
            write_csv(tmp_path / "nul.csv", "a,b", (column, [1.0, 2.0]))
        assert list(tmp_path.iterdir()) == []


def test_public_callables_unchanged():
    """The formatter stays private: perfbench's tracer wraps every public
    function of the module in spans on one stack shared by all threads, and
    the formatter runs on the engine's sink thread."""
    public = {name for name, value in vars(reports).items()
              if not name.startswith("_") and callable(value)
              and getattr(value, "__module__", None) == reports.__name__}
    assert public == {"Row", "atomic_open", "csv_writer", "format_value", "render_table",
                      "write_csv", "write_report", "write_rows_csv"}


HARMONIC_CFG = """forcing.harmonic_amplitude = 1e-6
forcing.harmonic_frequency = mode1
forcing.harmonic_phase = 0.7
sim.duration = 2
sim.decimation = 25
"""


@pytest.mark.filterwarnings("ignore:run covers")
def test_cli_outputs_match_per_cell_reference(tmp_path, monkeypatch, capsys):
    """Every file of a psd, a decimated harmonic simulate, a 300-point sweep
    (with its mode-label column), a budget and a resolution run is byte-equal
    to the same run written cell by cell with '%'.  Both sides run here, so
    the check holds whatever this platform's log10 or sin return."""
    (tmp_path / "harmonic.cfg").write_text(HARMONIC_CFG)
    kc = -np.geomspace(10.0, 12000.0, 300)
    (tmp_path / "sweep.cfg").write_text(
        "sweep.kc_values = " + ", ".join(repr(k) for k in kc.tolist()) + "\n")
    runs = [
        ["psd", "--config", "paper-reference", "--seed", "1"],
        ["simulate", "--config", str(tmp_path / "harmonic.cfg")],
        ["sweep", "--config", str(tmp_path / "sweep.cfg")],
        ["budget", "--config", "paper-reference"],
        ["resolution", "--config", "paper-reference"],
    ]

    def outputs(side):
        for i, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / side / str(i))]) == 0, argv
        return {p.relative_to(tmp_path / side): p.read_bytes()
                for p in sorted((tmp_path / side).rglob("*")) if p.is_file()}

    shipped = outputs("shipped")
    monkeypatch.setattr(reports, "_write_rows", per_cell_write_rows)
    reference = outputs("reference")
    assert sorted(shipped) == sorted(reference)
    assert any(name.name == "sweep.csv" for name in shipped)
    for name in reference:
        assert shipped[name] == reference[name], name
