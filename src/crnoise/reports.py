"""Plain-text tables, CSV emission and atomic file writes for reports."""

from __future__ import annotations

import functools
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


# cells formatted per pass: the byte matrix of one pass and its temporaries
# are all that is held in memory at once, however many columns a row has
_BLOCK_CELLS = 1 << 12


@contextmanager
def csv_writer(path, header: str, comments: tuple[str, ...] = ()):
    """Open a CSV whose rows arrive in blocks; yields write(columns).

    write appends equal-length columns (numpy arrays, tuples or lists) as
    comma-separated rows.  Every cell is written exactly as Python writes
    it: a str cell as is, every other cell as '%.12g' % cell.  A numpy
    column of floats, ints or bools is formatted in numpy, by the bytes of
    its values as doubles; its zeros and the cells the kernel cannot prove
    it rounds as Python does (nan, +-inf, subnormals and other magnitudes
    below ~1e-297, and ties or near-ties at the 13th significant digit) go
    through Python's '%' one by one.  Any other column (a Python sequence,
    strings, objects) is formatted cell by cell.  A str cell holding NUL
    raises ValueError, and a cell '%.12g' cannot format raises TypeError.
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


def _write_rows(handle, columns) -> None:
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    # a row is built as one run of bytes per cell, NUL-padded to whole 8-byte
    # words and ending in the cell's separator; dropping the NULs leaves the text
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    numeric = [k for k, column in enumerate(columns)
               if isinstance(column, np.ndarray) and column.dtype.kind in "biuf"]
    block_rows = max(1, _BLOCK_CELLS // max(1, len(columns)))
    for start in range(0, n_rows, block_rows):
        block = [column[start:start + block_rows] for column in columns]
        cells = [None] * len(block)
        if numeric:
            values = np.empty((len(block[0]), len(numeric)))
            for j, k in enumerate(numeric):
                values[:, j] = block[k]
            words = _format_doubles(values, [seps[k] for k in numeric])
            for j, k in enumerate(numeric):
                cells[k] = words[:, j]
        if len(numeric) == len(block):
            matrix = words
        else:
            matrix = np.concatenate([_text_cells(b, sep) if c is None else c
                                     for c, b, sep in zip(cells, block, seps)], axis=1)
        handle.write(matrix.tobytes().translate(None, b"\0").decode())


def _text_cells(cells, sep: bytes) -> np.ndarray:
    """A column formatted cell by cell (a str as is, else %.12g), as rows of
    NUL-padded 8-byte words."""
    if isinstance(cells, np.ndarray):
        cells = cells.tolist()
    text = [v if isinstance(v, str) else "%.12g" % v for v in cells]
    if "\0" in "".join(text):
        bad = next(t for t in text if "\0" in t)
        raise ValueError(f"a CSV cell holds a NUL character: {bad!r}")
    encoded = [t.encode() + sep for t in text]
    width = -(-max(map(len, encoded)) // 8) * 8
    return np.array(encoded, f"S{width}").view(np.uint64).reshape(len(encoded), width // 8)


# '%.12g' in numpy.  Python writes a double x from its 12 significant
# digits, correctly rounded (Gay's dtoa): the integer m = round(|x| 10^(11-e))
# in [1e11, 1e12), e the decimal exponent.  Here:
# - the top 12 bits of x (sign and binary exponent B) index a table of
#   +-10^(11-E), E = floor(B log10 2), each entry correctly rounded from its
#   decimal string; x times it is y >= 0, and e is E or E + 1;
# - where y >= 1e12, y is divided by 10 once more and e = E + 1;
# - y carries at most three roundings of 2^-53 each (table entry, product,
#   quotient), so below 1e12 it is within 3.4e-4 of |x| 10^(11-e);
# - where 1e11 <= y < 1e12 - 1 and |y - rint(y)| < 0.5 - 4e-3, rint(y) is
#   therefore m, and |x| 10^(11-e) is no tie.  The margin is over ten times
#   that error.
# Every other cell is written by Python's '%'.  The digits of m come from a
# 4-digit table, as digit, '.' pairs.  A mask, chosen by e's notation and by
# how many digits are left once trailing zeros are dropped, keeps the digits
# and at most one '.'.

_TIE_MARGIN = 4e-3
# bytes of a numeric cell: sign and '0.000' prefix, the twelve digit, '.'
# pairs, exponent suffix and separator (see _float_tables)
_CELL_WORDS = 5


def _format_doubles(values: np.ndarray, seps: list[bytes]) -> np.ndarray:
    """'%.12g' % v of each cell of a (rows, columns) float64 array followed by
    its column's separator, as (rows, columns, _CELL_WORDS) uint64 words."""
    scale, prefix, suffix, key_base, digits, last, masks = _float_tables()
    rows, cols = values.shape
    words = np.empty((rows, cols, _CELL_WORDS), np.uint64)
    with np.errstate(invalid="ignore"):
        i = np.right_shift(values.view(np.uint64), 52).view(np.int64)
        y = values * scale.take(i)
        big = y >= 1e12
        y = np.where(big, y / 10.0, y)
        i <<= 1
        i += big
        m = np.rint(y)
        fast = np.abs(y - m) < 0.5 - _TIE_MARGIN
        fast &= y < 1e12 - 1
        fast &= (y >= 1e11) | (values == 0)
        # the mantissa's three 4-digit groups, most significant first
        low = m.astype(np.int64)
        high = low // 100_000_000
        low -= high * 100_000_000
        mid = low // 10_000
        low -= mid * 10_000
        groups = (high, mid, low)
    # garbage indices of the cells Python formats are clipped into the tables
    keep = np.maximum(last[0].take(high, mode="clip"), last[1].take(mid, mode="clip"))
    np.maximum(keep, last[2].take(low, mode="clip"), out=keep)
    key = key_base.take(i)
    key += keep
    prefix.take(i, out=words[..., 0], mode="clip")
    for w, (g, mask) in enumerate(zip(groups, masks), start=1):
        np.bitwise_and(digits.take(g, mode="clip"), mask.take(key), out=words[..., w])
    sep_words = np.array([b"\0" * 5 + s for s in seps], "S8").view(np.uint64)
    np.bitwise_or(suffix.take(i), sep_words, out=words[..., 4])
    slow = np.flatnonzero(~fast)
    if slow.size:
        _format_in_python(words, values, slow, seps)
    return words


def _format_in_python(words, values, slow, seps) -> None:
    """Overwrite the cells at flat indices `slow` with '%.12g' % v and separator."""
    text = [b"%.12g" % v + seps[c]
            for v, c in zip(values.ravel()[slow].tolist(), (slow % values.shape[1]).tolist())]
    words.reshape(-1, _CELL_WORDS)[slow] = np.array(text, "S40").view(np.uint64).reshape(
        -1, _CELL_WORDS)


@functools.cache
def _float_tables():
    """The kernel's tables, built on first use (0.35 MB, 2-3 ms):
    scale[b], for b the top 12 bits of a double (see above);
    prefix[i], suffix[i], key_base[i] for i = 2 b + (y was divided by 10):
    the sign and '0.000' prefix word, the exponent suffix word and 13 times
    the notation class of e (0: scientific, 1-4: fixed, e = -4..-1, 5-16:
    fixed, e = 0..11, 17: scientific);
    digits[g]: the 4-digit group g as digit, '.' pairs;
    last[j][g]: one past the last nonzero digit of the group at position j
    of the mantissa (0 where it is all zeros; 1 for a zero leading group);
    masks[j][key_base + keep]: the bytes of group j kept when the mantissa
    has `keep` digits left after its trailing zeros are dropped."""
    bexp = np.arange(4096) & 2047
    negative = np.arange(4096) >= 2048
    dec = np.floor((bexp - 1023) * math.log10(2)).astype(np.int64)
    lowest = -297  # 10^(11 - lowest) is the largest power of ten below 1.8e308
    tens = np.array([float(f"1e{11 - d}") for d in range(lowest, 309)])
    powers = np.where((bexp < 2047) & (dec >= lowest), tens[np.clip(dec - lowest, 0, None)], np.nan)
    powers[bexp == 0] = 0.0  # zeros; subnormals then fail the range test
    scale = np.where(negative, -powers, powers)

    e = np.where(bexp == 0, 0, dec).repeat(2) + np.tile([0, 1], 4096)
    fixed_below_one = ((e >= -4) & (e < 0))[:, None]
    prefix = np.zeros((2 * 4096, 8), np.uint8)
    prefix[:, 0] = np.where(negative.repeat(2), ord("-"), 0)
    prefix[:, 1:6] = np.where(fixed_below_one & (np.arange(5) < 1 - e[:, None]),
                              np.frombuffer(b"0.000", np.uint8), 0)
    prefix = prefix.view(np.uint64).ravel()
    e_values = range(e.min(), e.max() + 1)
    exponents = np.array([b"" if -4 <= v < 12 else b"e%+03d" % v for v in e_values], "S8")
    suffix = exponents.view(np.uint64)[e - e.min()]
    key_base = (np.clip(e, -5, 12) + 5) * 13

    d = np.stack(np.meshgrid(*[np.arange(10, dtype=np.uint8)] * 4, indexing="ij"), -1)
    d = d.reshape(10000, 4)  # the digits of 0000 ... 9999
    pairs = np.full((10000, 8), ord("."), np.uint8)
    pairs[:, 0::2] = d + ord("0")
    digits = pairs.view(np.uint64).ravel()
    past = np.zeros(10000, np.uint8)
    for j in range(4):
        past[d[:, j] != 0] = j + 1
    last = (np.where(past == 0, 1, past).astype(np.uint8),
            np.where(past == 0, 0, 4 + past).astype(np.uint8),
            np.where(past == 0, 0, 8 + past).astype(np.uint8))

    cls, keep = np.divmod(np.arange(18 * 13), 13)
    integer_digits = np.where((cls >= 5) & (cls < 17), cls - 4, 0)  # e + 1 in fixed notation
    point = np.where((cls >= 1) & (cls < 5), -1, np.maximum(integer_digits - 1, 0))
    point[keep <= point + 1] = -1  # no fraction digits left: no '.'
    n_digits = np.maximum(keep, integer_digits)
    slot = np.arange(24) // 2
    kept = np.where(np.arange(24) % 2 == 0, slot < n_digits[:, None], slot == point[:, None])
    kept = (kept * 0xFF).astype(np.uint8)
    masks = tuple(np.ascontiguousarray(kept[:, 8 * j:8 * j + 8]).view(np.uint64).ravel()
                  for j in range(3))
    return scale, prefix, suffix, key_base, digits, last, masks


def write_rows_csv(path, rows: list[Row], comments: tuple[str, ...] = ()) -> None:
    """quantity,value,unit,source CSV used by budget and resolution reports."""
    write_csv(
        path,
        "quantity,value,unit,source",
        list(zip(*[(r.quantity, r.value, r.unit, r.source) for r in rows])),
        comments,
    )
