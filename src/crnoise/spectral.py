"""One-sided power spectral density estimation and band arithmetic.

Welch averaging with a periodic Hann window at 50% overlap is the workhorse
here, computed with numpy's real FFT.  `Welch` accumulates the estimate over
a record that arrives in chunks, as the engine hands its record out: each
segment is copied into one buffer of segment length as its samples come in,
and windowed, transformed and squared there once they are all in, one
segment at a time, so the working memory is a few segment lengths, whatever
the record's or the chunks' length.  Density scaling is used throughout, so
integrating a spectrum over a band returns the mean-square content of that
band; band arithmetic reads only the bins in the band.  The dB helper
offers two conventions: 20*log10 of the PSD value ("paper_20log", the
convention the reference design's published numbers follow) and the
physically standard 10*log10 ("power_10log").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reports import write_csv

DB_PAPER = "paper_20log"
DB_POWER = "power_10log"

# the Welch estimator sums the segments' |X|^2 in groups of this many
# samples' worth of segments, and adds up the group sums
_WELCH_BLOCK = 1 << 20


@dataclass(frozen=True)
class Spectrum:
    """One-sided PSD estimate on the grid k * df."""

    df: float  # Hz
    values: np.ndarray  # unit^2/Hz
    window: str
    segment_length: int
    overlap: float
    n_segments: int

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(self.values.size) * self.df

    @property
    def f_max(self) -> float:
        return (self.values.size - 1) * self.df


def default_segment_length(n_samples: int) -> int:
    """Largest power of two <= n_samples / 8."""
    if n_samples < 64:
        raise ValueError(f"series too short for Welch defaults ({n_samples} samples)")
    return 2 ** int(math.floor(math.log2(n_samples / 8)))


class Welch:
    """Welch estimate of one record, accumulated over consecutive chunks of it.

    The estimate is the Hann-windowed, overlap-averaged one-sided PSD.
    Segments of segment_length samples start every segment_length - noverlap
    samples; each is weighted by the periodic Hann window
    w[k] = 0.5 - 0.5 cos(2 pi k / L) and transformed with a real FFT, and the
    averaged |X|^2 is scaled by 2 dt / sum(w^2), except that DC and (for even
    L) Nyquist, which a one-sided spectrum holds once, take half of that.  No
    detrending is applied, so the integral of the spectrum matches the mean
    square (not the variance) of the input.

    The record's length is fixed up front, so each segment is transformed as
    soon as its samples have arrived, and every segment takes one path
    through one buffer of segment length: its samples are copied into the
    buffer as they arrive; once it is whole, the samples of the next segment
    that arrived before the current chunk are copied aside, and the segment
    is windowed in place, transformed into one spectrum row, and its |X|^2
    is formed in the buffer's memory.  Segments are summed one by one, in
    record order, so the result does not depend on how the record is cut
    into chunks, and the working memory, about 4.5 segment lengths of
    doubles, depends on neither the record's nor the chunks' length.  The
    sum runs within blocks of _WELCH_BLOCK // segment_length segments counted
    from segment 0, and the block sums are added up; that grouping only sets
    how the sum rounds.
    """

    def __init__(
        self,
        n_samples: int,
        dt: float,
        segment_length: int | None = None,
        overlap: float = 0.5,
    ):
        if dt <= 0:
            raise ValueError("dt must be > 0")
        if not 0.0 <= overlap < 1.0:
            raise ValueError("overlap must lie in [0, 1)")
        if segment_length is None:
            segment_length = default_segment_length(n_samples)
        if segment_length < 2:
            raise ValueError(f"segment_length must be >= 2, got {segment_length}")
        if segment_length > n_samples:
            raise ValueError(
                f"series too short: {n_samples} samples < segment_length {segment_length}"
            )
        self.n_samples = n_samples
        self.dt = dt
        self.segment_length = segment_length
        self.overlap = overlap
        self._step = segment_length - int(segment_length * overlap)
        self.n_segments = 1 + (n_samples - segment_length) // self._step
        self._per_block = max(1, _WELCH_BLOCK // segment_length)
        # the grid's spacing, rounded as rfftfreq(L, 1/fs) rounds its first bin
        self._df = 1.0 / (segment_length * (1.0 / (1.0 / dt)))
        # the periodic Hann window, built in place
        window = np.arange(segment_length, dtype=float)
        window *= 2.0 * math.pi
        window /= segment_length
        np.cos(window, out=window)
        window *= 0.5
        self._window = np.subtract(0.5, window, out=window)
        self._power = np.zeros(segment_length // 2 + 1)
        self._block = np.zeros_like(self._power)  # sum over the current block
        # the segment being windowed, or the next one's samples received so
        # far; the part of it the segment after starts with; its transform
        self._segment = np.empty(segment_length)
        self._aside = np.empty(segment_length - self._step)
        self._spectrum = np.empty_like(self._power, dtype=complex)
        self._seen = 0  # samples received
        self._next = 0  # index of the next segment to transform

    def add(self, chunk) -> None:
        """Take the record's next samples."""
        x = np.asarray(chunk, dtype=float)
        origin = self._seen  # record index of x[0]
        self._seen += x.size
        length, step, segment = self.segment_length, self._step, self._segment
        while self._next < self.n_segments:
            # the next segment is x[first:end]; when first < 0 its samples
            # before x, its first -first, are in the segment buffer
            first = self._next * step - origin
            start, end = max(first, 0), first + length
            segment[start - first : min(end, x.size) - first] = x[start:end]
            if end > x.size:  # not all in: the buffer holds what has come
                return
            held = max(-first - step, 0)  # the next segment's samples before x
            self._aside[:held] = segment[step : step + held]
            segment *= self._window
            spectrum = np.fft.rfft(segment, out=self._spectrum)
            # |X|^2 = re^2 + im^2, formed in the segment's memory
            power = np.square(spectrum.real, out=segment[: spectrum.size])
            power += np.square(spectrum.imag, out=spectrum.imag)
            self._block += power
            segment[:held] = self._aside[:held]
            self._next += 1
            if self._next % self._per_block == 0 or self._next == self.n_segments:
                self._power += self._block
                self._block[:] = 0.0
        self._segment = self._aside = self._spectrum = None  # every segment is in

    def check_band(self, f_center: float, bandwidth: float) -> None:
        """Raise ValueError, as band_power would on the estimate, if the band
        f_center +- bandwidth/2 reaches past either end of its frequency grid."""
        _band_edges(f_center, bandwidth, (self.segment_length // 2) * self._df)

    def spectrum(self) -> Spectrum:
        """The one-sided PSD of the whole record."""
        if self._seen != self.n_samples:
            raise ValueError(
                f"Welch estimate took {self._seen} samples, expected {self.n_samples}"
            )
        window = self._window
        psd = self._power * (2.0 * self.dt / (self.n_segments * np.sum(window**2)))
        psd[0] /= 2.0
        if self.segment_length % 2 == 0:
            psd[-1] /= 2.0
        return Spectrum(
            df=self._df,
            values=psd,
            window="hann",
            segment_length=self.segment_length,
            overlap=self.overlap,
            n_segments=self.n_segments,
        )


def band_power(spectrum: Spectrum, f_center: float, bandwidth: float) -> float:
    """Mean-square content of the band f_center +- bandwidth/2 [unit^2].

    Trapezoidal integration with linear interpolation at the band edges,
    which is exact for a flat spectrum (returns S * bandwidth) and additive
    over adjacent bands.  A band reaching past either end of the frequency
    grid is an error: clamped, it would hold less than bandwidth.
    """
    if bandwidth < 0:
        raise ValueError("bandwidth must be >= 0")
    if bandwidth == 0:
        return 0.0
    lo, hi = _band_edges(f_center, bandwidth, spectrum.f_max)
    df, values = spectrum.df, spectrum.values
    # the bins strictly inside the band, and the two pairs around its edges
    i0, i1 = _grid_index(lo, df, strict=True), _grid_index(hi, df, strict=False)
    edges = [np.interp(f, [(i - 1) * df, i * df], values[i - 1 : i + 1])
             for f, i in ((lo, i0), (hi, i1))]
    xs = np.concatenate(([lo], np.arange(i0, i1) * df, [hi]))
    ys = np.concatenate(([edges[0]], values[i0:i1], [edges[1]]))
    return float(np.trapezoid(ys, xs))


def _band_edges(f_center: float, bandwidth: float, f_max: float) -> tuple[float, float]:
    """The edges of the band f_center +- bandwidth/2; a band that is not wholly
    inside the grid [0, f_max] is an error."""
    lo = f_center - 0.5 * bandwidth
    hi = f_center + 0.5 * bandwidth
    if lo < 0 or hi > f_max:
        raise ValueError(f"band [{lo:g}, {hi:g}] Hz outside spectrum grid [0, {f_max:g}] Hz")
    return lo, hi


def _grid_index(f: float, df: float, strict: bool) -> int:
    """The first k >= 0 with k * df > f (>= f unless strict), f >= 0: as k * df
    rounds as np.arange(n) * df does, np.searchsorted(grid, f, "right" or "left")."""
    k = max(math.floor(f / df) - 2, 0)  # k * df < f, or k = 0
    while k * df < f or (strict and k * df == f):
        k += 1
    return k


def band_mean_psd(spectrum: Spectrum, f_center: float, bandwidth: float) -> float:
    """Band-averaged PSD value over f_center +- bandwidth/2 [unit^2/Hz]."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    lo, hi = _band_edges(f_center, bandwidth, spectrum.f_max)
    return band_power(spectrum, f_center, bandwidth) / (hi - lo)


def to_db(psd, convention: str = DB_PAPER):
    """PSD value(s) in dB under the chosen convention; a zero PSD is -inf.

    paper_20log applies 20*log10 to the unit^2/Hz value (the reference
    design's published convention, despite the squared unit); power_10log is
    the standard 10*log10.  A negative value or an unknown convention raises
    ValueError.
    """
    factor = {DB_PAPER: 20.0, DB_POWER: 10.0}.get(convention)
    if factor is None:
        raise ValueError(f"unknown dB convention {convention!r}")
    if np.any(np.less(psd, 0)):
        raise ValueError(f"PSD must be >= 0 for dB conversion, got {np.min(psd):g}")
    with np.errstate(divide="ignore"):
        return factor * np.log10(psd)


def parseval_ratio(spectrum: Spectrum, mean_square: float) -> float:
    """(sum of PSD * df) / (mean square of the input); 1.0 for a perfect estimate.

    The rectangle sum is the exact discrete Parseval convention (one-sided
    scaling already weights the interior bins).
    """
    total = float(np.sum(spectrum.values) * spectrum.df)
    if mean_square == 0:
        return 1.0 if total == 0 else math.inf
    return total / mean_square


def write_spectrum_csv(spectrum: Spectrum, path, comments: tuple[str, ...] = ()) -> None:
    """Write f_hz,psd,psd_db_paper,psd_db_power rows ('# ' comments on top).

    Zero PSD bins print -inf in the dB columns.
    """
    window = (
        f"window = {spectrum.window}, segment_length = {spectrum.segment_length}, "
        f"overlap = {spectrum.overlap}, n_segments = {spectrum.n_segments}"
    )
    write_csv(
        path,
        "f_hz,psd,psd_db_paper,psd_db_power",
        (spectrum.frequencies, spectrum.values,
         to_db(spectrum.values, DB_PAPER), to_db(spectrum.values, DB_POWER)),
        (*comments, window),
    )
