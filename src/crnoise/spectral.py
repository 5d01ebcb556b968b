"""One-sided power spectral density estimation and band arithmetic.

Welch averaging with a periodic Hann window at 50% overlap is the workhorse
here, computed with numpy's real FFT.  `Welch` accumulates the estimate over
a record that arrives in chunks, as the engine hands its record out: each
segment is windowed and transformed once its samples are in, at most about
2**20 samples (or one segment, if that is longer) at a time, and only the
partial segment at the end of a chunk is carried, so its working memory does
not grow with the record.  Density scaling is used throughout, so integrating
a spectrum over a band returns the mean-square content of that band; band
arithmetic reads only the bins in the band.  The dB helper offers two
conventions: 20*log10 of the PSD value ("paper_20log", the convention the
reference design's published numbers follow) and the physically standard
10*log10 ("power_10log").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .reports import write_csv

DB_PAPER = "paper_20log"
DB_POWER = "power_10log"

# samples windowed and transformed per pass of the Welch estimator
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

    The record's length is fixed up front, so segments are transformed as
    soon as their samples have arrived; only the partial segment at the end
    of a chunk is carried, in one preallocated buffer.  Segments are summed
    one by one within blocks of _WELCH_BLOCK // segment_length segments
    counted from segment 0, and the block sums are added up, so the result
    does not depend on how the record is cut into chunks.  Segments complete
    within one chunk are windowed and transformed together, at most one
    block at a time, so the working memory is bounded by the chunk and the
    block, not by the record length.
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
        self._window = 0.5 - 0.5 * np.cos(
            2.0 * math.pi * np.arange(segment_length) / segment_length
        )
        self._power = np.zeros(segment_length // 2 + 1)
        self._block = np.zeros_like(self._power)  # sum over the current block
        # the carried partial segment (< segment_length samples, starting at
        # the next segment) followed by the head of the next chunk
        self._carry = np.empty(2 * segment_length)
        self._carried = 0
        # the windowed segments and their transforms, reused by every batch
        # and grown to the largest batch
        self._windowed = np.empty((1, segment_length))
        self._spectra = np.empty((1, segment_length // 2 + 1), dtype=complex)
        self._seen = 0  # samples received
        self._next = 0  # index of the next segment to transform

    def add(self, chunk) -> None:
        """Take the record's next samples."""
        x = np.asarray(chunk, dtype=float)
        origin = self._seen  # record index of x[0]
        self._seen += x.size
        if self._next == self.n_segments:
            return  # samples past the last segment
        carried = self._carried
        if carried:
            # the segments that start in the carried samples end within the
            # first segment_length samples of x
            head = x[: self.segment_length]
            self._carry[carried : carried + head.size] = head
            self._transform(self._carry[: carried + head.size], origin - carried)
        start = self._next * self._step  # record index of the next segment
        if start >= origin:
            self._transform(x, origin)
            rest = x[self._next * self._step - origin :]
        else:  # x ended before the next segment did; it is all in the carry
            rest = self._carry[start - (origin - carried) : carried + x.size]
        if self._next == self.n_segments:  # every segment is in: drop the buffers
            self._carried = 0
            self._carry = self._windowed = self._spectra = None
        else:
            self._carried = rest.size
            self._carry[: rest.size] = rest

    def _transform(self, data: np.ndarray, origin: int) -> None:
        """Add every segment, from the next one on, that lies whole in data.

        data[0] is record sample `origin`, at or before the next segment.
        """
        length, step = self.segment_length, self._step
        while self._next < self.n_segments:
            first = self._next * step - origin
            count = min(
                (data.size - first - length) // step + 1,
                self._per_block - self._next % self._per_block,
                self.n_segments - self._next,
            )
            if count <= 0:
                return
            segments = sliding_window_view(
                data[first : first + (count - 1) * step + length], length
            )[::step]
            if self._windowed.shape[0] < count:
                self._windowed = np.empty((count, length))
                self._spectra = np.empty((count, length // 2 + 1), dtype=complex)
            windowed = np.multiply(segments, self._window, out=self._windowed[:count])
            spectra = np.fft.rfft(windowed, axis=-1, out=self._spectra[:count])
            # |X|^2 = re^2 + im^2, formed in the windowed segments' memory
            power = windowed.reshape(-1)[: spectra.size].reshape(spectra.shape)
            np.square(spectra.real, out=power)
            power += np.square(spectra.imag, out=spectra.imag)
            for row in power:
                self._block += row
            self._next += count
            if self._next % self._per_block == 0 or self._next == self.n_segments:
                self._power += self._block
                self._block[:] = 0.0

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
        fs = 1.0 / self.dt
        return Spectrum(
            # rounded as rfftfreq(L, 1/fs) rounds its first bin
            df=1.0 / (self.segment_length * (1.0 / fs)),
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
    over adjacent bands.  Edges are clamped to the frequency grid; a band
    entirely outside the grid is an error.
    """
    if bandwidth < 0:
        raise ValueError("bandwidth must be >= 0")
    if bandwidth == 0:
        return 0.0
    lo = f_center - 0.5 * bandwidth
    hi = f_center + 0.5 * bandwidth
    if hi <= 0 or lo >= spectrum.f_max:
        raise ValueError(
            f"band [{lo:g}, {hi:g}] Hz outside spectrum grid [0, {spectrum.f_max:g}] Hz"
        )
    lo = max(lo, 0.0)
    hi = min(hi, spectrum.f_max)

    df, values = spectrum.df, spectrum.values
    # the bins strictly inside the band, and the two pairs around its edges
    i0, i1 = _grid_index(lo, df, strict=True), _grid_index(hi, df, strict=False)
    edges = [np.interp(f, [(i - 1) * df, i * df], values[i - 1 : i + 1])
             for f, i in ((lo, i0), (hi, i1))]
    xs = np.concatenate(([lo], np.arange(i0, i1) * df, [hi]))
    ys = np.concatenate(([edges[0]], values[i0:i1], [edges[1]]))
    return float(np.trapezoid(ys, xs))


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
    lo = max(f_center - 0.5 * bandwidth, 0.0)
    hi = min(f_center + 0.5 * bandwidth, spectrum.f_max)
    return band_power(spectrum, f_center, bandwidth) / (hi - lo)


def to_db(psd_value: float, convention: str = DB_PAPER) -> float:
    """PSD value in dB under the chosen convention.

    paper_20log applies 20*log10 to the unit^2/Hz value (the reference
    design's published convention, despite the squared unit); power_10log is
    the standard 10*log10.
    """
    if psd_value <= 0:
        raise ValueError(f"PSD value must be > 0 for dB conversion, got {psd_value!r}")
    if convention == DB_PAPER:
        return 20.0 * math.log10(psd_value)
    if convention == DB_POWER:
        return 10.0 * math.log10(psd_value)
    raise ValueError(f"unknown dB convention {convention!r}")


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
    with np.errstate(divide="ignore"):
        db_paper = 20.0 * np.log10(spectrum.values)
        db_power = 10.0 * np.log10(spectrum.values)
    window = (
        f"window = {spectrum.window}, segment_length = {spectrum.segment_length}, "
        f"overlap = {spectrum.overlap}, n_segments = {spectrum.n_segments}"
    )
    write_csv(
        path,
        "f_hz,psd,psd_db_paper,psd_db_power",
        (spectrum.frequencies, spectrum.values, db_paper, db_power),
        (*comments, window),
    )
