"""One-sided power spectral density estimation and band arithmetic.

Welch averaging with a Hann window at 50% overlap is the workhorse here;
density scaling is used throughout, so integrating a spectrum over a band
returns the mean-square content of that band.  The dB helper offers two
conventions: 20*log10 of the PSD value ("paper_20log", the convention the
reference design's published numbers follow) and the physically standard
10*log10 ("power_10log").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .reports import write_csv

DB_PAPER = "paper_20log"
DB_POWER = "power_10log"


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


def welch_psd(
    samples: np.ndarray,
    dt: float,
    segment_length: int | None = None,
    overlap: float = 0.5,
) -> Spectrum:
    """Hann-windowed, overlap-averaged one-sided PSD of a sampled channel.

    No detrending is applied, so the integral of the spectrum matches the
    mean square (not the variance) of the input.
    """
    x = np.asarray(samples, dtype=float)
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must lie in [0, 1)")
    if segment_length is None:
        segment_length = default_segment_length(x.size)
    if segment_length > x.size:
        raise ValueError(
            f"series too short: {x.size} samples < segment_length {segment_length}"
        )
    noverlap = int(segment_length * overlap)
    freqs, psd = signal.welch(
        x,
        fs=1.0 / dt,
        window="hann",
        nperseg=segment_length,
        noverlap=noverlap,
        detrend=False,
        scaling="density",
        return_onesided=True,
    )
    n_segments = 1 + (x.size - segment_length) // (segment_length - noverlap)
    return Spectrum(
        df=float(freqs[1] - freqs[0]),
        values=psd,
        window="hann",
        segment_length=segment_length,
        overlap=overlap,
        n_segments=n_segments,
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

    grid = spectrum.frequencies
    values = spectrum.values
    i0 = int(np.searchsorted(grid, lo, side="right"))
    i1 = int(np.searchsorted(grid, hi, side="left"))
    xs = np.concatenate(([lo], grid[i0:i1], [hi]))
    ys = np.concatenate(
        (
            [np.interp(lo, grid, values)],
            values[i0:i1],
            [np.interp(hi, grid, values)],
        )
    )
    return float(np.trapezoid(ys, xs))


def band_mean_psd(spectrum: Spectrum, f_center: float, bandwidth: float) -> float:
    """Band-averaged PSD value over f_center +- bandwidth/2 [unit^2/Hz]."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    lo = max(f_center - 0.5 * bandwidth, 0.0)
    hi = min(f_center + 0.5 * bandwidth, spectrum.f_max)
    return band_power(spectrum, f_center, bandwidth) / (hi - lo)


def rms_from_mean_square(mean_square: float) -> float:
    """Root of a mean-square value; rejects negative input."""
    if mean_square < 0:
        raise ValueError(f"mean square must be >= 0, got {mean_square!r}")
    return math.sqrt(mean_square)


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


def parseval_ratio(spectrum: Spectrum, samples: np.ndarray) -> float:
    """(sum of PSD * df) / (mean square of input); 1.0 for a perfect estimate.

    The rectangle sum is the exact discrete Parseval convention (one-sided
    scaling already weights the interior bins).
    """
    total = float(np.sum(spectrum.values) * spectrum.df)
    mean_square = float(np.mean(np.asarray(samples, dtype=float) ** 2))
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
