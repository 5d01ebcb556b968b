"""Welch estimation, band integration and dB conversions."""

import itertools
import math

import numpy as np
import pytest
from conftest import welch_psd

from crnoise import spectral
from crnoise.spectral import (
    DB_PAPER,
    DB_POWER,
    band_power,
    parseval_ratio,
    to_db,
    write_spectrum_csv,
)


def sine(amplitude, frequency, dt, n, phase=0.0):
    return amplitude * np.sin(2 * np.pi * frequency * np.arange(n) * dt + phase)


# --- welch_psd ----------------------------------------------------------------

def test_sine_band_power():
    dt, amp = 1e-4, 0.8
    seg = 4096
    f0 = 40 * (1.0 / (seg * dt))  # bin-centered
    spectrum = welch_psd(sine(amp, f0, dt, 16 * seg), dt, segment_length=seg)
    power = band_power(spectrum, f0, 10 * spectrum.df)
    assert power == pytest.approx(amp**2 / 2, rel=0.01)


def test_white_noise_level():
    """Flat-spectrum estimator bias < 2% with >= 200 Hann segments."""
    rng = np.random.default_rng(8)
    dt, target_psd = 1e-4, 4.0e-12
    sigma = math.sqrt(target_psd / (2 * dt))
    x = rng.standard_normal(420_000) * sigma
    spectrum = welch_psd(x, dt, segment_length=4096)
    assert spectrum.n_segments >= 200
    sel = spectrum.frequencies > 5 * spectrum.df
    assert np.mean(spectrum.values[sel]) == pytest.approx(target_psd, rel=0.02)


def test_zero_input_zero_spectrum():
    spectrum = welch_psd(np.zeros(8192), 1e-4)
    assert np.all(spectrum.values == 0.0)


def test_too_short_series_rejected():
    with pytest.raises(ValueError, match="too short"):
        welch_psd(np.zeros(100), 1e-4, segment_length=256)
    with pytest.raises(ValueError, match="too short"):
        welch_psd(np.zeros(10), 1e-4)
    for length in (1, 0, -4):
        with pytest.raises(ValueError, match="segment_length"):
            welch_psd(np.zeros(100), 1e-4, segment_length=length)


@pytest.mark.parametrize("segment_length", [16, 100, 333, 4096, 65536])
def test_matches_scipy_welch(segment_length):
    """Same estimate as scipy.signal.welch (Hann, density, no detrend).

    The bound is on max |dS| / max(S), not per bin: a random walk's
    leakage-floor bins sit 1e-9 to 1e-6 below its peak, and there the two
    FFTs' rounding differs by up to a few 1e-12 of the bin's own value.
    """
    from scipy.signal import welch

    dt = 1e-3
    rng = np.random.default_rng(segment_length)
    white = rng.standard_normal(4 * segment_length + 10_000)
    for x in (white, np.cumsum(white)):
        for overlap in (0.0, 0.25, 0.5):
            spectrum = welch_psd(x, dt, segment_length=segment_length, overlap=overlap)
            freqs, psd = welch(x, fs=1.0 / dt, window="hann", nperseg=segment_length,
                               noverlap=int(segment_length * overlap), detrend=False,
                               scaling="density")
            assert spectrum.values.shape == psd.shape
            assert np.max(np.abs(spectrum.values - psd)) <= 1e-12 * psd.max()
            assert spectrum.df == freqs[1]


def test_accumulation_block_changes_only_rounding(monkeypatch):
    x = np.cumsum(np.random.default_rng(3).standard_normal(50_000))
    whole = welch_psd(x, 1e-3, segment_length=1000, overlap=0.25)
    monkeypatch.setattr(spectral, "_WELCH_BLOCK", 1)  # one segment per block
    single = welch_psd(x, 1e-3, segment_length=1000, overlap=0.25)
    assert np.max(np.abs(single.values - whole.values)) <= 1e-13 * whole.values.max()


def blocked_welch_reference(x, dt, segment_length, overlap):
    """The one-shot estimator: strided segments, windowed and transformed a
    block of _WELCH_BLOCK // L segments at a time, block sums added up."""
    from numpy.lib.stride_tricks import sliding_window_view

    step = segment_length - int(segment_length * overlap)
    n_segments = 1 + (x.size - segment_length) // step
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_length) / segment_length)
    segments = sliding_window_view(x, segment_length)[::step]
    per_block = max(1, spectral._WELCH_BLOCK // segment_length)
    power = np.zeros(segment_length // 2 + 1)
    for first in range(0, n_segments, per_block):
        spectra = np.fft.rfft(segments[first : first + per_block] * window, axis=-1)
        power += np.sum(spectra.real**2 + spectra.imag**2, axis=0)
    psd = power * (2.0 * dt / (n_segments * np.sum(window**2)))
    psd[0] /= 2.0
    if segment_length % 2 == 0:
        psd[-1] /= 2.0
    return psd


@pytest.mark.parametrize("block", [None, 256])
@pytest.mark.parametrize("segment_length", [16, 100, 333])
@pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5])
def test_chunked_welch_equals_one_shot(segment_length, overlap, block, monkeypatch):
    """Welch fed in chunks of 1, 7, step - 1, L + 3 and random lengths gives
    the estimate of the whole record bit for bit, with L below and above
    _WELCH_BLOCK (256: 16 and 2 segments per block, and 1 for L = 333)."""
    if block is not None:
        monkeypatch.setattr(spectral, "_WELCH_BLOCK", block)
    rng = np.random.default_rng(segment_length)
    x = np.cumsum(rng.standard_normal(40 * segment_length + 17))
    whole = welch_psd(x, 1e-3, segment_length, overlap)
    assert np.array_equal(whole.values, blocked_welch_reference(x, 1e-3, segment_length, overlap))
    step = segment_length - int(segment_length * overlap)
    lengths = [[1], [7], [step - 1], [segment_length + 3],
               list(rng.integers(1, 3 * segment_length, size=x.size))]
    for pattern in lengths:
        welch = spectral.Welch(x.size, 1e-3, segment_length, overlap)
        start = 0
        for k in itertools.cycle(pattern):
            if start >= x.size:
                break
            welch.add(x[start : start + k])
            start += k
        spectrum = welch.spectrum()
        assert np.array_equal(spectrum.values, whole.values), pattern[:1]
        assert (spectrum.df, spectrum.n_segments) == (whole.df, whole.n_segments)


def test_welch_needs_the_whole_record():
    welch = spectral.Welch(1000, 1e-3, 100)
    welch.add(np.ones(999))
    with pytest.raises(ValueError, match="999 samples, expected 1000"):
        welch.spectrum()


def test_defaults_pick_pow2_segment():
    spectrum = welch_psd(np.random.default_rng(0).standard_normal(10_000), 1e-3)
    assert spectrum.segment_length == 1024  # largest pow2 <= 10000/8
    assert spectrum.window == "hann"
    assert spectrum.overlap == 0.5


def test_parseval_random_inputs():
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = int(rng.integers(4096, 40000))
        kind = rng.integers(3)
        if kind == 0:
            x = rng.standard_normal(n)
        elif kind == 1:
            x = sine(rng.uniform(0.1, 3.0), rng.uniform(5, 400), 1e-3, n)
        else:
            x = rng.standard_normal(n) + sine(1.0, 100.0, 1e-3, n) + rng.uniform(-1, 1)
        spectrum = welch_psd(x, 1e-3)
        assert parseval_ratio(spectrum, np.mean(x**2)) == pytest.approx(1.0, abs=0.05)


# --- band_power -----------------------------------------------------------------

def flat_spectrum(value=7.76e-30, df=0.5, n=4001):
    from crnoise.spectral import Spectrum

    return Spectrum(df=df, values=np.full(n, value), window="hann",
                    segment_length=n, overlap=0.5, n_segments=1)


def test_flat_band_power_exact():
    spectrum = flat_spectrum()
    # 7.76e-30 m^2/Hz over 10 Hz -> 7.76e-29 m^2, the published 7.762e-29
    power = band_power(spectrum, 1000.0, 10.0)
    assert power == pytest.approx(7.76e-29, rel=1e-12)
    assert power == pytest.approx(7.762e-29, rel=5e-3)


def test_zero_bandwidth():
    assert band_power(flat_spectrum(), 100.0, 0.0) == 0.0


def test_band_power_additive():
    rng = np.random.default_rng(5)
    spectrum = flat_spectrum()
    values = spectrum.values + rng.uniform(0, 1e-30, spectrum.values.size)
    from dataclasses import replace

    spectrum = replace(spectrum, values=values)
    total = band_power(spectrum, 500.0, 60.0)
    left = band_power(spectrum, 485.0, 30.0)
    right = band_power(spectrum, 515.0, 30.0)
    assert left + right == pytest.approx(total, rel=1e-12)


def searchsorted_band_power(spectrum, f_center, bandwidth):
    """band_power as it was written on the whole grid: the reference."""
    lo = max(f_center - 0.5 * bandwidth, 0.0)
    hi = min(f_center + 0.5 * bandwidth, spectrum.f_max)
    grid, values = spectrum.frequencies, spectrum.values
    i0 = int(np.searchsorted(grid, lo, side="right"))
    i1 = int(np.searchsorted(grid, hi, side="left"))
    xs = np.concatenate(([lo], grid[i0:i1], [hi]))
    ys = np.concatenate(
        ([np.interp(lo, grid, values)], values[i0:i1], [np.interp(hi, grid, values)])
    )
    return float(np.trapezoid(ys, xs))


def test_band_power_equals_whole_grid_search():
    """Bins found from df alone give the whole-grid result bit for bit, on
    Welch-like grids, with band edges at, beside and between bins and
    clamped to either end."""
    from crnoise.spectral import Spectrum

    rng = np.random.default_rng(17)
    for _ in range(300):
        segment = int(rng.choice([16, 100, 333, 4096, 1 << 17]))
        df = 1.0 / (segment * (1.0 / rng.uniform(1e3, 2e5)))
        n = segment // 2 + 1
        values = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-30, 0)
        spectrum = Spectrum(df=df, values=values, window="hann", segment_length=segment,
                            overlap=0.5, n_segments=1)
        f_max = spectrum.f_max
        bandwidth = float(rng.choice([rng.uniform(0.1, 3.0) * df, rng.uniform(0, 0.3) * f_max,
                                      int(rng.integers(1, 6)) * df]))
        center = float(rng.choice([rng.uniform(0.0, f_max),
                                   int(rng.integers(0, n)) * df + 0.5 * bandwidth,
                                   int(rng.integers(0, n)) * df - 0.5 * bandwidth,
                                   np.nextafter(int(rng.integers(0, n)) * df, np.inf),
                                   0.0, f_max]))
        if bandwidth == 0 or center + 0.5 * bandwidth <= 0 or center - 0.5 * bandwidth >= f_max:
            continue
        assert band_power(spectrum, center, bandwidth) == \
            searchsorted_band_power(spectrum, center, bandwidth), (segment, df, center, bandwidth)


def test_band_outside_grid_rejected():
    with pytest.raises(ValueError, match="outside"):
        band_power(flat_spectrum(), 5000.0, 10.0)


def test_band_edges_clamped():
    spectrum = flat_spectrum(value=2.0, df=1.0, n=101)
    # band [95, 105] clamps to [95, 100]
    assert band_power(spectrum, 100.0, 10.0) == pytest.approx(10.0)


# --- dB --------------------------------------------------------------------------

def test_db_published_values():
    assert to_db(7.76e-30, DB_PAPER) == pytest.approx(-582.2, abs=0.05)
    assert to_db(2.45e-29, DB_PAPER) == pytest.approx(-572.2, abs=0.05)
    assert to_db(1.0, DB_PAPER) == 0.0
    assert to_db(1.0, DB_POWER) == 0.0


def test_db_convention_relation():
    rng = np.random.default_rng(17)
    for value in 10.0 ** rng.uniform(-30, 5, size=20):
        assert to_db(value, DB_PAPER) == pytest.approx(2 * to_db(value, DB_POWER), rel=1e-12)


def test_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        to_db(0.0)
    with pytest.raises(ValueError):
        to_db(-1e-3)
    with pytest.raises(ValueError):
        to_db(1.0, "bogus")


# --- CSV -------------------------------------------------------------------------

def test_spectrum_csv(tmp_path):
    spectrum = welch_psd(sine(1.0, 100.0, 1e-3, 4096), 1e-3, segment_length=512)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spectrum, path, comments=("k = v",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# k = v"
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "f_hz,psd,psd_db_paper,psd_db_power"
    first = lines[header_idx + 1].split(",")
    assert first[0] == "0"
    assert len(first) == 4
    assert not list(tmp_path.glob("*.part"))


def test_spectrum_csv_zero_bins(tmp_path):
    spectrum = welch_psd(np.zeros(4096), 1e-3, segment_length=512)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spectrum, path)
    data_line = path.read_text().splitlines()[2]
    assert data_line.split(",")[2] == "-inf"
