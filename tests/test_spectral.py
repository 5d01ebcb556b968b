"""Welch estimation, band integration, rms and dB conversions."""

import math

import numpy as np
import pytest

from crnoise.spectral import (
    DB_PAPER,
    DB_POWER,
    band_power,
    parseval_ratio,
    to_db,
    welch_psd,
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
        assert parseval_ratio(spectrum, x) == pytest.approx(1.0, abs=0.05)


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


def test_band_outside_grid_rejected():
    with pytest.raises(ValueError, match="outside"):
        band_power(flat_spectrum(), 5000.0, 10.0)


def test_band_edges_clamped():
    spectrum = flat_spectrum(value=2.0, df=1.0, n=101)
    # band [95, 105] clamps to [95, 100]
    assert band_power(spectrum, 100.0, 10.0) == pytest.approx(10.0)


# --- rms and dB -------------------------------------------------------------------

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
