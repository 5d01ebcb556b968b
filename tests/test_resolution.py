"""Readout voltages, resolution ratios and detection limits."""

import math

import numpy as np
import pytest

from crnoise.resolution import (
    amplitude_resolution,
    ar_resolution,
    compute_readout_voltages,
    min_detectable_stiffness,
    motional_current,
    output_voltage,
    resolution_report,
)


def test_motional_current_published():
    # eta*omega back-solved from the published current/displacement pairs
    assert motional_current(0.4582, 1.0, 0.419e-6) == pytest.approx(1.92e-7, rel=5e-3)
    assert motional_current(0.4593, 1.0, 0.836e-6) == pytest.approx(3.84e-7, rel=5e-3)
    assert motional_current(0.5, 100.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        motional_current(-1.0, 1.0, 1.0)


def test_output_voltage_published():
    v1 = output_voltage(192e-9, 1e6)
    assert v1.peak == pytest.approx(0.192)
    assert v1.rms == pytest.approx(0.1358, rel=1e-3)
    v2 = output_voltage(384e-9, 1e6)
    assert v2.peak == pytest.approx(0.384)
    assert v2.rms == pytest.approx(0.2715, rel=1e-3)
    assert output_voltage(0.0, 1e6).peak == 0.0
    assert v1.rms == v1.peak / math.sqrt(2.0)


def test_amplitude_resolution_published():
    assert amplitude_resolution(156e-9, 0.135) == pytest.approx(1.155e-6, rel=5e-3)
    assert amplitude_resolution(156e-9, 0.271) == pytest.approx(5.756e-7, rel=5e-3)
    assert amplitude_resolution(0.0, 0.1) == 0.0
    with pytest.raises(ValueError, match="no carrier"):
        amplitude_resolution(1e-9, 0.0)


def test_amplitude_resolution_homogeneous():
    rng = np.random.default_rng(3)
    for _ in range(20):
        noise, out, scale = rng.uniform(1e-9, 1e-6), rng.uniform(1e-3, 1.0), rng.uniform(0.1, 50)
        assert amplitude_resolution(noise * scale, out * scale) == pytest.approx(
            amplitude_resolution(noise, out), rel=1e-12
        )


def test_ar_resolution_rss():
    assert ar_resolution(1.155e-6, 1.155e-6) == pytest.approx(1.633e-6, rel=1e-3)
    assert ar_resolution(5.756e-7, 5.756e-7) == pytest.approx(8.140e-7, rel=1e-3)
    assert ar_resolution(3e-7, 0.0) == 3e-7


def test_ar_resolution_properties():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b = rng.uniform(0, 1e-5, 2)
        rss = ar_resolution(a, b)
        assert rss >= max(a, b)
        assert ar_resolution(a, a) == pytest.approx(math.sqrt(2.0) * a, rel=1e-12)


def test_min_detectable_published():
    detect = min_detectable_stiffness(3.89e-7, 180.0, bandwidth=10.0)
    assert detect.absolute == pytest.approx(2.161e-9, rel=5e-3)
    assert detect.density == pytest.approx(6.83e-10, rel=5e-3)
    # resolution density itself: 3.89e-7/sqrt(10) = 1.23e-7 per rtHz
    assert 3.89e-7 / math.sqrt(10.0) == pytest.approx(1.23e-7, rel=5e-3)


def test_min_detectable_identities():
    detect = min_detectable_stiffness(8e-7, 156.25, bandwidth=10.0, k_eff=122968.75)
    assert detect.absolute == pytest.approx(detect.density * math.sqrt(10.0), rel=1e-12)
    assert detect.scaled_by_k_eff == pytest.approx(detect.absolute * 122968.75)
    assert min_detectable_stiffness(0.0, 180.0, bandwidth=10.0).absolute == 0.0
    no_band = min_detectable_stiffness(1e-7, 100.0)
    assert no_band.density is None
    with pytest.raises(ValueError):
        min_detectable_stiffness(1e-7, 0.0)


def test_readout_voltages_invariants():
    voltages = compute_readout_voltages(
        (0.419e-6, 0.836e-6), (0.4582, 0.4593), 1e6, i_system_total=1.56e-13
    )
    m1, m2 = voltages.modes
    assert m1.v_out_peak == pytest.approx(m1.i_mot_peak * 1e6)
    assert m1.v_out_rms == pytest.approx(m1.v_out_peak / math.sqrt(2.0))
    assert m2.v_out_peak == pytest.approx(0.384, rel=1e-3)
    assert voltages.v_noise_rms == pytest.approx(1.56e-7)


def test_resolution_report_structure():
    report = resolution_report(
        v_out_rms=(0.135, 0.271),
        v_noise_rms=156e-9,
        sensitivity=180.0,
        sensitivity_source="paper_simulated",
        kappa=-0.0032,
        bandwidth=10.0,
        k_eff=122968.75,
        effective_resolution=3.89e-7,
    )
    assert report.amplitude_resolution[0] == pytest.approx(1.155e-6, rel=5e-3)
    assert report.amplitude_resolution[1] == pytest.approx(5.756e-7, rel=5e-3)
    assert report.ar_resolution[0] == pytest.approx(1.633e-6, rel=1e-3)
    assert report.ar_resolution[1] == pytest.approx(8.141e-7, rel=1e-3)
    for i in (0, 1):
        assert report.ar_resolution[i] >= report.amplitude_resolution[i]
    assert report.worst_mode == 1  # lower carrier -> lowest SNR
    assert report.sensitivity_formula == pytest.approx(156.25)
    # formula sensitivity within 25% of the published simulated 180
    assert abs(report.sensitivity_formula - 180.0) / 180.0 < 0.25
    assert report.min_detectable.absolute == pytest.approx(2.161e-9, rel=5e-3)
    assert report.min_detectable.density == pytest.approx(6.83e-10, rel=5e-3)


def test_resolution_report_zero_noise():
    report = resolution_report(
        v_out_rms=(0.1, 0.2),
        v_noise_rms=0.0,
        sensitivity=100.0,
        sensitivity_source="formula",
        kappa=-0.01,
        bandwidth=10.0,
    )
    assert report.amplitude_resolution == (0.0, 0.0)
    assert report.ar_resolution == (0.0, 0.0)
    assert report.min_detectable.absolute == 0.0


def test_resolution_report_defaults_to_best_ar():
    report = resolution_report(
        v_out_rms=(0.135, 0.271),
        v_noise_rms=156e-9,
        sensitivity=156.25,
        sensitivity_source="formula",
        kappa=-0.0032,
        bandwidth=10.0,
    )
    assert report.effective_resolution == pytest.approx(min(report.ar_resolution))
