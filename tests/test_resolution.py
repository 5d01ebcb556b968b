"""The readout chain: carrier voltages, resolution ratios and detection limits."""

import math

import numpy as np
import pytest

from crnoise.resolution import carrier_voltages, resolution_report

K_EFF = 122968.75  # N/m, reference design


def report_of(v_out_rms, v_noise_rms, sensitivity=180.0, effective_resolution=None,
              bandwidth=10.0, k_eff=K_EFF):
    return resolution_report(v_out_rms, v_noise_rms, sensitivity, "paper_simulated",
                             kappa=-0.0032, bandwidth=bandwidth, k_eff=k_eff,
                             effective_resolution=effective_resolution)


def test_motional_current_published():
    # eta*omega back-solved from the published current/displacement pairs
    assert carrier_voltages(0.419e-6, 0.4582, 1e6)[0] == pytest.approx(1.92e-7, rel=5e-3, abs=0)
    assert carrier_voltages(0.836e-6, 0.4593, 1e6)[0] == pytest.approx(3.84e-7, rel=5e-3, abs=0)
    assert carrier_voltages(0.0, 0.5, 1e6)[0] == 0.0


def test_output_voltage_published():
    # at eta*omega = 1 A/m the drive amplitude in m is the current in A
    _, peak1, rms1 = carrier_voltages(192e-9, 1.0, 1e6)
    assert peak1 == pytest.approx(0.192, rel=1e-6, abs=0)
    assert rms1 == pytest.approx(0.1358, rel=1e-3, abs=0)
    _, peak2, rms2 = carrier_voltages(384e-9, 1.0, 1e6)
    assert peak2 == pytest.approx(0.384, rel=1e-6, abs=0)
    assert rms2 == pytest.approx(0.2715, rel=1e-3, abs=0)
    assert carrier_voltages(0.0, 1.0, 1e6)[1] == 0.0
    assert rms1 == peak1 / math.sqrt(2.0)


def test_amplitude_resolution_published():
    report = report_of((0.135, 0.271), 156e-9)
    assert report.amplitude_resolution[0] == pytest.approx(1.155e-6, rel=5e-3, abs=0)
    assert report.amplitude_resolution[1] == pytest.approx(5.756e-7, rel=5e-3, abs=0)
    assert report_of((0.1, 0.2), 0.0).amplitude_resolution == (0.0, 0.0)
    with pytest.raises(ValueError, match="no carrier"):
        report_of((0.1, 0.0), 1e-9)


def test_amplitude_resolution_homogeneous():
    rng = np.random.default_rng(3)
    for _ in range(20):
        noise, scale = rng.uniform(1e-9, 1e-6), rng.uniform(0.1, 50)
        out = tuple(rng.uniform(1e-3, 1.0, 2))
        scaled = report_of(tuple(v * scale for v in out), noise * scale).amplitude_resolution
        assert scaled == pytest.approx(report_of(out, noise).amplitude_resolution, rel=1e-12, abs=0)


def test_ar_resolution_rss():
    report = report_of((0.135, 0.271), 156e-9)
    assert report.ar_resolution[0] == pytest.approx(1.633e-6, rel=1e-3, abs=0)
    assert report.ar_resolution[1] == pytest.approx(8.140e-7, rel=1e-3, abs=0)


def test_ar_resolution_properties():
    """Both channels carry the same level: the AR resolution is sqrt(2) times
    each mode's amplitude resolution."""
    rng = np.random.default_rng(9)
    for _ in range(50):
        report = report_of(tuple(rng.uniform(1e-3, 1.0, 2)), rng.uniform(0, 1e-5))
        for amp, ar in zip(report.amplitude_resolution, report.ar_resolution):
            assert ar >= amp
            assert ar == pytest.approx(math.sqrt(2.0) * amp, rel=1e-12, abs=0)


def test_min_detectable_published():
    report = report_of((0.135, 0.271), 156e-9, effective_resolution=3.89e-7)
    assert report.min_detectable == pytest.approx(2.161e-9, rel=5e-3, abs=0)
    assert report.min_detectable_density == pytest.approx(6.83e-10, rel=5e-3, abs=0)
    # resolution density itself: 3.89e-7/sqrt(10) = 1.23e-7 per rtHz
    assert 3.89e-7 / math.sqrt(10.0) == pytest.approx(1.23e-7, rel=5e-3, abs=0)


def test_min_detectable_identities():
    report = report_of((0.135, 0.271), 156e-9, sensitivity=156.25, effective_resolution=8e-7)
    assert report.min_detectable == pytest.approx(report.min_detectable_density * math.sqrt(10.0),
                                                  rel=1e-12, abs=0)
    assert report.min_detectable_scaled == pytest.approx(report.min_detectable * K_EFF,
                                                         rel=1e-6, abs=0)
    assert report_of((0.135, 0.271), 0.0).min_detectable == 0.0
    with pytest.raises(ValueError, match="sensitivity"):
        report_of((0.135, 0.271), 156e-9, sensitivity=0.0)
    with pytest.raises(ValueError, match="bandwidth"):
        report_of((0.135, 0.271), 156e-9, bandwidth=0.0)
    with pytest.raises(ValueError, match="v_noise"):
        report_of((0.135, 0.271), -1e-9)


def test_readout_voltages_invariants():
    for x, eta_omega in ((0.419e-6, 0.4582), (0.836e-6, 0.4593)):
        i_mot, peak, rms = carrier_voltages(x, eta_omega, 1e6)
        assert i_mot == eta_omega * x
        assert peak == pytest.approx(i_mot * 1e6, rel=1e-6, abs=0)
        assert rms == pytest.approx(peak / math.sqrt(2.0), rel=1e-6, abs=0)
    assert peak == pytest.approx(0.384, rel=1e-3, abs=0)


def test_resolution_report_structure():
    report = report_of((0.135, 0.271), 156e-9, effective_resolution=3.89e-7)
    assert report.amplitude_resolution[0] == pytest.approx(1.155e-6, rel=5e-3, abs=0)
    assert report.amplitude_resolution[1] == pytest.approx(5.756e-7, rel=5e-3, abs=0)
    assert report.ar_resolution[0] == pytest.approx(1.633e-6, rel=1e-3, abs=0)
    assert report.ar_resolution[1] == pytest.approx(8.141e-7, rel=1e-3, abs=0)
    for i in (0, 1):
        assert report.ar_resolution[i] >= report.amplitude_resolution[i]
    assert report.worst_mode == 1  # lower carrier -> lowest SNR
    assert report.sensitivity_formula == pytest.approx(156.25, rel=1e-6, abs=0)
    # formula sensitivity within 25% of the published simulated 180
    assert abs(report.sensitivity_formula - 180.0) / 180.0 < 0.25
    assert report.min_detectable == pytest.approx(2.161e-9, rel=5e-3, abs=0)
    assert report.min_detectable_density == pytest.approx(6.83e-10, rel=5e-3, abs=0)


def test_resolution_report_zero_noise():
    report = report_of((0.1, 0.2), 0.0, sensitivity=100.0)
    assert report.amplitude_resolution == (0.0, 0.0)
    assert report.ar_resolution == (0.0, 0.0)
    assert report.min_detectable == 0.0


def test_resolution_report_defaults_to_best_ar():
    report = report_of((0.135, 0.271), 156e-9, sensitivity=156.25)
    assert report.effective_resolution == pytest.approx(min(report.ar_resolution), rel=1e-6, abs=0)
