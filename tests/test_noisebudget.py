"""Thermal pipeline, readout noise rows, motional resistance, system totals."""

import math
import warnings

import numpy as np
import pytest
from conftest import oracle_receptance

from crnoise import presets
from crnoise.noisebudget import (
    BOLTZMANN,
    ElectronicBudget,
    Environment,
    ReadoutConfig,
    TransducerConfig,
    analytic_displacement_psd,
    check_transduction_consistency,
    electronic_budget,
    full_noise_budget,
    motional_resistance,
    thermal_budget,
    thermal_force_psd,
    total_system_noise,
)
from crnoise.sysmodel import build_system, derive_quantities, mode_analysis


@pytest.fixture
def env():
    return Environment(temperature=300.0, bandwidth=10.0)


@pytest.fixture
def transducer():
    return presets.reference_run().transducer


# --- thermal force ---------------------------------------------------------------

def test_thermal_force_psd_reference(env):
    # 4 * kB * 300 * 0.0031 with the full CODATA kB
    assert thermal_force_psd(0.0031, env) == pytest.approx(5.136e-23, rel=1e-3)


def test_thermal_force_psd_zeroes(env):
    assert thermal_force_psd(0.0, env) == 0.0
    cold = Environment(temperature=0.0, bandwidth=10.0)
    assert thermal_force_psd(0.0031, cold) == 0.0
    with pytest.raises(ValueError):
        thermal_force_psd(-1.0, env)


# --- thermal budget ----------------------------------------------------------------

def test_thermal_budget_published_rows(reference_config, env, transducer):
    budget = thermal_budget(reference_config, env, transducer, (7.76e-30, 2.45e-29))
    assert budget.f_noise_psd == pytest.approx(5.136e-23, rel=1e-3)
    assert budget.f_noise_avg == pytest.approx(5.136e-22, rel=1e-3)
    assert budget.f_noise_rms == pytest.approx(2.266e-11, rel=5e-3)
    assert budget.x_avg[0] == pytest.approx(7.762e-29, rel=5e-3)
    assert budget.x_rms[0] == pytest.approx(8.81e-15, rel=5e-3)
    # eta back-solved so that eta*omega1 = 0.5562 A/m
    assert budget.i_mot_noise[0] == pytest.approx(4.9e-15, rel=0.02)
    # rms rows really are the roots of the avg rows
    assert budget.f_noise_rms == math.sqrt(budget.f_noise_avg)
    assert budget.x_rms[0] == math.sqrt(budget.x_avg[0])
    assert budget.x_rms[1] == math.sqrt(budget.x_avg[1])


def test_thermal_budget_zero_psd_input(reference_config, env, transducer):
    budget = thermal_budget(reference_config, env, transducer, (0.0, 0.0))
    assert budget.x_avg == (0.0, 0.0)
    assert budget.i_mot_noise == (0.0, 0.0)
    assert budget.f_noise_rms > 0  # force pipeline unaffected


def test_analytic_psd_feeds_budget(reference_config, env, transducer):
    """i_mot from the analytic route equals an independent hand computation."""
    x_psd = analytic_displacement_psd(reference_config, env, "1")
    budget = thermal_budget(reference_config, env, transducer, x_psd)

    system = build_system(reference_config)
    modes = mode_analysis(system)
    s_f = 4 * BOLTZMANN * 300.0 * reference_config.c1
    for i, (f_mode, omega) in enumerate(
        ((modes.f1, modes.omega1), (modes.f2, modes.omega2))
    ):
        h = oracle_receptance(system.mass, system.damping, system.stiffness, f_mode)
        want = transducer.eta * omega * math.sqrt(abs(h[0, 0]) ** 2 * s_f * env.bandwidth)
        assert budget.i_mot_noise[i] == pytest.approx(want, rel=1e-9)


def test_consistency_warning_default_tolerance():
    eta = presets.reference_run().transducer.eta
    strict = TransducerConfig(eta=eta, r_x=4e6)  # tolerance 0.25
    with pytest.warns(UserWarning, match="differs"):
        check_transduction_consistency(strict, 0.0031)


def test_consistency_silent_when_widened(transducer):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_transduction_consistency(transducer, 0.0031)


def test_eta_from_geometry():
    t = TransducerConfig(v_dc=10.0, epsilon=8.854e-12, area=1e-6, gap=2e-6)
    assert t.eta == pytest.approx(10.0 * 8.854e-12 * 1e-6 / 4e-12)
    with pytest.raises(ValueError, match="transduction factor"):
        TransducerConfig(v_dc=10.0, area=1e-6)


# --- motional resistance --------------------------------------------------------------

def test_motional_resistance_closes_on_published_value():
    # eta back-solved from c / r_x so the identity lands on 4 Mohm at Q = 2547
    eta = math.sqrt(0.0031 / 4e6)
    t = TransducerConfig(eta=eta)
    r_x = motional_resistance(t, k_eff=122968.75, m_eff=5.0697497e-4, q=2547.0)
    assert r_x == pytest.approx(4e6, rel=1e-4)


def test_motional_resistance_geometry_identity():
    """Geometry route equals sqrt(k m)/(Q eta^2) with eta from the same geometry."""
    t = TransducerConfig(v_dc=12.0, epsilon=8.854e-12, area=2.5e-7, gap=1.5e-6)
    k_eff, m_eff, q = 1.2e5, 5e-4, 2000.0
    from_geometry = motional_resistance(t, k_eff, m_eff, q)
    eta_only = TransducerConfig(eta=t.eta)
    assert from_geometry == pytest.approx(
        motional_resistance(eta_only, k_eff, m_eff, q), rel=1e-12
    )


def test_motional_resistance_uses_the_given_eta_with_geometry():
    """An explicit eta wins over the geometry for r_x, as it does for i_mot."""
    mixed = TransducerConfig(eta=1e-5, v_dc=10.0, epsilon=8.854e-12, area=1e-6, gap=2e-6)
    k_eff, m_eff, q = 1.2e5, 5e-4, 2000.0
    r_x = motional_resistance(mixed, k_eff, m_eff, q)
    assert r_x == motional_resistance(TransducerConfig(eta=1e-5), k_eff, m_eff, q)
    assert r_x == pytest.approx(38.73e6, rel=1e-3)


def test_motional_resistance_scalings():
    base = TransducerConfig(v_dc=10.0, epsilon=8.854e-12, area=1e-6, gap=2e-6)
    double_v = TransducerConfig(v_dc=20.0, epsilon=8.854e-12, area=1e-6, gap=2e-6)
    r1 = motional_resistance(base, 1e5, 5e-4, 1000.0)
    assert motional_resistance(double_v, 1e5, 5e-4, 1000.0) == pytest.approx(r1 / 4)
    assert motional_resistance(base, 1e5, 5e-4, 2000.0) == pytest.approx(r1 / 2)


# --- electronic budget -------------------------------------------------------------------

def test_electronic_rows_published(env):
    budget = electronic_budget(ReadoutConfig(), r_x=4e6, env=env)
    assert budget.i_rf == pytest.approx(4.06e-13, rel=0.01)
    assert budget.i_vn == pytest.approx(4.34e-13, rel=0.01)
    assert budget.i_in == pytest.approx(9.92e-14, rel=0.01)
    assert budget.i_total_paper == pytest.approx(1.56e-13, rel=0.01)
    assert budget.i_total_integrated == pytest.approx(6.03e-13, rel=0.01)


def test_noiseless_limit_all_zero():
    cold = Environment(temperature=0.0, bandwidth=10.0)
    budget = electronic_budget(ReadoutConfig(i_n=0.0, v_n=0.0), r_x=4e6, env=cold)
    assert budget.i_rf == 0.0
    assert budget.i_vn == 0.0
    assert budget.i_in == 0.0
    assert budget.i_total_paper == 0.0
    assert budget.i_total_integrated == 0.0


def test_voltage_noise_row_grows_as_rx_shrinks(env):
    # the noise gain (1 + R_x/R_f)/R_x grows when R_x drops
    halved = electronic_budget(ReadoutConfig(), r_x=2e6, env=env)
    base = electronic_budget(ReadoutConfig(), r_x=4e6, env=env)
    assert halved.i_vn > base.i_vn


def test_rss_exactness(env):
    budget = electronic_budget(ReadoutConfig(), r_x=4e6, env=env)
    rss_sq = budget.i_rf**2 + budget.i_vn**2 + budget.i_in**2
    assert budget.i_total_integrated**2 == pytest.approx(rss_sq, rel=1e-15)
    assert budget.i_total_integrated >= max(budget.i_rf, budget.i_vn, budget.i_in)


def test_budget_monotonic_in_noise_parameters(env):
    base = electronic_budget(ReadoutConfig(), 4e6, env)

    def fields(b: ElectronicBudget):
        return np.array([b.i_rf, b.i_vn, b.i_in, b.i_total_paper, b.i_total_integrated])

    hotter = electronic_budget(ReadoutConfig(), 4e6, Environment(temperature=400.0))
    wider = electronic_budget(ReadoutConfig(), 4e6, Environment(bandwidth=20.0))
    noisier_v = electronic_budget(ReadoutConfig(v_n=140e-9), 4e6, env)
    noisier_i = electronic_budget(ReadoutConfig(i_n=40e-15), 4e6, env)
    for other in (hotter, wider, noisier_v, noisier_i):
        assert np.all(fields(other) >= fields(base) - 1e-30)


def test_thermal_monotonic(reference_config, env, transducer):
    import dataclasses

    base = thermal_budget(reference_config, env, transducer, (7.76e-30, 2.45e-29))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        damped_cfg = dataclasses.replace(
            reference_config, c1=0.005, c2=0.005, cc=0.005
        )
    damped = thermal_budget(damped_cfg, env, transducer, (7.76e-30, 2.45e-29))
    assert damped.f_noise_psd > base.f_noise_psd
    hot = thermal_budget(
        reference_config, Environment(temperature=400.0), transducer, (7.76e-30, 2.45e-29)
    )
    assert hot.f_noise_rms > base.f_noise_rms


# --- totals -----------------------------------------------------------------------------

def test_total_system_noise_published():
    total = total_system_noise(4.9e-15, 1.5692e-13)
    assert total == pytest.approx(1.56e-13, rel=0.01)
    # mechanical contribution below 0.1%
    assert total / 1.5692e-13 - 1 < 1e-3


def test_total_system_noise_trivial():
    assert total_system_noise(3.0, 4.0) == pytest.approx(5.0)
    assert total_system_noise(2.5e-13, 0.0) == 2.5e-13
    with pytest.raises(ValueError):
        total_system_noise(-1.0, 1.0)


def test_full_budget_dominance(reference_config, env, transducer):
    report = full_noise_budget(
        reference_config, env, transducer, ReadoutConfig(), (7.76e-30, 2.45e-29)
    )
    assert report.dominant_source == "amplifier_voltage_noise"
    # electronic total exceeds the mechanical term by at least 10x
    assert report.electronic.i_total_paper >= 10 * max(report.thermal.i_mot_noise)
    assert report.i_system_paper[0] >= report.electronic.i_total_paper


def test_full_budget_derives_rx_when_absent(reference_config, env):
    eta = math.sqrt(0.0031 / 4e6)
    transducer = TransducerConfig(eta=eta)
    report = full_noise_budget(
        reference_config, env, transducer, ReadoutConfig(), (7.76e-30, 2.45e-29)
    )
    derived = derive_quantities(reference_config)
    assert report.electronic.r_x == pytest.approx(
        motional_resistance(transducer, derived.k_eff, derived.m_eff, derived.q)
    )
    assert report.electronic.r_x == pytest.approx(4e6, rel=1e-4)
