"""The noise budget: thermal rows, motional resistance, readout rows, system totals."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import oracle_receptance

from crnoise import presets
from crnoise.noisebudget import (
    BOLTZMANN,
    Environment,
    NoiseBudgetReport,
    TransducerConfig,
    analytic_displacement_psd,
    full_noise_budget,
    thermal_force_psd,
)
from crnoise.sysmodel import SystemConfig, build_system

REFERENCE = presets.reference_run()
PUBLISHED_X_PSD = (7.76e-30, 2.45e-29)


@pytest.fixture
def env():
    return Environment(temperature=300.0, bandwidth=10.0)


@pytest.fixture
def transducer():
    return REFERENCE.transducer


@pytest.fixture
def readout():
    return REFERENCE.readout


def _transducer(**fields) -> TransducerConfig:
    """A transducer with the reference consistency tolerance."""
    return TransducerConfig(
        consistency_tolerance=REFERENCE.transducer.consistency_tolerance, **fields
    )


def _pair(k_eff: float, m_eff: float, q: float) -> SystemConfig:
    """Two identical uncoupled resonators of stiffness k_eff, mass m_eff and quality factor q."""
    c = math.sqrt(k_eff * m_eff) / q
    return SystemConfig(m1=m_eff, m2=m_eff, km1=k_eff, km2=k_eff, kc=0.0, c1=c, c2=c, cc=0.0)


def _budget(config, env, transducer, readout, x_psd=PUBLISHED_X_PSD) -> NoiseBudgetReport:
    """The budget of config's design."""
    return full_noise_budget(build_system(config), env, transducer, readout, x_psd)


def _r_x(transducer, config) -> float:
    """The motional resistance the budget derives for a transducer without r_x."""
    return _budget(config, REFERENCE.environment, transducer, REFERENCE.readout).r_x


# --- thermal force ---------------------------------------------------------------

def test_thermal_force_psd_reference(env):
    # 4 * kB * 300 * 0.0031 with the full CODATA kB
    assert thermal_force_psd(0.0031, env) == pytest.approx(5.136e-23, rel=1e-3, abs=0)


def test_thermal_force_psd_zeroes(env):
    assert thermal_force_psd(0.0, env) == 0.0
    cold = Environment(temperature=0.0, bandwidth=10.0)
    assert thermal_force_psd(0.0031, cold) == 0.0
    with pytest.raises(ValueError):
        thermal_force_psd(-1.0, env)


# --- thermal rows ------------------------------------------------------------------

def test_thermal_budget_published_rows(reference_config, env, transducer, readout):
    budget = _budget(reference_config, env, transducer, readout)
    assert budget.f_noise_psd == pytest.approx(5.136e-23, rel=1e-3, abs=0)
    assert budget.f_noise_avg == pytest.approx(5.136e-22, rel=1e-3, abs=0)
    assert budget.f_noise_rms == pytest.approx(2.266e-11, rel=5e-3, abs=0)
    assert budget.x_avg[0] == pytest.approx(7.762e-29, rel=5e-3, abs=0)
    assert budget.x_rms[0] == pytest.approx(8.81e-15, rel=5e-3, abs=0)
    # eta back-solved so that eta*omega1 = 0.5562 A/m
    assert budget.i_mot_noise[0] == pytest.approx(4.9e-15, rel=0.02, abs=0)
    # rms rows really are the roots of the avg rows
    assert budget.f_noise_rms == math.sqrt(budget.f_noise_avg)
    assert budget.x_rms[0] == math.sqrt(budget.x_avg[0])
    assert budget.x_rms[1] == math.sqrt(budget.x_avg[1])


def test_thermal_budget_zero_psd_input(reference_config, env, transducer, readout):
    budget = _budget(reference_config, env, transducer, readout, (0.0, 0.0))
    assert budget.x_avg == (0.0, 0.0)
    assert budget.i_mot_noise == (0.0, 0.0)
    assert budget.f_noise_rms > 0  # force pipeline unaffected


def test_analytic_psd_feeds_budget(reference_config, env, transducer, readout):
    """i_mot from the analytic route equals an independent hand computation."""
    force = (thermal_force_psd(reference_config.c1, env), 0.0)
    system = build_system(reference_config)
    x_psd = analytic_displacement_psd(system, force)
    budget = _budget(reference_config, env, transducer, readout, x_psd)

    modes = system.modes
    s_f = 4 * BOLTZMANN * 300.0 * reference_config.c1
    for i, (f_mode, omega) in enumerate(
        ((modes.f1, modes.omega1), (modes.f2, modes.omega2))
    ):
        h = oracle_receptance(system.mass, system.damping, system.stiffness, f_mode)
        want = transducer.eta * omega * math.sqrt(abs(h[0, 0]) ** 2 * s_f * env.bandwidth)
        assert budget.i_mot_noise[i] == pytest.approx(want, rel=1e-9, abs=0)


def test_consistency_warning_default_tolerance(reference_config, env, readout):
    strict = TransducerConfig(consistency_tolerance=0.25, eta=REFERENCE.transducer.eta, r_x=4e6)
    with pytest.warns(UserWarning, match="differs"):
        _budget(reference_config, env, strict, readout)


def test_consistency_silent_when_widened(reference_config, env, transducer, readout):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _budget(reference_config, env, transducer, readout)


def test_consistency_judges_the_damping_r_x_is_derived_from(readout):
    """The check and the derived r_x read one damping, the mean (c1 + c2)/2:
    at c2 = 2 c1 the derived r_x, 1.5 c1/eta^2, passes a 25% tolerance
    silently, and c1/eta^2 is 33% off and warns."""
    pair = _pair(1.2e5, 5e-4, 2000.0)
    pair = dataclasses.replace(pair, c2=2.0 * pair.c1)
    eta = REFERENCE.transducer.eta
    derived = _r_x(_transducer(eta=eta), pair)
    assert derived == pytest.approx(1.5 * pair.c1 / eta**2, rel=1e-12, abs=0)
    env = REFERENCE.environment

    def given(r_x):
        return TransducerConfig(consistency_tolerance=0.25, eta=eta, r_x=r_x)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _budget(pair, env, given(derived), readout)
    with pytest.warns(UserWarning, match=r"differs from c = 0\.00581 N\*s/m by 33%"):
        _budget(pair, env, given(pair.c1 / eta**2), readout)


def test_eta_from_geometry():
    t = _transducer(v_dc=10.0, epsilon=8.854e-12, area=1e-6, gap=2e-6)
    assert t.eta == pytest.approx(10.0 * 8.854e-12 * 1e-6 / 4e-12, rel=1e-6, abs=0)
    with pytest.raises(ValueError, match="transduction factor"):
        _transducer(v_dc=10.0, area=1e-6)


# --- motional resistance --------------------------------------------------------------

def test_motional_resistance_closes_on_published_value():
    # eta back-solved from c / r_x so the identity lands on 4 Mohm at Q = 2547
    eta = math.sqrt(0.0031 / 4e6)
    r_x = _r_x(_transducer(eta=eta), _pair(k_eff=122968.75, m_eff=5.0697497e-4, q=2547.0))
    assert r_x == pytest.approx(4e6, rel=1e-4, abs=0)


def test_motional_resistance_geometry_identity():
    """Geometry route equals sqrt(k m)/(Q eta^2) with eta from the same geometry."""
    t = _transducer(v_dc=12.0, epsilon=8.854e-12, area=2.5e-7, gap=1.5e-6)
    pair = _pair(1.2e5, 5e-4, 2000.0)
    from_geometry = _r_x(t, pair)
    assert from_geometry == pytest.approx(_r_x(_transducer(eta=t.eta), pair), rel=1e-12, abs=0)
    d = build_system(pair)
    assert from_geometry == pytest.approx(
        math.sqrt(d.k_eff * d.m_eff) / (d.q * t.eta**2), rel=1e-12, abs=0
    )


def test_motional_resistance_uses_the_given_eta_with_geometry():
    """An explicit eta wins over the geometry for r_x, as it does for i_mot."""
    mixed = _transducer(eta=1e-5, v_dc=10.0, epsilon=8.854e-12, area=1e-6, gap=2e-6)
    pair = _pair(1.2e5, 5e-4, 2000.0)
    r_x = _r_x(mixed, pair)
    assert r_x == _r_x(_transducer(eta=1e-5), pair)
    assert r_x == pytest.approx(38.73e6, rel=1e-3, abs=0)


def test_motional_resistance_scalings():
    base = _transducer(v_dc=10.0, epsilon=8.854e-12, area=1e-6, gap=2e-6)
    double_v = _transducer(v_dc=20.0, epsilon=8.854e-12, area=1e-6, gap=2e-6)
    r1 = _r_x(base, _pair(1e5, 5e-4, 1000.0))
    assert _r_x(double_v, _pair(1e5, 5e-4, 1000.0)) == pytest.approx(r1 / 4, rel=1e-6, abs=0)
    assert _r_x(base, _pair(1e5, 5e-4, 2000.0)) == pytest.approx(r1 / 2, rel=1e-6, abs=0)


# --- readout rows -----------------------------------------------------------------------

def test_electronic_rows_published(reference_config, env, transducer, readout):
    budget = _budget(reference_config, env, transducer, readout)  # r_x = 4 Mohm
    assert budget.r_x == 4e6
    assert budget.i_rf == pytest.approx(4.06e-13, rel=0.01, abs=0)
    assert budget.i_vn == pytest.approx(4.34e-13, rel=0.01, abs=0)
    assert budget.i_in == pytest.approx(9.92e-14, rel=0.01, abs=0)
    assert budget.i_total_paper == pytest.approx(1.56e-13, rel=0.01, abs=0)
    assert budget.i_total_integrated == pytest.approx(6.03e-13, rel=0.01, abs=0)


def test_noiseless_limit_all_zero(reference_config, transducer, readout):
    cold = Environment(temperature=0.0, bandwidth=10.0)
    quiet = dataclasses.replace(readout, i_n=0.0, v_n=0.0)
    budget = _budget(reference_config, cold, transducer, quiet)
    assert budget.i_rf == 0.0
    assert budget.i_vn == 0.0
    assert budget.i_in == 0.0
    assert budget.i_total_paper == 0.0
    assert budget.i_total_integrated == 0.0


def test_voltage_noise_row_grows_as_rx_shrinks(reference_config, env, transducer, readout):
    # the noise gain (1 + R_x/R_f)/R_x grows when R_x drops
    halved = _budget(reference_config, env, dataclasses.replace(transducer, r_x=2e6), readout)
    base = _budget(reference_config, env, transducer, readout)
    assert halved.i_vn > base.i_vn


def test_rss_exactness(reference_config, env, transducer, readout):
    budget = _budget(reference_config, env, transducer, readout)
    rss_sq = budget.i_rf**2 + budget.i_vn**2 + budget.i_in**2
    assert budget.i_total_integrated**2 == pytest.approx(rss_sq, rel=1e-15, abs=0)
    assert budget.i_total_integrated >= max(budget.i_rf, budget.i_vn, budget.i_in)


def test_budget_monotonic_in_noise_parameters(reference_config, env, transducer, readout):
    def fields(*args):
        b = _budget(reference_config, *args)
        return np.array([b.i_rf, b.i_vn, b.i_in, b.i_total_paper, b.i_total_integrated])

    base = fields(env, transducer, readout)
    hotter = fields(Environment(temperature=400.0, bandwidth=10.0), transducer, readout)
    wider = fields(Environment(temperature=300.0, bandwidth=20.0), transducer, readout)
    noisier_v = fields(env, transducer, dataclasses.replace(readout, v_n=140e-9))
    noisier_i = fields(env, transducer, dataclasses.replace(readout, i_n=40e-15))
    for other in (hotter, wider, noisier_v, noisier_i):
        assert np.all(other >= base - 1e-30)


def test_thermal_monotonic(reference_config, env, transducer, readout):
    base = _budget(reference_config, env, transducer, readout)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        damped_cfg = dataclasses.replace(
            reference_config, c1=0.005, c2=0.005, cc=0.005
        )
    damped = _budget(damped_cfg, env, transducer, readout)
    assert damped.f_noise_psd > base.f_noise_psd
    hot = _budget(reference_config, Environment(temperature=400.0, bandwidth=10.0),
                  transducer, readout)
    assert hot.f_noise_rms > base.f_noise_rms


# --- totals -----------------------------------------------------------------------------

def test_total_system_noise_published(reference_config, env, transducer, readout):
    budget = _budget(reference_config, env, transducer, readout)
    total = budget.i_system_paper[0]
    assert total == pytest.approx(1.56e-13, rel=0.01, abs=0)
    # mechanical contribution below 0.1%
    assert total / budget.i_total_paper - 1 < 1e-3


def test_total_system_noise_trivial(reference_config, env, transducer, readout):
    """The system totals are the RSS of the mechanical and electronic currents:
    either alone passes through unchanged."""
    budget = _budget(reference_config, env, transducer, readout)
    for mode in (0, 1):
        for total, elec in ((budget.i_system_paper, budget.i_total_paper),
                            (budget.i_system_integrated, budget.i_total_integrated)):
            assert total[mode] ** 2 == pytest.approx(
                budget.i_mot_noise[mode] ** 2 + elec**2, rel=1e-15, abs=0)
    cold = Environment(temperature=0.0, bandwidth=10.0)
    quiet = dataclasses.replace(readout, i_n=0.0, v_n=0.0)
    mechanical_only = _budget(reference_config, cold, transducer, quiet)
    assert mechanical_only.i_system_paper == mechanical_only.i_mot_noise
    assert mechanical_only.i_system_integrated == mechanical_only.i_mot_noise
    electronic_only = _budget(reference_config, env, transducer, readout, (0.0, 0.0))
    assert electronic_only.i_system_paper == (electronic_only.i_total_paper,) * 2
    assert electronic_only.i_system_integrated == (electronic_only.i_total_integrated,) * 2


def test_full_budget_dominance(reference_config, env, transducer, readout):
    report = _budget(reference_config, env, transducer, readout)
    assert report.dominant_source == "amplifier_voltage_noise"
    # electronic total exceeds the mechanical term by at least 10x
    assert report.i_total_paper >= 10 * max(report.i_mot_noise)
    assert report.i_system_paper[0] >= report.i_total_paper


def test_full_budget_derives_rx_when_absent(reference_config, env, readout):
    eta = math.sqrt(0.0031 / 4e6)
    report = _budget(reference_config, env, _transducer(eta=eta), readout)
    design = build_system(reference_config)
    assert report.r_x == pytest.approx(
        math.sqrt(design.k_eff * design.m_eff) / (design.q * eta**2), rel=1e-6, abs=0
    )
    assert report.r_x == pytest.approx(4e6, rel=1e-4, abs=0)
