"""System assembly, modal analysis, receptance, and the first-order
sensitivity laws against the perturbed eigenproblem."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import (
    oracle_ar,
    oracle_modes,
    oracle_receptance,
    oracle_stiffness_shifts,
    perturbed_stiffness,
    random_valid_config,
)

from crnoise.errors import NumericalError
from crnoise.resolution import ar_sensitivity
from crnoise.sysmodel import (
    SystemConfig,
    build_system,
    derive_quantities,
    frequency_response,
    mode_analysis,
)


def uncoupled(km=123362.25, m=5.0697e-4, c=0.0031):
    return SystemConfig(m1=m, m2=m, km1=km, km2=km, kc=0.0, c1=c, c2=c, cc=0.0)


# --- construction -------------------------------------------------------------

def test_reference_matrices(reference_config):
    system = build_system(reference_config)
    assert system.stiffness == pytest.approx(
        np.array([[122968.75, 393.5], [393.5, 122968.75]]), rel=1e-6, abs=0
    )
    assert system.damping == pytest.approx(
        np.array([[0.0062, -0.0031], [-0.0031, 0.0062]]), rel=1e-6, abs=0
    )
    assert np.allclose(system.mass, np.diag([reference_config.m1] * 2))


def test_zero_coupling_is_block_diagonal():
    system = build_system(uncoupled())
    assert system.stiffness[0, 1] == 0.0
    assert system.damping[0, 1] == 0.0


def test_not_positive_definite_rejected():
    with pytest.raises(ValueError, match=r"km1 \+ 2\*kc"):
        SystemConfig(m1=1, m2=1, km1=1, km2=1, kc=-0.6, c1=0, c2=0, cc=0)
    with pytest.raises(ValueError, match=r"km2 \+ kc"):
        SystemConfig(m1=1, m2=1, km1=10, km2=2, kc=-3, c1=0, c2=0, cc=0)
    with pytest.raises(ValueError, match="m1"):
        SystemConfig(m1=0, m2=1, km1=1, km2=1, kc=0, c1=0, c2=0, cc=0)


def test_strong_coupling_warns():
    with pytest.warns(UserWarning, match="weak-coupling"):
        SystemConfig(m1=1, m2=1, km1=100, km2=100, kc=-20, c1=0.1, c2=0.1, cc=0.1)


def test_unequal_coupler_damping_warns():
    cfg = SystemConfig(m1=1, m2=1, km1=100, km2=100, kc=-1, c1=0.1, c2=0.1, cc=0.05)
    with pytest.warns(UserWarning, match="coupler"):
        build_system(cfg)


def test_derived_quantities(reference_config):
    derived = derive_quantities(reference_config)
    assert derived.k_eff == pytest.approx(122968.75, rel=1e-6, abs=0)
    assert derived.kappa == pytest.approx(-0.0032, rel=1e-6, abs=0)
    assert derived.q == pytest.approx(2547.0, rel=1e-9, abs=0)
    assert derived.kappa * derived.k_eff == pytest.approx(-393.5, rel=1e-6, abs=0)
    # kappa carries the sign of kc
    assert derived.kappa < 0


# --- modal analysis -----------------------------------------------------------

def test_reference_modes_closed_form(reference_config):
    modes = mode_analysis(build_system(reference_config))
    km, kc, m = reference_config.km1, reference_config.kc, reference_config.m1
    f_op = math.sqrt((km + 2 * kc) / m) / (2 * math.pi)
    f_ip = math.sqrt(km / m) / (2 * math.pi)
    assert modes.f1 == pytest.approx(f_op, rel=1e-12, abs=0)
    assert modes.f2 == pytest.approx(f_ip, rel=1e-12, abs=0)
    assert modes.f1 == pytest.approx(2474.73, abs=0.01)
    assert modes.f2 == pytest.approx(2482.66, abs=0.01)
    assert modes.split_hz == pytest.approx(7.93, abs=0.01)
    # kc < 0 puts the out-of-phase mode first
    assert modes.label1 == "out_of_phase"
    assert modes.label2 == "in_phase"


def test_symmetric_shapes_are_equal_magnitude(reference_config):
    modes = mode_analysis(build_system(reference_config))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(modes.shape1), inv_sqrt2, rtol=1e-12)
    assert np.allclose(np.abs(modes.shape2), inv_sqrt2, rtol=1e-12)


def test_positive_coupling_mode_order():
    cfg = SystemConfig(m1=1e-4, m2=1e-4, km1=1e5, km2=1e5, kc=400.0,
                       c1=0.003, c2=0.003, cc=0.003)
    modes = mode_analysis(build_system(cfg))
    assert modes.label1 == "in_phase"
    assert modes.label2 == "out_of_phase"


def test_zero_coupling_degenerate():
    modes = mode_analysis(build_system(uncoupled()))
    assert modes.omega1 == pytest.approx(modes.omega2, rel=1e-12, abs=0)
    assert modes.label1 == modes.label2 == "degenerate"


def test_modal_q_projected_damping(reference_config):
    modes = mode_analysis(build_system(reference_config))
    km, kc, m, c = (reference_config.km1, reference_config.kc,
                    reference_config.m1, reference_config.c1)
    # out-of-phase shape (1,-1)/sqrt2 sees c + 2cc; in-phase sees c
    assert modes.modal_q1 == pytest.approx(math.sqrt((km + 2 * kc) * m) / (3 * c), rel=1e-9, abs=0)
    assert modes.modal_q2 == pytest.approx(math.sqrt(km * m) / c, rel=1e-9, abs=0)


def test_mass_orthogonality_random_configs():
    rng = np.random.default_rng(2026)
    for _ in range(25):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = random_valid_config(rng)
            system = build_system(cfg)
        modes = mode_analysis(system)
        cross = modes.shape1 @ system.mass @ modes.shape2
        norm = math.sqrt(
            (modes.shape1 @ system.mass @ modes.shape1)
            * (modes.shape2 @ system.mass @ modes.shape2)
        )
        assert abs(cross) / norm < 1e-10


def test_modes_match_eigh_oracle_random_configs():
    rng = np.random.default_rng(77)
    for _ in range(25):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = random_valid_config(rng)
            system = build_system(cfg)
        modes = mode_analysis(system)
        omegas, _ = oracle_modes(system.mass, system.stiffness)
        assert modes.omega1 == pytest.approx(omegas[0], rel=1e-10, abs=0)
        assert modes.omega2 == pytest.approx(omegas[1], rel=1e-10, abs=0)


def test_degenerate_split_scales_linearly(reference_config):
    import dataclasses

    splits = []
    kcs = (-40.0, -20.0, -10.0)
    for kc in kcs:
        cfg = dataclasses.replace(reference_config, kc=kc)
        splits.append(mode_analysis(build_system(cfg)).split_hz)
    # split ~ |kc| to first order
    assert splits[0] / splits[1] == pytest.approx(2.0, rel=2e-4, abs=0)
    assert splits[1] / splits[2] == pytest.approx(2.0, rel=1e-4, abs=0)


def test_stacked_designs_match_single_designs_bit_for_bit(reference_config):
    """An array of kc gives, design by design, the bits of one scalar kc each."""
    rng = np.random.default_rng(6)
    kcs = np.concatenate([-np.exp(rng.uniform(np.log(10.0), np.log(12000.0), 300)),
                          [0.0, 250.0, -393.5]])
    stacked = build_system(dataclasses.replace(reference_config, kc=kcs))
    assert stacked.stiffness.shape == stacked.mass.shape == (kcs.size, 2, 2)
    modes = mode_analysis(stacked)
    h = frequency_response(stacked, np.stack([modes.f1, modes.f2], axis=-1))
    assert h.shape == (kcs.size, 2, 2, 2)
    assert set(modes.label1) == {"out_of_phase", "in_phase", "degenerate"}
    for i, kc in enumerate(kcs.tolist()):
        system = build_system(dataclasses.replace(reference_config, kc=kc))
        one = mode_analysis(system)
        for name in ("omega1", "omega2", "f1", "f2", "shape1", "shape2",
                     "label1", "label2", "modal_q1", "modal_q2"):
            assert np.array_equal(getattr(modes, name)[i], getattr(one, name)), (kc, name)
        assert np.array_equal(h[i], frequency_response(system, [one.f1, one.f2])), kc


# --- frequency response -------------------------------------------------------

def test_static_compliance(reference_config):
    system = build_system(reference_config)
    h = frequency_response(system, [0.0])
    assert np.allclose(h[0], np.linalg.inv(system.stiffness))


def test_resonance_magnitude_single_resonator():
    km, m, q = 1e5, 1e-4, 250.0
    c = math.sqrt(km * m) / q
    cfg = SystemConfig(m1=m, m2=m, km1=km, km2=km, kc=0.0, c1=c, c2=c, cc=0.0)
    f0 = math.sqrt(km / m) / (2 * math.pi)
    h = frequency_response(build_system(cfg), [f0])
    assert abs(h[0, 0, 0]) == pytest.approx(q / km, rel=1e-12, abs=0)
    assert h[0, 0, 1] == 0.0


def test_reciprocity_random_configs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = random_valid_config(rng)
            system = build_system(cfg)
        modes = mode_analysis(system)
        freqs = np.linspace(0.0, 2.5 * modes.f2, 64)
        h = frequency_response(system, freqs)
        h12, h21 = h[:, 0, 1], h[:, 1, 0]
        scale = np.max(np.abs(h))
        assert np.max(np.abs(h12 - h21)) / scale < 1e-12


def test_receptance_matches_dense_solve(reference_config):
    system = build_system(reference_config)
    modes = mode_analysis(system)
    for f in (500.0, modes.f1, modes.f2, 4000.0):
        got = frequency_response(system, [f])[0]
        want = oracle_receptance(system.mass, system.damping, system.stiffness, f)
        assert np.allclose(got, want, rtol=1e-10)


def test_undamped_resonance_raises():
    cfg = uncoupled(c=0.0)
    system = build_system(cfg)
    modes = mode_analysis(system)
    with pytest.raises(NumericalError, match="undamped resonance"):
        frequency_response(system, [modes.f1])


def test_negative_frequency_rejected(reference_config):
    with pytest.raises(ValueError):
        frequency_response(build_system(reference_config), [-1.0])


# --- sensitivity laws -----------------------------------------------------------
# The AR law is the program's ar_sensitivity; no command reports the frequency
# law delta_k/(2 k_eff) or the eigenstate law (half the AR shift), so they are
# written here, beside the oracle they are checked against.

def test_reference_ar_sensitivity(reference_config):
    # 1/(2|kappa|) = 156.25 per unit normalized stiffness change
    kappa = derive_quantities(reference_config).kappa
    assert ar_sensitivity(kappa) == pytest.approx(156.25, rel=1e-12, abs=0)


def test_degenerate_reported_unbounded():
    kappa = derive_quantities(uncoupled()).kappa
    assert kappa == 0.0
    assert math.isinf(ar_sensitivity(kappa))


@pytest.mark.parametrize("formula", ["frequency", "ar", "eigenstate"])
def test_first_order_convergence_against_eigen_oracle(reference_config, formula):
    derived = derive_quantities(reference_config)
    ar_per_dk = ar_sensitivity(derived.kappa)
    errors = []
    for dk_norm in (1e-3, 5e-4, 2.5e-4):
        dk = dk_norm * derived.k_eff
        freq, ar, es = oracle_stiffness_shifts(reference_config, dk)
        predicted = {
            "frequency": abs(dk / (2.0 * derived.k_eff)),
            "ar": ar_per_dk * dk_norm,
            "eigenstate": ar_per_dk * dk_norm / 2.0,
        }[formula]
        observed = {"frequency": freq, "ar": ar, "eigenstate": es}[formula]
        errors.append(abs(predicted - observed))
    # first-order formulas: error drops at least 3x per halving of delta_k
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0
    # and errors shrink monotonically
    assert errors[0] > errors[1] > errors[2]


def test_frequency_formula_close_to_oracle(reference_config):
    derived = derive_quantities(reference_config)
    dk = 1e-3 * derived.k_eff
    freq, _, _ = oracle_stiffness_shifts(reference_config, dk)
    assert abs(dk / (2.0 * derived.k_eff)) == pytest.approx(freq, rel=0.05, abs=0)


def test_mass_sensitivity_against_eigen_oracle(reference_config):
    """A normalized mass change dm/m_eff shifts the AR readout by
    ar_sensitivity * dm/m_eff, to first order."""
    derived = derive_quantities(reference_config)
    errors = []
    for dm_norm in (1e-3, 5e-4):
        dm = dm_norm * derived.m_eff
        mass0 = np.diag([reference_config.m1, reference_config.m2])
        k0 = perturbed_stiffness(reference_config, 0.0)
        ar0 = oracle_ar(mass0, k0, mode=1)
        mass1 = np.diag([reference_config.m1 + dm, reference_config.m2])
        ar1 = oracle_ar(mass1, k0, mode=1)
        predicted = ar_sensitivity(derived.kappa) * dm_norm
        errors.append(abs(predicted - abs(ar1 - ar0) / ar0))
    assert errors[0] / errors[1] >= 3.0
