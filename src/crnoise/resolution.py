"""Readout voltages, output resolution and minimum detectable stiffness.

Motional currents become voltages through the feedback resistor; the smallest
resolvable fractional amplitude shift is the noise-to-carrier voltage ratio,
and the amplitude-ratio (AR) readout resolution is the RSS of the two
contributing channels.  Dividing a resolution by the AR sensitivity yields
the minimum detectable (normalized) stiffness perturbation.

The arithmetic takes arrays of designs as well as scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SENSITIVITY_FORMULA = "formula"
SENSITIVITY_PAPER = "paper_simulated"


def motional_current(eta: float, omega: float, x: float) -> float:
    """Motional current eta * omega * x [A] for sinusoidal motion."""
    if eta < 0 or omega < 0 or x < 0:
        raise ValueError("eta, omega and x must be >= 0")
    return eta * omega * x


@dataclass(frozen=True)
class OutputVoltage:
    peak: float  # V
    rms: float  # V


def output_voltage(i_mot: float, r_f: float) -> OutputVoltage:
    """Transimpedance output: peak = i * R_f, rms = peak / sqrt(2)."""
    if r_f <= 0:
        raise ValueError("r_f must be > 0")
    peak = i_mot * r_f
    return OutputVoltage(peak=peak, rms=peak / math.sqrt(2.0))


def amplitude_resolution(v_noise: float, v_out: float) -> float:
    """Smallest resolvable fractional amplitude shift v_noise / v_out."""
    if np.any(v_noise < 0):
        raise ValueError("v_noise must be >= 0")
    if np.any(v_out <= 0):
        raise ValueError("no carrier signal: v_out must be > 0")
    return v_noise / v_out


def ar_resolution(res_r1: float, res_r2: float) -> float:
    """AR readout resolution: RSS of the two per-resonator resolutions."""
    if np.any(res_r1 < 0) or np.any(res_r2 < 0):
        raise ValueError("resolutions must be >= 0")
    return np.hypot(res_r1, res_r2)


@dataclass(frozen=True)
class MinDetectableStiffness:
    """Minimum detectable stiffness perturbation.

    Values are resolution / sensitivity, i.e. in normalized-stiffness units
    (delta_k / k_eff); scaled_by_k_eff gives the N/m equivalent.
    """

    absolute: float
    density: float | None  # per rtHz, None when no bandwidth was given
    scaled_by_k_eff: float | None = None  # N/m


def min_detectable_stiffness(
    resolution: float,
    sensitivity: float,
    bandwidth: float | None = None,
    k_eff: float | None = None,
) -> MinDetectableStiffness:
    """resolution / sensitivity, plus its spectral density over a bandwidth."""
    if np.any(resolution < 0):
        raise ValueError("resolution must be >= 0")
    if np.any(sensitivity <= 0):
        raise ValueError("sensitivity must be > 0")
    absolute = resolution / sensitivity
    density = None
    if bandwidth is not None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        density = (resolution / np.sqrt(bandwidth)) / sensitivity
    scaled = absolute * k_eff if k_eff is not None else None
    return MinDetectableStiffness(absolute=absolute, density=density, scaled_by_k_eff=scaled)


@dataclass(frozen=True)
class ModeReadout:
    """Per-mode readout record; peak/rms bookkeeping is explicit."""

    mode: int  # 1 or 2
    x_peak: float  # m
    i_mot_peak: float  # A
    v_out_peak: float  # V
    v_out_rms: float  # V


@dataclass(frozen=True)
class ReadoutVoltages:
    modes: tuple[ModeReadout, ModeReadout]
    v_noise_rms: float  # V, output-referred


def compute_readout_voltages(
    x_per_mode: tuple[float, float],
    eta_omega_per_mode: tuple[float, float],
    r_f: float,
    i_system_total: float,
) -> ReadoutVoltages:
    """Build the per-mode voltage records from drive amplitudes and eta*omega."""
    records = []
    for mode, (x, eta_omega) in enumerate(zip(x_per_mode, eta_omega_per_mode), start=1):
        i_mot = motional_current(eta_omega, 1.0, x)
        v = output_voltage(i_mot, r_f)
        records.append(
            ModeReadout(mode=mode, x_peak=x, i_mot_peak=i_mot, v_out_peak=v.peak, v_out_rms=v.rms)
        )
    if np.any(i_system_total < 0):
        raise ValueError("i_system_total must be >= 0")
    return ReadoutVoltages(modes=(records[0], records[1]), v_noise_rms=i_system_total * r_f)


@dataclass(frozen=True)
class ResolutionReport:
    """Output-resolution summary across both modes.

    The two resonators carry the same carrier level in the symmetric design,
    so the per-mode amplitude resolution applies to either channel and the AR
    resolution is sqrt(2) times it.
    """

    amplitude_resolution: tuple[float, float]  # per mode
    ar_resolution: tuple[float, float]  # per mode
    snr: tuple[float, float]  # per mode, carrier rms over noise rms
    worst_mode: int  # mode with the lowest SNR (resolution-limiting channel)
    sensitivity: float
    sensitivity_source: str
    sensitivity_formula: float  # 1 / (2 |kappa|)
    effective_resolution: float  # value fed to the detection-limit division
    min_detectable: MinDetectableStiffness
    v_out_rms: tuple[float, float]  # V
    v_noise_rms: float  # V


def ar_sensitivity(kappa: float) -> float:
    """First-order AR sensitivity 1/(2|kappa|) per normalized stiffness change.

    Unbounded (inf) for an uncoupled pair.
    """
    with np.errstate(divide="ignore"):
        return 1.0 / (2.0 * np.abs(kappa))


def resolution_report(
    v_out_rms: tuple[float, float],
    v_noise_rms: float,
    sensitivity: float,
    sensitivity_source: str,
    kappa: float,
    bandwidth: float,
    k_eff: float | None = None,
    effective_resolution: float | None = None,
) -> ResolutionReport:
    """Assemble the resolution report from per-mode rms carrier voltages.

    effective_resolution defaults to the best (smallest) AR resolution; a
    published headline value may be passed instead to reproduce reference
    detection-limit figures.
    """
    amp_res = tuple(amplitude_resolution(v_noise_rms, v) for v in v_out_rms)
    ar_res = tuple(ar_resolution(r, r) for r in amp_res)
    with np.errstate(divide="ignore"):
        snrs = tuple(np.divide(v, v_noise_rms) for v in v_out_rms)
    worst = 1 + (snrs[1] < snrs[0])
    formula = ar_sensitivity(kappa)
    if effective_resolution is None:
        effective_resolution = np.minimum(*ar_res)
    detect = min_detectable_stiffness(effective_resolution, sensitivity, bandwidth, k_eff)
    return ResolutionReport(
        amplitude_resolution=amp_res,
        ar_resolution=ar_res,
        snr=snrs,
        worst_mode=worst,
        sensitivity=sensitivity,
        sensitivity_source=sensitivity_source,
        sensitivity_formula=formula,
        effective_resolution=effective_resolution,
        min_detectable=detect,
        v_out_rms=tuple(v_out_rms),
        v_noise_rms=v_noise_rms,
    )
