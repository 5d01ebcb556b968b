"""The readout chain, from drive displacement to the detection limit.

A drive amplitude x gives the motional current i = eta*omega*x, which the
feedback resistor turns into the carrier v_out = i*R_f (peak; the rms is
peak/sqrt(2)).  The smallest resolvable fractional amplitude shift is the
noise-to-carrier ratio v_noise/v_out.  The amplitude-ratio (AR) readout is
the RSS of its two channels, which carry the same carrier level in the
symmetric design, so it resolves sqrt(2) times that.  Dividing a resolution
by the AR sensitivity gives the minimum detectable normalized stiffness
perturbation.

The arithmetic takes arrays of designs as well as scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def carrier_voltages(x_peak: float, eta_omega: float, r_f: float) -> tuple[float, float, float]:
    """(i_mot, v_out_peak, v_out_rms) of one mode: eta*omega*x [A], i*R_f [V]
    and peak/sqrt(2) [V]."""
    i_mot = eta_omega * x_peak
    peak = i_mot * r_f
    return i_mot, peak, peak / math.sqrt(2.0)


@dataclass(frozen=True)
class ResolutionReport:
    """Output resolution and detection limit across both modes.

    The detection limit is effective_resolution / sensitivity, in
    normalized-stiffness units (delta_k / k_eff); min_detectable_scaled gives
    the N/m equivalent.
    """

    amplitude_resolution: tuple[float, float]  # per mode, v_noise / v_out
    ar_resolution: tuple[float, float]  # per mode, RSS over both resonators
    snr: tuple[float, float]  # per mode, carrier rms over noise rms
    worst_mode: int  # mode with the lowest SNR (resolution-limiting channel)
    sensitivity: float
    sensitivity_source: str
    sensitivity_formula: float  # 1 / (2 |kappa|)
    effective_resolution: float  # value fed to the detection-limit division
    min_detectable: float
    min_detectable_density: float  # per rtHz over the bandwidth
    min_detectable_scaled: float  # N/m, min_detectable * k_eff
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
    k_eff: float,
    effective_resolution: float | None = None,
) -> ResolutionReport:
    """Resolutions and detection limit from per-mode rms carrier voltages.

    effective_resolution defaults to the best (smallest) AR resolution; a
    published headline value may be passed instead to reproduce reference
    detection-limit figures.
    """
    if np.any(v_noise_rms < 0):
        raise ValueError("v_noise must be >= 0")
    if any(np.any(v <= 0) for v in v_out_rms):
        raise ValueError("no carrier signal: v_out must be > 0")
    if np.any(sensitivity <= 0):
        raise ValueError("sensitivity must be > 0")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    amp_res = tuple(v_noise_rms / v for v in v_out_rms)
    ar_res = tuple(np.hypot(r, r) for r in amp_res)
    with np.errstate(divide="ignore"):
        snrs = tuple(np.divide(v, v_noise_rms) for v in v_out_rms)
    if effective_resolution is None:
        effective_resolution = np.minimum(*ar_res)
    if np.any(effective_resolution < 0):
        raise ValueError("effective resolution must be >= 0")
    absolute = effective_resolution / sensitivity
    return ResolutionReport(
        amplitude_resolution=amp_res,
        ar_resolution=ar_res,
        snr=snrs,
        worst_mode=1 + (snrs[1] < snrs[0]),
        sensitivity=sensitivity,
        sensitivity_source=sensitivity_source,
        sensitivity_formula=ar_sensitivity(kappa),
        effective_resolution=effective_resolution,
        min_detectable=absolute,
        min_detectable_density=(effective_resolution / np.sqrt(bandwidth)) / sensitivity,
        min_detectable_scaled=absolute * k_eff,
        v_out_rms=tuple(v_out_rms),
        v_noise_rms=v_noise_rms,
    )
