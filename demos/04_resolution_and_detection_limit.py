"""From carrier voltages and noise voltage to the minimum detectable stiffness.

Follows the published readout chain: drive displacement -> motional current
-> output voltage through the 1 Mohm feedback resistor, then forms the
amplitude and amplitude-ratio resolutions and divides by the AR sensitivity.
"""

from crnoise import (
    amplitude_resolution,
    ar_resolution,
    ar_sensitivity,
    compute_readout_voltages,
    derive_quantities,
    min_detectable_stiffness,
)
from crnoise.presets import reference_system

R_F = 1e6  # ohm
X_MODES = (0.419e-6, 0.836e-6)  # m peak, published drive amplitudes
ETA_OMEGA = (0.4582, 0.4593)  # A/m, back-solved from the published currents
I_SYSTEM = 1.56e-13  # A, published total system noise

voltages = compute_readout_voltages(X_MODES, ETA_OMEGA, R_F, I_SYSTEM)
print("readout chain (computed route)")
for m in voltages.modes:
    print(f"  mode {m.mode}: x = {m.x_peak * 1e6:.3f} um -> i_mot = {m.i_mot_peak * 1e9:.0f} nA "
          f"-> v_out = {m.v_out_peak:.3f} V peak = {m.v_out_rms:.3f} V rms")
print(f"  output-referred noise voltage: {voltages.v_noise_rms * 1e9:.0f} nV rms")

print("\nresolutions from the published voltages (0.135 / 0.271 V rms, 156 nV)")
res = [amplitude_resolution(156e-9, v) for v in (0.135, 0.271)]
for i, r in enumerate(res):
    print(f"  amplitude resolution mode {i + 1}: {r:.3e}")
    print(f"  AR resolution mode {i + 1} (RSS of both channels): {ar_resolution(r, r):.3e}")

derived = derive_quantities(reference_system())
formula_sens = ar_sensitivity(derived.kappa)
print(f"\nAR sensitivity: formula 1/(2|kappa|) = {formula_sens:.2f}, "
      f"published simulated value = 180 (ratio {formula_sens / 180:.3f})")

detect = min_detectable_stiffness(3.89e-7, 180.0, bandwidth=10.0, k_eff=derived.k_eff)
print(f"minimum detectable stiffness: {detect.absolute:.3e} (normalized dk units)")
print(f"  spectral density          : {detect.density:.3e} per rtHz")
print(f"  scaled by k_eff           : {detect.scaled_by_k_eff:.3e} N/m")
