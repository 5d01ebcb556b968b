"""From carrier voltages and noise voltage to the minimum detectable stiffness.

Follows the published readout chain: drive displacement -> motional current
-> output voltage through the 1 Mohm feedback resistor, then forms the
amplitude and amplitude-ratio resolutions and divides by the AR sensitivity.
"""

from crnoise import carrier_voltages, resolution_report
from crnoise.presets import reference_run

R_F = 1e6  # ohm
X_MODES = (0.419e-6, 0.836e-6)  # m peak, published drive amplitudes
ETA_OMEGA = (0.4582, 0.4593)  # A/m, back-solved from the published currents
I_SYSTEM = 1.56e-13  # A, published total system noise

print("readout chain (computed route)")
for mode, (x, eta_omega) in enumerate(zip(X_MODES, ETA_OMEGA), start=1):
    i_mot, peak, rms = carrier_voltages(x, eta_omega, R_F)
    print(f"  mode {mode}: x = {x * 1e6:.3f} um -> i_mot = {i_mot * 1e9:.0f} nA "
          f"-> v_out = {peak:.3f} V peak = {rms:.3f} V rms")
print(f"  output-referred noise voltage: {I_SYSTEM * R_F * 1e9:.0f} nV rms")

design = reference_run().design
# the published voltages, sensitivity and headline AR resolution
report = resolution_report((0.135, 0.271), 156e-9, 180.0, "paper_simulated", design.kappa,
                           bandwidth=10.0, k_eff=design.k_eff, effective_resolution=3.89e-7)

print("\nresolutions from the published voltages (0.135 / 0.271 V rms, 156 nV)")
for i, (r, ar) in enumerate(zip(report.amplitude_resolution, report.ar_resolution)):
    print(f"  amplitude resolution mode {i + 1}: {r:.3e}")
    print(f"  AR resolution mode {i + 1} (RSS of both channels): {ar:.3e}")

formula_sens = report.sensitivity_formula
print(f"\nAR sensitivity: formula 1/(2|kappa|) = {formula_sens:.2f}, "
      f"published simulated value = 180 (ratio {formula_sens / 180:.3f})")

print(f"minimum detectable stiffness: {report.min_detectable:.3e} (normalized dk units)")
print(f"  spectral density          : {report.min_detectable_density:.3e} per rtHz")
print(f"  scaled by k_eff           : {report.min_detectable_scaled:.3e} N/m")
