"""How the coupling-spring strength moves the noise floor and the sensitivity.

Sweeps the electrostatic coupling spring, computing modes, the analytic
displacement-noise floor at each mode, and the AR sensitivity for every kc
in one array pass.  Weaker coupling buys sensitivity (1/(2|kappa|) grows)
while the per-mode noise floor drops at the out-of-phase peak.
"""

import dataclasses

import numpy as np

from crnoise import (
    Environment,
    analytic_displacement_psd,
    ar_sensitivity,
    build_system,
    thermal_force_psd,
    to_db,
)
from crnoise.presets import reference_system

env = Environment(temperature=300.0, bandwidth=10.0)
kcs = np.array([-200.0, -393.5, -600.0, -1000.0, -2000.0])
cfg = dataclasses.replace(reference_system(), kc=kcs)
design = build_system(cfg)
split, kappa = design.modes.split_hz, design.kappa
sensitivity = ar_sensitivity(kappa)
# the thermal force on resonator 1 alone, as forcing.noise_target = 1 sets it
psd1, psd2 = analytic_displacement_psd(design, (thermal_force_psd(cfg.c1, env), 0.0))
db1 = [to_db(p, "paper_20log") for p in psd1]
db2 = [to_db(p, "paper_20log") for p in psd2]

print(f"{'kc [N/m]':>10} {'kappa':>10} {'split [Hz]':>11} "
      f"{'noise@f1 [dB]':>14} {'noise@f2 [dB]':>14} {'1/(2|kappa|)':>13}")
for i, kc in enumerate(kcs):
    print(f"{kc:10.1f} {kappa[i]:10.5f} {split[i]:11.3f} "
          f"{db1[i]:14.1f} {db2[i]:14.1f} {sensitivity[i]:13.1f}")

print("\nthe published comparison pair (kc = -393.5 vs -1000 N/m):")
for i in (1, 3):
    print(f"  kc = {kcs[i]:8.1f}: split {split[i]:6.2f} Hz, "
          f"mode-1 peak {db1[i]:7.1f} dB, AR sensitivity {sensitivity[i]:6.1f}")
print("in this analytic model the per-mode peak floor barely moves with kc;")
print("the payoff of weaker coupling is the 1/(2|kappa|) sensitivity gain, so the")
print("minimum detectable stiffness improves in direct proportion.")
