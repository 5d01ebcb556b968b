"""Modal structure of the weakly coupled pair and its output sensitivities.

Builds the reference two-resonator system, prints its modes, then compares
the first-order AR sensitivity 1/(2|kappa|) against a brute-force perturbed
eigenproblem.
"""

import numpy as np

from crnoise import ar_sensitivity, build_system
from crnoise.presets import reference_system

cfg = reference_system()
system = build_system(cfg)
modes = system.modes

print("reference coupled pair")
print(f"  kappa = {system.kappa}, Q = {system.q:.0f}")
print(f"  mode 1: {modes.f1:9.3f} Hz  {modes.label1}  (modal Q {modes.modal_q1:.0f})")
print(f"  mode 2: {modes.f2:9.3f} Hz  {modes.label2}  (modal Q {modes.modal_q2:.0f})")
print(f"  split : {modes.split_hz:.3f} Hz")

print("\nfirst-order output shifts for a normalized stiffness change dk:")
ar_per_dk = ar_sensitivity(system.kappa)
print(f"  frequency : {0.5:8.2f} per dk  (1/2)")
print(f"  amp ratio : {ar_per_dk:8.2f} per dk  (1/(2|kappa|))")
print(f"  eigenstate: {ar_per_dk / 2:8.2f} per dk  (1/(4|kappa|))")

print("\nbrute-force check: perturb km1, re-solve the eigenproblem")
# M is diagonal, so K v = w^2 M v is the symmetric problem of
# M^-1/2 K M^-1/2 with v = M^-1/2 u
scale = 1.0 / np.sqrt([cfg.m1, cfg.m2])


def amplitude_ratio(stiffness):
    """|x1/x2| of the upper mode."""
    _, u = np.linalg.eigh(scale[:, None] * stiffness * scale[None, :])
    v = scale * u[:, 1]
    return abs(v[0] / v[1])


for dk_norm in (1e-3, 5e-4, 2.5e-4):
    dk = dk_norm * system.k_eff
    k0 = system.stiffness
    k1 = k0 + np.diag([dk, 0.0])
    ar0 = amplitude_ratio(k0)
    ar1 = amplitude_ratio(k1)
    observed = abs(ar1 - ar0) / ar0
    predicted = ar_per_dk * dk_norm
    print(f"  dk = {dk_norm:7.1e}: AR shift observed {observed:.6f}, "
          f"formula {predicted:.6f}, error {abs(observed - predicted):.2e}")
print("(the error falls ~4x per halving of dk: the formula is exact to first order)")
