"""Noise budget of the transimpedance readout against the mechanical floor.

Reproduces the reference design's published budget arithmetic: the thermal
pipeline down to a motional noise current, the three electronic rows, both
total conventions, and the combined system noise.
"""

import dataclasses
import warnings

from crnoise import Environment, full_noise_budget, thermal_force_psd
from crnoise.presets import reference_run

env = Environment(temperature=300.0, bandwidth=10.0)
run = reference_run()
cfg = run.system
x_psd = (run.get("budget.x_psd_mode1"), run.get("budget.x_psd_mode2"))

print("thermal pipeline (published displacement-noise PSD inputs)")
print(f"  force PSD 4*kB*T*c = {thermal_force_psd(cfg.c1, env):.4e} N^2/Hz")
report = full_noise_budget(cfg, env, run.transducer, run.readout, x_psd)
print(f"  force rms over {env.bandwidth:g} Hz = {report.f_noise_rms:.4e} N")
for i in (0, 1):
    print(f"  mode {i + 1}: x_rms = {report.x_rms[i]:.3e} m -> "
          f"i_mot = {report.i_mot_noise[i]:.3e} A rms")

print("\nreadout rows (R_f = 1 Mohm, R_x = 4 Mohm, B = 10 Hz)")
print(f"  feedback resistor : {report.i_rf:.3e} A rms")
print(f"  voltage noise     : {report.i_vn:.3e} A rms")
print(f"  current noise     : {report.i_in:.3e} A rms")
print(f"  total (published convention, per-rtHz densities): {report.i_total_paper:.3e} A")
print(f"  total (integrated RSS of the rows)              : {report.i_total_integrated:.3e} A rms")

print(f"\ndominant source: {report.dominant_source}")
total = report.i_system_paper[0]
print(f"system total (mode 1 mechanical + readout): {total:.3e} A")
print(f"  the mechanical term moves the total by only "
      f"{(total / report.i_total_paper - 1) * 100:.3f}% - the readout dominates")

print("\nreadout noise vs motional resistance (halving R_x raises the noise gain):")
for r_x in (8e6, 4e6, 2e6, 1e6):
    transducer = dataclasses.replace(run.transducer, r_x=r_x)
    with warnings.catch_warnings():
        # R_x is swept alone here, off the r_x * eta^2 = c identity the budget checks
        warnings.simplefilter("ignore")
        b = full_noise_budget(cfg, env, transducer, run.readout, x_psd)
    print(f"  R_x = {r_x / 1e6:4.1f} Mohm: voltage-noise row {b.i_vn:.3e} A rms")
