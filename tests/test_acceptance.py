"""Acceptance suite: one pass/fail line per criterion.

Runs under pytest (tests/test_acceptance.py) and as a plain script
(`python tests/test_acceptance.py`), printing one `ACCEPTANCE n: PASS/FAIL`
line per criterion.  Tolerances are fixed here, not calibrated elsewhere.
"""

import dataclasses
import functools
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from conftest import collect, oracle_stiffness_shifts, welch_psd

from crnoise import presets, spectral
from crnoise.noisebudget import Environment, full_noise_budget, thermal_force_psd
from crnoise.resolution import ar_sensitivity, resolution_report
from crnoise.sysmodel import (
    build_system,
    derive_quantities,
    frequency_response,
    mode_analysis,
)
from crnoise.timesim import (
    Forcing,
    HarmonicDrive,
    SimulationPlan,
    StochasticDrive,
    SteadyStateProjection,
    default_timestep,
    simulate,
)

ENV = Environment(temperature=300.0, bandwidth=10.0)


def _within(value, target, rtol):
    return abs(value - target) <= rtol * abs(target)


def _report(criterion: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion:>2}: {status} - {description}", flush=True)
    assert not failures, "; ".join(failures)


def _check(failures, name, value, target, rtol):
    if not _within(value, target, rtol):
        failures.append(f"{name} = {value:.6g}, want {target:.6g} (rtol {rtol:g})")


def _check_true(failures, name, condition):
    if not condition:
        failures.append(name)


def test_criterion_01_thermal_force_pipeline():
    failures = []
    psd = thermal_force_psd(0.0031, ENV)
    _check(failures, "force PSD", psd, 5.136e-23, 1e-3)
    avg = psd * ENV.bandwidth
    _check(failures, "force mean square", avg, 5.136e-22, 1e-3)
    _check(failures, "force rms", math.sqrt(avg), 2.266e-11, 5e-3)
    _report(1, "thermal force pipeline (PSD, band mean square, rms)", failures)


def _reference_budget():
    """The noise budget of the reference run (r_x = 4 Mohm) at its published
    displacement-noise PSD inputs."""
    run = presets.reference_run()
    return full_noise_budget(
        run.system, ENV, run.transducer, run.readout,
        (run.get("budget.x_psd_mode1"), run.get("budget.x_psd_mode2")),
    )


def test_criterion_02_displacement_pipeline():
    failures = []
    budget = _reference_budget()
    _check(failures, "x mean square", budget.x_avg[0], 7.762e-29, 5e-3)
    _check(failures, "x rms", budget.x_rms[0], 8.81e-15, 5e-3)
    _check(failures, "motional noise current", budget.i_mot_noise[0], 4.9e-15, 0.02)
    _report(2, "displacement-noise pipeline with back-solved eta*omega", failures)


def test_criterion_03_readout_noise_rows():
    failures = []
    budget = _reference_budget()
    _check_true(failures, "r_x = 4 Mohm", budget.r_x == 4e6)
    _check(failures, "feedback-resistor row", budget.i_rf, 4.06e-13, 0.01)
    _check(failures, "voltage-noise row", budget.i_vn, 4.34e-13, 0.01)
    _check(failures, "current-noise row", budget.i_in, 9.92e-14, 0.01)
    _check(failures, "published-convention total", budget.i_total_paper, 1.56e-13, 0.01)
    _check(failures, "integrated total", budget.i_total_integrated, 6.03e-13, 0.01)
    rss_sq = budget.i_rf**2 + budget.i_vn**2 + budget.i_in**2
    _check(failures, "integrated RSS exactness",
           budget.i_total_integrated**2, rss_sq, 1e-14)
    _report(3, "readout noise budget rows and both totals", failures)


def test_criterion_04_total_system_noise():
    failures = []
    budget = _reference_budget()
    _check(failures, "motional noise current", budget.i_mot_noise[0], 4.9e-15, 0.02)
    total = budget.i_system_paper[0]
    _check_true(failures, "mechanical term must shift total by < 0.1%",
                total / budget.i_total_paper - 1.0 < 1e-3)
    _check(failures, "system total", total, 1.56e-13, 0.01)
    _report(4, "system noise: mechanical + readout RSS", failures)


def test_criterion_05_resolution_endpoints():
    failures = []
    report = resolution_report((0.135, 0.271), 156e-9, 180.0, "paper_simulated", kappa=-0.0032,
                               bandwidth=10.0, k_eff=122968.75, effective_resolution=3.89e-7)
    res1, res2 = report.amplitude_resolution
    _check(failures, "amplitude resolution mode 1", res1, 1.155e-6, 5e-3)
    _check(failures, "amplitude resolution mode 2", res2, 5.756e-7, 5e-3)
    _check(failures, "min detectable stiffness", report.min_detectable, 2.161e-9, 5e-3)
    _check(failures, "min detectable density", report.min_detectable_density, 6.83e-10, 5e-3)
    # the published AR headline values do not close under the printed RSS
    # formula, so the formula is held to its own invariant instead
    _check(failures, "RSS equal-arm case", report.ar_resolution[0],
           math.sqrt(2.0) * res1, 1e-12)
    _report(5, "resolution ratios and detection-limit endpoints", failures)


def test_criterion_06_db_convention():
    failures = []
    for value, target in ((7.76e-30, -582.2), (2.45e-29, -572.2)):
        db = spectral.to_db(value, spectral.DB_PAPER)
        if abs(db - target) > 0.1:
            failures.append(f"to_db({value:g}) = {db:.2f}, want {target} +- 0.1")
    _report(6, "published dB convention (20*log10 of PSD)", failures)


def test_criterion_07_modal_structure():
    failures = []
    modes = mode_analysis(build_system(presets.reference_system()))
    if abs(modes.split_hz - 7.9) > 0.1:
        failures.append(f"split = {modes.split_hz:.3f} Hz, want 7.9 +- 0.1")
    _check_true(failures, "mode 1 out-of-phase for kc < 0",
                modes.label1 == "out_of_phase")
    _check_true(failures, "mode order", modes.f1 < modes.f2)
    _report(7, "modal split and mode labeling", failures)


def test_criterion_08a_equipartition():
    failures = []
    start = time.time()
    cfg = presets.uncoupled_system(q=100.0)
    system = build_system(cfg)
    modes = mode_analysis(system)
    psd = thermal_force_psd(cfg.c1, ENV)
    plan = SimulationPlan(dt=default_timestep(modes), duration=30.0)
    series = collect(
        system, Forcing(stochastic=StochasticDrive((psd, 0.0), seed=123)), plan, ("x1",)
    )
    skip = int(0.05 * series.n_samples)
    x_sq = float(np.mean(series.x1[skip:] ** 2))
    _check(failures, "<x^2> vs kB*T/k", x_sq, 1.380649e-23 * 300.0 / cfg.km1, 0.10)
    elapsed = time.time() - start
    _check_true(failures, f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0)
    _report(8, f"(a) equipartition at Q=100 ({elapsed:.1f}s)", failures)


def _q500_system():
    ref = presets.reference_system()
    c = math.sqrt(122968.75 * ref.m1) / 500.0
    return dataclasses.replace(ref, c1=c, c2=c, cc=c)


@functools.lru_cache(maxsize=None)
def _q500_thermal_spectrum():
    """Thermal run of the Q=500 pair, streamed into its x1 Welch spectrum and
    mean square, computed once.

    Criteria 08b and 08d both check this spectrum, whichever runs first.
    """
    cfg = _q500_system()
    system = build_system(cfg)
    modes = mode_analysis(system)
    dt = default_timestep(modes)
    segment = 1 << 17
    n_segments = 240
    duration = (segment * (1 + (n_segments - 1) * 0.5) + 1) * dt
    psd_force = thermal_force_psd(cfg.c1, ENV)
    plan = SimulationPlan(dt=dt, duration=duration)
    welch = spectral.Welch(plan.n_samples, dt, segment_length=segment)
    square_sum = []

    def sink(chunk):
        welch.add(chunk["x1"])
        square_sum.append(float(np.dot(chunk["x1"], chunk["x1"])))

    simulate(system, Forcing(stochastic=StochasticDrive((psd_force, 0.0), seed=2718)),
             plan, sink, ("x1",))
    return system, modes, psd_force, welch.spectrum(), sum(square_sum) / plan.n_samples


def test_criterion_08b_simulated_psd_vs_analytic():
    failures = []
    start = time.time()
    system, modes, psd_force, spectrum, _ = _q500_thermal_spectrum()
    _check_true(failures, f"{spectrum.n_segments} segments >= 200",
                spectrum.n_segments >= 200)

    freqs = spectrum.frequencies
    band = (freqs >= 1900.0) & (freqs <= 3100.0)
    h = frequency_response(system, freqs[band])
    analytic = np.abs(h[:, 0, 0]) ** 2 * psd_force

    zone_width = (3.0 * modes.f1 / modes.modal_q1, 3.0 * modes.f2 / modes.modal_q2)
    f_band = freqs[band]
    in_zone = (np.abs(f_band - modes.f1) <= zone_width[0]) | (
        np.abs(f_band - modes.f2) <= zone_width[1]
    )

    def block_db_error(mask, block=5):
        sim = spectrum.values[band][mask]
        ana = analytic[mask]
        n = (sim.size // block) * block
        sim_b = sim[:n].reshape(-1, block).mean(axis=1)
        ana_b = ana[:n].reshape(-1, block).mean(axis=1)
        return np.max(np.abs(10.0 * np.log10(sim_b / ana_b)))

    err_off = block_db_error(~in_zone)
    err_peak = block_db_error(in_zone)
    _check_true(failures, f"off-resonance error {err_off:.2f} dB <= 1 dB", err_off <= 1.0)
    _check_true(failures, f"peak-zone error {err_peak:.2f} dB <= 3 dB", err_peak <= 3.0)
    elapsed = time.time() - start
    _check_true(failures, f"runtime {elapsed:.1f}s < 120s", elapsed < 120.0)
    _report(8, f"(b) simulated PSD vs analytic |h|^2*S_F at Q=500 ({elapsed:.1f}s)", failures)


def test_criterion_08c_steady_state_amplitude():
    failures = []
    import warnings

    cfg = presets.reference_system()
    system = build_system(cfg)
    modes = mode_analysis(system)
    amplitude = 1e-6
    plan = SimulationPlan(dt=default_timestep(modes), duration=3.5)
    projection = SteadyStateProjection(plan.n_samples, plan.record_dt, modes.f1,
                                       start_fraction=0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        simulate(system, Forcing(harmonic=(HarmonicDrive(1, amplitude, modes.f1),)), plan,
                 projection.add)
    steady = projection.result()
    h = frequency_response(system, [modes.f1])[0]
    _check(failures, "x1 amplitude vs |h11|*F", steady.amp1, abs(h[0, 0]) * amplitude, 0.01)
    _check(failures, "x2 amplitude vs |h21|*F", steady.amp2, abs(h[1, 0]) * amplitude, 0.01)
    _report(8, "(c) settled harmonic amplitude vs analytic receptance", failures)


def test_criterion_08d_parseval_on_emitted_spectra():
    failures = []
    *_, q500_spectrum, q500_mean_square = _q500_thermal_spectrum()
    collected = [("thermal Q=500 x1", q500_spectrum, q500_mean_square)]

    cfg = presets.uncoupled_system(q=100.0)
    system = build_system(cfg)
    modes = mode_analysis(system)
    plan = SimulationPlan(dt=default_timestep(modes), duration=2.0)
    series = collect(
        system,
        Forcing(stochastic=StochasticDrive((thermal_force_psd(cfg.c1, ENV), 0.0), seed=5)),
        plan,
    )
    for name, samples in (("thermal x1", series.x1), ("silent x2", series.x2)):
        collected.append((name, welch_psd(samples, series.dt), np.mean(samples**2)))

    t = np.arange(200_000) * 1e-5
    tone = 2.5e-7 * np.sin(2 * np.pi * 1234.0 * t)
    collected.append(("pure tone", welch_psd(tone, 1e-5), np.mean(tone**2)))

    for name, spectrum, mean_square in collected:
        ratio = spectral.parseval_ratio(spectrum, mean_square)
        if abs(ratio - 1.0) > 0.05:
            failures.append(f"{name}: Parseval ratio {ratio:.4f}")
    _report(8, f"(d) Parseval within 5% on {len(collected)} emitted spectra", failures)


def test_criterion_09_sensitivity_oracle():
    failures = []
    cfg = presets.reference_system()
    derived = derive_quantities(cfg)
    formula = ar_sensitivity(derived.kappa)
    errors = {"frequency": [], "ar": [], "eigenstate": []}
    for dk_norm in (1e-3, 5e-4, 2.5e-4):
        dk = dk_norm * derived.k_eff
        freq, ar, es = oracle_stiffness_shifts(cfg, dk)
        # no command reports the frequency law delta_k/(2 k_eff) or the
        # eigenstate law (half the AR shift): they are written here
        errors["frequency"].append(abs(abs(dk / (2.0 * derived.k_eff)) - freq))
        errors["ar"].append(abs(formula * dk_norm - ar))
        errors["eigenstate"].append(abs(formula * dk_norm / 2.0 - es))
    for name, errs in errors.items():
        ratio1, ratio2 = errs[0] / errs[1], errs[1] / errs[2]
        _check_true(
            failures,
            f"{name}: error ratios {ratio1:.2f}, {ratio2:.2f} >= 3 per halving",
            ratio1 >= 3.0 and ratio2 >= 3.0,
        )
    _check(failures, "1/(2|kappa|) vs published simulated 180", formula, 180.0, 0.25)
    _report(9, "first-order sensitivity formulas vs eigen-oracle", failures)


def test_criterion_10_csv_determinism(tmp_path=None):
    if tmp_path is None:  # run as a script: a private directory, removed afterwards
        with tempfile.TemporaryDirectory(prefix="crnoise-acceptance-") as tmp:
            return test_criterion_10_csv_determinism(tmp)
    failures = []
    base = Path(tmp_path)
    cfg = base / "noise.cfg"
    cfg.write_text("forcing.noise_psd = auto\nsim.duration = 0.3\n")
    outputs = []
    for label in ("one", "two"):
        out = base / label
        proc = subprocess.run(
            [sys.executable, "-m", "crnoise.cli", "psd", "--config", str(cfg),
             "--seed", "31415", "--out", str(out)],
            capture_output=True, text=True,
        )
        _check_true(failures, f"run {label} exit 0 ({proc.stderr.strip()})",
                    proc.returncode == 0)
        outputs.append(out)
    if not failures:
        for name in ("timeseries.csv", "spectrum_x1.csv", "spectrum_x2.csv"):
            same = (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
            _check_true(failures, f"{name} byte-identical", same)
    _report(10, "same seed, same stochastic command: byte-identical CSVs", failures)


def run_all() -> int:
    names = sorted(n for n in globals() if n.startswith("test_criterion"))
    failed = []
    for name in names:
        try:
            globals()[name]()
        except AssertionError as exc:
            failed.append(name)
            print(f"    detail: {exc}")
        except Exception as exc:  # unexpected breakage still yields a FAIL line
            failed.append(name)
            print(f"ACCEPTANCE ??: FAIL - {name} raised {exc!r}")
    print(f"\n{len(names) - len(failed)}/{len(names)} acceptance checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_all())
