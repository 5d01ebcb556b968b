"""Command-line front end: cr-noise-lab <command> --config <path-or-preset>.

Commands
    modes       modal frequencies, labels, quality factors
    budget      thermal + electronic noise budget tables
    simulate    time-domain run, CSV trajectory, steady-state summary
    psd         time-domain run + Welch spectra and band powers
    resolution  readout voltages, output resolution, detection limit
    sweep       modes/budget/resolution over a list of coupling springs

--config takes a file path or a shipped preset name (paper-reference,
uncoupled-demo).  Every emitted file starts with the fully resolved `# key =
value` configuration block, so re-running from that block reproduces the file
byte for byte (stochastic runs require a seed; there is no silent
nondeterminism).  Exit codes: 0 success, 1 invalid configuration (the
offending key is named), 2 numerical failure, 3 an output could not be
written, 130 interrupted (Ctrl-C; no partial output file is left).

Every command reads the run's one design, `RunConfig.design`.  simulate,
psd, the simulated budget and the sweep floors run the engine through one
function, `_stream`, which plans, forces and feeds each run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import presets, resolution as reslib
from .config import RunConfig, build_run_config, load_config_file, parse_config_text, schema_help
from .errors import ConfigError, NumericalError
from .noisebudget import (
    NoiseBudgetReport,
    analytic_displacement_psd,
    full_noise_budget,
)
from .reports import Row, csv_writer, render_table, write_report, write_rows_csv, write_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cr-noise-lab",
        description="Noise floor and resolution analysis for a weakly coupled "
        "two-resonator sensor.",
        epilog="configuration keys:\n" + schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, extra in (
        ("modes", cmd_modes, "modal frequencies and labels"),
        ("budget", cmd_budget, "thermal and electronic noise budget"),
        ("simulate", cmd_simulate, "time-domain simulation"),
        ("psd", cmd_psd, "simulation plus Welch spectra"),
        ("resolution", cmd_resolution, "output resolution and detection limit"),
        ("sweep", cmd_sweep, "coupling-strength sweep"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", default=None,
                       help="config file path or preset name "
                            f"({', '.join(presets.PRESET_NAMES)})")
        p.add_argument("--seed", type=int, default=None,
                       help="override sim.seed")
        p.add_argument("--out", default=None, help="override output.directory")
        if name == "sweep":
            p.add_argument("--kc", default=None,
                           help="comma-separated coupling springs overriding "
                                "sweep.kc_values")
        p.set_defaults(func=func)
    return parser


def _load_run(args) -> RunConfig:
    file_entries = None
    if args.config is not None:
        if args.config in presets.PRESET_NAMES:
            file_entries = parse_config_text(
                presets.preset_text(args.config), source=args.config
            )
        else:
            file_entries = load_config_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["sim.seed"] = str(args.seed)
    if args.out is not None:
        overrides["output.directory"] = args.out
    if getattr(args, "kc", None) is not None:
        overrides["sweep.kc_values"] = args.kc
    return build_run_config(file_entries, overrides)


def _out_dir(run: RunConfig) -> Path:
    out = Path(run.get("output.directory"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(run: RunConfig, stem: str, title: str, rows: list[Row], notes=(), csv=False) -> int:
    """Write the table to stem.txt, and with csv its rows to stem.csv, each under
    the echoed configuration, and print the table; every table command ends
    here, and returns its exit status, 0."""
    out = _out_dir(run)
    table = write_report(out / f"{stem}.txt", title, rows, run.echo_lines(), notes)
    if csv:
        write_rows_csv(out / f"{stem}.csv", rows, run.echo_lines())
    sys.stdout.write(table)
    return 0


# --- modes -----------------------------------------------------------------

def _modes_rows(run: RunConfig) -> list[Row]:
    design = run.design
    modes = design.modes
    ar_per_dk = reslib.ar_sensitivity(design.kappa)
    if math.isinf(ar_per_dk):
        ar_per_dk = "unbounded (degenerate)"
    return [
        Row("f1", modes.f1, "Hz", modes.label1),
        Row("f2", modes.f2, "Hz", modes.label2),
        Row("mode_split", modes.split_hz, "Hz", "f2 - f1"),
        Row("kappa", design.kappa, "-", "kc/k_eff"),
        Row("k_eff", design.k_eff, "N/m", "km + kc"),
        Row("m_eff", design.m_eff, "kg", "input"),
        Row("q", design.q, "-", "sqrt(k_eff*m_eff)/c"),
        Row("modal_q1", modes.modal_q1, "-", "projected damping"),
        Row("modal_q2", modes.modal_q2, "-", "projected damping"),
        Row("ar_sensitivity", ar_per_dk, "1/dk", "1/(2|kappa|)"),
    ]


def cmd_modes(run: RunConfig, args) -> int:
    return _emit(run, "modes", "modal analysis", _modes_rows(run))


# --- budget ------------------------------------------------------------------

def _budget_report(run: RunConfig) -> tuple[NoiseBudgetReport, str]:
    """The noise budget of the run's design, and the label of its input, the
    displacement-noise PSD at each mode."""
    source = run.get("budget.x_psd_source")
    design = run.design  # its warnings ahead of any the inputs raise
    if source == "paper":
        x_psd = run.get("budget.x_psd_mode1"), run.get("budget.x_psd_mode2")
        label = "published PSD"
    elif source == "analytic":
        x_psd, label = analytic_displacement_psd(design, run.force_psd()), "|h|^2 * S_F"
    else:  # simulated
        x_psd = tuple(_band_floors(run, design, run.require_seed(), ("x1",)))
        label = "simulated spectrum"
    return full_noise_budget(design, run.environment, run.transducer, run.readout, x_psd), label


def _budget_rows(run: RunConfig) -> tuple[list[Row], NoiseBudgetReport]:
    report, x_psd_label = _budget_report(run)
    neb = run.readout.neb_factor
    rows = [
        Row("f_noise_psd", report.f_noise_psd, "N^2/Hz", "4*kB*T*c"),
        Row("f_noise_avg", report.f_noise_avg, "N^2", "psd * B"),
        Row("f_noise_rms", report.f_noise_rms, "N", "sqrt(avg)"),
        Row("x_avg_mode1", report.x_avg[0], "m^2", x_psd_label + " * B"),
        Row("x_avg_mode2", report.x_avg[1], "m^2", x_psd_label + " * B"),
        Row("x_rms_mode1", report.x_rms[0], "m", "sqrt(avg)"),
        Row("x_rms_mode2", report.x_rms[1], "m", "sqrt(avg)"),
        Row("i_mot_noise_mode1", report.i_mot_noise[0], "A_rms", "eta*omega1*x_rms"),
        Row("i_mot_noise_mode2", report.i_mot_noise[1], "A_rms", "eta*omega2*x_rms"),
        Row("r_x", report.r_x, "ohm", "input" if run.transducer.r_x is not None else "c/eta^2"),
        Row("i_rf", report.i_rf, "A_rms", "sqrt(4*kB*T*B/R_f)"),
        Row("i_vn", report.i_vn, "A_rms", f"v_n*(1+R_x/R_f)/R_x*sqrt(B)*{neb:g}"),
        Row("i_in", report.i_in, "A_rms", f"i_n*sqrt(B)*{neb:g}"),
        Row("i_elec_total_paper", report.i_total_paper, "A", "density RSS (no B)"),
        Row("i_elec_total_integrated", report.i_total_integrated, "A_rms", "RSS of rows"),
        Row("i_system_paper_mode1", report.i_system_paper[0], "A", "RSS of mech and elec"),
        Row("i_system_paper_mode2", report.i_system_paper[1], "A", "RSS of mech and elec"),
        Row("i_system_integrated_mode1", report.i_system_integrated[0], "A_rms", "RSS of mech and elec"),
        Row("i_system_integrated_mode2", report.i_system_integrated[1], "A_rms", "RSS of mech and elec"),
        Row("dominant_source", report.dominant_source, "-", "largest component"),
    ]
    return rows, report


def _budget_footnotes(report: NoiseBudgetReport) -> tuple[str, ...]:
    implied = tuple(
        i / x if x > 0 else float("nan") for i, x in zip(report.i_mot_noise, report.x_rms)
    )
    return (
        "i_elec_total_paper follows the published final-row convention "
        "(per-rtHz densities, no bandwidth/NEB factors); "
        "i_elec_total_integrated is the internally consistent RSS of the "
        "integrated rows.",
        f"implied eta*omega from the thermal rows: mode1 = {implied[0]:.4g}, "
        f"mode2 = {implied[1]:.4g} A/m.",
    )


def cmd_budget(run: RunConfig, args) -> int:
    rows, report = _budget_rows(run)
    return _emit(run, "budget", "noise budget", rows, _budget_footnotes(report), csv=True)


# --- the engine: simulate, psd, the simulated budget and the sweep floors -------

def _planned(keys: str, build, *args):
    """build(*args), with a ValueError it raises (a step too coarse, a record too
    short) a config error on keys."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


# the keys that set the recorded samples: their step, their number and their spacing
_RECORD_KEYS = "sim.dt, sim.duration, sim.decimation"

TIMESERIES_HEADER = "t_s,x1_m,x2_m"


def _timeseries_sink(write, record_dt: float, squares: dict):
    """A consumer writing t_s,x1_m,x2_m rows through a `csv_writer`'s write
    and adding each channel's sum of squares into squares."""
    first = 0

    def add(chunk):
        nonlocal first
        x1, x2 = chunk["x1"], chunk["x2"]
        write((np.arange(first, first + x1.size) * record_dt, x1, x2))
        first += x1.size
        for name in squares:  # einsum: np.dot would wake an idle BLAS thread per chunk
            squares[name] += float(np.einsum("i,i->", chunk[name], chunk[name]))

    return add


def _setup(run: RunConfig, system, estimates, seed):
    """The plan, forcing, Welch estimates and steady-state projection that
    `_stream` runs system with, each built and checked: all that can reject
    the run raises here, before the engine starts or any file is written."""
    from . import timesim

    modes = system.modes
    dt = run.get("sim.dt")
    plan = timesim.SimulationPlan(timesim.default_timestep(modes) if dt is None else dt,
                                  run.get("sim.duration"), run.get("sim.decimation"))
    _planned("sim.dt, sim.duration", plan.check, modes)
    harmonic = ()
    if seed is None:  # the configured drives
        amplitude = run.get("forcing.harmonic_amplitude")
        if amplitude > 0:
            frequency = run.get("forcing.harmonic_frequency")
            harmonic = (timesim.HarmonicDrive(
                int(run.get("forcing.harmonic_target")), amplitude,
                {"mode1": modes.f1, "mode2": modes.f2}.get(frequency, frequency),
                run.get("forcing.harmonic_phase")),)
        if run.get("forcing.noise_psd") != 0:
            seed = run.require_seed()
    forcing = timesim.Forcing(
        harmonic, None if seed is None else timesim.StochasticDrive(run.force_psd(), seed))

    welch, steady = {}, None
    if estimates:
        from . import spectral

        welch = {name: _planned(f"analysis.segment_length, {_RECORD_KEYS}", spectral.Welch,
                                plan.n_samples, plan.record_dt,
                                run.get("analysis.segment_length"), run.get("analysis.overlap"))
                 for name in estimates}
        grid = next(iter(welch.values()))  # every channel's estimate has this grid
        for f in (modes.f1, modes.f2):  # the bands that the estimates are read in
            _planned("sim.dt, sim.decimation", grid.check_band, f, run.environment.bandwidth)
    elif harmonic:
        steady = _planned(f"forcing.harmonic_frequency, {_RECORD_KEYS}, "
                          "analysis.window_start_fraction",
                          timesim.SteadyStateProjection, plan.n_samples, plan.record_dt,
                          harmonic[0].frequency, run.get("analysis.window_start_fraction"))
    return plan, forcing, welch, steady


def _stream(run: RunConfig, system, estimates=("x1", "x2"), seed=None):
    """Run the engine once on system, the run's design or one point of it;
    the one place outside `timesim` that plans, checks (`_setup`) and feeds
    a simulation.  Returns (plan, spectra, squares, steady).

    Each channel of estimates gets a Welch estimate, spectra = {channel:
    Spectrum}; with none, a harmonic drive's steady state is projected
    (steady, else None).  Without seed the force is the configured one, the
    record of x1 and x2 goes to timeseries.csv and squares sums each one's
    squares.  Given seed, the force is the thermal force alone
    (`RunConfig.force_psd`) seeded with seed, only the estimated channels
    are formed and nothing is written.
    """
    from . import timesim

    plan, forcing, welch, steady = _setup(run, system, estimates, seed)
    csv = seed is None
    channels = ("x1", "x2") if csv else estimates
    squares = dict.fromkeys(channels, 0.0)
    consumers = [] if steady is None else [steady.add]

    def sink(chunk):
        for consume in consumers:
            consume(chunk)
        for name, accumulator in welch.items():
            accumulator.add(chunk[name])

    with (csv_writer(_out_dir(run) / "timeseries.csv", TIMESERIES_HEADER, run.echo_lines())
          if csv else contextlib.nullcontext()) as write:
        if csv:  # the CSV first, then the projection or the Welch estimates
            consumers.insert(0, _timeseries_sink(write, plan.record_dt, squares))
        timesim.simulate(system, forcing, plan, sink, channels)
    return plan, {name: w.spectrum() for name, w in welch.items()}, squares, steady


def _band_floors(run: RunConfig, system, seed, estimates=("x1", "x2")) -> list[float]:
    """Band-mean PSD of each of estimates at f1, then at f2, from one
    streamed run of system under the thermal force alone, seeded with seed."""
    from . import spectral

    spectra = _stream(run, system, estimates, seed)[1].values()
    band, modes = run.environment.bandwidth, system.modes
    return [spectral.band_mean_psd(s, f, band) for s in spectra for f in (modes.f1, modes.f2)]


def cmd_simulate(run: RunConfig, args) -> int:
    plan, _, squares, steady = _stream(run, run.design, ())
    rows = [
        Row("samples", float(plan.n_samples), "-", "recorded"),
        Row("dt", plan.record_dt, "s", "after decimation"),
        Row("duration", run.get("sim.duration"), "s", "input"),
        Row("x1_rms", math.sqrt(squares["x1"] / plan.n_samples), "m", "time average"),
        Row("x2_rms", math.sqrt(squares["x2"] / plan.n_samples), "m", "time average"),
    ]
    if steady is not None:
        result = steady.result()
        rows += [
            Row("drive_frequency", steady.frequency, "Hz", "input"),
            Row("steady_amp_x1", result.amp1, "m", "single-bin projection"),
            Row("steady_amp_x2", result.amp2, "m", "single-bin projection"),
            Row("phase_diff", result.phase_diff, "rad", "x2 - x1"),
        ]
    return _emit(run, "simulate_summary", "simulation summary", rows)


def _band_rows(name: str, spectrum: spectral.Spectrum, mean_square, modes, band: float) -> list[Row]:
    from . import spectral

    rows = []
    for mode_idx, f_mode in ((1, modes.f1), (2, modes.f2)):
        power = spectral.band_power(spectrum, f_mode, band)
        mean_psd = spectral.band_mean_psd(spectrum, f_mode, band)
        rows += [
            Row(f"{name}_band_power_f{mode_idx}", power, "m^2", f"integral over {band:g} Hz"),
            Row(f"{name}_band_psd_f{mode_idx}", mean_psd, "m^2/Hz", "band mean"),
            Row(f"{name}_band_db_paper_f{mode_idx}", spectral.to_db(mean_psd, spectral.DB_PAPER),
                "dB/Hz", "20*log10(psd)"),
            Row(f"{name}_band_db_power_f{mode_idx}", spectral.to_db(mean_psd, spectral.DB_POWER),
                "dB/Hz", "10*log10(psd)"),
        ]
    rows.append(
        Row(f"{name}_parseval_ratio", spectral.parseval_ratio(spectrum, mean_square), "-",
            "integral / mean square")
    )
    return rows


def cmd_psd(run: RunConfig, args) -> int:
    from . import spectral

    plan, spectra, squares, _ = _stream(run, run.design)
    out = _out_dir(run)
    band, modes = run.environment.bandwidth, run.design.modes
    rows = []
    for name, spectrum in spectra.items():
        spectral.write_spectrum_csv(spectrum, out / f"spectrum_{name}.csv", run.echo_lines())
        rows += _band_rows(name, spectrum, squares[name] / plan.n_samples, modes, band)
    notes = (
        "db_paper applies 20*log10 to the m^2/Hz value (the published "
        "convention, labeled dB/Hz despite the squared unit); db_power is "
        "the standard 10*log10.",
    )
    return _emit(run, "psd_summary", "spectral summary", rows, notes)


# --- resolution ---------------------------------------------------------------

def _resolution_report(run: RunConfig):
    """The resolution report, the carriers and, when the noise voltage is
    computed from it, the noise budget (else None)."""
    computed = run.get("resolution.v_noise_source") == "computed"
    budget = _budget_report(run)[0] if computed else None
    r_f = run.readout.r_f
    carriers = [reslib.carrier_voltages(run.get(f"resolution.x_mode{mode}"),
                                        run.get(f"resolution.eta_omega_mode{mode}"), r_f)
                for mode in (1, 2)]

    if run.get("resolution.v_out_source") == "paper":
        v_out = (run.get("resolution.v_out_rms_mode1"), run.get("resolution.v_out_rms_mode2"))
    else:
        v_out = tuple(rms for _, _, rms in carriers)
        for mode, rms in enumerate(v_out, start=1):
            if rms <= 0:
                raise ConfigError(f"resolution.x_mode{mode}: no carrier signal: "
                                  "the computed v_out must be > 0")
    if computed:
        v_noise = budget.i_system_paper[0] * r_f  # best-case (mode 1) mechanical term
    else:
        v_noise = run.get("resolution.v_noise_rms")

    design = run.design
    source = run.get("resolution.sensitivity_source")
    sensitivity = (
        run.get("resolution.sensitivity_paper") if source == "paper_simulated"
        else reslib.ar_sensitivity(design.kappa)
    )
    report = reslib.resolution_report(
        v_out_rms=v_out,
        v_noise_rms=v_noise,
        sensitivity=sensitivity,
        sensitivity_source=source,
        kappa=design.kappa,
        bandwidth=run.environment.bandwidth,
        k_eff=design.k_eff,
        effective_resolution=run.get("resolution.effective_resolution"),
    )
    return report, carriers, budget


def _resolution_rows(run: RunConfig, report, carriers) -> tuple[list[Row], tuple[str, ...]]:
    v_src = run.get("resolution.v_out_source")
    n_src = run.get("resolution.v_noise_source")
    rows = []
    for mode, (i_mot, peak, rms) in enumerate(carriers, start=1):
        rows += [
            Row(f"x_mode{mode}", run.get(f"resolution.x_mode{mode}"), "m_peak", "input"),
            Row(f"i_mot_mode{mode}", i_mot, "A_peak", "eta*omega*x"),
            Row(f"v_out_peak_mode{mode}", peak, "V_peak", "i_mot*R_f"),
            Row(f"v_out_rms_mode{mode}", rms, "V_rms", "peak/sqrt(2)"),
        ]
    for i in (0, 1):
        rows.append(Row(f"v_out_used_mode{i+1}", report.v_out_rms[i], "V_rms", v_src))
    rows += [
        Row("v_noise", report.v_noise_rms, "V_rms", n_src),
        Row("amplitude_resolution_mode1", report.amplitude_resolution[0], "-", "v_noise/v_out"),
        Row("amplitude_resolution_mode2", report.amplitude_resolution[1], "-", "v_noise/v_out"),
        Row("ar_resolution_mode1", report.ar_resolution[0], "-", "RSS over resonators"),
        Row("ar_resolution_mode2", report.ar_resolution[1], "-", "RSS over resonators"),
        Row("snr_mode1", report.snr[0], "-", "v_out/v_noise"),
        Row("snr_mode2", report.snr[1], "-", "v_out/v_noise"),
        Row("worst_mode", float(report.worst_mode), "-", "lowest SNR"),
        Row("sensitivity", report.sensitivity, "1/dk", report.sensitivity_source),
        Row("sensitivity_formula", report.sensitivity_formula, "1/dk", "1/(2|kappa|)"),
        Row("effective_resolution", report.effective_resolution, "-", "detection-limit input"),
        Row("min_detectable_stiffness", report.min_detectable, "N/m*", "res/sens"),
        Row("min_detectable_density", report.min_detectable_density, "N/m*/rtHz", "res/sqrt(B)/sens"),
    ]
    ratio = (
        report.sensitivity_formula / report.sensitivity
        if report.sensitivity > 0 and report.sensitivity_formula != float("inf")
        else float("nan")
    )
    notes = (
        "N/m* follows the published labeling of the normalized detection "
        f"limit; the k_eff-scaled equivalent is "
        f"{report.min_detectable_scaled:.4g} N/m.",
        f"sensitivity cross-check: formula/sensitivity ratio = {ratio:.3f}.",
    )
    return rows, notes


def cmd_resolution(run: RunConfig, args) -> int:
    report, carriers, _ = _resolution_report(run)
    rows, notes = _resolution_rows(run, report, carriers)
    return _emit(run, "resolution", "output resolution", rows, notes, csv=True)


# --- sweep --------------------------------------------------------------------

# the sources every sweep point is evaluated with, whatever the run sets
SWEEP_SOURCES = {
    "budget.x_psd_source": "analytic",
    "resolution.sensitivity_source": "formula",
    "resolution.v_out_source": "computed",
    "resolution.v_noise_source": "computed",
    "resolution.effective_resolution": "auto",
}


def _sweep_floors(run: RunConfig) -> list:
    """Simulated floor columns, one streamed run per point of the run's
    designs: the engine takes one at a time, once every point's record and
    bands have passed `_setup`.  Point i is seeded with the i-th child of
    the seed's SeedSequence, so no two points share a stream."""
    n = len(run.system.kc)
    points = list(zip((run.design.point(i) for i in range(n)),
                      np.random.SeedSequence(run.require_seed()).spawn(n)))
    for system, seed in points:  # one Welch estimate alive at a time
        _setup(run, system, ("x1",), seed)
    return list(zip(*(_band_floors(run, system, seed) for system, seed in points)))


def cmd_sweep(run: RunConfig, args) -> int:
    kc = np.array(run.get("sweep.kc_values"))
    base = build_run_config(run.entries | SWEEP_SOURCES)
    try:
        system = dataclasses.replace(base.system, kc=kc)
    except ValueError as exc:
        raise ConfigError(f"sweep.kc_values: {exc}") from exc
    base = dataclasses.replace(base, system=system)
    report, _, budget = _resolution_report(base)
    modes = base.design.modes
    columns = {
        "kc_n_per_m": kc, "kappa": base.design.kappa, "f1_hz": modes.f1, "f2_hz": modes.f2,
        "split_hz": modes.split_hz, "label1": modes.label1, "modal_q1": modes.modal_q1,
        "modal_q2": modes.modal_q2, "ar_sensitivity": report.sensitivity,
        "x_psd_mode1": budget.x_psd[0], "x_psd_mode2": budget.x_psd[1],
        "i_mot_mode1_a": budget.i_mot_noise[0], "i_mot_mode2_a": budget.i_mot_noise[1],
        "i_rf_a": budget.i_rf, "i_vn_a": budget.i_vn, "i_in_a": budget.i_in,
        "i_elec_paper_a": budget.i_total_paper, "i_elec_integrated_a": budget.i_total_integrated,
        "i_system_paper_mode1_a": budget.i_system_paper[0],
        "i_system_paper_mode2_a": budget.i_system_paper[1],
        "amp_res_mode1": report.amplitude_resolution[0],
        "amp_res_mode2": report.amplitude_resolution[1],
        "ar_res_mode1": report.ar_resolution[0], "ar_res_mode2": report.ar_resolution[1],
        "min_detectable_norm": report.min_detectable,
        "min_detectable_density": report.min_detectable_density,
    }
    if run.get("sweep.simulate_floor"):
        columns |= zip((f"floor_{x}_{f}_psd" for x in ("x1", "x2") for f in ("f1", "f2")),
                       _sweep_floors(base))
    out = _out_dir(run)
    # i_rf, i_in (and i_vn for a given r_x) do not depend on kc: scalars
    write_csv(out / "sweep.csv", ",".join(columns), np.broadcast_arrays(*columns.values()),
              run.echo_lines())
    summary = [
        Row(f"kc={k:g}", split, "Hz split", f"ar_sensitivity {sens:.4g}")
        for k, split, sens in zip(kc, modes.split_hz, report.sensitivity)
    ]
    sys.stdout.write(render_table("coupling sweep", summary))
    return 0


# --- entry point ----------------------------------------------------------------

def _attach_kc_value(argv: list[str]) -> list[str]:
    """Join `--kc -393.5,-1000` into `--kc=-393.5,-1000`.

    argparse takes a token that starts with '-' and is not a single number
    for an option flag, so a comma list of negative springs needs the joined
    form.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--kc" and re.match(r"-[\d.]", token):
            out[-1] = f"--kc={token}"
        else:
            out.append(token)
    return out


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"cr-noise-lab: warning: {message}\n"


def main(argv=None) -> int:
    if argv is None:
        # The process entry: no collection, those at exit included, walks
        # the objects import made again.  Freezing them leaks nothing (a full
        # collection after `import crnoise.cli` finds none unreachable), and
        # every output file is closed by its `with` before main returns.
        gc.freeze()
        # A warning reads as the command's own line, not a source path and line.
        import warnings
        warnings.formatwarning = _format_warning
    parser = build_parser()
    args = parser.parse_args(_attach_kc_value(sys.argv[1:] if argv is None else list(argv)))
    try:
        run = _load_run(args)
        return args.func(run, args)
    except ConfigError as exc:
        print(f"cr-noise-lab: config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"cr-noise-lab: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cr-noise-lab: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cr-noise-lab: cannot write output: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("cr-noise-lab: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
