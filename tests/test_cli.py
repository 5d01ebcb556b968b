"""Config parsing, command outputs, exit codes, determinism, round-trips."""

import dataclasses
import inspect
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import oracle_receptance

from crnoise import cli, config, timesim
from crnoise.cli import SWEEP_SOURCES, main
from crnoise.config import SCHEMA, build_run_config, parse_config_text
from crnoise.errors import ConfigError
from crnoise.noisebudget import (
    BOLTZMANN,
    Environment,
    ReadoutConfig,
    TransducerConfig,
    analytic_displacement_psd,
)
from crnoise.presets import PRESET_NAMES, preset_text
from crnoise.sysmodel import SystemConfig


def run_cli(*argv) -> int:
    return main(list(argv))


def read_csv_table(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def report_values(path):
    """quantity -> value mapping from a quantity,value,unit,source CSV."""
    header, rows = read_csv_table(path)
    assert header == ["quantity", "value", "unit", "source"]
    out = {}
    for quantity, value, _, _ in rows:
        try:
            out[quantity] = float(value)
        except ValueError:
            out[quantity] = value
    return out


# --- config parsing ------------------------------------------------------------

def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key 'system.bogus'"):
        parse_config_text("system.bogus = 1\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("system.m1 1e-4\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("system.m1 = 1e-4\nsystem.m1 = 2e-4\n")


def test_out_of_range_named():
    with pytest.raises(ConfigError, match="environment.bandwidth"):
        build_run_config({"environment.bandwidth": "0"})
    with pytest.raises(ConfigError, match="sim.decimation"):
        build_run_config({"sim.decimation": "0"})
    with pytest.raises(ConfigError, match="analysis.overlap"):
        build_run_config({"analysis.overlap": "1.0"})
    with pytest.raises(ConfigError, match="window_start_fraction = 1 out of range: must be < 1$"):
        build_run_config({"analysis.window_start_fraction": "1"})


def test_bad_value_named():
    with pytest.raises(ConfigError, match="system.kc"):
        build_run_config({"system.kc": "abc"})
    with pytest.raises(ConfigError, match="sweep.kc_values"):
        build_run_config({"sweep.kc_values": "x, y"})
    for kc in ("nan,-393.5", "-inf", "-393.5, inf"):  # else a nan row, or an unnamed error
        with pytest.raises(ConfigError, match="sweep.kc_values"):
            build_run_config({"sweep.kc_values": kc})


@pytest.mark.parametrize("given, message", [
    # an override {key: value}, or the text of a config file
    ({"sweep.simulate_floor": "yes"}, "sweep.simulate_floor: cannot parse 'yes' as bool"),
    ({"budget.x_psd_source": "Paper"},
     "budget.x_psd_source: cannot parse 'Paper' as paper|analytic|simulated"),
    ({"sweep.kc_values": " , "}, "sweep.kc_values: cannot parse ' , ' as float_list"),
    ({"system.kc": "nan"}, "system.kc: value must be finite, got 'nan'"),
    ({"system.bogus": "1"}, "unknown config key 'system.bogus'"),
    ("system.m1 =  # no value\n", "<config>:1: empty value for 'system.m1'"),
])
def test_rejection_names_its_key(given, message):
    with pytest.raises(ConfigError) as caught:
        if isinstance(given, str):
            parse_config_text(given)
        else:
            build_run_config(None, given)
    assert str(caught.value) == message


def test_comments_and_inline_comments():
    entries = parse_config_text("# a comment\nsystem.kc = -100  # inline\n")
    assert entries == {"system.kc": "-100"}


def test_defaults_match_reference_system():
    """The SCHEMA defaults are the published operating point."""
    run = build_run_config()
    assert run.design.q == pytest.approx(2547.0, rel=1e-12, abs=0)
    assert run.design.kappa == pytest.approx(-0.0032, rel=1e-12, abs=0)
    assert run.environment.temperature == 300.0
    assert run.readout.r_f == 1e6


def test_eta_auto_requires_geometry():
    with pytest.raises(ConfigError, match="transducer.eta"):
        build_run_config({"transducer.eta": "auto"})
    run = build_run_config({
        "transducer.eta": "auto",
        "transducer.v_dc": "10",
        "transducer.epsilon": "8.854e-12",
        "transducer.area": "1e-6",
        "transducer.gap": "2e-6",
    })
    assert run.transducer.eta == pytest.approx(10 * 8.854e-12 * 1e-6 / 4e-12, rel=1e-6, abs=0)


def test_presets_parse_and_cover_schema():
    defaults = build_run_config().values
    for name in PRESET_NAMES:
        entries = parse_config_text(preset_text(name), source=name)
        run = build_run_config(entries)
        assert run.system.m1 > 0
        # a preset lists only the keys it changes
        for key in entries:
            assert run.get(key) != defaults[key], f"{name}: {key} repeats its default"


# the config sections that build one run object each, field by field
SECTION_CLASSES = {
    "system": SystemConfig,
    "environment": Environment,
    "transducer": TransducerConfig,
    "readout": ReadoutConfig,
}


def test_section_keys_are_the_dataclass_fields():
    for section, cls in SECTION_CLASSES.items():
        keys = {key for key in SCHEMA if key.split(".")[0] == section}
        assert keys == {f"{section}.{f.name}" for f in dataclasses.fields(cls)}


class _RecordingValues(dict):
    """RunConfig.values that records every key read from it."""

    def __init__(self, values, read: set):
        super().__init__(values)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_key_outside_the_sections_is_read(tmp_path, monkeypatch):
    """A key that no command reads is a key that changes nothing."""
    read: set[str] = set()
    real_build = config.build_run_config

    def recording_build(*args, **kwargs):
        run = real_build(*args, **kwargs)
        run.values = _RecordingValues(run.values, read)
        return run

    monkeypatch.setattr(config, "build_run_config", recording_build)
    monkeypatch.setattr(cli, "build_run_config", recording_build)
    harmonic = tmp_path / "harmonic.cfg"
    harmonic.write_text("forcing.harmonic_amplitude = 1e-6\nsim.duration = 0.05\n")
    noise = tmp_path / "noise.cfg"
    noise.write_text(NOISE_CFG)
    floor = tmp_path / "floor.cfg"
    floor.write_text("sweep.simulate_floor = true\nsim.duration = 0.3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for argv in (
            ("modes", "--config", "paper-reference"),
            ("budget", "--config", "paper-reference"),
            ("resolution", "--config", "paper-reference"),
            ("psd", "--config", str(noise), "--seed", "5"),
            ("simulate", "--config", str(harmonic)),
            ("sweep", "--config", str(floor), "--seed", "5", "--kc", "-393.5"),
        ):
            assert run_cli(*argv, "--out", str(tmp_path / argv[0])) == 0
    unread = {key for key in SCHEMA if key.split(".")[0] not in SECTION_CLASSES} - read
    assert unread == set()


def test_negative_seed_names_the_key(tmp_path, capsys):
    assert run_cli("modes", "--seed", "-1", "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err.strip()
    assert "sim.seed" in err and err.endswith("must be >= 0")
    # a dimensionless key's range message carries no unit
    with pytest.raises(ConfigError, match=r"must be >= 0$"):
        build_run_config({"sim.seed": "-1"})


def test_seed_required_for_stochastic():
    run = build_run_config({"forcing.noise_psd": "auto"})
    with pytest.raises(ConfigError, match="sim.seed"):
        run.require_seed()


# --- commands ---------------------------------------------------------------------

def test_modes_command(tmp_path, capsys):
    assert run_cli("modes", "--config", "paper-reference", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "2474.73" in out and "2482.66" in out and "out_of_phase" in out
    text = (tmp_path / "modes.txt").read_text()
    assert "# system.kc = -393.5" in text
    assert "7.93" in text


def test_budget_command_published_rows(tmp_path):
    assert run_cli("budget", "--config", "paper-reference", "--out", str(tmp_path)) == 0
    values = report_values(tmp_path / "budget.csv")
    assert values["f_noise_psd"] == pytest.approx(5.136e-23, rel=1e-3, abs=0)
    assert values["i_rf"] == pytest.approx(4.06e-13, rel=0.01, abs=0)
    assert values["i_vn"] == pytest.approx(4.34e-13, rel=0.01, abs=0)
    assert values["i_in"] == pytest.approx(9.92e-14, rel=0.01, abs=0)
    assert values["i_elec_total_paper"] == pytest.approx(1.56e-13, rel=0.01, abs=0)
    assert values["i_elec_total_integrated"] == pytest.approx(6.03e-13, rel=0.01, abs=0)
    assert values["i_mot_noise_mode1"] == pytest.approx(4.9e-15, rel=0.02, abs=0)
    assert values["dominant_source"] == "amplifier_voltage_noise"


def test_budget_rows_name_the_configured_neb_factor(tmp_path):
    """readout.neb_factor scales the i_vn and i_in rows, and their source column
    names it; the density total carries no NEB factor."""
    rows = {}
    for name, text in (("default", ""), ("neb2", "readout.neb_factor = 2\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        assert run_cli("budget", "--config", str(cfg), "--out", str(tmp_path / name)) == 0
        _, table = read_csv_table(tmp_path / name / "budget.csv")
        rows[name] = {quantity: (value, source) for quantity, value, _, source in table}
    default, neb2 = rows["default"], rows["neb2"]
    assert default["i_vn"][1] == "v_n*(1+R_x/R_f)/R_x*sqrt(B)*1.57"
    assert default["i_in"][1] == "i_n*sqrt(B)*1.57"
    assert neb2["i_vn"][1] == "v_n*(1+R_x/R_f)/R_x*sqrt(B)*2"
    assert neb2["i_in"][1] == "i_n*sqrt(B)*2"
    for quantity in ("i_vn", "i_in"):
        assert float(neb2[quantity][0]) / float(default[quantity][0]) == pytest.approx(
            2 / 1.57, rel=1e-9, abs=0)
    for quantity in ("i_rf", "i_elec_total_paper"):
        assert neb2[quantity] == default[quantity]


def test_resolution_command_published_rows(tmp_path):
    assert run_cli("resolution", "--config", "paper-reference", "--out", str(tmp_path)) == 0
    values = report_values(tmp_path / "resolution.csv")
    assert values["amplitude_resolution_mode1"] == pytest.approx(1.155e-6, rel=5e-3, abs=0)
    assert values["amplitude_resolution_mode2"] == pytest.approx(5.756e-7, rel=5e-3, abs=0)
    assert values["min_detectable_stiffness"] == pytest.approx(2.161e-9, rel=5e-3, abs=0)
    assert values["min_detectable_density"] == pytest.approx(6.83e-10, rel=5e-3, abs=0)
    assert values["sensitivity"] == 180.0
    assert values["sensitivity_formula"] == pytest.approx(156.25, rel=1e-6, abs=0)
    assert values["i_mot_mode1"] == pytest.approx(1.92e-7, rel=5e-3, abs=0)
    assert values["v_out_peak_mode1"] == pytest.approx(0.192, rel=5e-3, abs=0)


# --- the force model: one (S1, S2) pair for every route -----------------------------

FORCE_PAIR = {"system.c2": "0.0062", "forcing.noise_psd": "auto", "sim.seed": "3"}


@pytest.mark.filterwarnings("ignore:cc differs from c1/c2")
@pytest.mark.parametrize("target", ["1", "2", "both"])
def test_engine_and_analytic_read_one_force_pair(target):
    """With c2 = 2 c1, RunConfig.force_psd is 4 kB T c_i on the targets; the
    engine, set up by cli._setup with the configured forcing or the floors'
    thermal force alone, draws one stream per nonzero S_i, the k-th seeded
    seed ^ k, with sigma_i^2 2 dt = S_i; the analytic route is
    sum_j |h_1j|^2 S_j of the same pair."""
    run = build_run_config(FORCE_PAIR | {"forcing.noise_target": target})
    s_f = run.force_psd()
    kt4 = 4.0 * BOLTZMANN * 300.0
    assert s_f == pytest.approx(tuple(kt4 * c if target in (i, "both") else 0.0
                                      for i, c in (("1", 0.0031), ("2", 0.0062))),
                                rel=1e-12, abs=0)
    system = run.design
    modes = system.modes
    (plan, forcing, *_), (floor_plan, floor, *_) = (cli._setup(run, system, (), seed)
                                                     for seed in (None, 3))
    configured, dt = forcing.stochastic, plan.dt
    assert floor.stochastic == configured and floor_plan == plan
    streams = timesim._noise_streams(configured, dt)
    assert [row for row, _, _ in streams] == [j for j in (0, 1) if s_f[j] > 0]
    for k, (row, rng, sigma) in enumerate(streams):
        assert sigma**2 * 2.0 * dt == pytest.approx(s_f[row], rel=1e-12, abs=0)
        assert np.array_equal(rng.standard_normal(8),
                              np.random.default_rng(3 ^ k).standard_normal(8))
    x_psd = analytic_displacement_psd(system, s_f)
    for f_mode, got in zip((modes.f1, modes.f2), x_psd):
        h = oracle_receptance(system.mass, system.damping, system.stiffness, f_mode)
        want = sum(abs(h[0, j]) ** 2 * s_f[j] for j in (0, 1))
        assert got == pytest.approx(want, rel=1e-10, abs=0)
    analytic = build_run_config(FORCE_PAIR | {"forcing.noise_target": target,
                                              "budget.x_psd_source": "analytic"})
    assert cli._budget_report(analytic)[0].x_psd == x_psd


def test_analytic_budget_reads_an_explicit_force_psd():
    """forcing.noise_psd = p is the force the analytic route budgets: p / (4 kB T c1)
    times its value under auto."""
    p = 4e-23
    reports = [cli._budget_report(build_run_config({"budget.x_psd_source": "analytic",
                                                     "forcing.noise_psd": level}))[0]
               for level in ("auto", repr(p))]
    scale = p / (4.0 * BOLTZMANN * 300.0 * 0.0031)
    for auto, explicit in zip(*(r.x_psd for r in reports)):
        assert explicit == pytest.approx(scale * auto, rel=1e-12, abs=0)


def simulated_budget_rows(tmp_path, name, extra):
    """The data rows of a 0.3 s simulated budget.csv at seed 1."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("budget.x_psd_source = simulated\nsim.duration = 0.3\n" + extra)
    out = tmp_path / name
    assert run_cli("budget", "--config", str(cfg), "--seed", "1", "--out", str(out)) == 0
    return read_csv_table(out / "budget.csv")


def test_simulated_budget_models_the_force_at_zero(tmp_path):
    """forcing.noise_psd = 0 means 4 kB T c_i to the simulated route, as auto does."""
    assert (simulated_budget_rows(tmp_path, "zero", "forcing.noise_psd = 0\n")
            == simulated_budget_rows(tmp_path, "auto", "forcing.noise_psd = auto\n"))


def test_simulated_budget_runs_the_thermal_force_alone(tmp_path):
    """A configured harmonic drive does not enter the simulated noise budget."""
    noise = "forcing.noise_psd = auto\n"
    drive = "forcing.harmonic_amplitude = 1e-9\nforcing.harmonic_frequency = mode1\n"
    assert (simulated_budget_rows(tmp_path, "driven", noise + drive)
            == simulated_budget_rows(tmp_path, "noise", noise))


def test_simulate_zero_forcing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration = 0.02\n")
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 0
    header, rows = read_csv_table(tmp_path / "timeseries.csv")
    assert header == ["t_s", "x1_m", "x2_m"]
    data = np.array([[float(v) for v in row] for row in rows])
    assert np.all(data[:, 1:] == 0.0)


def test_simulate_harmonic_summary(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "forcing.harmonic_amplitude = 1e-6\n"
        "forcing.harmonic_frequency = mode1\n"
        "sim.duration = 3.0\n"
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 0
    text = (tmp_path / "simulate_summary.txt").read_text()
    assert "steady_amp_x1" in text


def test_simulate_alias_image_on_drive_named(tmp_path, capsys):
    """At decimation 25 the record's Nyquist frequency is f2 (auto dt is
    1/(50 f2)), so a mode-2 drive's alias image falls on the drive: the run
    is refused before it starts.  At decimation 30 the image lies clear, and
    the projection reads what it reads on the full record."""
    summaries = {}
    for decimation in (1, 25, 30):
        cfg = tmp_path / f"dec{decimation}.cfg"
        cfg.write_text("forcing.harmonic_amplitude = 1e-6\n"
                       "forcing.harmonic_frequency = mode2\n"
                       f"sim.duration = 1.0\nsim.decimation = {decimation}\n")
        out = tmp_path / f"dec{decimation}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        if decimation == 25:
            assert code == 1
            assert "sim.decimation" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            summaries[decimation] = table_rows(out / "simulate_summary.txt")
    for quantity in ("steady_amp_x1", "steady_amp_x2", "phase_diff"):
        assert float(summaries[30][quantity][0]) == pytest.approx(
            float(summaries[1][quantity][0]), rel=1e-4, abs=0)


NOISE_CFG = "forcing.noise_psd = auto\nsim.duration = 0.3\n"


def test_psd_command_outputs(tmp_path):
    cfg = tmp_path / "noise.cfg"
    cfg.write_text(NOISE_CFG)
    assert run_cli("psd", "--config", str(cfg), "--seed", "5",
                   "--out", str(tmp_path)) == 0
    for name in ("timeseries.csv", "spectrum_x1.csv", "spectrum_x2.csv", "psd_summary.txt"):
        assert (tmp_path / name).exists()
    header, rows = read_csv_table(tmp_path / "spectrum_x1.csv")
    assert header == ["f_hz", "psd", "psd_db_paper", "psd_db_power"]
    # no partial files left behind
    assert not list(tmp_path.glob("*.part"))


def test_psd_harmonic_peak_and_band_power(tmp_path):
    """Driven run: spectrum peak lands within df of the drive, band power = A^2/2."""
    import numpy as np
    from crnoise import Environment, build_system, frequency_response
    from crnoise.presets import uncoupled_system

    f_drive, force = 1200.0, 1e-6
    cfg = tmp_path / "drive.cfg"
    cfg.write_text(
        "system.km1 = 122968.75\nsystem.km2 = 122968.75\nsystem.kc = 0\n"
        "system.c1 = 0.078957\nsystem.c2 = 0.078957\nsystem.cc = 0\n"
        f"forcing.harmonic_amplitude = {force}\n"
        f"forcing.harmonic_frequency = {f_drive}\n"
        "sim.duration = 4.0\n"
        "analysis.segment_length = 131072\n"
    )
    assert run_cli("psd", "--config", str(cfg), "--out", str(tmp_path)) == 0
    header, rows = read_csv_table(tmp_path / "spectrum_x1.csv")
    data = np.array([[float(r[0]), float(r[1])] for r in rows])
    freqs, psd = data[:, 0], data[:, 1]
    df = freqs[1] - freqs[0]
    assert abs(freqs[int(np.argmax(psd))] - f_drive) <= df
    # off-resonance drive: no slow settling, so Parseval closes on A^2/2
    system = build_system(uncoupled_system(q=100.0))
    amp = abs(frequency_response(system, [f_drive])[0, 0, 0]) * force
    band = (freqs >= f_drive - 5.0) & (freqs <= f_drive + 5.0)
    band_power = float(np.trapezoid(psd[band], freqs[band]))
    assert band_power == pytest.approx(amp**2 / 2.0, rel=0.02, abs=0)


def test_budget_all_zero_in_noiseless_limit(tmp_path):
    cfg = tmp_path / "cold.cfg"
    cfg.write_text(
        "environment.temperature = 0\nreadout.i_n = 0\nreadout.v_n = 0\n"
        "budget.x_psd_mode1 = 0\nbudget.x_psd_mode2 = 0\n"
    )
    assert run_cli("budget", "--config", str(cfg), "--out", str(tmp_path)) == 0
    values = report_values(tmp_path / "budget.csv")
    for quantity, value in values.items():
        if isinstance(value, float) and quantity != "r_x":
            assert value == 0.0, quantity


def test_resolution_zero_noise_voltage(tmp_path):
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text(
        "resolution.v_noise_source = paper\nresolution.v_noise_rms = 0\n"
        "resolution.effective_resolution = auto\n"
    )
    assert run_cli("resolution", "--config", str(cfg), "--out", str(tmp_path)) == 0
    values = report_values(tmp_path / "resolution.csv")
    for mode in (1, 2):
        assert values[f"amplitude_resolution_mode{mode}"] == 0.0
        assert values[f"ar_resolution_mode{mode}"] == 0.0
    assert values["min_detectable_stiffness"] == 0.0


def test_zero_carrier_names_the_drive_key(tmp_path, capsys):
    """A zero drive amplitude leaves no computed carrier: resolution and sweep
    exit 1 naming the key.  The published-voltage route does not use it."""
    for mode in (1, 2):
        cfg = tmp_path / f"still{mode}.cfg"
        cfg.write_text(f"resolution.x_mode{mode} = 0\n")
        for command in ("resolution", "sweep"):
            capsys.readouterr()
            assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"cr-noise-lab: config error: resolution.x_mode{mode}: "
                                  "no carrier signal"), err
    cfg = tmp_path / "published.cfg"
    cfg.write_text("resolution.x_mode1 = 0\nresolution.v_out_source = paper\n")
    assert run_cli("resolution", "--config", str(cfg), "--out", str(tmp_path)) == 0
    values = report_values(tmp_path / "resolution.csv")
    assert values["v_out_peak_mode1"] == 0.0 and values["v_out_used_mode1"] == 0.135


def test_psd_reference_mode1_quieter(tmp_path):
    """Thermal drive on the reference pair: mode-1 band power below mode 2."""
    cfg = tmp_path / "ref_noise.cfg"
    cfg.write_text(
        "forcing.noise_psd = auto\n"
        "sim.duration = 4.0\n"
        "analysis.segment_length = 65536\n"
    )
    assert run_cli("psd", "--config", str(cfg), "--seed", "6",
                   "--out", str(tmp_path)) == 0
    # psd_summary.txt is a text table; pull the two band powers directly
    text = (tmp_path / "psd_summary.txt").read_text()
    powers = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in ("x1_band_power_f1", "x1_band_power_f2"):
            powers[parts[0]] = float(parts[1])
    assert powers["x1_band_power_f1"] < powers["x1_band_power_f2"]


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("system.nope = 1\n")
    assert run_cli("modes", "--config", str(bad)) == 1
    # stochastic run without a seed
    assert run_cli("simulate", "--config", "paper-reference", "--out", str(tmp_path)) == 1
    # undamped analytic budget hits the singular receptance
    undamped = tmp_path / "undamped.cfg"
    undamped.write_text(
        "system.c1 = 0\nsystem.c2 = 0\nsystem.cc = 0\nbudget.x_psd_source = analytic\n"
    )
    assert run_cli("budget", "--config", str(undamped), "--out", str(tmp_path)) == 2
    assert run_cli("modes", "--config", str(tmp_path / "missing.cfg")) == 1


def test_undamped_harmonic_run_names_the_damping(tmp_path, capsys):
    """A drive at a mode of an undamped pair, at 200 steps per period: its
    steady state dwarfs a 0.1 s record, whose sum with it would hold ~1e-9
    of full scale, so the run fails naming the damping keys and writes
    nothing."""
    cfg = tmp_path / "undamped.cfg"
    cfg.write_text("system.c1 = 0\nsystem.c2 = 0\nsystem.cc = 0\n"
                   "forcing.harmonic_amplitude = 1e-9\nsim.duration = 0.1\nsim.dt = 2.0139e-06\n")
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "numerical failure: x1 is accurate to only" in err
    assert "raise system.c1, system.c2 or system.cc" in err
    assert not list((tmp_path / "out").glob("*"))


def test_undamped_pair_with_derived_r_x_names_the_keys(tmp_path, capsys):
    """An undamped pair has no motional resistance c/eta^2 to derive: budget
    and resolution exit 1 with a config error naming transducer.r_x and the
    damping keys, and write nothing."""
    cfg = tmp_path / "undamped.cfg"
    cfg.write_text("system.c1 = 0\nsystem.c2 = 0\nsystem.cc = 0\ntransducer.r_x = auto\n")
    for command in ("budget", "resolution"):
        out = tmp_path / command
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("cr-noise-lab: config error: "
                              "transducer.r_x, system.c1, system.c2: "), err
        assert not out.exists()


def test_unwritable_output_exit_code(tmp_path, capsys):
    blocker = tmp_path / "plain_file"
    blocker.write_text("not a directory\n")
    assert run_cli("modes", "--config", "paper-reference",
                   "--out", str(blocker / "results")) == 3
    assert "cr-noise-lab: cannot write output:" in capsys.readouterr().err


def test_missing_preset_file_is_a_config_error(tmp_path, monkeypatch, capsys):
    """A shipped preset whose file the install lacks (a build without its
    package data) is a config error naming the preset and the file, exit 1,
    as an unreadable --config file is; nothing is written."""
    import importlib.resources

    install = tmp_path / "install"
    monkeypatch.setattr(importlib.resources, "files", lambda package: install)
    out = tmp_path / "out"
    assert run_cli("modes", "--config", "paper-reference", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("cr-noise-lab: config error: cannot read shipped preset "
                          f"'paper-reference' from {install / 'data' / 'paper_reference.cfg'}: "
                          "[Errno 2] "), err
    assert not out.exists()


def test_interrupt_exit_code(tmp_path):
    """Ctrl-C during a run exits 130 with a named message and leaves no
    partial timeseries.csv.  Run in a child process, so that an interrupt
    the CLI does not catch cannot end the test session."""
    cfg = tmp_path / "noise.cfg"
    cfg.write_text(NOISE_CFG)
    out = tmp_path / "out"
    script = f"""
import sys, warnings
from crnoise import cli, timesim
warnings.simplefilter("ignore")
timesim._CHUNK_STEPS = 4096
scan = timesim._run_scan

def interrupted(*args):
    for index, chunk in enumerate(scan(*args), 1):  # chunk 0 is the initial state
        if index == 3:
            raise KeyboardInterrupt
        yield chunk

timesim._run_scan = interrupted
sys.exit(cli.main(["psd", "--config", {str(cfg)!r}, "--seed", "5", "--out", {str(out)!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 130, proc.stderr
    assert proc.stderr.strip().endswith("cr-noise-lab: interrupted")
    assert not (out / "timeseries.csv").exists() and not list(out.glob("*.part"))


def test_uncoupled_demo_preset_loads(tmp_path, capsys):
    assert run_cli("modes", "--config", "uncoupled-demo", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "degenerate" in out


# --- sweep -----------------------------------------------------------------------

def test_sweep_published_pair(tmp_path):
    assert run_cli("sweep", "--config", "paper-reference", "--out", str(tmp_path)) == 0
    header, rows = read_csv_table(tmp_path / "sweep.csv")
    assert [r[0] for r in rows] == ["-393.5", "-1000"]
    split = {float(r[0]): float(r[header.index("split_hz")]) for r in rows}
    # the stronger coupling widens the split by ~2.55x
    assert split[-1000.0] / split[-393.5] == pytest.approx(2.548, rel=2e-3, abs=0)
    sens = [float(r[header.index("ar_sensitivity")]) for r in rows]
    assert sens[0] == pytest.approx(156.25, rel=1e-6, abs=0)
    assert sens == sorted(sens, reverse=True)  # decreases as |kc| grows


def test_sweep_kc_override_and_monotonicity(tmp_path):
    assert run_cli("sweep", "--config", "paper-reference",
                   "--kc", "-200, -400, -800, -1600", "--out", str(tmp_path)) == 0
    header, rows = read_csv_table(tmp_path / "sweep.csv")
    sens = [float(r[header.index("ar_sensitivity")]) for r in rows]
    assert all(a > b for a, b in zip(sens, sens[1:]))


def test_sweep_kc_negative_list_without_spaces(tmp_path):
    assert run_cli("sweep", "--config", "paper-reference",
                   "--kc", "-393.5,-1000", "--out", str(tmp_path)) == 0
    _, rows = read_csv_table(tmp_path / "sweep.csv")
    assert [r[0] for r in rows] == ["-393.5", "-1000"]


def test_sweep_indefinite_kc_names_the_key(tmp_path, capsys):
    """A kc that makes the stiffness matrix indefinite is a config error on
    sweep.kc_values, from the flag and from a config file alike."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("sweep.kc_values = -393.5, -70000\n")
    for args in (("--config", "paper-reference", "--kc=-393.5,-70000"), ("--config", str(cfg))):
        assert run_cli("sweep", *args, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("cr-noise-lab: config error: sweep.kc_values: "), err
        assert "not positive definite" in err
        assert not (tmp_path / "out" / "sweep.csv").exists()


def table_rows(path):
    """quantity -> (value, source) cells of a rendered report table."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    cells = [re.split(r"\s{2,}", l.strip()) for l in lines[4:] if not l.startswith("note:")]
    return {quantity: (value, source) for quantity, value, _, source in cells}


# sweep column -> the quantity that modes (6 digits), budget or resolution
# (12 digits) report for the same design
SWEEP_COLUMNS = {
    "modes": {"kappa": "kappa", "f1_hz": "f1", "f2_hz": "f2", "split_hz": "mode_split",
              "modal_q1": "modal_q1", "modal_q2": "modal_q2"},
    "budget": {"i_mot_mode1_a": "i_mot_noise_mode1", "i_mot_mode2_a": "i_mot_noise_mode2",
               "i_rf_a": "i_rf", "i_vn_a": "i_vn", "i_in_a": "i_in",
               "i_elec_paper_a": "i_elec_total_paper",
               "i_elec_integrated_a": "i_elec_total_integrated",
               "i_system_paper_mode1_a": "i_system_paper_mode1",
               "i_system_paper_mode2_a": "i_system_paper_mode2"},
    "resolution": {"ar_sensitivity": "sensitivity_formula",
                   "amp_res_mode1": "amplitude_resolution_mode1",
                   "amp_res_mode2": "amplitude_resolution_mode2",
                   "ar_res_mode1": "ar_resolution_mode1", "ar_res_mode2": "ar_resolution_mode2",
                   "min_detectable_norm": "min_detectable_stiffness",
                   "min_detectable_density": "min_detectable_density"},
}


@pytest.mark.filterwarnings("ignore:cc differs from c1/c2")
def test_sweep_single_point_matches_budget(tmp_path, capsys):
    """Each sweep row equals modes, budget and resolution run at its kc.

    Those commands run with SWEEP_SOURCES, the sources the sweep evaluates
    every design with, on both presets, at kc values that include 0 and a
    positive spring.  uncoupled-demo derives r_x = c/eta^2 per design, so its
    sweep takes the electronic budget of an array of motional resistances.
    """
    kcs = ("-393.5", "0", "250", "-1000")
    for preset in PRESET_NAMES:
        out = tmp_path / preset
        assert run_cli("sweep", "--config", preset, "--kc=" + ",".join(kcs),
                       "--out", str(out)) == 0
        header, rows = read_csv_table(out / "sweep.csv")
        assert [r[0] for r in rows] == list(kcs)
        for kc, cells in zip(kcs, rows):
            row = dict(zip(header, cells))
            entries = parse_config_text(preset_text(preset)) | SWEEP_SOURCES | {"system.kc": kc}
            cfg = out / f"kc{kc}.cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
            point = out / f"kc{kc}"
            for command in SWEEP_COLUMNS:
                assert run_cli(command, "--config", str(cfg), "--out", str(point)) == 0
            modes = table_rows(point / "modes.txt")
            budget = report_values(point / "budget.csv")
            resolution = report_values(point / "resolution.csv")
            assert row["label1"] == modes["f1"][1]
            for column, quantity in SWEEP_COLUMNS["modes"].items():
                assert float(row[column]) == pytest.approx(float(modes[quantity][0]),
                                                           rel=1e-5, abs=0)
            for reported, command in ((budget, "budget"), (resolution, "resolution")):
                for column, quantity in SWEEP_COLUMNS[command].items():
                    assert float(row[column]) == pytest.approx(reported[quantity], rel=1e-9, abs=0)
            for mode in ("1", "2"):  # x_avg = x_psd * B, B = 10 Hz in both presets
                assert float(row[f"x_psd_mode{mode}"]) * 10.0 == pytest.approx(
                    budget[f"x_avg_mode{mode}"], rel=1e-9, abs=0)
            # v_noise = I_system * R_f, R_f = 1 Mohm in both presets
            assert resolution["v_noise"] == pytest.approx(
                budget["i_system_paper_mode1"] * 1e6, rel=1e-9, abs=0)
            r_x_source = table_rows(point / "budget.txt")["r_x"][1]
            assert r_x_source == ("c/eta^2" if preset == "uncoupled-demo" else "input")
    capsys.readouterr()
    assert run_cli("sweep", "--config", "paper-reference", "--kc=-393.5,-70000",
                   "--out", str(tmp_path / "bad")) == 1
    assert "km1 + 2*kc = -16637.8 <= 0" in capsys.readouterr().err


def test_defaults_run_without_consistency_warning(tmp_path):
    """The default transducer is the published one; it must not warn about itself.

    Nor must uncoupled-demo, whose readout uses its own resonator's r_x.
    """
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("budget", "--config", str(cfg), "--out", str(tmp_path / "b")) == 0
        assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "s")) == 0
        assert run_cli("budget", "--config", "uncoupled-demo",
                       "--out", str(tmp_path / "u")) == 0
    from_budget = [w for w in caught if issubclass(w.category, UserWarning)
                   and w.filename.endswith("noisebudget.py")]
    assert from_budget == []


def test_sweep_simulate_floor_seeded(tmp_path):
    """Seeded simulated floors: four positive PSD columns, byte-identical reruns."""
    cfg = tmp_path / "floor.cfg"
    cfg.write_text(
        "sweep.kc_values = -393.5, -1000\n"
        "sweep.simulate_floor = true\n"
        "sim.duration = 0.3\n"
    )
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert run_cli("sweep", "--config", str(cfg), "--seed", "4", "--out", str(d)) == 0
    header, rows = read_csv_table(dirs[0] / "sweep.csv")
    floor = [c for c in header if c.startswith("floor_")]
    assert len(floor) == 4 and len(rows) == 2
    for r in rows:
        assert all(float(r[header.index(c)]) > 0 for c in floor)
    assert (dirs[0] / "sweep.csv").read_bytes() == (dirs[1] / "sweep.csv").read_bytes()


def test_floor_points_draw_no_stream_of_another(tmp_path):
    """Two floor points at one kc under target both, at an even seed, draw
    their own forces: point 1's floors are not point 0's with the resonators
    swapped, which seeding point i with seed + i and its k-th stream with
    (seed + i) ^ k gives."""
    cfg = tmp_path / "floor.cfg"
    cfg.write_text("sweep.kc_values = -393.5, -393.5\nsweep.simulate_floor = true\n"
                   "forcing.noise_target = both\nsim.duration = 0.3\n")
    assert run_cli("sweep", "--config", str(cfg), "--seed", "2", "--out", str(tmp_path)) == 0
    header, rows = read_csv_table(tmp_path / "sweep.csv")
    point0, point1 = ({c: cell for c, cell in zip(header, r) if c.startswith("floor_")}
                      for r in rows)
    assert len(point0) == 4
    assert set(point0.values()).isdisjoint(point1.values()), (point0, point1)


def test_every_floor_stream_has_its_own_seed_sequence(tmp_path, monkeypatch):
    """Over a 4-point floor sweep under target both, the eight noise streams
    of the drives `_setup` builds each draw from a SeedSequence of its own
    (entropy, spawn key), all in the one tree of the run's seed."""
    drives, setup = [], cli._setup

    def spy(*args):
        built = setup(*args)
        drives.append(built[1].stochastic)
        return built

    monkeypatch.setattr(cli, "_setup", spy)
    cfg = tmp_path / "floor.cfg"
    cfg.write_text("sweep.kc_values = -393.5, -1000, -393.5, 250\nsweep.simulate_floor = true\n"
                   "forcing.noise_target = both\nsim.duration = 0.3\n")
    assert run_cli("sweep", "--config", str(cfg), "--seed", "2", "--out", str(tmp_path)) == 0
    sequences = [rng.bit_generator.seed_seq for drive in drives
                 for _, rng, _ in timesim._noise_streams(drive, 1e-5)]
    assert len(sequences) == 2 * len(drives) >= 16
    assert len({(s.entropy, s.spawn_key) for s in sequences}) == 8
    assert {s.entropy for s in sequences} == {2}


def test_simulated_budget_memory_flat_in_duration(tmp_path, monkeypatch):
    """Every command that simulates streams the engine's record: the
    simulated budget route into Welch, psd and simulate into their sums and
    timeseries.csv as well.  Each one's traced peak at 20 s is within 10% of
    that at 2 s (a held record is ~40 MB at 20 s undecimated, ~4 MB at
    decimation 10).  A first run takes the one-time allocations.  Each
    chunk goes to the sink on the engine's thread here: how many chunks the
    threaded handoff holds at once depends on the two threads' timing, not
    on the run's length, and test_engine_runs_ahead_of_a_slow_sink bounds
    that count."""
    import contextlib
    import io
    import tracemalloc

    noise = "forcing.noise_psd = auto\nanalysis.segment_length = 4096\n"
    runs = {
        "budget": noise + "budget.x_psd_source = simulated\nforcing.noise_target = both\n",
        "psd": noise + "sim.decimation = 10\n",
        "simulate": noise + "sim.decimation = 10\nforcing.harmonic_amplitude = 1e-6\n"
                            "forcing.harmonic_frequency = mode1\n",
    }

    def peak(command: str, duration: float) -> int:
        cfg = tmp_path / f"{command}_{duration}.cfg"
        cfg.write_text(runs[command] + f"sim.duration = {duration}\n")
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert run_cli(command, "--config", str(cfg), "--seed", "3",
                               "--out", str(tmp_path / "out")) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def drain(sink, chunks, depth):
        for chunk in chunks:
            sink(chunk)

    monkeypatch.setattr(timesim, "_drain", drain)
    for command in runs:
        peak(command, 2.0)
        short, long = peak(command, 2.0), peak(command, 20.0)
        assert long <= 1.1 * short, (command, short, long)


def test_too_short_record_fails_before_writing(tmp_path, capsys):
    """A Welch segment longer than the record, a steady-state window of fewer
    than 50 drive cycles or with the drive's alias image on it, a step too
    coarse for the modes, a run shorter than one step and a mode band
    reaching past the record's Nyquist frequency are each a config error
    naming the keys that set the record, raised before any output is
    written."""
    harmonic = "forcing.harmonic_amplitude = 1e-6\nforcing.harmonic_frequency = mode1\n"
    cases = [
        ("psd", "sim.duration = 0.05\nanalysis.segment_length = 65536\n",
         ("analysis.segment_length", "sim.duration", "sim.dt", "sim.decimation")),
        ("psd", "sim.duration = 0.0002\n", ("analysis.segment_length", "sim.duration", "sim.dt")),
        ("simulate", harmonic + "sim.duration = 0.01\n",
         ("sim.duration", "sim.dt", "analysis.window_start_fraction",
          "forcing.harmonic_frequency")),
        ("simulate", "sim.dt = 1\n", ("sim.dt",)),
        ("psd", NOISE_CFG + "sim.dt = 1\nsim.seed = 1\n", ("sim.dt",)),
        ("simulate", "sim.duration = 1e-9\n", ("sim.duration", "sim.dt")),
        # just below the Nyquist frequency of the automatic step, 1/(50 f2)
        ("simulate", "forcing.harmonic_amplitude = 1e-6\n"
                     "forcing.harmonic_frequency = 62065.9\n",
         ("forcing.harmonic_frequency", "sim.dt", "sim.decimation")),
    ]
    # records whose Nyquist frequency lies below both modes' bands (62 Hz at
    # decimation 1000) or is f2 itself, inside mode 2's band (decimation 25)
    cases += [(command, f"forcing.noise_psd = auto\nsim.decimation = {decimation}\n"
                        "sim.seed = 1\n" + text, ("sim.dt", "sim.decimation"))
              for decimation in (1000, 25)
              for command, text in (("psd", ""),
                                    ("budget", "budget.x_psd_source = simulated\n"),
                                    ("sweep", "sweep.simulate_floor = true\n"))]
    for i, (command, text, keys) in enumerate(cases):
        cfg = tmp_path / f"case{i}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"out{i}"
        out.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("cr-noise-lab: config error: "), err
        assert all(key in err for key in keys), err
        assert list(out.iterdir()) == []


def test_floor_sweep_checks_every_point_before_the_first_runs(tmp_path, capsys,
                                                             monkeypatch):
    """A floor sweep whose last point lifts f2's band past the record's
    Nyquist frequency (3125 Hz) fails before the engine runs any point."""
    runs = []
    monkeypatch.setattr(timesim, "simulate", lambda *args: runs.append(args))
    cfg = tmp_path / "floor.cfg"
    cfg.write_text("sweep.kc_values = -393.5, 40000\nsim.dt = 8e-6\nsim.decimation = 20\n"
                   "sweep.simulate_floor = true\nsim.seed = 1\n")
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("cr-noise-lab: config error: sim.dt, sim.decimation: band "), err
    assert runs == [] and list(out.iterdir()) == []


def test_resolution_with_published_noise_reads_no_budget(tmp_path, monkeypatch):
    """With resolution.v_noise_source = paper no budget is read, so a
    simulated budget source neither needs a seed nor runs the engine, and
    the rows are those of the published PSD source."""
    runs = []
    monkeypatch.setattr(timesim, "simulate", lambda *args: runs.append(args))
    cfg = tmp_path / "simulated.cfg"
    cfg.write_text(preset_text("paper-reference") + "budget.x_psd_source = simulated\n")
    assert run_cli("resolution", "--config", str(cfg), "--out", str(tmp_path / "sim")) == 0
    assert runs == []
    assert run_cli("resolution", "--config", "paper-reference",
                   "--out", str(tmp_path / "paper")) == 0
    assert read_csv_table(tmp_path / "sim" / "resolution.csv") == \
        read_csv_table(tmp_path / "paper" / "resolution.csv")


def test_outputs_independent_of_chunk_length(tmp_path, monkeypatch):
    """Every file psd and simulate write is byte-identical whether the engine
    hands out chunks of the default length or of 4096 steps."""
    runs = {
        "psd": NOISE_CFG,
        "simulate": "forcing.noise_psd = auto\nsim.duration = 1.0\nsim.decimation = 7\n"
                    "forcing.harmonic_amplitude = 1e-6\nforcing.harmonic_frequency = mode1\n",
    }
    for command, text in runs.items():
        (tmp_path / f"{command}.cfg").write_text(text)
    dirs = {}
    default_steps = timesim._CHUNK_STEPS
    for chunk_steps in (default_steps, 4096):
        monkeypatch.setattr(timesim, "_CHUNK_STEPS", chunk_steps)
        for command in runs:
            out = dirs[command, chunk_steps] = tmp_path / f"{command}_{chunk_steps}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert run_cli(command, "--config", str(tmp_path / f"{command}.cfg"),
                               "--seed", "9", "--out", str(out)) == 0
    for command in runs:
        default, small = dirs[command, default_steps], dirs[command, 4096]
        names = sorted(p.name for p in default.iterdir())
        assert names == sorted(p.name for p in small.iterdir()) and "timeseries.csv" in names
        for name in names:
            assert (default / name).read_bytes() == (small / name).read_bytes(), (command, name)


# --- determinism and round-trip -----------------------------------------------------

def test_light_commands_import_no_scipy(tmp_path):
    """The package runs on numpy alone: with scipy made unimportable, all six
    commands run, the simulated budget route and a sweep that simulates its
    floors included, and no scipy module is loaded."""
    configs = {
        "noise": NOISE_CFG,
        "harmonic": "forcing.harmonic_amplitude = 1e-6\nsim.duration = 0.05\n",
        "simulated": "budget.x_psd_source = simulated\n" + NOISE_CFG,
        "floor": "sweep.simulate_floor = true\nsim.duration = 0.3\n",
    }
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    runs = [
        ["modes", "--config", "paper-reference"],
        ["budget", "--config", "paper-reference"],
        ["resolution", "--config", "paper-reference"],
        ["sweep", "--config", "paper-reference"],
        ["psd", "--config", str(tmp_path / "noise.cfg"), "--seed", "5"],
        ["psd", "--config", "paper-reference", "--seed", "1"],
        ["simulate", "--config", str(tmp_path / "harmonic.cfg")],
        ["budget", "--config", str(tmp_path / "simulated.cfg"), "--seed", "5"],
        ["sweep", "--config", str(tmp_path / "floor.cfg"), "--seed", "5", "--kc", "-393.5"],
    ]
    script = f"""
import json, sys, warnings
sys.modules["scipy"] = None  # importing scipy or any submodule now fails
warnings.simplefilter("ignore")
from crnoise.cli import main
for i, argv in enumerate({runs!r}):
    assert main(argv + ["--out", {str(tmp_path)!r} + f"/out{{i}}"]) == 0, argv
print(json.dumps(sorted(m for m, module in sys.modules.items()
                        if m.split(".")[0] == "scipy" and module is not None)))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_only_harmonic_runs_import_decimal(tmp_path):
    """The exact phase reduction of a harmonic drive is the only user of
    `decimal`: importing the CLI, a noise-only psd and a simulated budget
    leave it unloaded, so start-up and their memory do not pay for it.
    Importing the CLI leaves out `queue` too, which only simulating runs use,
    and builds none of the CSV formatter's tables: they are built on the
    first write, which loads no module the CLI has not already loaded."""
    (tmp_path / "noise.cfg").write_text(NOISE_CFG)
    (tmp_path / "simulated.cfg").write_text("budget.x_psd_source = simulated\n" + NOISE_CFG)
    (tmp_path / "harmonic.cfg").write_text("forcing.harmonic_amplitude = 1e-6\n"
                                           "sim.duration = 0.05\n")
    runs = [
        ["psd", "--config", str(tmp_path / "noise.cfg"), "--seed", "5"],
        ["budget", "--config", str(tmp_path / "simulated.cfg"), "--seed", "5"],
        ["simulate", "--config", str(tmp_path / "harmonic.cfg")],
    ]
    script = f"""
import json, sys, warnings
warnings.simplefilter("ignore")
from crnoise.cli import main
from crnoise import reports
loaded = ["queue" in sys.modules, "decimal" in sys.modules,
          reports._float_tables.cache_info().currsize]
before = set(sys.modules)
reports.write_csv({str(tmp_path / "first.csv")!r}, "x,label", ([0.5, -2.0], ["a", "b"]))
reports.write_csv({str(tmp_path / "second.csv")!r}, "x", (reports.np.arange(3.0),))
loaded += [sorted(set(sys.modules) - before), reports._float_tables.cache_info().currsize]
for i, argv in enumerate({runs!r}):
    assert main(argv + ["--out", {str(tmp_path)!r} + f"/out{{i}}"]) == 0, argv
    loaded.append("decimal" in sys.modules)
print(json.dumps(loaded))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, 0, [], 1,
                                                        False, False, True]


def test_only_engine_runs_import_the_engine(tmp_path):
    """Importing the CLI leaves `timesim` and `spectral` unloaded, and so do
    `modes`, `resolution`, a budget from the published PSD and a sweep that
    does not simulate its floors; a harmonic `simulate` loads `timesim`
    alone, and a simulated budget, `psd` and a floor sweep each load both."""
    simulated, harmonic, floor = (tmp_path / f"{name}.cfg"
                                  for name in ("simulated", "harmonic", "floor"))
    simulated.write_text("budget.x_psd_source = simulated\n" + NOISE_CFG)
    harmonic.write_text("forcing.harmonic_amplitude = 1e-6\nsim.duration = 0.05\n")
    floor.write_text("sweep.simulate_floor = true\nsim.duration = 0.3\n"
                     "sweep.kc_values = -393.5\n")
    # each session's runs in one interpreter, and what is loaded after its
    # import and after each run
    sessions = [
        ([["modes", "--config", "paper-reference"],
          ["resolution", "--config", "paper-reference"],
          ["budget", "--config", "paper-reference"],
          ["sweep", "--config", "paper-reference"],
          ["simulate", "--config", str(harmonic)],
          ["budget", "--config", str(simulated), "--seed", "5"]],
         [[False, False]] * 5 + [[True, False], [True, True]]),
        ([["psd", "--config", str(simulated), "--seed", "5"]], [[False, False], [True, True]]),
        ([["sweep", "--config", str(floor), "--seed", "5"]], [[False, False], [True, True]]),
    ]
    for i, (runs, want) in enumerate(sessions):
        script = f"""
import json, sys, warnings
warnings.simplefilter("ignore")
from crnoise.cli import main
def engine():
    return [m in sys.modules for m in ("crnoise.timesim", "crnoise.spectral")]
loaded = [engine()]
for argv in {runs!r}:
    assert main(argv + ["--out", {str(tmp_path)!r} + f"/out{i}-{{len(loaded)}}"]) == 0, argv
    loaded.append(engine())
print(json.dumps(loaded))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == want, runs


# each command and its config (with system.cc = 0.001, which warns)
ONE_DESIGN_RUNS = {
    "modes": ("modes", ""),
    "budget_paper": ("budget", ""),
    "budget_analytic": ("budget", "budget.x_psd_source = analytic\n"),
    "budget_simulated": ("budget", "budget.x_psd_source = simulated\n" + NOISE_CFG
                         + "sim.seed = 1\n"),
    "resolution": ("resolution", "budget.x_psd_source = analytic\n"),
    "sweep": ("sweep", ""),
    "sweep_floor": ("sweep", "sweep.simulate_floor = true\nsim.duration = 0.3\nsim.seed = 1\n"
                    "sweep.kc_values = -393.5, -1000, 250\n"),
    "psd": ("psd", NOISE_CFG + "sim.seed = 1\n"),
    "simulate": ("simulate", "forcing.harmonic_amplitude = 1e-6\nsim.duration = 0.05\n"),
}


@pytest.mark.parametrize("name", list(ONE_DESIGN_RUNS))
def test_one_design_per_command(name, tmp_path):
    """Every command resolves one design: `build_system` and `mode_analysis`
    each run once (a floor sweep's per-point designs are `point(i)` of it),
    `RunConfig.design` is their only caller, and the cc warning is raised
    once."""
    command, text = ONE_DESIGN_RUNS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system.cc = 0.001\n" + text)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    script = f"""
import json, sys, warnings
from crnoise import config, sysmodel
from crnoise.cli import main
calls = []
def spy(fn):
    def counted(*args):
        calls.append(fn.__name__)
        return fn(*args)
    return counted
config.build_system = spy(sysmodel.build_system)
sysmodel.mode_analysis = spy(sysmodel.mode_analysis)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    status = main({argv!r})
print(json.dumps([status, calls, [str(w.message) for w in caught]]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    status, calls, messages = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0
    assert calls == ["build_system", "mode_analysis"]
    assert sum(m.startswith("cc differs from c1/c2") for m in messages) == 1, messages
    assert not re.search("build_system|mode_analysis", inspect.getsource(cli))


def test_sweep_warns_once_about_the_designs_it_evaluates(tmp_path):
    """sweep evaluates sweep.kc_values only: a strong system.kc it never
    evaluates raises no weak-coupling line, and a floor sweep over strong
    couplings prints the batch's one line, not one more from a point."""
    configs = {
        "unused_scalar": ("system.kc = -20000\n", []),
        "floor": ("sweep.simulate_floor = true\nsim.duration = 0.3\n",
                  ["--seed", "1", "--kc", "-393.5,-20000,-30000"]),
    }
    stderr = {}
    for name, (text, args) in configs.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        proc = subprocess.run([sys.executable, "-m", "crnoise.cli", "sweep", "--config", str(cfg),
                               *args, "--out", str(tmp_path / name)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        stderr[name] = proc.stderr
    assert stderr == {
        "unused_scalar": "",
        "floor": "cr-noise-lab: warning: |kc|/km = 0.243 > 0.1; first-order weak-coupling "
                 "sensitivity formulas may be inaccurate\n",
    }


def test_package_names_resolve_to_their_modules():
    """`import crnoise` loads no submodule; each name in `__all__` then loads
    its module and is the same object as there (a class or function is the
    one its defining module holds), `dir` lists every name, and an unknown
    name is an AttributeError."""
    script = """
import importlib, json, sys
import crnoise
loaded = sorted(m for m in sys.modules if m.startswith("crnoise."))
names = {}
for name in crnoise.__all__:
    value = getattr(crnoise, name)
    homes = ["crnoise." + m for m in ("errors", "noisebudget", "resolution", "spectral",
                                      "sysmodel", "timesim")
             if getattr(importlib.import_module("crnoise." + m), name, None) is value]
    names[name] = [getattr(value, "__module__", homes[0]), homes]
try:
    crnoise.no_such_name
    missing = False
except AttributeError:
    missing = True
print(json.dumps([loaded, names, sorted(set(crnoise.__all__) - set(dir(crnoise))), missing,
                  crnoise.__version__]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, names, undir, missing, version = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == []
    assert len(names) == 37 and all(module in homes for module, homes in names.values()), names
    assert names["simulate"][0] == "crnoise.timesim" and names["Welch"][0] == "crnoise.spectral"
    assert undir == [] and missing and version == "0.1.0"


def test_warning_printed_without_source_path(tmp_path):
    """At the process entry each warning prints as one `cr-noise-lab: warning:`
    line, with no source file or line of the package: a short drive on mode 1
    at the default step warns of settling only, and one on mode 2 at 25 steps
    per period also of the RK4 step's bias."""
    settling = "cr-noise-lab: warning: run covers {} drive cycles, below the 5*Q = 12755 " \
               "settling guideline\n"
    cases = [
        ("forcing.harmonic_frequency = mode1\nsim.decimation = 25\n", settling.format(4949)),
        ("forcing.harmonic_frequency = mode2\nforcing.harmonic_target = 2\nsim.dt = 1.6112e-05\n",
         settling.format(4965) + "cr-noise-lab: warning: dt = 1.6112e-05 s: the RK4 step biases "
         "the settled amplitude at 2482.66 Hz by -4.6%, beyond the 1% guideline\n"),
    ]
    for i, (text, stderr) in enumerate(cases):
        cfg = tmp_path / f"harmonic{i}.cfg"
        cfg.write_text("forcing.harmonic_amplitude = 1e-6\nsim.duration = 2\n" + text)
        proc = subprocess.run([sys.executable, "-m", "crnoise.cli", "simulate", "--config",
                               str(cfg), "--out", str(tmp_path / f"out{i}")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == stderr


def test_heap_frozen_only_at_process_entry(tmp_path):
    """main() as the process entry freezes the import-time heap, so the
    collections at exit skip it; main([...]) in process leaves collection
    as it was."""
    script = f"""
import gc, json, sys
from crnoise.cli import main
argv = ["modes", "--config", "paper-reference", "--out", {str(tmp_path)!r}]
assert main(argv) == 0
counts = [gc.get_freeze_count()]
sys.argv = ["cr-noise-lab", *argv]
assert main() == 0
counts.append(gc.get_freeze_count())
print(json.dumps(counts))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    in_process, entry = json.loads(proc.stdout.splitlines()[-1])
    assert in_process == 0 and entry > 0


def test_echoed_config_round_trip(tmp_path):
    """Re-running from the echoed metadata block reproduces the bytes."""
    first = tmp_path / "first"
    again = tmp_path / "again"
    cfg = tmp_path / "noise.cfg"
    cfg.write_text(NOISE_CFG)
    assert run_cli("psd", "--config", str(cfg), "--seed", "11",
                   "--out", str(first)) == 0
    echoed = "\n".join(
        line[2:]
        for line in (first / "timeseries.csv").read_text().splitlines()
        if line.startswith("# ") and " = " in line
    )
    cfg = tmp_path / "echoed.cfg"
    cfg.write_text(echoed + "\n")
    assert run_cli("psd", "--config", str(cfg), "--out", str(again)) == 0
    assert (first / "timeseries.csv").read_bytes() == (again / "timeseries.csv").read_bytes()
    assert (first / "spectrum_x1.csv").read_bytes() == (again / "spectrum_x1.csv").read_bytes()
