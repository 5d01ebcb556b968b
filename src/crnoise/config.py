"""Plain-text `key = value` run configuration.

One key per line, `#` comments, dotted namespaces (system.*, readout.*, ...).
Every key has a fixed unit and a checked range; unknown keys and malformed or
out-of-range values are errors that name the offending key.

The SCHEMA defaults are the one place where the reference design is written
down: an empty config is a valid run of it, the shipped presets list only the
keys they change, and `cr-noise-lab --help` prints every key with its unit
and default.  A RunConfig holds the parsed values and the model's sections,
and builds the run's one design on first use (`RunConfig.design`), which
every command reads; it builds no engine objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

from .errors import ConfigError
from .noisebudget import Environment, ReadoutConfig, TransducerConfig, thermal_force_psd
from .sysmodel import System, SystemConfig, build_system


@dataclass(frozen=True)
class KeySpec:
    kind: str  # float | int | bool | enum | float_list | str
    default: str
    unit: str
    help: str
    minimum: float | None = None
    maximum: float | None = None  # exclusive: a value must be < maximum
    exclusive_min: bool = False
    choices: tuple[str, ...] = ()
    allow: tuple[str, ...] = ()  # extra literal tokens, e.g. "auto", "none"


def _f(default, unit, help, minimum=None, exclusive=False, maximum=None, allow=()):
    return KeySpec("float", default, unit, help, minimum=minimum, maximum=maximum,
                   exclusive_min=exclusive, allow=allow)


SCHEMA: dict[str, KeySpec] = {
    # The symmetric reference pair at its published operating point, Q = 2547
    # with c = 0.0031 N*s/m, kc = -393.5 N/m and kappa = kc/k_eff = -0.0032:
    #   k_eff = kc / kappa      = 122968.75 N/m
    #   km    = k_eff - kc      = 123362.25 N/m
    #   m     = (Q*c)^2 / k_eff = 5.069749712020331e-4 kg  (so sqrt(k_eff*m)/c = Q)
    # which places the modes near 2474.7 Hz (out-of-phase) and 2482.7 Hz
    # (in-phase), about 7.9 Hz apart.
    "system.m1": _f("0.0005069749712020331", "kg", "mass of resonator 1", 0, True),
    "system.m2": _f("0.0005069749712020331", "kg", "mass of resonator 2", 0, True),
    "system.km1": _f("123362.25", "N/m", "mechanical spring of resonator 1", 0, True),
    "system.km2": _f("123362.25", "N/m", "mechanical spring of resonator 2", 0, True),
    "system.kc": _f("-393.5", "N/m", "coupling spring (negative = electrostatic)"),
    "system.c1": _f("0.0031", "N*s/m", "damping of resonator 1", 0),
    "system.c2": _f("0.0031", "N*s/m", "damping of resonator 2", 0),
    "system.cc": _f("0.0031", "N*s/m", "coupler damping", 0),
    "environment.temperature": _f("300", "K", "temperature", 0),
    "environment.bandwidth": _f("10", "Hz", "measurement bandwidth around each mode", 0, True),
    "transducer.eta": _f("3.57703220545006e-05", "C/m",
                         "transduction factor; auto derives from the geometry keys",
                         0, True, allow=("auto",)),
    "transducer.r_x": _f("4e6", "ohm", "motional resistance; auto derives c/eta^2",
                         0, True, allow=("auto",)),
    "transducer.v_dc": _f("none", "V", "bias voltage (geometry route)", 0, True, allow=("none",)),
    "transducer.epsilon": _f("none", "F/m", "permittivity (geometry route)", 0, True, allow=("none",)),
    "transducer.area": _f("none", "m^2", "electrode area (geometry route)", 0, True, allow=("none",)),
    "transducer.gap": _f("none", "m", "electrode gap (geometry route)", 0, True, allow=("none",)),
    # eta is back-solved from the published motional-noise row
    # (eta * omega_mode1 = 0.5562 A/m) and r_x is the published 4 Mohm; the two
    # are ~65% apart on the r_x*eta^2 = c identity (the published set is not
    # fully self-consistent), so the default tolerance admits them.
    "transducer.consistency_tolerance": _f("0.70", "-", "warn when |r_x*eta^2 - c|/c exceeds this", 0, True),
    "readout.r_f": _f("1e6", "ohm", "feedback resistance", 0, True),
    "readout.i_n": _f("20e-15", "A/rtHz", "amplifier input current noise density", 0),
    "readout.v_n": _f("70e-9", "V/rtHz", "amplifier input voltage noise density", 0),
    "readout.neb_factor": _f("1.57", "-", "single-pole noise-equivalent-bandwidth factor", 0, True),
    "budget.x_psd_source": KeySpec("enum", "paper", "-",
                                   "displacement-noise PSD inputs: published values, "
                                   "analytic |h|^2*S_F, or a simulated spectrum",
                                   choices=("paper", "analytic", "simulated")),
    "budget.x_psd_mode1": _f("7.76e-30", "m^2/Hz", "published displacement-noise PSD at mode 1", 0),
    "budget.x_psd_mode2": _f("2.45e-29", "m^2/Hz", "published displacement-noise PSD at mode 2", 0),
    "forcing.harmonic_amplitude": _f("0", "N", "harmonic drive amplitude (peak); 0 disables", 0),
    "forcing.harmonic_frequency": _f("mode1", "Hz", "drive frequency, or mode1/mode2",
                                     0, True, allow=("mode1", "mode2")),
    "forcing.harmonic_target": KeySpec("enum", "1", "-", "driven resonator", choices=("1", "2")),
    "forcing.harmonic_phase": _f("0", "rad", "drive phase"),
    "forcing.noise_psd": _f("0", "N^2/Hz", "thermal force PSD on each noise-driven resonator; "
                            "auto or 0 = 4*kB*T*c_i, its own damping; 0 leaves the force out of "
                            "simulate and psd (budgets and sweep floors always model it)",
                            0, allow=("auto",)),
    "forcing.noise_target": KeySpec("enum", "1", "-", "noise-driven resonator(s); the other "
                                    "has no thermal force", choices=("1", "2", "both")),
    "sim.dt": _f("auto", "s", "integration step; auto = 1/(50*f2)", 0, True, allow=("auto",)),
    "sim.duration": _f("2.0", "s", "simulated span", 0, True),
    "sim.decimation": KeySpec("int", "1", "-", "record every n-th sample", minimum=1),
    "sim.seed": KeySpec("int", "none", "-", "random seed (required for stochastic runs)",
                        minimum=0, allow=("none",)),
    "analysis.window_start_fraction": _f("0.5", "-", "steady-state window start",
                                         0, maximum=1.0),
    "analysis.segment_length": KeySpec("int", "auto", "samples",
                                       "Welch segment; auto = pow2 <= n/8",
                                       minimum=16, allow=("auto",)),
    "analysis.overlap": _f("0.5", "-", "Welch overlap fraction", 0, maximum=1.0),
    "resolution.sensitivity_source": KeySpec("enum", "formula", "-",
                                             "AR sensitivity: 1/(2|kappa|) or the published "
                                             "simulated value",
                                             choices=("formula", "paper_simulated")),
    "resolution.sensitivity_paper": _f("180", "1/dk", "published simulated AR sensitivity", 0, True),
    "resolution.x_mode1": _f("0.419e-6", "m", "drive displacement amplitude at mode 1 (peak)", 0),
    "resolution.x_mode2": _f("0.836e-6", "m", "drive displacement amplitude at mode 2 (peak)", 0),
    "resolution.eta_omega_mode1": _f("0.4582", "A/m", "eta*omega at mode 1", 0, True),
    "resolution.eta_omega_mode2": _f("0.4593", "A/m", "eta*omega at mode 2", 0, True),
    "resolution.v_out_source": KeySpec("enum", "computed", "-",
                                       "carrier voltages: published or eta*omega*x*R_f/sqrt2",
                                       choices=("paper", "computed")),
    "resolution.v_out_rms_mode1": _f("0.135", "V", "published carrier rms voltage, mode 1", 0, True),
    "resolution.v_out_rms_mode2": _f("0.271", "V", "published carrier rms voltage, mode 2", 0, True),
    "resolution.v_noise_source": KeySpec("enum", "computed", "-",
                                         "output noise voltage: published or I_total*R_f",
                                         choices=("paper", "computed")),
    "resolution.v_noise_rms": _f("156e-9", "V", "published output-referred noise voltage", 0),
    "resolution.effective_resolution": _f("auto", "-",
                                          "resolution fed to the detection limit; "
                                          "auto = best AR resolution", 0, True, allow=("auto",)),
    "output.directory": KeySpec("str", ".", "-", "output directory"),
    "sweep.kc_values": KeySpec("float_list", "-393.5, -1000", "N/m",
                               "coupling springs for the sweep"),
    "sweep.simulate_floor": KeySpec("bool", "false", "-",
                                    "also simulate the noise floor per sweep point"),
}


def _parse_value(key: str, spec: KeySpec, raw: str):
    """Parse one value; the `auto` and `none` tokens parse to None."""
    token = raw.lower()
    if spec.kind != "str" and token in spec.allow:
        return None if token in ("auto", "none") else token
    try:
        if spec.kind == "float":
            value = float(raw)
        elif spec.kind == "int":
            value = int(raw)
        elif spec.kind == "bool":
            if raw.lower() not in ("true", "false"):
                raise ValueError
            return raw.lower() == "true"
        elif spec.kind == "enum":
            if raw not in spec.choices:
                raise ValueError
            return raw
        elif spec.kind == "float_list":
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ValueError
            value = tuple(float(p) for p in parts)
        else:  # str
            return raw
    except ValueError:
        expected = spec.kind if spec.kind != "enum" else "|".join(spec.choices)
        allowed = f" (or {'/'.join(spec.allow)})" if spec.allow else ""
        raise ConfigError(
            f"{key}: cannot parse {raw!r} as {expected}{allowed}"
        ) from None
    if spec.kind == "float_list":
        if not all(map(math.isfinite, value)):
            raise ConfigError(f"{key}: values must be finite, got {raw!r}")
        return value
    if not math.isfinite(value):
        raise ConfigError(f"{key}: value must be finite, got {raw!r}")
    if spec.minimum is not None:
        unit = "" if spec.unit == "-" else f" {spec.unit}"
        if spec.exclusive_min and not value > spec.minimum:
            raise ConfigError(f"{key} = {raw} out of range: must be > {spec.minimum:g}{unit}")
        if not spec.exclusive_min and value < spec.minimum:
            raise ConfigError(f"{key} = {raw} out of range: must be >= {spec.minimum:g}{unit}")
    if spec.maximum is not None and not value < spec.maximum:
        raise ConfigError(f"{key} = {raw} out of range: must be < {spec.maximum:g}")
    return value


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines into a raw string mapping."""
    entries: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        value = rest.split("#", 1)[0].strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown config key '{key}'")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for '{key}'")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate config key '{key}'")
        entries[key] = value
    return entries


@dataclass
class RunConfig:
    """Validated run configuration with constructed domain objects."""

    entries: dict[str, str]  # canonical strings, defaults merged
    values: dict[str, object]  # parsed values; auto and none parse to None
    system: SystemConfig
    environment: Environment
    transducer: TransducerConfig
    readout: ReadoutConfig

    def get(self, key: str):
        return self.values[key]

    @cached_property
    def design(self) -> System:
        """The run's one design, resolved (and its warnings raised) on first use."""
        return build_system(self.system)

    def require_seed(self) -> int:
        seed = self.values["sim.seed"]
        if seed is None:
            raise ConfigError(
                "sim.seed is required for stochastic runs (set sim.seed or pass --seed)"
            )
        return seed

    def force_psd(self) -> tuple[float, float]:
        """The one-sided thermal force PSD on each resonator, (S1, S2) [N^2/Hz]:
        forcing.noise_psd, or 4 kB T c_i when it is auto or 0, on the
        resonators forcing.noise_target names, and 0 on the other.  Every
        route that models the thermal force reads it."""
        level, target = self.values["forcing.noise_psd"], self.values["forcing.noise_target"]
        return tuple(
            (level or thermal_force_psd(c, self.environment)) if target in (i, "both") else 0.0
            for i, c in (("1", self.system.c1), ("2", self.system.c2))
        )

    def echo_lines(self) -> tuple[str, ...]:
        """Fully resolved configuration, one `key = value` line per key.

        output.directory is omitted: it does not influence any computed
        value, and leaving it out keeps outputs byte-identical across runs
        that only differ in where they write.
        """
        return tuple(
            f"{key} = {self.entries[key]}"
            for key in sorted(self.entries)
            if key != "output.directory"
        )


# Each section builds one run object: its field f takes the key `<section>.f`.
# The label names the key(s) in the message of a value the object rejects.
_SECTIONS = (
    ("system", SystemConfig, "system.*"),
    ("environment", Environment, "environment.*"),
    ("transducer", TransducerConfig, "transducer.eta"),
    ("readout", ReadoutConfig, "readout.*"),
)


def build_run_config(file_entries: dict[str, str] | None = None,
                     overrides: dict[str, str] | None = None) -> RunConfig:
    """Merge defaults, file entries and overrides; validate everything."""
    entries = {key: spec.default for key, spec in SCHEMA.items()}
    for layer in (file_entries or {}), (overrides or {}):
        for key, value in layer.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key '{key}'")
            entries[key] = value
    values = {key: _parse_value(key, SCHEMA[key], entries[key]) for key in SCHEMA}
    sections = {}
    for section, cls, label in _SECTIONS:
        kwargs = {f.name: values[f"{section}.{f.name}"] for f in fields(cls)}
        try:
            sections[section] = cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{label}: {exc}") from exc
    return RunConfig(entries=entries, values=values, **sections)


def load_config_file(path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def schema_help() -> str:
    """Key/unit/default listing printed by `cr-noise-lab --help`."""
    lines = []
    for key, spec in SCHEMA.items():
        lines.append(f"  {key} [{spec.unit}] (default {spec.default}): {spec.help}")
    return "\n".join(lines)
