"""Noise budget of the coupled-resonator sensor, in one function.

`full_noise_budget` quantifies the effective thermo-mechanical noise, each
electronic readout source and their combination, and names the dominant
source; it returns them as one flat `NoiseBudgetReport`.

The mechanical side follows the fluctuation-dissipation force density
S_F = 4 kB T c through a measurement bandwidth into an rms displacement and
a motional noise current eta * omega * x_rms per mode.  Its force rows are
the published 4 kB T c1; the analytic displacement PSD takes the force on
each resonator, (S1, S2), from `RunConfig.force_psd`, as the engine's noise
streams do.  The electronic side budgets the transimpedance readout:
feedback-resistor Johnson noise, the amplifier's input voltage noise acting
through the noise gain (1 + R_x/R_f), and the amplifier's input current
noise, the latter two widened by the single-pole noise-equivalent-bandwidth
factor `readout.neb_factor`.

Two electronic totals are computed on purpose.  total_paper follows the
published final-row expression, an RSS of per-rtHz densities without the
bandwidth or NEB factors (numerically ~1.57e-13 A for the reference
readout); total_integrated is the internally consistent RSS of the three
integrated rows (~6.0e-13 A rms for the same inputs).  Reports carry both.

A SystemConfig whose kc is an array of N designs gives arrays of length N.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import sysmodel
from .errors import ConfigError
from .sysmodel import SystemConfig

BOLTZMANN = 1.380649e-23  # J/K

SOURCE_FEEDBACK_RESISTOR = "feedback_resistor"
SOURCE_AMPLIFIER_VOLTAGE = "amplifier_voltage_noise"
SOURCE_AMPLIFIER_CURRENT = "amplifier_current_noise"
SOURCE_MECHANICAL = "mechanical_thermal"


@dataclass(frozen=True)
class Environment:
    temperature: float  # K
    bandwidth: float  # Hz, measurement band around each mode

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")


@dataclass(frozen=True)
class TransducerConfig:
    """Electromechanical transduction: eta [C/m] and motional resistance R_x.

    eta may be given directly or derived from parallel-plate geometry as
    v_dc * epsilon * area / gap^2.  r_x may be given (a measured or published
    value) or left None to be derived from c / eta^2.  A budget warns when a
    given r_x is off r_x * eta^2 = c by more than consistency_tolerance.
    """

    consistency_tolerance: float  # relative
    eta: float | None = None  # C/m (equivalently N/V)
    r_x: float | None = None  # ohm
    v_dc: float | None = None  # V
    epsilon: float | None = None  # F/m
    area: float | None = None  # m^2
    gap: float | None = None  # m

    def __post_init__(self) -> None:
        if self.eta is None:
            if None in (self.v_dc, self.epsilon, self.area, self.gap):
                raise ValueError(
                    "transduction factor unavailable: provide eta or all of "
                    "(v_dc, epsilon, area, gap)"
                )
            object.__setattr__(
                self, "eta", self.v_dc * self.epsilon * self.area / self.gap**2
            )
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if self.r_x is not None and self.r_x <= 0:
            raise ValueError("r_x must be > 0")
        for name in ("v_dc", "epsilon", "area", "gap"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class ReadoutConfig:
    """Transimpedance-amplifier noise parameters.

    Zero noise densities are accepted as the noiseless-amplifier limit.
    """

    r_f: float  # ohm, feedback resistance
    i_n: float  # A/rtHz, input current noise density
    v_n: float  # V/rtHz, input voltage noise density
    neb_factor: float  # single-pole noise-equivalent-bandwidth factor

    def __post_init__(self) -> None:
        for name in ("r_f", "neb_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("i_n", "v_n"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def thermal_force_psd(c: float, env: Environment) -> float:
    """One-sided thermal force PSD 4 kB T c [N^2/Hz]."""
    if c < 0:
        raise ValueError("damping must be >= 0")
    return 4.0 * BOLTZMANN * env.temperature * c


def analytic_displacement_psd(
    config: SystemConfig, s_f: tuple[float, float], modes: sysmodel.Modes | None = None,
) -> tuple[float, float]:
    """Displacement-noise PSD of resonator 1 at each mode, sum_j |h_1j|^2 S_j.

    s_f is the one-sided force PSD on each resonator, (S1, S2) [N^2/Hz], as
    `RunConfig.force_psd` gives it; the forces are independent, so they add
    in power.  modes are the config's solved modes, solved here when not
    given.
    """
    system = sysmodel.build_system(config)
    if modes is None:
        modes = sysmodel.mode_analysis(system)
    h = sysmodel.frequency_response(system, np.stack([modes.f1, modes.f2], axis=-1))
    # |h| by hypot, which rounds as abs() of a complex scalar does; np.abs of
    # a complex array can differ in the last bit
    gain = np.hypot(h.real, h.imag)
    total = np.zeros(h.shape[:-2])
    for j, s in enumerate(s_f):
        if s:
            total += gain[..., 0, j] ** 2 * s
    return tuple(np.moveaxis(total, -1, 0))


@dataclass(frozen=True)
class NoiseBudgetReport:
    """Thermal and electronic noise rows with the system totals; a pair is
    (mode 1, mode 2)."""

    f_noise_psd: float  # N^2/Hz
    f_noise_avg: float  # N^2, psd * bandwidth
    f_noise_rms: float  # N
    x_psd: tuple[float, float]  # m^2/Hz, the displacement-noise input
    x_avg: tuple[float, float]  # m^2
    x_rms: tuple[float, float]  # m
    i_mot_noise: tuple[float, float]  # A rms
    r_x: float  # ohm
    i_rf: float  # A rms, feedback resistor over bandwidth
    i_vn: float  # A rms, amplifier voltage noise over bandwidth
    i_in: float  # A rms, amplifier current noise over bandwidth
    i_total_paper: float  # A, published-convention density RSS (no B, no NEB)
    i_total_integrated: float  # A rms, RSS of the three integrated rows
    i_system_paper: tuple[float, float]  # A, published-convention total
    i_system_integrated: tuple[float, float]  # A rms
    dominant_source: str
    modes: sysmodel.Modes  # the modes whose frequencies the budget used


def full_noise_budget(
    config: SystemConfig,
    env: Environment,
    transducer: TransducerConfig,
    readout: ReadoutConfig,
    x_psd_per_mode: tuple[float, float],
    modes: sysmodel.Modes | None = None,
) -> NoiseBudgetReport:
    """The complete noise budget from per-mode displacement-noise PSD inputs.

    x_psd_per_mode is the displacement-noise PSD of the readout resonator at
    each mode [m^2/Hz]: analytic, simulated or published.  The force rows use
    the resonator-1 damping (the noise-injection convention).  r_x is the
    transducer's when given, otherwise c / eta^2 with c = (c1 + c2) / 2, the
    mean damping Q is taken from (so sqrt(k_eff m_eff) / (Q eta^2)), and the
    eta the motional current uses; an undamped pair has none, a config
    error.  A given r_x off r_x * eta^2 = c, the same c, by more than the
    transducer's tolerance warns, as published parameter sets are not
    always self-consistent.  modes are the config's solved modes, solved
    here when not given.
    """
    if np.any(np.less(x_psd_per_mode, 0)):
        raise ValueError("displacement-noise PSD must be >= 0")
    c = 0.5 * (config.c1 + config.c2)  # the mean damping, as Q's
    r_x = transducer.r_x
    if r_x is None:
        if c == 0:
            raise ConfigError("transducer.r_x, system.c1, system.c2: the derived r_x = c/eta^2 "
                              "is 0 at c1 = c2 = 0; give r_x, or c1 or c2 > 0")
        r_x = c / transducer.eta**2
    elif c > 0:
        mismatch = abs(r_x * transducer.eta**2 - c) / c
        if mismatch > transducer.consistency_tolerance:
            warnings.warn(
                f"r_x * eta^2 = {r_x * transducer.eta**2:.3g} N*s/m differs "
                f"from c = {c:.3g} N*s/m by {mismatch:.0%} "
                f"(tolerance {transducer.consistency_tolerance:.0%})",
                stacklevel=2,
            )
    if modes is None:
        modes = sysmodel.mode_analysis(sysmodel.build_system(config))
    band = env.bandwidth

    # mechanical: force, displacement and motional-current rows
    f_psd = thermal_force_psd(config.c1, env)
    f_avg = f_psd * band
    x_avg = tuple(p * band for p in x_psd_per_mode)
    x_rms = tuple(np.sqrt(v) for v in x_avg)
    i_mot = tuple(transducer.eta * w * x for w, x in zip((modes.omega1, modes.omega2), x_rms))

    # electronic: the transimpedance readout's three rows and both totals
    kt4 = 4.0 * BOLTZMANN * env.temperature
    vn_gain_density = readout.v_n * (1.0 + r_x / readout.r_f) / r_x  # A/rtHz
    i_rf = np.sqrt(kt4 * band / readout.r_f)
    i_vn = vn_gain_density * np.sqrt(band) * readout.neb_factor
    i_in = readout.i_n * np.sqrt(band) * readout.neb_factor
    i_total_paper = np.sqrt(readout.i_n**2 + vn_gain_density**2 + kt4 / readout.r_f)
    i_total_integrated = np.sqrt(i_rf**2 + i_vn**2 + i_in**2)

    components = {
        SOURCE_FEEDBACK_RESISTOR: i_rf,
        SOURCE_AMPLIFIER_VOLTAGE: i_vn,
        SOURCE_AMPLIFIER_CURRENT: i_in,
        SOURCE_MECHANICAL: np.maximum(*i_mot),
    }
    largest = np.argmax(np.broadcast_arrays(*components.values()), axis=0)
    return NoiseBudgetReport(
        f_noise_psd=f_psd,
        f_noise_avg=f_avg,
        f_noise_rms=np.sqrt(f_avg),
        x_psd=tuple(x_psd_per_mode),
        x_avg=x_avg,
        x_rms=x_rms,
        i_mot_noise=i_mot,
        r_x=r_x,
        i_rf=i_rf,
        i_vn=i_vn,
        i_in=i_in,
        i_total_paper=i_total_paper,
        i_total_integrated=i_total_integrated,
        # the mechanical and electronic currents are uncorrelated: they add in power
        i_system_paper=tuple(np.hypot(i, i_total_paper) for i in i_mot),
        i_system_integrated=tuple(np.hypot(i, i_total_integrated) for i in i_mot),
        dominant_source=np.array(list(components))[largest],
        modes=modes,
    )
