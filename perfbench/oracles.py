"""Output checks for the benchmark, written independently of crnoise.

Closed forms and the receptance are computed here with plain numpy from the
benchmark's own copy of the design values, so a defect in the program's
model cannot hide in its own oracle.  Every check returns a list of failure
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

BOLTZMANN = 1.380649e-23  # J/K


@dataclass(frozen=True)
class Pair:
    """Symmetric coupled pair as the benchmark writes it into its configs."""

    m: float = 0.0005069749712020331  # kg
    km: float = 123362.25  # N/m
    kc: float = -393.5  # N/m
    c: float = 0.0031  # N*s/m, c1 = c2 = cc
    temperature: float = 300.0  # K
    bandwidth: float = 10.0  # Hz

    def config_lines(self) -> list[str]:
        return [
            f"system.m1 = {self.m!r}", f"system.m2 = {self.m!r}",
            f"system.km1 = {self.km!r}", f"system.km2 = {self.km!r}",
            f"system.kc = {self.kc!r}",
            f"system.c1 = {self.c!r}", f"system.c2 = {self.c!r}", f"system.cc = {self.c!r}",
            f"environment.temperature = {self.temperature!r}",
            f"environment.bandwidth = {self.bandwidth!r}",
        ]

    def mode_frequencies(self, kc: float | None = None) -> tuple[float, float]:
        """(f1, f2) in Hz: sqrt((km + 2 kc)/m)/2pi and sqrt(km/m)/2pi for kc < 0."""
        kc = self.kc if kc is None else kc
        lo, hi = sorted((self.km + 2.0 * kc, self.km))
        return (math.sqrt(lo / self.m) / (2.0 * math.pi),
                math.sqrt(hi / self.m) / (2.0 * math.pi))

    def ar_sensitivity(self, kc: float | None = None) -> float:
        """1 / (2 |kappa|) with kappa = kc / (km + kc)."""
        kc = self.kc if kc is None else kc
        return 1.0 / (2.0 * abs(kc / (self.km + kc)))

    def receptance(self, freqs) -> np.ndarray:
        """h(f) = (K - w^2 M + i w C)^-1, shape (n, 2, 2), m/N."""
        w = 2.0 * math.pi * np.atleast_1d(np.asarray(freqs, dtype=float))
        mass = np.eye(2) * self.m
        damping = np.array([[2 * self.c, -self.c], [-self.c, 2 * self.c]])
        stiffness = np.array([[self.km + self.kc, -self.kc], [-self.kc, self.km + self.kc]])
        dyn = (stiffness[None] - (w**2)[:, None, None] * mass[None]
               + 1j * w[:, None, None] * damping[None])
        return np.linalg.inv(dyn)

    def thermal_force_psd(self) -> float:
        return 4.0 * BOLTZMANN * self.temperature * self.c


PAIR = Pair()

# published budget and resolution rows of the reference design
# (the arithmetic of acceptance criteria 01-05)
PUBLISHED_BUDGET = {
    "f_noise_psd": 5.136e-23, "f_noise_avg": 5.136e-22, "f_noise_rms": 2.266e-11,
    "x_avg_mode1": 7.762e-29, "x_rms_mode1": 8.81e-15, "i_mot_noise_mode1": 4.9e-15,
    "i_rf": 4.06e-13, "i_vn": 4.34e-13, "i_in": 9.92e-14,
    "i_elec_total_paper": 1.56e-13, "i_elec_total_integrated": 6.03e-13,
    "i_system_paper_mode1": 1.56e-13,
}
PUBLISHED_RESOLUTION = {
    "amplitude_resolution_mode1": 1.155e-6, "amplitude_resolution_mode2": 5.756e-7,
    "min_detectable_stiffness": 2.161e-9, "min_detectable_density": 6.83e-10,
}
PUBLISHED_RTOL = 0.01


# --- parsing -------------------------------------------------------------------

def _data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def csv_rows(text: str) -> list[list[str]]:
    """Rows of a '#'-commented CSV, header first."""
    return list(csv.reader(io.StringIO("\n".join(_data_lines(text)))))


def quantity_values(text: str) -> dict[str, str]:
    """quantity -> value from a quantity,value,unit,source CSV."""
    return {row[0]: row[1] for row in csv_rows(text)[1:] if len(row) >= 2}


def table_values(text: str) -> dict[str, float]:
    """quantity -> numeric value from an aligned text table."""
    out = {}
    for line in _data_lines(text):
        parts = line.split()
        if len(parts) >= 2:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                continue
    return out


# --- comparisons ----------------------------------------------------------------

def within(name: str, value, target: float, rtol: float) -> list[str]:
    try:
        value = float(value)
    except (TypeError, ValueError):
        return [f"{name}: missing or not a number ({value!r})"]
    if not abs(value - target) <= rtol * abs(target):
        return [f"{name} = {value:.9g}, want {target:.9g} within {rtol:g}"]
    return []


def within_printed(name: str, value, exact: float, digits: int = 6) -> list[str]:
    """`value` is `exact` printed with `digits` significant digits (%g)."""
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - digits + 1)
    return within(name, value, exact, half_unit / abs(exact) + 1e-9)


def published(values: dict[str, str], table: dict[str, float]) -> list[str]:
    return [msg for key, target in table.items()
            for msg in within(key, values.get(key), target, PUBLISHED_RTOL)]


def modes_table(text: str, pair: Pair = PAIR) -> list[str]:
    values = table_values(text)
    f1, f2 = pair.mode_frequencies()
    return (within_printed("f1", values.get("f1"), f1)
            + within_printed("f2", values.get("f2"), f2)
            + within_printed("ar_sensitivity", values.get("ar_sensitivity"),
                             pair.ar_sensitivity()))


# --- thermal budget: band mean of the analytic displacement PSD -------------------

@dataclass(frozen=True)
class WelchPlan:
    """Welch grid the program uses for an n-sample record (auto segment length)."""

    n_samples: int
    dt: float
    overlap: float = 0.5

    @property
    def segment_length(self) -> int:
        return 2 ** int(math.floor(math.log2(self.n_samples / 8)))

    @property
    def n_segments(self) -> int:
        seg = self.segment_length
        return 1 + (self.n_samples - seg) // (seg - int(seg * self.overlap))

    @property
    def df(self) -> float:
        return 1.0 / (self.segment_length * self.dt)


def thermal_x1_psd(freqs, pair: Pair = PAIR) -> np.ndarray:
    """S_F (|h11|^2 + |h12|^2): x1 under independent forces on both resonators."""
    h = pair.receptance(freqs)
    return pair.thermal_force_psd() * (np.abs(h[:, 0, 0]) ** 2 + np.abs(h[:, 0, 1]) ** 2)


# variance of a sum of Hann-windowed Welch bins relative to chi-square with one
# segment per bin: adjacent-bin power correlation (4/9, 1/36 at lag 2) and the
# residual correlation of 50%-overlapped segments (about 1.06)
_HANN_SUM_VARIANCE = (1.0 + 2.0 * 4.0 / 9.0 + 2.0 / 36.0) * 1.06
THERMAL_SIGMAS = 5.0


def thermal_expectation(f_center: float, welch: WelchPlan,
                        pair: Pair = PAIR) -> tuple[float, float]:
    """(expected x_avg [m^2], allowed relative deviation) for one mode's band.

    The expectation is a fine trapezoid quadrature of the analytic PSD over
    the band; the allowed deviation is THERMAL_SIGMAS standard deviations of
    the band mean estimated from the Welch segment count and the number of
    bins the PSD spreads over.
    """
    band = pair.bandwidth
    lo, hi = f_center - 0.5 * band, f_center + 0.5 * band
    fine = np.linspace(lo, hi, 20001)
    x_avg = float(np.trapezoid(thermal_x1_psd(fine, pair), fine))
    bins = np.arange(math.ceil(lo / welch.df), math.floor(hi / welch.df) + 1) * welch.df
    s = thermal_x1_psd(bins, pair)
    sigma = math.sqrt(_HANN_SUM_VARIANCE * float(np.sum(s**2))
                      / (welch.n_segments * float(np.sum(s)) ** 2))
    return x_avg, THERMAL_SIGMAS * sigma


def thermal_budget(text: str, welch: WelchPlan, pair: Pair = PAIR) -> list[str]:
    values = quantity_values(text)
    failures = []
    for idx, f_mode in enumerate(pair.mode_frequencies(), start=1):
        expected, rtol = thermal_expectation(f_mode, welch, pair)
        failures += within(f"x_avg_mode{idx}", values.get(f"x_avg_mode{idx}"), expected, rtol)
    return failures


# --- harmonic drive ----------------------------------------------------------------

def harmonic_summary(text: str, amplitude: float, pair: Pair = PAIR) -> list[str]:
    values = table_values(text)
    f1 = pair.mode_frequencies()[0]
    expected = amplitude * abs(pair.receptance([f1])[0, 0, 0])
    return (within_printed("drive_frequency", values.get("drive_frequency"), f1)
            + within("steady_amp_x1", values.get("steady_amp_x1"), expected, 0.01))


# --- coupling sweep ------------------------------------------------------------------

SWEEP_RTOL = 1e-9


def sweep_csv(text: str, kc_values, pair: Pair = PAIR) -> list[str]:
    rows = csv_rows(text)
    if not rows:
        return ["sweep.csv: no header"]
    header, body = rows[0], rows[1:]
    try:
        col = {name: header.index(name)
               for name in ("kc_n_per_m", "f1_hz", "f2_hz", "ar_sensitivity")}
    except ValueError as exc:
        return [f"sweep.csv header: {exc}"]
    if len(body) != len(kc_values):
        return [f"sweep.csv: {len(body)} rows, want {len(kc_values)}"]
    failures = []
    for i, (row, kc) in enumerate(zip(body, kc_values)):
        if len(row) != len(header):
            failures.append(f"row {i}: {len(row)} fields, want {len(header)}")
            continue
        f1, f2 = pair.mode_frequencies(kc)
        failures += within(f"row {i} kc", row[col["kc_n_per_m"]], kc, 1e-11)
        failures += within(f"row {i} f1_hz", row[col["f1_hz"]], f1, SWEEP_RTOL)
        failures += within(f"row {i} f2_hz", row[col["f2_hz"]], f2, SWEEP_RTOL)
        failures += within(f"row {i} ar_sensitivity", row[col["ar_sensitivity"]],
                           pair.ar_sensitivity(kc), SWEEP_RTOL)
        if len(failures) > 20:
            failures.append("... further rows not checked")
            break
    return failures
