"""The benchmark's workloads: generated inputs, commands and output checks.

Each workload is built from the seed alone.  The benchmark writes every
config file itself and passes the program only those files (cli-reference
uses the shipped paper-reference preset by name).  A command's check reads
the files the program wrote and returns failure messages.

compute-cycle runs the three heavy commands (thermal-long, harmonic-settle,
sweep-dense) as one cycle rather than as three workloads: on a shared
two-vCPU machine a single command's wall time moves by 15-20% from one run
to the next, and only runs of about a minute, summed over several commands,
give medians that repeat.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

STEPS_PER_PERIOD = 50  # the program's automatic time step, 1 / (50 f2)


@dataclass(frozen=True)
class Command:
    metric: str  # end-to-end name of this command's wall time
    argv: tuple[str, ...]  # cr-noise-lab arguments, without --out
    check: Callable[[Path], list[str]]  # output directory -> failures
    planned_steps: int = 0  # RK4 steps its recorded trajectory has to span
    points: int = 0  # design points a sweep command evaluates


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


def _steps(duration: float, pair: oracles.Pair = oracles.PAIR) -> tuple[int, float]:
    """(planned RK4 step count, dt) of a run at the automatic time step."""
    dt = 1.0 / (STEPS_PER_PERIOD * pair.mode_frequencies()[1])
    return int(round(duration / dt)), dt


def _read(out: Path, name: str) -> str | None:
    try:
        return (out / name).read_text(encoding="utf-8")
    except OSError:
        return None


def _needs(*names: str):
    """Decorator: the check runs only when every named output file exists."""
    def wrap(check):
        def checked(out: Path) -> list[str]:
            texts = [_read(out, n) for n in names]
            missing = [n for n, t in zip(names, texts) if t is None]
            return [f"missing output {n}" for n in missing] if missing else check(*texts)
        return checked
    return wrap


def _data_rows(text: str) -> int:
    """Rows below the header of a '#'-commented CSV."""
    return sum(1 for line in text.splitlines() if line and not line.startswith("#")) - 1


def _row_count(name: str, text: str, want: int) -> list[str]:
    got = _data_rows(text)
    return [] if got == want else [f"{name}: {got} rows, want {want}"]


def _config(path: Path, lines: list[str]) -> str:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# --- cli-reference ------------------------------------------------------------

def cli_reference(seed: int, inputs: Path) -> Workload:
    preset = ("--config", "paper-reference")
    steps, dt = _steps(2.0)
    welch = oracles.WelchPlan(steps + 1, dt)

    @_needs("modes.txt")
    def modes(text):
        return oracles.modes_table(text)

    @_needs("budget.csv")
    def budget(text):
        return oracles.published(oracles.quantity_values(text), oracles.PUBLISHED_BUDGET)

    @_needs("resolution.csv")
    def resolution(text):
        return oracles.published(oracles.quantity_values(text),
                                 oracles.PUBLISHED_RESOLUTION)

    @_needs("timeseries.csv", "spectrum_x1.csv", "spectrum_x2.csv", "psd_summary.txt")
    def psd(series, spec1, spec2, _summary):
        bins = welch.segment_length // 2 + 1
        return (_row_count("timeseries.csv", series, steps + 1)
                + _row_count("spectrum_x1.csv", spec1, bins)
                + _row_count("spectrum_x2.csv", spec2, bins))

    return Workload("cli-reference", (
        Command("modes_wall_s", ("modes", *preset), modes),
        Command("budget_wall_s", ("budget", *preset), budget),
        Command("resolution_wall_s", ("resolution", *preset), resolution),
        Command("psd_wall_s", ("psd", *preset, "--seed", str(seed)), psd,
                planned_steps=steps),
    ))


# --- thermal-long: 40 s thermal budget ----------------------------------------

THERMAL_DURATION = 40.0


def thermal_long(seed: int, inputs: Path) -> Command:
    steps, dt = _steps(THERMAL_DURATION)
    welch = oracles.WelchPlan(steps + 1, dt)
    config = _config(inputs / "thermal_long.cfg", oracles.PAIR.config_lines() + [
        "transducer.consistency_tolerance = 0.70",
        "budget.x_psd_source = simulated",
        "forcing.noise_psd = auto",
        "forcing.noise_target = both",
        f"sim.duration = {THERMAL_DURATION!r}",
        f"sim.seed = {seed}",
    ])

    @_needs("budget.csv")
    def budget(text):
        return oracles.thermal_budget(text, welch)

    return Command("thermal_budget_wall_s", ("budget", "--config", config), budget,
                   planned_steps=steps)


# --- harmonic-settle: 20 s harmonic drive -------------------------------------

HARMONIC_DURATION = 20.0
HARMONIC_DECIMATION = 25
HARMONIC_AMPLITUDE = 1e-6  # N


def harmonic_settle(seed: int, inputs: Path) -> Command:
    steps, _ = _steps(HARMONIC_DURATION)
    phase = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    config = _config(inputs / "harmonic_settle.cfg", oracles.PAIR.config_lines() + [
        "transducer.consistency_tolerance = 0.70",
        f"forcing.harmonic_amplitude = {HARMONIC_AMPLITUDE!r}",
        "forcing.harmonic_frequency = mode1",
        f"forcing.harmonic_phase = {phase!r}",
        f"sim.duration = {HARMONIC_DURATION!r}",
        f"sim.decimation = {HARMONIC_DECIMATION}",
    ])

    @_needs("simulate_summary.txt", "timeseries.csv")
    def simulate(summary, series):
        return (oracles.harmonic_summary(summary, HARMONIC_AMPLITUDE)
                + _row_count("timeseries.csv", series, steps // HARMONIC_DECIMATION + 1))

    return Command("harmonic_simulate_wall_s", ("simulate", "--config", config), simulate,
                   planned_steps=steps // HARMONIC_DECIMATION * HARMONIC_DECIMATION)


# --- sweep-dense: 5000-point coupling sweep -----------------------------------

SWEEP_POINTS = 5000
SWEEP_KC_RANGE = (-12000.0, -10.0)  # N/m; |kc|/km <= 0.1 throughout


def sweep_kc_values(seed: int) -> list[float]:
    """Log-uniform coupling springs in SWEEP_KC_RANGE."""
    rng = random.Random(seed)
    log_a, log_b = (math.log(-k) for k in SWEEP_KC_RANGE)
    return [-math.exp(rng.uniform(log_a, log_b)) for _ in range(SWEEP_POINTS)]


def sweep_dense(seed: int, inputs: Path) -> Command:
    kc_values = sweep_kc_values(seed)
    config = _config(inputs / "sweep_dense.cfg", oracles.PAIR.config_lines() + [
        "transducer.consistency_tolerance = 0.70",
        "sweep.kc_values = " + ", ".join(repr(k) for k in kc_values),
    ])

    @_needs("sweep.csv")
    def sweep(text):
        return oracles.sweep_csv(text, kc_values)

    return Command("sweep_wall_s", ("sweep", "--config", config), sweep,
                   points=SWEEP_POINTS)


# --- compute-cycle ------------------------------------------------------------

def compute_cycle(seed: int, inputs: Path) -> Workload:
    """The engine under thermal and harmonic drive, then the per-point sweep."""
    return Workload("compute-cycle", (
        thermal_long(seed, inputs),
        harmonic_settle(seed, inputs),
        sweep_dense(seed, inputs),
    ))


BUILDERS = {
    "cli-reference": cli_reference,
    "compute-cycle": compute_cycle,
}


def build(name: str, seed: int, inputs: Path) -> Workload:
    return BUILDERS[name](seed, inputs)
