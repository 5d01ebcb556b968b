"""Integrator correctness, stochastic forcing statistics, signal extraction."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import textbook_rk4_step

from crnoise import presets, spectral
from crnoise.reports import _BLOCK_ROWS
from crnoise.sysmodel import build_system, frequency_response, mode_analysis
from crnoise.timesim import (
    Forcing,
    HarmonicDrive,
    SimulationPlan,
    StochasticDrive,
    TimeSeries,
    default_timestep,
    simulate,
    _noise_streams,
    steady_state_amplitude,
    write_timeseries_csv,
)


def quiet_simulate(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate(*args, **kwargs)


@pytest.fixture(scope="module")
def reference():
    cfg = presets.reference_system()
    system = build_system(cfg)
    modes = mode_analysis(system)
    return cfg, system, modes


def single_resonator(q=100.0):
    cfg = presets.uncoupled_system(q=q)
    system = build_system(cfg)
    return cfg, system, mode_analysis(system)


# --- thermal force samples -----------------------------------------------------

def engine_force_samples(force_psd, dt, n, seed):
    """The first n force samples the engine draws for a noise-driven resonator."""
    drive = StochasticDrive(force_psd=force_psd, seed=seed)
    [(_, rng)], sigma = _noise_streams(drive, dt)
    return rng.standard_normal(n) * sigma


def test_zero_psd_gives_zero_series():
    assert np.all(engine_force_samples(0.0, 1e-5, 1000, seed=1) == 0.0)


def test_sample_variance_matches_psd():
    psd, dt = 5.136e-23, 8e-6
    samples = engine_force_samples(psd, dt, 1_000_000, seed=42)
    assert abs(samples.mean()) < 5e-3 * samples.std()
    # sigma^2 = S_F / (2 dt) = 3.21e-18 N^2
    assert samples.var() == pytest.approx(psd / (2 * dt), rel=0.05)
    assert samples.var() == pytest.approx(3.21e-18, rel=0.05)


def test_sample_stream_psd_is_flat():
    psd, dt = 5.136e-23, 8e-6
    samples = engine_force_samples(psd, dt, 500_000, seed=3)
    spectrum = spectral.welch_psd(samples, dt, segment_length=2048)
    freqs = spectrum.frequencies
    sel = (freqs >= 0.1 * 0.1 / dt) & (freqs <= 0.5 / dt)
    band = spectrum.values[sel]
    assert np.mean(band) == pytest.approx(psd, rel=0.10)


def test_same_seed_bit_identical():
    a = engine_force_samples(1e-22, 1e-5, 5000, seed=7)
    b = engine_force_samples(1e-22, 1e-5, 5000, seed=7)
    assert np.array_equal(a, b)
    c = engine_force_samples(1e-22, 1e-5, 5000, seed=8)
    assert not np.array_equal(a, c)


# --- the RK4 update map ---------------------------------------------------------

def test_update_map_matches_textbook_rk4(reference):
    """One engine step == a hand-coded classical RK4 step with the same forcing."""
    from crnoise.timesim import _rk4_update_matrices, _state_matrices

    _, system, modes = reference
    a, b = _state_matrices(system)
    dt = default_timestep(modes)
    phi, g0, gm, g1 = _rk4_update_matrices(a, b, dt)

    rng = np.random.default_rng(5)
    drive = HarmonicDrive(target=1, amplitude=2e-6, frequency=1234.5, phase=0.4)

    def force(t):
        return np.array(
            [drive.amplitude * math.sin(2 * math.pi * drive.frequency * t + drive.phase), 0.0]
        )

    def f(t, x):
        return a @ x + b @ force(t)

    for _ in range(10):
        x = rng.standard_normal(4) * 1e-6
        t = rng.uniform(0, 1e-3)
        want = textbook_rk4_step(f, x, t, dt)
        got = phi @ x + g0 @ force(t) + gm @ force(t + dt / 2) + g1 @ force(t + dt)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-20)


def _hand_stepped_rk4(system, forcing, plan):
    """Oracle trajectory: textbook RK4 steps on M a = F - K x - C v.

    Harmonic drives are evaluated at the stage times; the noise streams are
    drawn as the engine documents them (seed, seed ^ 1 for "both") and held
    over each step.  Returns the state (x1, v1, x2, v2) after every step.
    """
    mass_inv = np.linalg.inv(system.mass)
    k, c = system.stiffness, system.damping
    n_steps = int(round(plan.duration / plan.dt))
    noise = np.zeros((2, n_steps))
    drive = forcing.stochastic
    sigma = math.sqrt(drive.force_psd / (2 * plan.dt))
    for row, seed in ((0, drive.seed), (1, drive.seed ^ 1)):
        noise[row] = np.random.default_rng(seed).standard_normal(n_steps) * sigma

    def harmonic(t):
        force = np.zeros(2)
        for d in forcing.harmonic:
            force[d.target - 1] += d.amplitude * math.sin(2 * math.pi * d.frequency * t + d.phase)
        return force

    states = [np.asarray(plan.initial_state, dtype=float)]
    for n in range(n_steps):
        def f(t, s, held=noise[:, n]):
            x, v = s[[0, 2]], s[[1, 3]]
            a = mass_inv @ (harmonic(t) + held - k @ x - c @ v)
            return np.array([v[0], a[0], v[1], a[1]])

        states.append(textbook_rk4_step(f, states[-1], n * plan.dt, plan.dt))
    return np.array(states)


def damped_reference(fraction: float, coupled: bool = True):
    """Reference pair with every damper at fraction * 2 sqrt(km m)."""
    cfg = presets.reference_system()
    c = fraction * 2.0 * math.sqrt(cfg.km1 * cfg.m1)
    if coupled:
        return build_system(dataclasses.replace(cfg, c1=c, c2=c, cc=c))
    return build_system(dataclasses.replace(cfg, kc=0.0, c1=c, c2=c, cc=0.0))


@pytest.mark.parametrize(
    "fraction, coupled",
    [(None, True), (0.999, True), (1.0, False)],
    ids=["reference", "near_critical", "critical_uncoupled"],
)
def test_engine_matches_hand_stepped_rk4(reference, fraction, coupled):
    """The engine against an independent RK4 loop, including (near-)defective Phi."""
    system = reference[1] if fraction is None else damped_reference(fraction, coupled)
    modes = mode_analysis(system)
    dt = default_timestep(modes)
    plan = SimulationPlan(dt=dt, duration=3000 * dt, record_decimation=2,
                          initial_state=(1e-7, 0.0, -3e-8, 2e-4), record_velocity=True)
    forcing = Forcing(
        harmonic=(HarmonicDrive(1, 1e-6, modes.f1), HarmonicDrive(2, 4e-7, 2100.0, 0.2)),
        stochastic=StochasticDrive(force_psd=5e-23, seed=12, target="both"),
    )
    series = quiet_simulate(system, forcing, plan)
    oracle = _hand_stepped_rk4(system, forcing, plan)[:: plan.record_decimation]
    for name, col in (("x1", 0), ("v1", 1), ("x2", 2), ("v2", 3)):
        got, want = getattr(series, name), oracle[:, col]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), name


# --- simulate ---------------------------------------------------------------------

def test_zero_forcing_zero_output(reference):
    _, system, modes = reference
    plan = SimulationPlan(dt=default_timestep(modes), duration=0.01)
    series = simulate(system, Forcing(), plan)
    assert np.all(series.x1 == 0.0)
    assert np.all(series.x2 == 0.0)


def test_dt_bound_enforced(reference):
    _, system, modes = reference
    plan = SimulationPlan(dt=1.0 / (10 * modes.f2), duration=0.01)
    with pytest.raises(ValueError, match="dt"):
        simulate(system, Forcing(), plan)


def test_determinism_same_seed(reference):
    _, system, modes = reference
    plan = SimulationPlan(dt=default_timestep(modes), duration=0.05)
    forcing = Forcing(stochastic=StochasticDrive(force_psd=5.1e-23, seed=99, target="1"))
    a = simulate(system, forcing, plan)
    b = simulate(system, forcing, plan)
    assert np.array_equal(a.x1, b.x1)
    assert np.array_equal(a.x2, b.x2)


def test_concurrent_runs_match_serial(reference):
    """Independent simulations share no mutable state across threads."""
    from concurrent.futures import ThreadPoolExecutor

    _, system, modes = reference
    plan = SimulationPlan(dt=default_timestep(modes), duration=0.05)

    def run(seed):
        forcing = Forcing(stochastic=StochasticDrive(5.1e-23, seed=seed, target="1"))
        return simulate(system, forcing, plan)

    serial = [run(seed) for seed in (1, 2, 3, 4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(run, (1, 2, 3, 4)))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.x1, b.x1)
        assert np.array_equal(a.x2, b.x2)


def test_decimation_subsamples(reference):
    _, system, modes = reference
    dt = default_timestep(modes)
    forcing = Forcing(stochastic=StochasticDrive(force_psd=5.1e-23, seed=4, target="1"))
    full = simulate(system, forcing, SimulationPlan(dt=dt, duration=1000 * dt))
    deci = simulate(system, forcing, SimulationPlan(dt=dt, duration=1000 * dt,
                                                    record_decimation=5))
    assert deci.dt == pytest.approx(5 * dt)
    assert np.array_equal(deci.x1, full.x1[::5])


def test_steady_state_matches_receptance(reference):
    _, system, modes = reference
    amplitude = 1e-6
    plan = SimulationPlan(dt=default_timestep(modes), duration=3.5)
    forcing = Forcing(harmonic=(HarmonicDrive(1, amplitude, modes.f1),))
    series = quiet_simulate(system, forcing, plan)
    steady = steady_state_amplitude(series, modes.f1, start_fraction=0.6)
    h = frequency_response(system, [modes.f1]).h[0]
    assert steady.amp1 == pytest.approx(abs(h[0, 0]) * amplitude, rel=0.01)
    assert steady.amp2 == pytest.approx(abs(h[0, 1]) * amplitude, rel=0.01)


def test_drive_sized_for_published_displacement(reference):
    """Force chosen so the analytic amplitude is 0.419 um lands within 1%."""
    _, system, modes = reference
    h11 = abs(frequency_response(system, [modes.f1]).h[0, 0, 0])
    amplitude = 0.419e-6 / h11
    plan = SimulationPlan(dt=default_timestep(modes), duration=3.5)
    series = quiet_simulate(
        system, Forcing(harmonic=(HarmonicDrive(1, amplitude, modes.f1),)), plan
    )
    steady = steady_state_amplitude(series, modes.f1, start_fraction=0.6)
    assert steady.amp1 == pytest.approx(0.419e-6, rel=0.01)


def test_linearity(reference):
    _, system, modes = reference
    plan = SimulationPlan(dt=default_timestep(modes), duration=2.5)
    low = quiet_simulate(system, Forcing(harmonic=(HarmonicDrive(1, 1e-6, modes.f1),)), plan)
    high = quiet_simulate(system, Forcing(harmonic=(HarmonicDrive(1, 2e-6, modes.f1),)), plan)
    a_low = steady_state_amplitude(low, modes.f1).amp1
    a_high = steady_state_amplitude(high, modes.f1).amp1
    assert a_high / a_low == pytest.approx(2.0, rel=1e-3)


def test_superposition_same_seed(reference):
    _, system, modes = reference
    dt = default_timestep(modes)
    plan = SimulationPlan(dt=dt, duration=4000 * dt)
    noise = StochasticDrive(force_psd=5.1e-23, seed=21, target="1")
    harmonic = (HarmonicDrive(1, 1e-6, modes.f1),)
    both = quiet_simulate(system, Forcing(harmonic=harmonic, stochastic=noise), plan)
    only_noise = quiet_simulate(system, Forcing(stochastic=noise), plan)
    only_harm = quiet_simulate(system, Forcing(harmonic=harmonic), plan)
    residual = both.x1 - only_noise.x1 - only_harm.x1
    assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(both.x1))


def test_halving_dt_converged_steady_state():
    """At the default step the driven amplitude is converged to < 0.01%."""
    cfg, system, modes = single_resonator(q=100.0)
    f0 = modes.f1
    amps = []
    for divisor in (50.0, 100.0):
        dt = 1.0 / (divisor * modes.f2)
        plan = SimulationPlan(dt=dt, duration=3.0)
        series = quiet_simulate(
            system, Forcing(harmonic=(HarmonicDrive(1, 1e-6, f0),)), plan
        )
        amps.append(steady_state_amplitude(series, f0, start_fraction=0.7).amp1)
    assert abs(amps[0] - amps[1]) / amps[1] < 1e-4


def test_free_decay_envelope():
    """Free decay e-folds in Q/pi cycles (within 5%)."""
    cfg, system, modes = single_resonator(q=100.0)
    f0, q = modes.f1, 100.0
    dt = default_timestep(modes)
    plan = SimulationPlan(dt=dt, duration=80 * q / f0 / math.pi,
                          initial_state=(1e-6, 0.0, 0.0, 0.0))
    series = simulate(system, Forcing(), plan)

    def window_amplitude(center_cycle: float) -> float:
        # short 5-cycle Hann projection around the requested cycle count
        half = int(2.5 / (f0 * series.dt))
        mid = int(center_cycle / (f0 * series.dt))
        sl = slice(mid - half, mid + half)
        t = series.times[sl]
        w = 0.5 * (1 - np.cos(2 * np.pi * np.arange(t.size) / t.size))
        proj = np.sum(w * series.x1[sl] * np.exp(-2j * np.pi * f0 * t)) / w.sum()
        return 2 * abs(proj)

    n1, n2 = 10.0, 40.0
    ratio = window_amplitude(n2) / window_amplitude(n1)
    cycles_per_efold = -(n2 - n1) / math.log(ratio)
    assert cycles_per_efold == pytest.approx(q / math.pi, rel=0.05)


def test_equipartition_value():
    """Thermal drive at 4 kB T c gives <x^2> = kB T / k (quick version)."""
    from crnoise.noisebudget import BOLTZMANN, Environment, thermal_force_psd

    cfg, system, modes = single_resonator(q=100.0)
    psd = thermal_force_psd(cfg.c1, Environment())
    plan = SimulationPlan(dt=default_timestep(modes), duration=12.0)
    series = simulate(system, Forcing(stochastic=StochasticDrive(psd, seed=314, target="1")), plan)
    skip = int(0.1 * series.n_samples)
    x_sq = float(np.mean(series.x1[skip:] ** 2))
    assert x_sq == pytest.approx(BOLTZMANN * 300.0 / cfg.km1, rel=0.10)


# --- steady-state projection -----------------------------------------------------

def synthetic_series(dt, n, make):
    t = np.arange(n) * dt
    return TimeSeries(dt=dt, x1=make(t), x2=np.zeros(n))


def test_projection_pure_sine():
    dt, f, amp, phase = 1e-5, 997.0, 3.2e-7, 0.7
    series = synthetic_series(dt, 40000, lambda t: amp * np.sin(2 * np.pi * f * t + phase))
    steady = steady_state_amplitude(series, f, start_fraction=0.0)
    assert steady.amp1 == pytest.approx(amp, rel=1e-3)
    assert steady.phase1 == pytest.approx(phase, abs=1e-3)


def test_projection_rejects_far_tone():
    dt, f = 1e-5, 1000.0
    n = 40000
    window = n * dt  # 0.4 s; 5/T = 12.5 Hz
    f2 = f + 5.0 / window
    series = synthetic_series(
        dt, n,
        lambda t: 1e-6 * np.sin(2 * np.pi * f * t) + 1e-6 * np.sin(2 * np.pi * f2 * t + 0.3),
    )
    steady = steady_state_amplitude(series, f, start_fraction=0.0)
    assert steady.amp1 == pytest.approx(1e-6, rel=0.01)


def test_projection_window_too_short():
    series = synthetic_series(1e-5, 1000, lambda t: np.sin(2 * np.pi * 100 * t))
    with pytest.raises(ValueError, match="window too short"):
        steady_state_amplitude(series, 100.0, start_fraction=0.5)


def test_phase_difference_sign():
    dt, f = 1e-5, 500.0
    t = np.arange(50000) * dt
    series = TimeSeries(
        dt=dt,
        x1=np.sin(2 * np.pi * f * t),
        x2=np.sin(2 * np.pi * f * t + 0.25),
    )
    steady = steady_state_amplitude(series, f, start_fraction=0.0)
    assert steady.phase_diff == pytest.approx(0.25, abs=1e-3)


# --- CSV export -------------------------------------------------------------------

def test_timeseries_csv_format(tmp_path):
    series = TimeSeries(dt=0.5, x1=np.array([0.0, 1e-9]), x2=np.array([2e-9, -1e-9]))
    path = tmp_path / "ts.csv"
    write_timeseries_csv(series, path, comments=("alpha = 1",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# alpha = 1"
    assert lines[1] == "t_s,x1_m,x2_m"
    assert lines[2] == "0,0,2e-09"
    assert lines[3] == "0.5,1e-09,-1e-09"
    assert not list(tmp_path.glob("*.part"))


def test_timeseries_csv_matches_savetxt(tmp_path):
    """Byte-equal to np.savetxt(fmt="%.12g") over several formatting blocks."""
    rng = np.random.default_rng(3)
    n = 3 * _BLOCK_ROWS + 11
    x1 = rng.standard_normal(n) * 1e-9
    x1[:4] = (0.0, -0.0, 1.0, 1e-300)
    series = TimeSeries(dt=1.0 / 123456.7, x1=x1, x2=rng.standard_normal(n) * 3e-11)
    path = tmp_path / "ts.csv"
    write_timeseries_csv(series, path, comments=("alpha = 1", "beta = 2"))
    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# alpha = 1\n# beta = 2\nt_s,x1_m,x2_m\n")
        np.savetxt(handle, np.column_stack((series.times, series.x1, series.x2)),
                   fmt="%.12g", delimiter=",")
    assert path.read_bytes() == reference.read_bytes()
