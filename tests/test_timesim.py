"""Integrator correctness, stochastic forcing statistics, signal extraction."""

import dataclasses
import math
import re
import threading
import time
import warnings

import numpy as np
import pytest
from conftest import collect, textbook_rk4_step, welch_psd

from crnoise import cli, presets, spectral, timesim
from crnoise.errors import NumericalError
from crnoise.reports import _BLOCK_CELLS, csv_writer
from crnoise.sysmodel import build_system, frequency_response
from crnoise.timesim import (
    Forcing,
    HarmonicDrive,
    SimulationPlan,
    SteadyStateProjection,
    StochasticDrive,
    default_timestep,
    simulate,
    _noise_streams,
)


CHANNELS = ("x1", "x2", "v1", "v2")


def quiet(run, *args, **kwargs):
    """run(*args, **kwargs) with the settling-guideline warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(*args, **kwargs)


def quiet_collect(*args, **kwargs):
    return quiet(collect, *args, **kwargs)


@pytest.fixture(scope="module")
def reference():
    cfg = presets.reference_system()
    system = build_system(cfg)
    modes = system.modes
    return cfg, system, modes


def single_resonator(q=100.0):
    cfg = presets.uncoupled_system(q=q)
    system = build_system(cfg)
    return cfg, system, system.modes


# --- thermal force samples -----------------------------------------------------

def engine_force_samples(force_psd, dt, n, seed):
    """The first n force samples the engine draws for a noise-driven resonator."""
    drive = StochasticDrive(force_psd=(force_psd, 0.0), seed=seed)
    [(_, rng, sigma)] = _noise_streams(drive, dt)
    return rng.standard_normal(n) * sigma


def test_zero_psd_gives_zero_series():
    """A zero force PSD draws no stream: the engine adds no noise at all."""
    assert _noise_streams(StochasticDrive(force_psd=(0.0, 0.0), seed=1), 1e-5) == []


def test_numpy_integer_seed_draws_as_the_equal_int():
    """A numpy integer seed is kept as the equal Python int and draws the
    same streams; a bool is not a seed."""
    def draws(seed):
        drive = StochasticDrive(force_psd=(1e-22, 2e-22), seed=seed)
        assert type(drive.seed) is int
        return [(row, sigma, rng.standard_normal(4).tolist())
                for row, rng, sigma in _noise_streams(drive, 1e-5)]

    assert draws(np.int64(7)) == draws(np.uint32(7)) == draws(7)
    for seed in (True, np.True_, np.int64(-1), 7.0):
        with pytest.raises(ValueError, match="seed must be"):
            StochasticDrive(force_psd=(1e-22, 0.0), seed=seed)


def test_sample_variance_matches_psd():
    psd, dt = 5.136e-23, 8e-6
    samples = engine_force_samples(psd, dt, 1_000_000, seed=42)
    assert abs(samples.mean()) < 5e-3 * samples.std()
    # sigma^2 = S_F / (2 dt) = 3.21e-18 N^2
    assert samples.var() == pytest.approx(psd / (2 * dt), rel=0.05, abs=0)
    assert samples.var() == pytest.approx(3.21e-18, rel=0.05, abs=0)


def test_sample_stream_psd_is_flat():
    psd, dt = 5.136e-23, 8e-6
    samples = engine_force_samples(psd, dt, 500_000, seed=3)
    spectrum = welch_psd(samples, dt, segment_length=2048)
    freqs = spectrum.frequencies
    sel = (freqs >= 0.1 * 0.1 / dt) & (freqs <= 0.5 / dt)
    band = spectrum.values[sel]
    assert np.mean(band) == pytest.approx(psd, rel=0.10, abs=0)


def test_same_seed_bit_identical():
    a = engine_force_samples(1e-22, 1e-5, 5000, seed=7)
    b = engine_force_samples(1e-22, 1e-5, 5000, seed=7)
    assert np.array_equal(a, b)
    c = engine_force_samples(1e-22, 1e-5, 5000, seed=8)
    assert not np.array_equal(a, c)


# --- the RK4 update map ---------------------------------------------------------

def test_update_map_matches_textbook_rk4(reference):
    """One engine step == a hand-coded classical RK4 step with the same forcing."""
    from crnoise.timesim import _rk4_update_matrices

    _, system, modes = reference
    a, b = system.a, system.b
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


def _oracle_forces(forcing, plan):
    """(harmonic(t), noise) as the engine documents them: the harmonic force
    on each resonator at time t, and the held noise force of every step
    (the k-th resonator with a nonzero force PSD seeded seed ^ k), shape
    (2, n_steps)."""
    n_steps = int(round(plan.duration / plan.dt))
    noise = np.zeros((2, n_steps))
    drive = forcing.stochastic
    if drive is not None:
        driven = [(row, psd) for row, psd in enumerate(drive.force_psd) if psd > 0]
        for k, (row, psd) in enumerate(driven):
            sigma = math.sqrt(psd / (2 * plan.dt))
            noise[row] = np.random.default_rng(drive.seed ^ k).standard_normal(n_steps) * sigma

    def harmonic(t):
        force = np.zeros(2)
        for d in forcing.harmonic:
            force[d.target - 1] += d.amplitude * math.sin(2 * math.pi * d.frequency * t + d.phase)
        return force

    return harmonic, noise


def _hand_stepped_rk4(system, forcing, plan):
    """Oracle trajectory: textbook RK4 steps on M a = F - K x - C v.

    Harmonic drives are evaluated at the stage times; the noise is held over
    each step.  Returns the state (x1, v1, x2, v2) after every step.
    """
    mass_inv = np.linalg.inv(system.mass)
    k, c = system.stiffness, system.damping
    harmonic, noise = _oracle_forces(forcing, plan)
    states = [np.asarray(plan.initial_state, dtype=float)]
    for n in range(noise.shape[1]):
        def f(t, s, held=noise[:, n]):
            x, v = s[[0, 2]], s[[1, 3]]
            a = mass_inv @ (harmonic(t) + held - k @ x - c @ v)
            return np.array([v[0], a[0], v[1], a[1]])

        states.append(textbook_rk4_step(f, states[-1], n * plan.dt, plan.dt))
    return np.array(states)


@pytest.mark.parametrize("preset", presets.PRESET_NAMES)
def test_powers_match_a_matmul_running_product(preset):
    """The scan's weight tables Phi^k and Phi^-k (the inverse refined by one
    Newton step), k < 4096, bit for bit those of an np.matmul running product."""
    from crnoise.config import build_run_config, parse_config_text
    from crnoise.timesim import _powers, _rk4_update_matrices, _scan_block_length

    system = build_run_config(parse_config_text(presets.preset_text(preset))).design
    phi = _rk4_update_matrices(system.a, system.b, default_timestep(system.modes))[0]
    inv = np.linalg.inv(phi)
    inv += inv @ (np.eye(4) - phi @ inv)
    assert _scan_block_length(phi) == 4096
    for m in (phi, inv):
        want = np.empty((4096, 4, 4))
        want[0] = np.eye(4)
        for k in range(1, 4096):
            np.matmul(want[k - 1], m, out=want[k])
        assert np.array_equal(_powers(m, 4096), want)


def _exact_step_loop(system, forcing, plan):
    """Oracle trajectory: the engine's recursion x[n+1] = Phi x[n] + G0 u(t_n)
    + Gm u(t_n + dt/2) + G1 u(t_n + dt), stepped one at a time, each state
    component the exactly rounded sum (math.fsum) of its products."""
    from crnoise.timesim import _rk4_update_matrices

    dt = plan.dt
    phi, g0, gm, g1 = _rk4_update_matrices(system.a, system.b, dt)
    harmonic, noise = _oracle_forces(forcing, plan)
    n_steps = noise.shape[1]
    forces = [np.array([harmonic(n * dt + offset) for n in range(n_steps)])
              for offset in (0.0, 0.5 * dt, dt)]
    forces += [noise.T] * 3  # held over the step, so weighted by G0 + Gm + G1
    # products[n][i]: the input products of state component i at step n
    products = np.concatenate(
        [u[:, None, :] * g for g, u in zip((g0, gm, g1) * 2, forces)], axis=2
    ).tolist()
    phi = phi.tolist()
    states = [list(plan.initial_state)]
    for n in range(n_steps):
        x = states[-1]
        states.append([
            math.fsum([p * xm for p, xm in zip(phi[i], x)] + products[n][i]) for i in range(4)
        ])
    return np.array(states)


def oracle_test_forcing(modes, noise=True):
    """Two harmonic drives, one per resonator, and noise on both (or none)."""
    return Forcing(
        harmonic=(HarmonicDrive(1, 1e-6, modes.f1), HarmonicDrive(2, 4e-7, 2100.0, 0.2)),
        stochastic=StochasticDrive(force_psd=(5e-23, 5e-23), seed=12) if noise else None,
    )


def damped_reference(fraction: float, coupled: bool = True):
    """Reference pair with every damper at fraction * 2 sqrt(km m)."""
    cfg = presets.reference_system()
    c = fraction * 2.0 * math.sqrt(cfg.km1 * cfg.m1)
    if coupled:
        return build_system(dataclasses.replace(cfg, c1=c, c2=c, cc=c))
    return build_system(dataclasses.replace(cfg, kc=0.0, c1=c, c2=c, cc=0.0))


def asymmetric_reference():
    """Reference pair with resonator 2's mass, spring and damper off resonator
    1's and the coupler damper off both: a swapped row or mass in the
    first-order form shows on it."""
    cfg = presets.reference_system()
    return build_system(dataclasses.replace(cfg, m2=1.3 * cfg.m1, km2=1.2 * cfg.km1,
                                            c2=2.0 * cfg.c1, cc=0.5 * cfg.c1))


@pytest.mark.parametrize(
    "fraction, coupled",
    [(None, True), (0.999, True), (1.0, False),
     pytest.param("asymmetric", True, marks=pytest.mark.filterwarnings("ignore:cc differs"))],
    ids=["reference", "near_critical", "critical_uncoupled", "asymmetric"],
)
def test_engine_matches_hand_stepped_rk4(reference, fraction, coupled):
    """The engine against an independent RK4 loop, including (near-)defective
    Phi and an asymmetric pair; the loop forms M^-1 (F - K x - C v) itself, so
    it checks the design's (A, B) as well."""
    if fraction == "asymmetric":
        system = asymmetric_reference()
    else:
        system = reference[1] if fraction is None else damped_reference(fraction, coupled)
    modes = system.modes
    dt = default_timestep(modes)
    plan = SimulationPlan(dt=dt, duration=3000 * dt, record_decimation=2,
                          initial_state=(1e-7, 0.0, -3e-8, 2e-4))
    forcing = oracle_test_forcing(modes)
    series = quiet_collect(system, forcing, plan, CHANNELS)
    oracle = _hand_stepped_rk4(system, forcing, plan)[:: plan.record_decimation]
    for name, col in (("x1", 0), ("v1", 1), ("x2", 2), ("v2", 3)):
        got, want = getattr(series, name), oracle[:, col]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), name


@pytest.mark.parametrize(
    "fraction, coupled, noise",
    [(None, True, True), (0.999, True, True), (1.0, False, True), (None, True, False),
     (0.0, True, True), (0.0, True, False)],
    ids=["reference", "near_critical", "critical_uncoupled", "reference_harmonic_only",
         "undamped", "undamped_harmonic_only"],
)
def test_engine_matches_exact_step_loop(reference, fraction, coupled, noise, monkeypatch):
    """The engine against the recursion it evaluates, over several scan
    blocks and chunks, to 1e-13 of full scale (~1e-14 is typical, ~6e-14
    for the undamped pair; without the Newton step on Phi^-1 the reference
    pair reaches 5.6e-13).  Its block length L is the longest power of two
    <= 4096 over which no eigenvalue of Phi grows or decays by more than
    1e3.  Without noise the two drives are the only inputs.  The undamped
    pair's mode-1 drive sits next to an eigenvalue of Phi on the unit
    circle: a steady state solved from the one-step form (z I - Phi) X = Gc
    misses by 7.5e-12, the one solved over a scan block by ~6e-14."""
    from crnoise.timesim import _rk4_update_matrices

    system = reference[1] if fraction is None else damped_reference(fraction, coupled)
    modes = system.modes
    dt = default_timestep(modes)
    monkeypatch.setattr(timesim, "_CHUNK_STEPS", 8192)
    plan = SimulationPlan(dt=dt, duration=(3 * 4096 + 1234) * dt,
                          initial_state=(1e-7, 0.0, -3e-8, 2e-4))
    forcing = oracle_test_forcing(modes, noise)
    series = quiet_collect(system, forcing, plan, CHANNELS)
    oracle = _exact_step_loop(system, forcing, plan)
    for name, col in (("x1", 0), ("v1", 1), ("x2", 2), ("v2", 3)):
        got, want = getattr(series, name), oracle[:, col]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name

    phi = _rk4_update_matrices(system.a, system.b, dt)[0]
    rate = np.max(np.abs(np.log(np.abs(np.linalg.eigvals(phi)))))
    length = series.metadata["scan_block"]
    assert 4096 % length == 0 and rate * length <= math.log(1e3)
    assert length == 4096 or rate * 2 * length > math.log(1e3)


@pytest.mark.parametrize(
    "fraction, steps, start, refused",
    [(0.0, 200, (1e-7, 0.0, -3e-8, 2e-4), True), (0.0, 1000, (0.0,) * 4, True),
     (1e-9, 200, (1e-7, 0.0, -3e-8, 2e-4), True), (1e-5, 1000, (0.0,) * 4, True),
     (1e-7, 200, (1e-7, 0.0, -3e-8, 2e-4), False), (None, 1000, (0.0,) * 4, False)],
    ids=["undamped_harmonic_only_200", "undamped_from_rest_1000", "q1.7e8_200",
         "q1.7e4_from_rest_1000", "q1.7e6_200", "reference_from_rest_1000"],
)
def test_unresolved_steady_state_is_refused(reference, fraction, steps, start, refused,
                                            monkeypatch):
    """A drive's steady state X is added to a scan started from x0 - x_p[0].
    Near a mode with little or no damping |X| grows as 1/|z - lambda|, a
    record driven for few cycles stays far below it, and the sum loses
    ~1e-14 |X| (4.2e-11 of full scale for the undamped pair at 200 steps
    per period, 2.7e-5 at 1000 from rest; the reference pair from rest at
    1000 reads 5.4e-13).  The engine refuses such a run, naming the damping
    keys, and holds every run it accepts to 1e-11 of full scale."""
    system = reference[1] if fraction is None else damped_reference(fraction)
    modes = system.modes
    dt = 1.0 / (steps * modes.f2)
    monkeypatch.setattr(timesim, "_CHUNK_STEPS", 8192)
    plan = SimulationPlan(dt=dt, duration=(3 * 4096 + 1234) * dt, initial_state=start)
    forcing = oracle_test_forcing(modes, noise=False)
    if refused:
        with pytest.raises(NumericalError, match=r"system\.c1, system\.c2 or system\.cc"):
            quiet_collect(system, forcing, plan, CHANNELS)
        return
    series = quiet_collect(system, forcing, plan, CHANNELS)
    oracle = _exact_step_loop(system, forcing, plan)
    for name, col in (("x1", 0), ("v1", 1), ("x2", 2), ("v2", 3)):
        want = oracle[:, col]
        error = np.max(np.abs(getattr(series, name) - want)) / np.max(np.abs(want))
        assert error <= 1e-11, (name, error)


def _decimal_pi(decimal):
    """pi to the current decimal precision (the series of the decimal module's docs)."""
    decimal.getcontext().prec += 2
    lasts, t, s, n, na, d, da = 0, decimal.Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def _decimal_expi(decimal, x):
    """(cos x, sin x) of a small Decimal x by its Taylor series."""
    cos, sin, term, n = decimal.Decimal(1), x, x, 1
    while True:
        term = term * x / (n + 1)
        n += 1
        if abs(term) < decimal.Decimal(10) ** -(decimal.getcontext().prec + 5):
            return +cos, +sin
        if n % 4 == 2:
            cos -= term
        elif n % 4 == 3:
            sin -= term
        elif n % 4 == 0:
            cos += term
        else:
            sin += term


def _exact_harmonic_steady_state(system, drive, plan):
    """The RK4 recursion's exact steady state under one harmonic drive, at
    every recorded step: x[n] = Im(X e^{i w n dt}) with X = a e^{i phase}
    (e^{i w dt} I - Phi)^-1 (G0 + Gm e^{i w dt/2} + G1 e^{i w dt}) e_target
    and w the float 2 pi f the drive is defined with.  X, solved as a real
    8x8 system, and every phase w n dt + phase, reduced mod 2 pi, are
    evaluated in 50-digit decimal arithmetic.  Returns (states, initial
    state), states (n_samples, 4) in the order x1, v1, x2, v2."""
    import decimal

    from crnoise.timesim import _rk4_update_matrices

    D = decimal.Decimal
    phi, g0, gm, g1 = _rk4_update_matrices(system.a, system.b, plan.dt)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        theta = D(2.0 * math.pi * drive.frequency) * D(plan.dt)
        c1, s1 = _decimal_expi(decimal, theta)
        ch, sh = _decimal_expi(decimal, theta / 2)
        col = drive.target - 1
        b_re = [D(g0[i, col]) + D(gm[i, col]) * ch + D(g1[i, col]) * c1 for i in range(4)]
        b_im = [D(gm[i, col]) * sh + D(g1[i, col]) * s1 for i in range(4)]
        # (z I - Phi)(Xr + i Xi) = b with z = c1 + i s1, as a real 8x8 system
        m = [[D(0)] * 8 + [rhs] for rhs in b_re + b_im]
        for i in range(4):
            for j in range(4):
                m[i][j] = m[i + 4][j + 4] = (c1 if i == j else 0) - D(phi[i, j])
            m[i][i + 4], m[i + 4][i] = -s1, s1
        for p in range(8):  # Gaussian elimination with partial pivoting
            q = max(range(p, 8), key=lambda r: abs(m[r][p]))
            m[p], m[q] = m[q], m[p]
            for r in range(p + 1, 8):
                factor = m[r][p] / m[p][p]
                m[r] = [a - factor * b for a, b in zip(m[r], m[p])]
        x = [D(0)] * 8
        for p in reversed(range(8)):
            x[p] = (m[p][8] - sum(m[p][j] * x[j] for j in range(p + 1, 8))) / m[p][p]
        x_re = np.array([float(v) for v in x[:4]])
        x_im = np.array([float(v) for v in x[4:]])
        two_pi, start = 2 * _decimal_pi(decimal), D(drive.phase)
        phases = np.array([float((theta * n + start) % two_pi)
                           for n in range(0, plan.n_steps + 1, plan.record_decimation)])
    # Im(X e^{i psi}) with X rounded to doubles: ~1e-16 of |X| per sample
    states = drive.amplitude * (np.outer(np.sin(phases), x_re) + np.outer(np.cos(phases), x_im))
    return states, tuple(states[0])


@pytest.mark.parametrize(
    "frequency, target, bounds",
    [("mode1", 1, {"x1": 1e-12, "x2": 1e-12}), ("mode2", 2, {"x1": 1e-12, "x2": 1e-12}),
     (2100.0, 2, {"x1": 1e-12, "x2": 1e-12})],
    ids=["resonant", "mode2", "off_resonant"],
)
def test_harmonic_drive_holds_exact_steady_state(reference, frequency, target, bounds):
    """A 20 s run at decimation 25 started on the recursion's exact steady
    state stays on it at every recorded sample, to the bound of full scale
    (~1e-14 is typical, 2.4e-13 for the small off-resonant x1).  An engine
    that forms its phases in binary drifts 3.5e-11 to 5.7e-11 away, and one
    that solves the steady state from the one-step form (z I - Phi) X = Gc
    misses by 6.6e-13 to 1.9e-12 on the resonant drives."""
    _, system, modes = reference
    frequency = {"mode1": modes.f1, "mode2": modes.f2}.get(frequency, frequency)
    drive = HarmonicDrive(target, 1e-6, frequency, 0.7)
    plan = SimulationPlan(dt=default_timestep(modes), duration=20.0, record_decimation=25)
    want, start = _exact_harmonic_steady_state(system, drive, plan)
    series = quiet_collect(system, Forcing(harmonic=(drive,)),
                           dataclasses.replace(plan, initial_state=start))
    for name, col in (("x1", 0), ("x2", 2)):
        got = getattr(series, name)
        assert got.shape == want[:, col].shape
        error = np.max(np.abs(got - want[:, col])) / np.max(np.abs(want[:, col]))
        assert error <= bounds[name], (name, error)


def test_harmonic_run_records_its_initial_state(reference):
    """The first sample is the initial state as given, bit for bit, though
    the scan starts from it less the drive's steady state.  The plan refuses
    a non-finite one: the engine checks the record from sample 1 on."""
    _, system, modes = reference
    start = (1.234567e-7, -3.1e-4, 2.2e-8, 7.7e-4)
    plan = SimulationPlan(dt=default_timestep(modes), duration=0.01, record_decimation=7,
                          initial_state=start)
    forcing = Forcing(harmonic=(HarmonicDrive(1, 1e-6, modes.f1, 0.7),
                                HarmonicDrive(2, 3e-7, 2100.0, 1.9)))
    series = quiet_collect(system, forcing, plan, CHANNELS)
    assert tuple(float(getattr(series, name)[0]) for name in ("x1", "v1", "x2", "v2")) == start
    with pytest.raises(ValueError, match="4 finite entries"):
        dataclasses.replace(plan, initial_state=(math.nan, 0.0, 0.0, 0.0))


def test_rk4_resonance_bias_warns(reference):
    """The settled amplitude of the RK4 recursion's steady state against
    |a h(f)| over x1 and x2: a mode-2 drive at 25 steps per period reads
    4.6% low and warns; at the default 50 steps per period it does not."""
    _, system, modes = reference
    drive = HarmonicDrive(2, 1e-6, modes.f2)
    for steps, warned in ((25, True), (50, False)):
        plan = SimulationPlan(dt=1.0 / (steps * modes.f2), duration=0.01)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            collect(system, Forcing(harmonic=(drive,)), plan)
        biased = [str(w.message) for w in caught if "settled amplitude" in str(w.message)]
        assert len(biased) == warned, biased
        if warned:
            assert re.search(rf"dt = {plan.dt:g} s: .* at {modes.f2:g} Hz by -4\.6%", biased[0])


# --- simulate ---------------------------------------------------------------------

def test_zero_forcing_zero_output(reference):
    _, system, modes = reference
    plan = SimulationPlan(dt=default_timestep(modes), duration=0.01)
    series = collect(system, Forcing(), plan)
    assert series.x1.size == plan.n_samples
    assert np.all(series.x1 == 0.0)
    assert np.all(series.x2 == 0.0)


def test_dt_bound_enforced(reference):
    _, system, modes = reference
    plan = SimulationPlan(dt=1.0 / (10 * modes.f2), duration=0.01)
    with pytest.raises(ValueError, match="dt"):
        collect(system, Forcing(), plan)


def test_determinism_same_seed(reference):
    _, system, modes = reference
    plan = SimulationPlan(dt=default_timestep(modes), duration=0.05)
    forcing = Forcing(stochastic=StochasticDrive(force_psd=(5.1e-23, 0.0), seed=99))
    a = collect(system, forcing, plan)
    b = collect(system, forcing, plan)
    assert np.array_equal(a.x1, b.x1)
    assert np.array_equal(a.x2, b.x2)


def test_concurrent_runs_match_serial(reference):
    """Independent simulations share no mutable state across threads."""
    from concurrent.futures import ThreadPoolExecutor

    _, system, modes = reference
    plan = SimulationPlan(dt=default_timestep(modes), duration=0.05)

    def run(seed):
        forcing = Forcing(stochastic=StochasticDrive((5.1e-23, 0.0), seed=seed))
        return collect(system, forcing, plan)

    serial = [run(seed) for seed in (1, 2, 3, 4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(run, (1, 2, 3, 4)))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.x1, b.x1)
        assert np.array_equal(a.x2, b.x2)


def noise_chunks(monkeypatch, steps):
    """Set _CHUNK_STEPS so that a noise run, as chunk_test_run's are, hands
    out chunks of steps steps, a quarter of it."""
    monkeypatch.setattr(timesim, "_CHUNK_STEPS", 4 * steps)
    assert timesim._chunking(True)[0] == steps


def chunk_test_run(system, modes, n_steps, decimation=1, sink=None, channels=None):
    """Thermal and harmonic drive together, every channel (or those named)
    collected, or handed to sink."""
    dt = default_timestep(modes)
    forcing = Forcing(
        harmonic=(HarmonicDrive(1, 1e-6, modes.f1, 0.3),),
        stochastic=StochasticDrive(force_psd=(5.1e-23, 5.1e-23), seed=4),
    )
    plan = SimulationPlan(dt=dt, duration=n_steps * dt, record_decimation=decimation)
    channels = CHANNELS if channels is None else channels
    if sink is None:
        return quiet_collect(system, forcing, plan, channels)
    return quiet(simulate, system, forcing, plan, sink, channels)


@pytest.mark.parametrize("harmonic, noise", [(True, False), (False, True), (False, False),
                                             (True, True)],
                         ids=["harmonic", "noise", "none", "both"])
def test_decimation_subsamples(reference, monkeypatch, harmonic, noise):
    """Across chunks of 4096 steps, which none of these decimations divides,
    under each mix of forcings, from a displaced start so that every run moves."""
    _, system, modes = reference
    monkeypatch.setattr(timesim, "_CHUNK_STEPS", 4096)
    n_steps = 3 * 4096 + 1234
    dt = default_timestep(modes)
    forcing = Forcing(
        harmonic=(HarmonicDrive(1, 1e-6, modes.f1, 0.3),) if harmonic else (),
        stochastic=StochasticDrive(force_psd=(5.1e-23, 5.1e-23), seed=4) if noise else None,
    )

    def run(decimation):
        plan = SimulationPlan(dt=dt, duration=n_steps * dt, record_decimation=decimation,
                              initial_state=(1e-9, 0.0, -2e-9, 1e-5))
        return quiet_collect(system, forcing, plan, CHANNELS)

    full = run(1)
    for decimation in (5, 7, 5000):
        deci = run(decimation)
        assert deci.dt == pytest.approx(decimation * full.dt, rel=1e-6, abs=0)
        for name in CHANNELS:
            assert np.array_equal(getattr(deci, name), getattr(full, name)[::decimation])


def test_trajectory_independent_of_chunk_size(reference, monkeypatch):
    _, system, modes = reference
    n_steps = 3 * 4096 + 1234
    whole = chunk_test_run(system, modes, n_steps)  # one chunk
    for chunk_steps in (4096, 10_000):  # 4 and 2 chunks (10_000 rounds down to 8192)
        monkeypatch.setattr(timesim, "_CHUNK_STEPS", 4 * chunk_steps)  # a noise run's quarter
        cut = chunk_test_run(system, modes, n_steps)
        for name in CHANNELS:
            assert np.array_equal(getattr(cut, name), getattr(whole, name))


def streamed():
    """A sink that keeps a copy of every chunk it is passed, and the chunks."""
    chunks = []
    return chunks, lambda chunk: chunks.append({k: v.copy() for k, v in chunk.items()})


def test_streamed_chunks_match_record(reference, monkeypatch):
    """The sink gets the record's chunks in order, the initial state first:
    joined, they are a one-chunk run's record, bit for bit.  The returned
    series counts the samples and holds none."""
    _, system, modes = reference
    n_steps = 3 * 4096 + 1234
    for decimation in (1, 5, 7, 5000):
        monkeypatch.undo()
        whole = chunk_test_run(system, modes, n_steps, decimation)  # one chunk
        noise_chunks(monkeypatch, 4096)
        chunks, sink = streamed()
        series = chunk_test_run(system, modes, n_steps, decimation, sink)
        assert series.n_samples == whole.n_samples == 1 + n_steps // decimation
        assert series.dt == pytest.approx(decimation * default_timestep(modes), rel=1e-6, abs=0)
        assert all(getattr(series, name) is None for name in CHANNELS)
        assert len(chunks) == min(5, 1 + n_steps // decimation)
        assert all(list(chunk) == list(CHANNELS) for chunk in chunks)
        assert chunks[0]["x1"].size == 1
        for name in CHANNELS:
            joined = np.concatenate([chunk[name] for chunk in chunks])
            assert np.array_equal(joined, getattr(whole, name))


def test_streamed_run_forms_only_requested_channels(reference, monkeypatch):
    _, system, modes = reference
    formed = set()
    scan = timesim._run_scan

    def spy(*args):
        for chunk in scan(*args):
            formed.update(chunk)
            yield chunk

    monkeypatch.setattr(timesim, "_run_scan", spy)
    chunks, sink = streamed()
    series = chunk_test_run(system, modes, 5000, 3, sink, channels=("x2",))
    assert formed == {"x2"}
    assert all(list(chunk) == ["x2"] for chunk in chunks)
    assert sum(c["x2"].size for c in chunks) == series.n_samples == 5000 // 3 + 1
    for channels in (("x3",), ("x1", "x3"), ()):
        with pytest.raises(ValueError, match="x1, x2, v1, v2"):
            chunk_test_run(system, modes, 100, 1, print, channels)


def negatively_damped(system):
    """system with every damper at -1000 times its value, a pair that grows:
    no SystemConfig admits one, so its damping and its A are scaled here."""
    a = system.a.copy()
    a[..., 1::2, 1::2] *= -1000.0
    return dataclasses.replace(system, damping=-1000.0 * system.damping, a=a)


def test_non_finite_sample_named_alike_when_streamed(reference, monkeypatch):
    """A growing (negatively damped) pair overflows in its third chunk; runs
    that form different channels name the same record sample, and the record
    before it is finite."""
    _, system, modes = reference
    monkeypatch.setattr(timesim, "_CHUNK_STEPS", 4096)
    unstable = negatively_damped(system)
    dt = default_timestep(modes)

    def run(n_steps, channels=("x1", "x2")):
        plan = SimulationPlan(dt=dt, duration=n_steps * dt, record_decimation=3,
                              initial_state=(1e-7, 0.0, 0.0, 0.0))
        with np.errstate(all="ignore"):
            return collect(unstable, Forcing(), plan, channels)

    messages = []
    for channels in (("x1", "x2"), ("x2", "x1"), CHANNELS):
        with pytest.raises(NumericalError, match="non-finite x1") as caught:
            run(60_000, channels)
        messages.append(str(caught.value))
    assert len(set(messages)) == 1
    bad = int(re.search(r"sample (\d+)", messages[0]).group(1))
    assert bad * 3 > 2 * 4096
    before = run(3 * (bad - 1))
    assert np.isfinite(before.x1).all() and before.n_samples == bad


def test_slow_sink_sees_its_chunk_unchanged(reference, monkeypatch):
    """Sinks run on a worker thread while the engine forms the next chunks; a
    chunk's arrays must not be rewritten while a sink still holds them."""
    _, system, modes = reference
    noise_chunks(monkeypatch, 4096)
    n_steps = 6 * 4096 + 1234
    for decimation in (1, 3, 5000):  # at 5000 some chunks record nothing
        whole = chunk_test_run(system, modes, n_steps, decimation)
        changed, kept = [], []

        def slow(chunk):
            copy = chunk["x1"].copy()
            time.sleep(0.02)
            changed.append(not np.array_equal(chunk["x1"], copy))
            kept.append(copy)

        chunk_test_run(system, modes, n_steps, decimation, slow, ("x1",))
        assert len(kept) == (8 if decimation < 5000 else 6) and not any(changed)
        assert np.array_equal(np.concatenate(kept), whole.x1)


def test_sink_may_keep_its_arrays(reference, monkeypatch):
    """Each chunk comes in arrays the engine never writes again, so a sink
    may keep them as they are: joined, they are a one-chunk run's record."""
    _, system, modes = reference
    n_steps = 6 * 4096 + 1234
    for decimation in (1, 3, 5000):  # at 5000 some chunks record nothing
        noise_chunks(monkeypatch, 8 * 4096)
        whole = chunk_test_run(system, modes, n_steps, decimation)  # one chunk
        noise_chunks(monkeypatch, 4096)
        kept = []
        chunk_test_run(system, modes, n_steps, decimation, kept.append)
        assert len(kept) == (8 if decimation < 5000 else 6)
        for name in CHANNELS:
            joined = np.concatenate([chunk[name] for chunk in kept])
            assert np.array_equal(joined, getattr(whole, name)), (decimation, name)


def test_sink_error_stops_the_run(reference, monkeypatch):
    """The sink's own exception reaches the caller, no chunk after it is
    passed on, the engine stops and the worker thread is gone; at a handoff
    depth of one and at the shipped run-ahead, 16 chunks of the noise run."""
    _, system, modes = reference
    formed = []
    scan = timesim._run_scan

    def spy(*args):
        formed.append(None)  # the record's chunk 0, the initial state, is not the scan's
        for chunk in scan(*args):
            formed.append(chunk)
            yield chunk

    monkeypatch.setattr(timesim, "_run_scan", spy)
    error = RuntimeError("sink failed")
    passed = []

    def failing(chunk):
        passed.append(chunk["x1"].size)
        if len(passed) == 3:
            time.sleep(0.05)  # the engine runs ahead meanwhile
            raise error

    threads = threading.active_count()
    # 4096-step chunks either way: a quarter of 4096 steps takes one whole scan block
    for chunk_steps, handoff in ((4096, 1), (4 * 4096, timesim._HANDOFF_CHUNKS)):
        monkeypatch.setattr(timesim, "_CHUNK_STEPS", chunk_steps)
        monkeypatch.setattr(timesim, "_HANDOFF_CHUNKS", handoff)
        chunk, depth = timesim._chunking(True)
        assert chunk == 4096 and depth == (1 if handoff == 1 else 16)
        formed.clear()
        passed.clear()
        with pytest.raises(RuntimeError) as caught:
            chunk_test_run(system, modes, (depth + 20) * 4096, 1, failing, ("x1",))
        assert caught.value is error
        assert len(passed) == 3
        # at most the three passed, the queued ones and the one waiting to be queued
        assert len(formed) <= 3 + depth + 1  # 5 at a depth of one
        assert threading.active_count() == threads


def test_sink_error_on_the_last_chunk(reference, monkeypatch):
    """A sink that fails on the record's last chunk, after the engine has
    queued every chunk and left its loop, still has its exception raised by
    simulate, and the worker thread is gone."""
    _, system, modes = reference
    monkeypatch.setattr(timesim, "_CHUNK_STEPS", 4096)
    queued = threading.Event()  # set once the engine asks for a chunk after the last
    scan = timesim._run_scan

    def spy(*args):
        yield from scan(*args)
        queued.set()

    monkeypatch.setattr(timesim, "_run_scan", spy)
    dt = default_timestep(modes)
    plan = SimulationPlan(dt=dt, duration=3 * 4096 * dt)
    error = RuntimeError("sink failed on the last chunk")
    seen = []

    def failing(chunk):
        seen.append(chunk["x1"].size)
        if sum(seen) == plan.n_samples:
            assert queued.wait(10.0)
            raise error

    threads = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        simulate(system, Forcing(), plan, failing, ("x1",))
    assert caught.value is error and queued.is_set()
    assert len(seen) == 4  # the initial state and three chunks of the scan
    assert threading.active_count() == threads


def test_engine_side_errors_leave_no_thread(reference, monkeypatch):
    """The engine's NumericalError, and an interrupt while the engine runs,
    stop and join the sink worker; at a handoff depth of one, the chunk
    waiting in the queue when the interrupt comes is not passed on (the
    shipped depth: test_engine_runs_ahead_of_a_slow_sink)."""
    _, system, modes = reference
    monkeypatch.setattr(timesim, "_CHUNK_STEPS", 4096)
    unstable = negatively_damped(system)
    dt = default_timestep(modes)
    plan = SimulationPlan(dt=dt, duration=60_000 * dt, record_decimation=3,
                          initial_state=(1e-7, 0.0, 0.0, 0.0))
    threads = threading.active_count()
    for channels in (("x1",), CHANNELS):
        with pytest.raises(NumericalError), np.errstate(all="ignore"):
            simulate(unstable, Forcing(), plan, streamed()[1], channels)
        assert threading.active_count() == threads

    scan = timesim._run_scan

    def interrupted(*args):  # the record's chunk 0 is the initial state, not the scan's
        for index, chunk in enumerate(scan(*args), 1):
            if index == 3:
                raise KeyboardInterrupt
            yield chunk

    def slow(chunk):
        time.sleep(0.05)
        passed.append(chunk)

    monkeypatch.setattr(timesim, "_run_scan", interrupted)
    monkeypatch.setattr(timesim, "_HANDOFF_CHUNKS", 1)
    assert timesim._chunking(False) == (4096, 1)
    passed = []
    with pytest.raises(KeyboardInterrupt):
        simulate(system, Forcing(), dataclasses.replace(plan, initial_state=(0.0,) * 4), slow)
    assert threading.active_count() == threads
    assert len(passed) == 2  # chunk 1 was under way and chunk 2 in the queue


def test_engine_runs_ahead_of_a_slow_sink(reference, monkeypatch):
    """While the sink holds its first chunk, the engine forms the chunks the
    queue takes and one more, and waits to queue that one; released, the
    sink gets an unheld run's record.  An interrupt that comes while the
    sink holds its first chunk drops every queued chunk.  The noise run's
    queue holds _HANDOFF_CHUNKS x _CHUNK_STEPS steps, 16 of its chunks."""
    _, system, modes = reference
    noise_chunks(monkeypatch, 4096)
    depth = timesim._chunking(True)[1]
    assert depth * 4096 == timesim._HANDOFF_CHUNKS * timesim._CHUNK_STEPS and depth == 16
    n_steps = 4 * depth * 4096 + 1234
    whole = chunk_test_run(system, modes, n_steps, 3)
    formed = []
    scan = timesim._run_scan

    def spy(*args):
        formed.append(None)  # the record's chunk 0, the initial state, is not the scan's
        for chunk in scan(*args):
            formed.append(chunk)
            yield chunk

    monkeypatch.setattr(timesim, "_run_scan", spy)
    held, release = threading.Event(), threading.Event()
    kept, done = [], []

    def holding(chunk):
        if not kept:
            held.set()
            release.wait(timeout=60)
        kept.append(chunk)

    threads = threading.active_count()
    runner = threading.Thread(
        target=lambda: done.append(chunk_test_run(system, modes, n_steps, 3, holding)))
    runner.start()
    try:
        assert held.wait(timeout=60)
        deadline = time.monotonic() + 60
        while len(formed) < depth + 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.2)  # time enough to form more chunks, were there room for them
        assert len(formed) == depth + 2  # the sink's chunk, the queued ones, the waiting one
    finally:
        release.set()
        runner.join(timeout=60)
    assert not runner.is_alive() and done
    assert len(kept) == len(formed) == 4 * depth + 2
    for name in CHANNELS:
        assert np.array_equal(np.concatenate([chunk[name] for chunk in kept]),
                              getattr(whole, name)), name

    def interrupted(*args):
        for index, chunk in enumerate(scan(*args), 1):
            if index == depth + 1:  # the sink holds chunk 0; chunks 1 to depth are queued
                assert held.wait(timeout=60)
                raise KeyboardInterrupt
            yield chunk

    def slow(chunk):
        held.set()
        time.sleep(0.2)  # the interrupt comes meanwhile
        passed.append(chunk)

    monkeypatch.setattr(timesim, "_run_scan", interrupted)
    held.clear()
    passed = []
    with pytest.raises(KeyboardInterrupt):
        chunk_test_run(system, modes, n_steps, 3, slow, ("x1",))
    assert threading.active_count() == threads
    assert len(passed) == 1


def test_chunk_length_follows_the_scan_buffers(reference, monkeypatch):
    """A noise run's sink gets chunks of 2^14 steps, a noise-free run's of
    2^16: only a noise run holds the scan's rows.  The engine's traced peak
    for a 2 s (248k-step) target-both run recording x1 and x2, each chunk
    going to a no-op sink on the engine's thread, stays within 2.5 MiB
    (2.07 MiB; 5.83 MiB with 2^16-step noise chunks)."""
    import tracemalloc

    _, system, modes = reference
    dt = default_timestep(modes)
    plan = SimulationPlan(dt=dt, duration=((1 << 16) + 100) * dt,
                          initial_state=(1e-9, 0.0, -2e-9, 1e-5))
    noise = Forcing(stochastic=StochasticDrive(force_psd=(5.1e-23, 5.1e-23), seed=4))
    for forcing, chunk in ((noise, 1 << 14), (Forcing(), 1 << 16)):
        sizes = []
        simulate(system, forcing, plan, lambda c: sizes.append(c["x1"].size), ("x1",))
        assert sizes == [1] + [chunk] * ((1 << 16) // chunk) + [100]

    def drain(sink, chunks, depth):
        for chunk in chunks:
            sink(chunk)

    monkeypatch.setattr(timesim, "_drain", drain)
    plan = SimulationPlan(dt=dt, duration=2.0)
    tracemalloc.start()
    try:
        simulate(system, noise, plan, lambda chunk: None, ("x1", "x2"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, peak


def settled(system, forcing, plan, start_fraction=0.5):
    """The steady-state projection of a run, at its first drive's frequency."""
    steady = SteadyStateProjection(plan.n_samples, plan.record_dt,
                                   forcing.harmonic[0].frequency, start_fraction)
    quiet(simulate, system, forcing, plan, steady.add)
    return steady.result()


def test_steady_state_matches_receptance(reference):
    _, system, modes = reference
    amplitude = 1e-6
    plan = SimulationPlan(dt=default_timestep(modes), duration=3.5)
    forcing = Forcing(harmonic=(HarmonicDrive(1, amplitude, modes.f1),))
    steady = settled(system, forcing, plan, start_fraction=0.6)
    h = frequency_response(system, [modes.f1])[0]
    assert steady.amp1 == pytest.approx(abs(h[0, 0]) * amplitude, rel=0.01, abs=0)
    assert steady.amp2 == pytest.approx(abs(h[0, 1]) * amplitude, rel=0.01, abs=0)


def test_drive_sized_for_published_displacement(reference):
    """Force chosen so the analytic amplitude is 0.419 um lands within 1%."""
    _, system, modes = reference
    h11 = abs(frequency_response(system, [modes.f1])[0, 0, 0])
    amplitude = 0.419e-6 / h11
    plan = SimulationPlan(dt=default_timestep(modes), duration=3.5)
    steady = settled(system, Forcing(harmonic=(HarmonicDrive(1, amplitude, modes.f1),)), plan,
                     start_fraction=0.6)
    assert steady.amp1 == pytest.approx(0.419e-6, rel=0.01, abs=0)


def test_linearity(reference):
    _, system, modes = reference
    plan = SimulationPlan(dt=default_timestep(modes), duration=2.5)
    a_low = settled(system, Forcing(harmonic=(HarmonicDrive(1, 1e-6, modes.f1),)), plan).amp1
    a_high = settled(system, Forcing(harmonic=(HarmonicDrive(1, 2e-6, modes.f1),)), plan).amp1
    assert a_high / a_low == pytest.approx(2.0, rel=1e-3, abs=0)


def test_superposition_same_seed(reference):
    _, system, modes = reference
    dt = default_timestep(modes)
    plan = SimulationPlan(dt=dt, duration=4000 * dt)
    noise = StochasticDrive(force_psd=(5.1e-23, 0.0), seed=21)
    harmonic = (HarmonicDrive(1, 1e-6, modes.f1),)
    both = quiet_collect(system, Forcing(harmonic=harmonic, stochastic=noise), plan)
    only_noise = quiet_collect(system, Forcing(stochastic=noise), plan)
    only_harm = quiet_collect(system, Forcing(harmonic=harmonic), plan)
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
        forcing = Forcing(harmonic=(HarmonicDrive(1, 1e-6, f0),))
        amps.append(settled(system, forcing, plan, start_fraction=0.7).amp1)
    assert abs(amps[0] - amps[1]) / amps[1] < 1e-4


def test_free_decay_envelope():
    """Free decay e-folds in Q/pi cycles (within 5%)."""
    cfg, system, modes = single_resonator(q=100.0)
    f0, q = modes.f1, 100.0
    dt = default_timestep(modes)
    plan = SimulationPlan(dt=dt, duration=80 * q / f0 / math.pi,
                          initial_state=(1e-6, 0.0, 0.0, 0.0))
    series = collect(system, Forcing(), plan)
    times = np.arange(series.n_samples) * series.dt

    def window_amplitude(center_cycle: float) -> float:
        # short 5-cycle Hann projection around the requested cycle count
        half = int(2.5 / (f0 * series.dt))
        mid = int(center_cycle / (f0 * series.dt))
        sl = slice(mid - half, mid + half)
        t = times[sl]
        w = 0.5 * (1 - np.cos(2 * np.pi * np.arange(t.size) / t.size))
        proj = np.sum(w * series.x1[sl] * np.exp(-2j * np.pi * f0 * t)) / w.sum()
        return 2 * abs(proj)

    n1, n2 = 10.0, 40.0
    ratio = window_amplitude(n2) / window_amplitude(n1)
    cycles_per_efold = -(n2 - n1) / math.log(ratio)
    assert cycles_per_efold == pytest.approx(q / math.pi, rel=0.05, abs=0)


# --- steady-state projection -----------------------------------------------------

def project(x1, x2, dt, frequency, start_fraction, chunk=7777):
    """SteadyStateProjection of two arrays, fed in chunks of `chunk` samples."""
    steady = SteadyStateProjection(x1.size, dt, frequency, start_fraction)
    for i in range(0, x1.size, chunk):
        steady.add({"x1": x1[i:i + chunk], "x2": x2[i:i + chunk]})
    return steady.result()


def synthetic(dt, n, make, start_fraction=0.0):
    """Projection of x1 = make(t) (x2 silent) at the frequency make was given."""
    t = np.arange(n) * dt
    return lambda f: project(make(t), np.zeros(n), dt, f, start_fraction)


def test_projection_pure_sine():
    dt, f, amp, phase = 1e-5, 997.0, 3.2e-7, 0.7
    steady = synthetic(dt, 40000, lambda t: amp * np.sin(2 * np.pi * f * t + phase))(f)
    assert steady.amp1 == pytest.approx(amp, rel=1e-3, abs=0)
    assert steady.phase1 == pytest.approx(phase, abs=1e-3)


def test_projection_rejects_far_tone():
    dt, f = 1e-5, 1000.0
    n = 40000
    window = n * dt  # 0.4 s; 5/T = 12.5 Hz
    f2 = f + 5.0 / window
    steady = synthetic(
        dt, n,
        lambda t: 1e-6 * np.sin(2 * np.pi * f * t) + 1e-6 * np.sin(2 * np.pi * f2 * t + 0.3),
    )(f)
    assert steady.amp1 == pytest.approx(1e-6, rel=0.01, abs=0)


def test_projection_window_too_short():
    """Checked when the projection is built, before any sample arrives."""
    with pytest.raises(ValueError, match="window too short"):
        SteadyStateProjection(1000, 1e-5, 100.0, start_fraction=0.5)
    steady = SteadyStateProjection(1000, 1e-5, 12000.0, start_fraction=0.5)
    steady.add({"x1": np.zeros(999), "x2": np.zeros(999)})
    with pytest.raises(ValueError, match="999 samples, expected 1000"):
        steady.result()


def test_phase_difference_sign():
    dt, f = 1e-5, 500.0
    t = np.arange(50000) * dt
    steady = project(np.sin(2 * np.pi * f * t), np.sin(2 * np.pi * f * t + 0.25), dt, f, 0.0)
    assert steady.phase_diff == pytest.approx(0.25, abs=1e-3)


def test_projection_independent_of_chunking():
    """Chunked, the projection is the whole-record Hann projection over the
    final 1 - start_fraction of the samples, to rounding."""
    rng = np.random.default_rng(8)
    dt, f, n, start_fraction = 1e-5, 1234.5, 30011, 0.37
    x1, x2 = rng.standard_normal((2, n))
    start = int(start_fraction * n)
    k = np.arange(n - start)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * k / k.size))
    basis = np.exp(-2j * np.pi * f * (start + k) * dt)
    want = [np.sum(window * basis * x[start:]) / window.sum() for x in (x1, x2)]
    for chunk in (1, 999, start, n):
        steady = project(x1, x2, dt, f, start_fraction, chunk)
        assert steady.amp1 == pytest.approx(2 * abs(want[0]), rel=1e-12, abs=0)
        assert steady.amp2 == pytest.approx(2 * abs(want[1]), rel=1e-12, abs=0)
        assert steady.phase1 == pytest.approx(np.angle(want[0]) + np.pi / 2, abs=1e-12)


# --- CSV export -------------------------------------------------------------------

def write_timeseries(path, x1, x2, dt, comments, chunk):
    """The CLI's timeseries.csv writer, fed x1 and x2 in chunks."""
    with csv_writer(path, cli.TIMESERIES_HEADER, comments) as write:
        add = cli._timeseries_sink(write, dt, {})
        for i in range(0, x1.size, chunk):
            add({"x1": x1[i:i + chunk], "x2": x2[i:i + chunk]})


def test_timeseries_csv_format(tmp_path):
    path = tmp_path / "ts.csv"
    write_timeseries(path, np.array([0.0, 1e-9]), np.array([2e-9, -1e-9]), 0.5,
                     ("alpha = 1",), chunk=1)
    lines = path.read_text().splitlines()
    assert lines[0] == "# alpha = 1"
    assert lines[1] == "t_s,x1_m,x2_m"
    assert lines[2] == "0,0,2e-09"
    assert lines[3] == "0.5,1e-09,-1e-09"
    assert not list(tmp_path.glob("*.part"))


def test_timeseries_csv_matches_savetxt(tmp_path):
    """Byte-equal to np.savetxt(fmt="%.12g") of the times np.arange(n) * dt,
    over several formatting blocks, whatever chunks the samples come in."""
    rng = np.random.default_rng(3)
    block_rows = _BLOCK_CELLS // 3
    n = 3 * block_rows + 11
    x1 = rng.standard_normal(n) * 1e-9
    x1[:4] = (0.0, -0.0, 1.0, 1e-300)
    x2 = rng.standard_normal(n) * 3e-11
    dt = 1.0 / 123456.7
    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# alpha = 1\n# beta = 2\nt_s,x1_m,x2_m\n")
        np.savetxt(handle, np.column_stack((np.arange(n) * dt, x1, x2)),
                   fmt="%.12g", delimiter=",")
    for chunk in (n, block_rows + 1, 1000):
        path = tmp_path / f"ts_{chunk}.csv"
        write_timeseries(path, x1, x2, dt, ("alpha = 1", "beta = 2"), chunk)
        assert path.read_bytes() == reference.read_bytes()
