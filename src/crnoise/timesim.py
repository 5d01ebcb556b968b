"""Time-domain integration of the coupled pair under harmonic and thermal drive.

The equations of motion are integrated with fixed-step classical 4th-order
Runge-Kutta on the 4-state vector (x1, v1, x2, v2).  Because the system is
linear and time-invariant, one RK4 step with forcing sampled at the substep
times is exactly a linear recursion

    x[n+1] = Phi x[n] + G0 u(t_n) + Gm u(t_n + dt/2) + G1 u(t_n + dt)

with constant matrices.  The engine evaluates that recursion in the complex
Schur basis of the balanced update matrix, Phi = S T S^-1 with S = D Q, D a
diagonal power-of-two scaling that puts positions and velocities on a common
scale, and Q unitary.  T is upper triangular, so the four states are
first-order recurrences y[n] = T_ii y[n-1] + u[n] solved bottom-up, each
driven by the rows below it delayed one step.  Each recurrence is a blocked
prefix scan: within a block the solution is a cumulative sum of geometrically
weighted inputs, and the state carries exactly from block to block (Blelloch
1990, "Prefix sums and their applications").  The basis stays well
conditioned even for defective or critically damped Phi, so one code path
reproduces the RK4 trajectory to rounding in a few array passes per chunk.

Deterministic harmonic drives are sampled at the true substep times (full
4th-order accuracy).  Stochastic thermal force is zero-order-hold per step:
i.i.d. Gaussian samples with variance force_psd / (2 dt), so the one-sided
power spectral density of the sample stream equals force_psd.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .reports import write_csv
from .sysmodel import Modes, SystemMatrices, mode_analysis

# steps per period of the fastest mode
_DEFAULT_STEPS_PER_PERIOD = 50
_MIN_STEPS_PER_PERIOD = 20
_MAX_SAMPLES = 2**31
_CHUNK_STEPS = 1 << 20
# longest block of the prefix scan, and the largest growth |a|^-L (or |a|^L)
# of its weights over one block
_SCAN_BLOCK = 1 << 12
_SCAN_GROWTH = 1e3

NOISE_TARGET_1 = "1"
NOISE_TARGET_2 = "2"
NOISE_TARGET_BOTH = "both"


@dataclass(frozen=True)
class HarmonicDrive:
    """Sinusoidal force a.sin(2 pi f t + phase) on one resonator."""

    target: int  # resonator index, 1 or 2
    amplitude: float  # N, peak
    frequency: float  # Hz
    phase: float = 0.0  # rad

    def __post_init__(self) -> None:
        if self.target not in (1, 2):
            raise ValueError(f"harmonic target must be 1 or 2, got {self.target!r}")
        if self.amplitude < 0:
            raise ValueError("harmonic amplitude must be >= 0")
        if self.frequency <= 0:
            raise ValueError("harmonic frequency must be > 0")


@dataclass(frozen=True)
class StochasticDrive:
    """White thermal force with one-sided PSD force_psd on one/both resonators.

    target "both" uses independent streams seeded with (seed, seed ^ 1).
    """

    force_psd: float  # N^2/Hz, one-sided
    seed: int
    target: str = NOISE_TARGET_1  # "1" | "2" | "both"

    def __post_init__(self) -> None:
        if self.force_psd < 0:
            raise ValueError("force_psd must be >= 0")
        if self.target not in (NOISE_TARGET_1, NOISE_TARGET_2, NOISE_TARGET_BOTH):
            raise ValueError(f"noise target must be '1', '2' or 'both', got {self.target!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class Forcing:
    harmonic: tuple[HarmonicDrive, ...] = ()
    stochastic: StochasticDrive | None = None


@dataclass(frozen=True)
class SimulationPlan:
    dt: float  # s
    duration: float  # s
    record_decimation: int = 1
    initial_state: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)  # x1 v1 x2 v2
    record_velocity: bool = False

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.record_decimation < 1 or int(self.record_decimation) != self.record_decimation:
            raise ValueError("record_decimation must be an integer >= 1")
        if len(self.initial_state) != 4:
            raise ValueError("initial_state must have 4 entries (x1, v1, x2, v2)")


@dataclass
class TimeSeries:
    """Recorded displacement (and optionally velocity) samples."""

    dt: float  # s, after decimation
    x1: np.ndarray  # m
    x2: np.ndarray  # m
    v1: np.ndarray | None = None  # m/s
    v2: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.x1.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt


def default_timestep(modes: Modes) -> float:
    """Default dt: 1/50 of the fastest mode period."""
    return 1.0 / (_DEFAULT_STEPS_PER_PERIOD * modes.f2)


def duration_for_segments(
    dt: float, segment_length: int, n_segments: int, overlap: float = 0.5
) -> float:
    """Run duration giving at least n_segments Welch segments at this overlap."""
    step = segment_length * (1.0 - overlap)
    n_samples = segment_length + step * (n_segments - 1)
    return (n_samples + 1) * dt


def _state_matrices(system: SystemMatrices) -> tuple[np.ndarray, np.ndarray]:
    """First-order form x' = A x + B u, state (x1, v1, x2, v2), input (F1, F2)."""
    m1, m2 = system.mass[0, 0], system.mass[1, 1]
    k, c = system.stiffness, system.damping
    a = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-k[0, 0] / m1, -c[0, 0] / m1, -k[0, 1] / m1, -c[0, 1] / m1],
            [0.0, 0.0, 0.0, 1.0],
            [-k[1, 0] / m2, -c[1, 0] / m2, -k[1, 1] / m2, -c[1, 1] / m2],
        ]
    )
    b = np.array([[0.0, 0.0], [1.0 / m1, 0.0], [0.0, 0.0], [0.0, 1.0 / m2]])
    return a, b


def _rk4_update_matrices(
    a: np.ndarray, b: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact one-step matrices of classical RK4 on x' = A x + B u(t).

    Returns (phi, g0, gm, g1) with
        x[n+1] = phi x[n] + g0 u(t_n) + gm u(t_n + dt/2) + g1 u(t_n + dt),
    the midpoint sample being shared by the k2 and k3 stages.
    """
    eye = np.eye(a.shape[0])
    a1 = dt * a
    a2 = a1 @ a1
    a3 = a2 @ a1
    phi = eye + a1 + a2 / 2.0 + a3 / 6.0 + (a3 @ a1) / 24.0
    bb = dt * b
    g0 = (bb + a1 @ bb + (a2 @ bb) / 2.0 + (a3 @ bb) / 4.0) / 6.0
    gm = (4.0 * bb + 2.0 * (a1 @ bb) + (a2 @ bb) / 2.0) / 6.0
    g1 = bb / 6.0
    return phi, g0, gm, g1


def _harmonic_force(drives: tuple[HarmonicDrive, ...], t: np.ndarray) -> np.ndarray:
    """Total harmonic force on each resonator at times t, shape (2, len(t))."""
    force = np.zeros((2, t.size))
    for d in drives:
        force[d.target - 1] += d.amplitude * np.sin(
            2.0 * math.pi * d.frequency * t + d.phase
        )
    return force


def _noise_streams(drive: StochasticDrive | None, dt: float):
    """((resonator index, generator) pairs, sigma) for the stochastic force streams."""
    if drive is None:
        return [], 0.0
    sigma = math.sqrt(drive.force_psd / (2.0 * dt))
    if drive.target == NOISE_TARGET_BOTH:
        seeds = ((0, drive.seed), (1, drive.seed ^ 1))
    else:
        seeds = ((int(drive.target) - 1, drive.seed),)
    return [(row, np.random.default_rng(seed)) for row, seed in seeds], sigma


def simulate(
    system: SystemMatrices,
    forcing: Forcing,
    plan: SimulationPlan,
) -> TimeSeries:
    """Integrate the coupled equations of motion and record the trajectory.

    The classical RK4 recursion is evaluated in the balanced Schur basis of
    its update matrix (see the module docstring); long runs stream through
    fixed-size chunks, recording every plan.record_decimation-th state.
    """
    modes = mode_analysis(system)
    if plan.dt > 1.0 / (_MIN_STEPS_PER_PERIOD * modes.f2):
        raise ValueError(
            f"dt = {plan.dt:g} s too large: must be <= 1/({_MIN_STEPS_PER_PERIOD}*f2) "
            f"= {1.0 / (_MIN_STEPS_PER_PERIOD * modes.f2):g} s"
        )
    n_steps = int(round(plan.duration / plan.dt))
    if n_steps < 1:
        raise ValueError("duration shorter than one time step")
    if n_steps + 1 > _MAX_SAMPLES:
        raise ValueError(
            f"{n_steps + 1} samples exceed the addressable limit {_MAX_SAMPLES}"
        )
    for d in forcing.harmonic:
        q_max = max(modes.modal_q1, modes.modal_q2)
        if math.isfinite(q_max) and plan.duration * d.frequency < 5.0 * q_max:
            warnings.warn(
                f"run covers {plan.duration * d.frequency:.0f} drive cycles, "
                f"below the 5*Q = {5.0 * q_max:.0f} settling guideline",
                stacklevel=2,
            )

    a, b = _state_matrices(system)
    phi, g0, gm, g1 = _rk4_update_matrices(a, b, plan.dt)

    x0 = np.asarray(plan.initial_state, dtype=float)
    channels = _run_schur(phi, g0, gm, g1, x0, forcing, plan, n_steps)

    for name, data in channels.items():
        if not np.isfinite(data).all():
            bad = int(np.argmin(np.isfinite(data)))
            raise NumericalError(
                f"non-finite {name} at t = {bad * plan.dt * plan.record_decimation:g} s "
                f"(sample {bad})"
            )

    seed = forcing.stochastic.seed if forcing.stochastic is not None else None
    metadata = {
        "dt": plan.dt,
        "decimation": plan.record_decimation,
        "seed": seed,
        "f1_hz": modes.f1,
        "f2_hz": modes.f2,
    }
    return TimeSeries(
        dt=plan.dt * plan.record_decimation,
        x1=channels["x1"],
        x2=channels["x2"],
        v1=channels.get("v1"),
        v2=channels.get("v2"),
        metadata=metadata,
    )


def _record_rows(plan: SimulationPlan) -> dict[str, int]:
    rows = {"x1": 0, "x2": 2}
    if plan.record_velocity:
        rows.update({"v1": 1, "v2": 3})
    return rows


def _scan_block_length(a: complex) -> int:
    """Largest power of two L <= _SCAN_BLOCK with |a|^-L and |a|^L <= _SCAN_GROWTH."""
    rate = abs(math.log(abs(a))) if a != 0 else math.inf
    length = _SCAN_BLOCK
    while length > 1 and rate * length > math.log(_SCAN_GROWTH):
        length //= 2
    return length


def _first_order_scan(a: complex, u: np.ndarray, y_prev: complex) -> np.ndarray:
    """Solve y[n] = a y[n-1] + u[n] for n = 0 .. len(u)-1, with y[-1] = y_prev.

    The steps are cut into blocks of L (a power of two that divides
    _SCAN_BLOCK), counted from u[0].  Within a block entered with state y_in,
    y[k] = a^k (a y_in + sum_{j<=k} a^-j u[j]): one cumulative sum for all
    blocks at once.  The block-end states are then chained in order, and each
    block's last entry is set to that carry, so a run cut into pieces of whole
    blocks returns the same values as one call.
    """
    n = u.size
    length = _scan_block_length(a)
    # a^k as a running product: its rounding error grows like sqrt(k), where
    # exp(k log a) would carry the rounding of log a into every block alike
    rise = np.full(length, a, dtype=complex)
    rise[0] = 1.0
    np.cumprod(rise, out=rise)
    w = np.zeros((-(-n // length), length), dtype=complex)
    w.reshape(-1)[:n] = u
    w /= rise
    np.cumsum(w, axis=1, out=w)

    a, a_last = complex(a), complex(rise[-1])
    carries = [complex(y_prev)]
    for s in w[:, -1].tolist():
        carries.append(a_last * (s + a * carries[-1]))
    carries = np.array(carries)
    w += a * carries[:-1, None]
    w *= rise
    w[:, -1] = carries[1:]
    return w.reshape(-1)[:n]


def _run_schur(phi, g0, gm, g1, x0, forcing, plan, n_steps):
    """Evaluate the RK4 recursion y[n+1] = T y[n] + w[n] in the Schur basis.

    Row i is the scalar recurrence y_i[n+1] = T_ii y_i[n] + w_i[n] +
    sum_{j>i} T_ij y_j[n], solved by _first_order_scan from the bottom row up;
    the lower rows are already solved, so their contribution is a known input
    delayed by one step.  The state y carries across fixed-size chunks of
    whole scan blocks, so the scan's blocks sit on the global step grid and
    the trajectory does not depend on how the run is cut into chunks.
    """
    from scipy.linalg import matrix_balance, schur

    balanced, (scale, _) = matrix_balance(phi, permute=False, separate=True)
    t_mat, q = schur(balanced, output="complex")
    s_mat = scale[:, None] * q  # x = Re(S y)
    s_inv = q.conj().T / scale[None, :]
    w0 = s_inv @ g0  # (4, 2) complex
    wm = s_inv @ gm
    w1 = s_inv @ g1
    w_zoh = w0 + wm + w1
    diag = np.diag(t_mat)

    dec = plan.record_decimation
    n_rec = n_steps // dec + 1
    rows = _record_rows(plan)
    out = {name: np.empty(n_rec) for name in rows}
    for name, row in rows.items():
        out[name][0] = x0[row]

    streams, sigma = _noise_streams(forcing.stochastic, plan.dt)

    # one buffer, reused by every chunk: column 0 holds the state y the chunk
    # starts from, columns 1.. the input w, overwritten row by row with y.
    # Each row's delayed coupling term is thus one array product for every
    # step, which rounds the same wherever the chunk boundaries fall.
    chunk = max(_SCAN_BLOCK, _CHUNK_STEPS // _SCAN_BLOCK * _SCAN_BLOCK)
    buf = np.empty((4, min(chunk, n_steps) + 1), dtype=complex)
    buf[:, 0] = s_inv @ x0
    dt = plan.dt
    for start in range(0, n_steps, chunk):
        n_c = min(chunk, n_steps - start)
        prev, ys = buf[:, :n_c], buf[:, 1 : n_c + 1]
        ys[...] = 0.0
        if forcing.harmonic:
            t = (start + np.arange(n_c)) * dt
            ys += w0 @ _harmonic_force(forcing.harmonic, t)
            ys += wm @ _harmonic_force(forcing.harmonic, t + 0.5 * dt)
            ys += w1 @ _harmonic_force(forcing.harmonic, t + dt)
        for row, rng in streams:
            samples = rng.standard_normal(n_c) * sigma
            for i in range(4):
                ys[i] += w_zoh[i, row] * samples

        for i in reversed(range(4)):
            for j in range(i + 1, 4):
                ys[i] += t_mat[i, j] * prev[j]
            ys[i] = _first_order_scan(diag[i], ys[i], prev[i, 0])
        buf[:, 0] = ys[:, -1]

        # ys[:, k] is the state after global step start+k+1; the recorded
        # steps are the multiples of dec, from k = skip on.  Re(S y) is formed
        # elementwise so that it rounds the same for every decimation.
        skip = (-start - 1) % dec
        rec = ys[:, skip::dec]
        first = (start + skip + 1) // dec
        for name, row in rows.items():
            x = out[name][first : first + rec.shape[1]]
            x[...] = 0.0
            for i in range(4):
                x += s_mat[row, i].real * rec[i].real
                x -= s_mat[row, i].imag * rec[i].imag

    return out


@dataclass(frozen=True)
class SteadyStateAmplitude:
    amp1: float  # m, peak
    amp2: float  # m, peak
    phase1: float  # rad
    phase2: float  # rad
    phase_diff: float  # rad, phase2 - phase1 wrapped to (-pi, pi]


def steady_state_amplitude(
    series: TimeSeries, frequency: float, start_fraction: float = 0.5
) -> SteadyStateAmplitude:
    """Amplitude and phase of both channels at one frequency.

    Single-bin discrete Fourier projection over the analysis window (the
    final 1 - start_fraction of the record), Hann weighted so that leakage
    from tones more than a few window widths away is rejected.  The window
    must contain at least 50 cycles of the projected frequency.
    """
    if frequency <= 0:
        raise ValueError("frequency must be > 0")
    if not 0.0 <= start_fraction < 1.0:
        raise ValueError("start_fraction must lie in [0, 1)")
    n = series.n_samples
    start = int(start_fraction * n)
    n_win = n - start
    cycles = (n_win - 1) * series.dt * frequency
    if cycles < 50.0:
        raise ValueError(
            f"window too short: {cycles:.1f} cycles at {frequency:g} Hz, need >= 50"
        )

    k = np.arange(n_win)
    window = 0.5 * (1.0 - np.cos(2.0 * math.pi * k / n_win))
    t = (start + k) * series.dt
    basis = np.exp(-2j * math.pi * frequency * t)
    norm = window.sum()

    def project(x: np.ndarray) -> tuple[float, float]:
        mean = np.sum(window * basis * x[start:]) / norm
        # x = A sin(w t + p)  =>  projection = (A/2) exp(i (p - pi/2))
        return 2.0 * abs(mean), float(np.angle(mean) + 0.5 * math.pi)

    amp1, phase1 = project(series.x1)
    amp2, phase2 = project(series.x2)
    diff = (phase2 - phase1 + math.pi) % (2.0 * math.pi) - math.pi
    return SteadyStateAmplitude(
        amp1=amp1, amp2=amp2, phase1=phase1, phase2=phase2, phase_diff=diff
    )


def write_timeseries_csv(series: TimeSeries, path, comments: tuple[str, ...] = ()) -> None:
    """Write t_s,x1_m,x2_m rows; comment lines (prefixed '# ') go on top."""
    write_csv(path, "t_s,x1_m,x2_m", (series.times, series.x1, series.x2), comments)
