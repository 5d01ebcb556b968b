"""Time-domain integration of the coupled pair under harmonic and thermal drive.

The equations of motion are integrated with fixed-step classical 4th-order
Runge-Kutta on the 4-state vector (x1, v1, x2, v2), from the (A, B) of a
design `sysmodel.build_system` resolved.  Because the system is linear and
time-invariant, one RK4 step with forcing sampled at the substep times is
exactly a linear recursion

    x[n+1] = Phi x[n] + G0 u(t_n) + Gm u(t_n + dt/2) + G1 u(t_n + dt)

with constant real 4x4 matrices.  The engine evaluates that recursion as a
blocked prefix scan (Blelloch 1990, "Prefix sums and their applications").
Within a block of L steps entered with state c, the state after step k+1 is

    Phi^k (Phi c + sum_{j<=k} Phi^-j w[j]),    w[j] the input of step j,

so one cumulative sum per state component solves every block of a chunk at
once, and the block-end states carry exactly from block to block.  L is the
longest power of two over which no eigenvalue of Phi grows or decays by more
than a factor 1e3, which bounds the rounding of the weighted sums.  Matrix
products round alike under any power-of-two scaling of the state, so
positions and velocities need no common scale, and one code path serves
defective and critically damped Phi as well.

The engine works through the run in chunks of steps and hands out each
chunk's recorded samples as soon as they are formed, in arrays of their own.
The chunk length follows the buffers a run holds per step: a run that draws
thermal noise scans six rows of its chunk (four of the scan, a noise row and
a product row) and takes chunks of 2^14 steps (0.75 MB of buffers), while a
noise-free run holds only the product row and takes 2^16, since shorter
chunks would only add to its per-chunk steady-state and sink work.
`simulate` passes the chunks to one sink as a {channel: samples} dict,
forming only the channels it is asked for and holding no record, so its
memory does not grow with the run's length.  The sink runs on a worker
thread, which takes each chunk from a queue while the engine forms the next
ones.  The queue holds up to 2^18 steps of chunks (16 of a noise run, 4 of
a noise-free one), so at most 2 MB per recorded channel wait in it; numpy
releases the GIL in the scan's array operations, the noise draws and the
FFTs, so on two cores the engine and, say, a Welch estimate overlap, the
engine running a whole 2^19-point Welch transform ahead.

Harmonic drives a.sin(w t + phase), taken at the true substep times (full
4th-order accuracy), enter by superposition: the recursion's exact steady
state x_p[n] = Im(X e^{i (w n dt + phase)}) solves (z^L I - Phi^L) X = a
sum_{k<L} Phi^(L-1-k) Gc z^k over one scan block, with z = e^{i w dt} and
Gc = G0 + Gm z^(1/2) + G1 z (the one-step form (z I - Phi) X = a Gc would
misplace X by ~1e-16 / |z - lambda| near a lightly damped mode lambda).  The
scan carries only the noise and the transient from x[0] - x_p[0], and x_p is
added at the recorded steps.  A step's phase is that of its 4096-step block,
reduced mod 2 pi in 60-digit decimal arithmetic before it is rounded, times
a fixed table, so the drive keeps its phase to ~1e-16 rad over any run.  The
sum rounds to ~1e-14 |X|, so a run whose record stays far below |X| (a
mode with little or no damping, driven for few cycles) is refused.
Stochastic thermal force is zero-order-hold per step: on each resonator i
with a nonzero force_psd[i], i.i.d. Gaussian samples with variance
force_psd[i] / (2 dt), so the one-sided power spectral density of its sample
stream equals force_psd[i].
"""

from __future__ import annotations

import math
import operator
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .sysmodel import Modes, System, frequency_response

# steps per period of the fastest mode
_DEFAULT_STEPS_PER_PERIOD = 50
_MIN_STEPS_PER_PERIOD = 20
# steps per chunk of a noise-free run; a noise run takes a quarter of it (_chunking)
_CHUNK_STEPS = 1 << 16
# the engine may run _HANDOFF_CHUNKS x _CHUNK_STEPS steps ahead of its sink: one
# 2^19-point Welch step spans that many, and its transform about as much engine work
_HANDOFF_CHUNKS = 4
# longest block of the prefix scan, and the largest growth |a|^-L (or |a|^L)
# of its weights over one block
_SCAN_BLOCK = 1 << 12
_SCAN_GROWTH = 1e3
# a record holding a drive's steady state x_p rounds to at most ~3e-14 |x_p|
# (4e-15 to 2e-14 measured), and a run is refused when that exceeds 1e-11 of
# its full scale
_STEADY_ROUNDING = 3e-14
_MAX_ROUNDING = 1e-11
# 2 pi to 64 digits, the modulus of a harmonic drive's exact phase reduction
_TWO_PI = "6.283185307179586476925286766559005768394338798750211641949889184615"
# recorded channels, in the order they are formed and checked, and their state rows
_STATE_ROWS = {"x1": 0, "x2": 2, "v1": 1, "v2": 3}


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
    """White thermal force with one-sided PSD force_psd[i] on resonator i + 1.

    Each resonator with a nonzero entry has its own independent stream.  seed
    is a non-negative integer of any integer type but bool (kept as a Python
    int) or a `numpy.random.SeedSequence`; the 0-th stream in resonator order
    draws from seed itself, and the k-th from seed ^ k for an integer, or
    from the SeedSequence's child with spawn key + (k,).
    """

    force_psd: tuple[float, float]  # N^2/Hz, one-sided, (S1, S2)
    seed: int | np.random.SeedSequence

    def __post_init__(self) -> None:
        if len(self.force_psd) != 2 or min(self.force_psd) < 0:
            raise ValueError("force_psd must be two entries (S1, S2), each >= 0")
        if isinstance(self.seed, np.random.SeedSequence):
            return
        try:
            seed = operator.index(self.seed)
        except TypeError:
            seed = None
        if isinstance(self.seed, bool) or seed is None or seed < 0:
            raise ValueError("seed must be a non-negative integer or a SeedSequence")
        object.__setattr__(self, "seed", seed)

    @property
    def target(self) -> str:
        """The noise-driven resonators, "1", "2" or "both" (perfbench's
        tracer counts the streams by it)."""
        s1, s2 = self.force_psd
        return "both" if s1 and s2 else "2" if s2 else "1"


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

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.record_decimation < 1 or int(self.record_decimation) != self.record_decimation:
            raise ValueError("record_decimation must be an integer >= 1")
        if len(self.initial_state) != 4 or not np.isfinite(self.initial_state).all():
            raise ValueError("initial_state must have 4 finite entries (x1, v1, x2, v2)")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def n_samples(self) -> int:
        """Recorded samples: the initial state and every record_decimation-th step."""
        return self.n_steps // self.record_decimation + 1

    @property
    def record_dt(self) -> float:
        return self.dt * self.record_decimation

    def check(self, modes: Modes) -> None:
        """Raise ValueError unless the step resolves the faster mode and the
        run takes at least one step."""
        dt_max = 1.0 / (_MIN_STEPS_PER_PERIOD * modes.f2)
        if self.dt > dt_max:
            raise ValueError(
                f"dt = {self.dt:g} s too large: must be <= 1/({_MIN_STEPS_PER_PERIOD}*f2) "
                f"= {dt_max:g} s"
            )
        if self.n_steps < 1:
            raise ValueError("duration shorter than one time step")


@dataclass
class TimeSeries:
    """What a run recorded, without the samples, which went to its sink; x1,
    x2, v1 and v2 always read None, for code written when runs returned them."""

    dt: float  # s, after decimation
    n_samples: int  # recorded samples
    metadata: dict = field(default_factory=dict)
    x1: None = None
    x2: None = None
    v1: None = None
    v2: None = None


def default_timestep(modes: Modes) -> float:
    """Default dt: 1/50 of the fastest mode period."""
    return 1.0 / (_DEFAULT_STEPS_PER_PERIOD * modes.f2)


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


def _noise_streams(drive: StochasticDrive | None, dt: float):
    """(input row, generator, sigma) of each stochastic force stream: one per
    resonator with a nonzero force PSD, in order, the 0-th drawing from the
    seed itself and the k-th from seed ^ k, or from a SeedSequence seed's
    child with spawn key + (k,)."""
    if drive is None:
        return []
    seed = drive.seed

    def stream_seed(k: int):
        if not isinstance(seed, np.random.SeedSequence):
            return seed ^ k
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (k,)) if k else seed

    driven = [(row, psd) for row, psd in enumerate(drive.force_psd) if psd > 0]
    return [(row, np.random.default_rng(stream_seed(k)), math.sqrt(psd / (2.0 * dt)))
            for k, (row, psd) in enumerate(driven)]


def simulate(
    system: System,
    forcing: Forcing,
    plan: SimulationPlan,
    sink,
    channels: tuple[str, ...] = ("x1", "x2"),
) -> TimeSeries:
    """Integrate the coupled equations of motion and pass the record to sink.

    system is one resolved design (`sysmodel.build_system`), whose (A, B) and
    modes the engine reads.  The classical RK4 recursion is evaluated as a
    blocked prefix scan (see the module docstring) in chunks of 2^14 steps
    with thermal noise and 2^16 without (`_chunking`), recording every
    plan.record_decimation-th state.  Only the requested channels (of "x1",
    "x2", "v1", "v2") are formed.  sink is called with a {channel: samples}
    dict for each chunk of recorded samples, the initial state first; the
    calls come in order on one worker thread while the engine forms the next
    chunks, and the sink may keep the arrays, which the engine never touches
    again.  An exception the sink raises stops the run and is
    raised here; the worker thread has ended whenever simulate returns or
    raises.  NumericalError is raised on a non-finite sample, and after the run
    if a channel's steady states outweigh its full scale so far that their
    rounding exceeds _MAX_ROUNDING of it (module docstring).  The returned
    series counts the recorded samples (plan.n_samples); metadata["scan_block"]
    is the scan's block length L.
    """
    modes = system.modes
    plan.check(modes)
    if not channels or set(channels) - set(_STATE_ROWS):
        raise ValueError(f"channels {sorted(channels)}: name one or more of x1, x2, v1, v2")

    phi, g0, gm, g1 = _rk4_update_matrices(system.a, system.b, plan.dt)
    streams = _noise_streams(forcing.stochastic, plan.dt)
    chunk_steps, depth = _chunking(bool(streams))
    # rise[i, m, k] = (Phi^k)_im, k < L
    rise = np.moveaxis(_powers(phi, _scan_block_length(phi)), 0, -1).copy()

    x0 = np.asarray(plan.initial_state, dtype=float)
    rows = {name: row for name, row in _STATE_ROWS.items() if name in channels}
    start, drives = x0, []  # the scan's entering state; (omega, phase, {channel: X T})
    steady = np.zeros(4)  # sum of the drives' |X|, per state component
    q_max = max(modes.modal_q1, modes.modal_q2)  # inf if a mode is undamped
    for d in forcing.harmonic:
        omega, x, table = _steady_state(d, phi, rise, g0, gm, g1, plan.dt)
        if math.isfinite(q_max):
            cycles = plan.duration * d.frequency
            if cycles < 5.0 * q_max:
                warnings.warn(f"run covers {cycles:.0f} drive cycles, below the "
                              f"5*Q = {5.0 * q_max:.0f} settling guideline", stacklevel=2)
            # amplitudes, not complex values: the step's phase error is larger
            h = frequency_response(system, [d.frequency])[0, :, d.target - 1]
            bias = math.hypot(abs(x[0]), abs(x[2])) / math.hypot(*np.abs(h)) - 1.0
            if abs(bias) > 0.01:
                warnings.warn(f"dt = {plan.dt:g} s: the RK4 step biases the settled amplitude "
                              f"at {d.frequency:g} Hz by {bias:+.1%}, beyond the 1% guideline",
                              stacklevel=2)
        x *= d.amplitude
        steady += np.abs(x)
        start = start - (x * _phasors(omega, plan.dt, d.phase, (0,))).imag
        y = np.outer(x, table)  # X T, one row per state component
        drives.append((omega, d.phase, {name: (y.real[row].copy(), y.imag[row].copy())
                                        for name, row in rows.items()}))

    peak = dict.fromkeys(rows, 0.0)  # each channel's full scale after sample 0

    def checked():
        """The record's chunks, steady states added, checked for non-finite samples."""
        yield {name: x0[row : row + 1] for name, row in rows.items()}  # as given, bit for bit
        first = 1  # index of the chunk's first sample in the record
        for chunk in _run_scan(phi, rise, g0 + gm + g1, start, streams, plan, rows,
                               chunk_steps):
            if drives:
                _add_steady(chunk, drives, plan, first)
            for name, data in chunk.items():
                top = max(data.max(), -data.min())  # nan or inf if a sample is; no copy
                if not math.isfinite(top):
                    bad = first + int(np.argmin(np.isfinite(data)))
                    raise NumericalError(
                        f"non-finite {name} at t = "
                        f"{bad * plan.dt * plan.record_decimation:g} s (sample {bad})"
                    )
                peak[name] = max(peak[name], top)
            first += data.size
            yield chunk

    _drain(sink, checked(), depth)
    for name, row in rows.items():
        if peak[name] and _STEADY_ROUNDING * steady[row] > _MAX_ROUNDING * peak[name]:
            raise NumericalError(
                f"{name} is accurate to only ~{_STEADY_ROUNDING * steady[row] / peak[name]:.0e} "
                f"of full scale: its harmonic steady state is {steady[row] / peak[name]:.1e} "
                "times the record, as at a mode with little or no damping driven for few "
                "cycles; raise system.c1, system.c2 or system.cc, or the run's length"
            )

    metadata = {
        "dt": plan.dt,
        "decimation": plan.record_decimation,
        "seed": forcing.stochastic.seed if forcing.stochastic is not None else None,
        "f1_hz": modes.f1,
        "f2_hz": modes.f2,
        "scan_block": rise.shape[-1],
    }
    return TimeSeries(dt=plan.record_dt, n_samples=plan.n_samples, metadata=metadata)


def _chunking(noise: bool) -> tuple[int, int]:
    """(steps per chunk, chunks the sink's queue holds) of a run with or
    without thermal noise streams.  A chunk is whole _SCAN_BLOCK-step blocks,
    a quarter of _CHUNK_STEPS for a noise run (its scan buffers hold six rows
    of the chunk) and all of it otherwise; the queue holds _HANDOFF_CHUNKS x
    _CHUNK_STEPS steps of either."""
    steps = _CHUNK_STEPS // 4 if noise else _CHUNK_STEPS
    chunk = max(_SCAN_BLOCK, steps // _SCAN_BLOCK * _SCAN_BLOCK)
    return chunk, _HANDOFF_CHUNKS * _CHUNK_STEPS // chunk


def _drain(sink, chunks, depth: int) -> None:
    """Pass each of chunks to sink on a worker thread, in order, while this
    thread forms the next ones.

    A queue of up to depth chunks lies between the two threads, so the
    engine runs that far ahead of a slow sink: _chunking sets it to
    _HANDOFF_CHUNKS x _CHUNK_STEPS = 2^18 steps, 16 chunks of a noise run and
    4 of a noise-free one.  It bounds only memory (2^18 samples, 2 MB, per
    recorded channel at most), for the worker never sees an array the engine
    still writes.  The first exception the sink raises is raised here, and
    no later chunk is passed on; one raised while forming the chunks drops
    every chunk still queued.  The worker has ended whenever this returns
    or raises.
    """
    import queue  # ~1.5 ms, paid by simulating runs only

    todo = queue.Queue(maxsize=depth)
    stop = []  # the first exception on either thread; no chunk is passed on after it

    def work():
        for chunk in iter(todo.get, None):
            if not stop:
                try:
                    sink(chunk)
                except BaseException as exc:
                    stop.append(exc)

    worker = threading.Thread(target=work, name="crnoise-sink", daemon=True)
    worker.start()
    try:
        for chunk in chunks:
            todo.put(chunk)
            if stop:
                raise stop[0]
    except BaseException as exc:
        stop.append(exc)
        raise
    finally:
        todo.put(None)
        worker.join()
    if stop:
        raise stop[0]


def _apply(m, v):
    """m @ v for a (4, 4) m and a (4, n) v, elementwise: a column rounds alike for any n."""
    return sum(m[:, i, None] * v[i] for i in range(4))


def _powers(m, count):
    """m^k for k < count, as a running product, in one (count, 4, 4) array."""
    powers = np.empty((count, 4, 4))
    powers[0] = np.eye(4)
    for k in range(1, count):  # the bits of np.matmul's, at half its cost
        powers[k - 1].dot(m, out=powers[k])
    return powers


def _scan_block_length(phi) -> int:
    """The largest power of two <= _SCAN_BLOCK over which no eigenvalue of
    phi grows or decays by more than _SCAN_GROWTH."""
    rate = max(abs(math.log(abs(lam))) if lam else math.inf for lam in np.linalg.eigvals(phi))
    length = _SCAN_BLOCK
    while length > 1 and rate * length > math.log(_SCAN_GROWTH):
        length //= 2
    return length


def _phasors(omega, dt, phase, steps):
    """e^{i (omega dt s + phase)} for each integer s in steps.

    omega dt s + phase is formed from the floats as they are and reduced mod
    2 pi in 60-digit decimal arithmetic, then rounded once: a phase formed
    in binary at s ~ 1e6 is off by ~1e-11 rad, and such errors drift
    coherently through the run.
    """
    import decimal  # imported only by runs with a harmonic drive

    with decimal.localcontext() as ctx:
        ctx.prec = 60
        rate = decimal.Decimal(omega) * decimal.Decimal(dt)
        start, period = decimal.Decimal(phase), decimal.Decimal(_TWO_PI)
        angles = [float((rate * s + start) % period) for s in steps]
    return np.exp(1j * np.array(angles))


def _steady_state(drive, phi, rise, g0, gm, g1, dt):
    """(w, X, T) of the drive at unit amplitude: x_p[n] = Im(X e^{i (w n dt +
    phase)}), X solved over L steps, rise[:, :, k] = Phi^k, k < L (module
    docstring), and the table T[k] = e^{i w (k+1) dt}, k < _SCAN_BLOCK."""
    omega = 2.0 * math.pi * drive.frequency
    # e^{i w j dt}, j = 64 a + c + 1, as e^{i w (64 a + 1) dt} e^{i w c dt}
    table = np.outer(_phasors(omega, dt, 0.0, range(1, _SCAN_BLOCK + 1, 64)),
                     _phasors(omega, dt, 0.0, range(64))).ravel()
    half, whole = _phasors(omega, 0.5 * dt, 0.0, (1, 2))
    gc = (g0 + gm * half + g1 * whole)[:, drive.target - 1]
    length = rise.shape[-1]
    turns = np.concatenate(([1.0], table[: length - 1]))  # z^k, k < L
    total = np.einsum("imk,m->ik", rise[:, :, ::-1], gc) @ turns  # sum_k Phi^(L-1-k) Gc z^k
    z_l = table[length - 1]
    return omega, np.linalg.solve(z_l * np.eye(4) - rise[:, :, -1] @ phi, total), table


def _add_steady(chunk, drives, plan, first):
    """Add each drive's steady state to chunk, the record from its sample
    first on: Im(P[b] Y[k]) after step s = _SCAN_BLOCK b + k, P[b] the exactly
    reduced phasor of block b and Y = X T the drive's table for the channel.
    Every operation is real and elementwise, so a sample depends on s alone."""
    count, dec = len(next(iter(chunk.values()))), plan.record_decimation
    b0, offset = divmod(first * dec - 1, _SCAN_BLOCK)
    n_b = (offset + (count - 1) * dec) // _SCAN_BLOCK + 1  # blocks spanned
    if dec == 1:  # every step: whole blocks by broadcasting, no gather
        b, k = np.arange(n_b)[:, None], slice(None)
    else:
        b, k = np.divmod(np.arange(offset, offset + count * dec, dec), _SCAN_BLOCK)
        offset = 0
    for omega, phase, tables in drives:
        p = _phasors(omega, plan.dt * _SCAN_BLOCK, phase, range(b0, b0 + n_b))  # dt * 4096 exact
        re, im = p.real[b], p.imag[b]
        for name, (y_re, y_im) in tables.items():
            chunk[name] += (re * y_im[k] + im * y_re[k]).reshape(-1)[offset : offset + count]


def _run_scan(phi, rise, g_zoh, x0, streams, plan, rows, chunk):
    """Evaluate x[n+1] = Phi x[n] + g_zoh u[n] from x0, u the held noise force
    of streams (`_noise_streams`, none if empty), as a blocked prefix scan
    with blocks of L steps, rise[i, m, k] = (Phi^k)_im for k < L, in chunks
    of chunk steps, a multiple of _SCAN_BLOCK.

    A generator: yields {channel: recorded samples} for the channels in rows
    (name -> state row), the record from sample 1 on, chunk by chunk, in
    arrays the scan never writes again.  Blocks count from step 0 and
    chunks hold whole blocks, so the trajectory does not depend on the chunk
    length.  The noise inputs are weighted and summed step by step, one
    cumulative sum z per chunk.  The recorded states Phi^k (z + Phi c_b), at
    blocks b and steps k, are views (every step, (b, k) broadcasting) or
    gathered; without noise, Phi^k Phi c_b alone.
    """
    length, rise_last = rise.shape[-1], rise[:, :, -1]
    ((m00, m01, m02, m03), (m10, m11, m12, m13),
     (m20, m21, m22, m23), (m30, m31, m32, m33)) = (rise_last @ phi).tolist()  # Phi^L
    # w_zoh[i, r, k] = (Phi^-k g_zoh)_ir is the weight of noise input r at step k
    # of a block; it and rise are contiguous rows over k
    n_steps, dec = plan.n_steps, plan.record_decimation
    if streams:
        # Phi^-k, k < L, as a running product of the inverse refined by one Newton step
        inv = np.linalg.inv(phi)
        inv += inv @ (np.eye(4) - phi @ inv)
        w_zoh = np.moveaxis(_powers(inv, length) @ g_zoh, 0, -1).copy()

    # buffers reused by every chunk: the scan and an input row (with noise) and a
    # product.  A chunk's last block is padded to L steps, never recorded or carried on.
    size = min(chunk, -(-n_steps // length) * length)
    if streams:
        scan, row_buf = np.empty((4, size)), np.empty(size)
    tmp_buf = np.empty(size)
    c0, c1, c2, c3 = x0.tolist()  # the state the next block is entered with
    for start in range(0, n_steps, chunk):
        n_c = min(chunk, n_steps - start)
        n_b = -(-n_c // length)
        if streams:
            z = scan[:, : n_b * length].reshape(4, n_b, length)
            flat = row_buf[: n_b * length]
            f = flat.reshape(n_b, length)
            tmp = tmp_buf[: n_b * length].reshape(n_b, length)
            for index, (row, rng, sigma) in enumerate(streams):
                rng.standard_normal(out=flat[:n_c])
                flat[:n_c] *= sigma
                flat[n_c:] = 0.0
                if index:  # z[i] += w_zoh[i, row] f
                    for i in range(4):
                        np.multiply(w_zoh[i, row], f, out=tmp)
                        z[i] += tmp
                else:
                    np.multiply(w_zoh[:, row, None], f, out=z)
            np.cumsum(z, axis=2, out=z)

        # a block entered with state c is left with Phi^L c + Phi^(L-1) e, e its
        # last partial sum.  Only that chain runs block by block (on floats,
        # Phi^L written out: a strongly damped pair has blocks of a few steps);
        # the rest is elementwise, so it rounds alike for every chunk length.
        starts = []
        ends = z[:, :, -1] if streams else np.zeros((4, n_b))
        for e0, e1, e2, e3 in _apply(rise_last, ends).T.tolist():
            starts.append((c0, c1, c2, c3))
            c0, c1, c2, c3 = (m00 * c0 + m01 * c1 + m02 * c2 + m03 * c3 + e0,
                              m10 * c0 + m11 * c1 + m12 * c2 + m13 * c3 + e1,
                              m20 * c0 + m21 * c1 + m22 * c2 + m23 * c3 + e2,
                              m30 * c0 + m31 * c1 + m32 * c2 + m33 * c3 + e3)
        enter = _apply(phi, np.array(starts).T)  # Phi c for each block

        # z[:, b, k] + Phi c_b is the state after global step start+b*L+k+1 up
        # to the factor Phi^k; the recorded steps are the multiples of dec
        skip = (-start - 1) % dec
        if skip >= n_c:
            continue
        if dec == 1:  # every step: views and broadcasts, no gather
            b, k, shape = np.arange(n_b)[:, None], slice(None), (n_b, length)
        else:
            b, k = np.divmod(np.arange(skip, n_c, dec), length)
            shape = b.shape
        if streams:
            zs = z if dec == 1 else z[:, b, k]
            zs += enter[:, b]
        else:
            zs = enter[:, b]
        tmp = tmp_buf[: math.prod(shape)].reshape(shape)
        out = {}
        for (name, row), g in zip(rows.items(), np.empty((len(rows), *shape))):
            weights = rise[row][:, k]
            np.multiply(weights[0], zs[0], out=g)
            for i in range(1, 4):
                np.multiply(weights[i], zs[i], out=tmp)
                g += tmp
            out[name] = g.reshape(-1)[:n_c]  # drops the padded steps, if every step is formed
        yield out


@dataclass(frozen=True)
class SteadyStateAmplitude:
    amp1: float  # m, peak
    amp2: float  # m, peak
    phase1: float  # rad
    phase2: float  # rad
    phase_diff: float  # rad, phase2 - phase1 wrapped to (-pi, pi]


class SteadyStateProjection:
    """Amplitude and phase of x1 and x2 at one frequency, accumulated over a
    record of n_samples samples that arrives in chunks.  Single-bin discrete
    Fourier projection over the analysis window (the final 1 - start_fraction
    of the record), Hann weighted so that leakage from tones more than a few
    window widths away is rejected.  The window must contain at least 50
    cycles of the projected frequency, and the frequency's alias image (at
    m/dt - frequency) must lie at least 8 window widths from it, where the
    Hann leakage is below 1e-3; both are checked when it is built.
    """

    def __init__(self, n_samples: int, dt: float, frequency: float,
                 start_fraction: float = 0.5):
        if frequency <= 0:
            raise ValueError("frequency must be > 0")
        if not 0.0 <= start_fraction < 1.0:
            raise ValueError("start_fraction must lie in [0, 1)")
        self.n_samples, self.dt, self.frequency = n_samples, dt, frequency
        self._start = int(start_fraction * n_samples)
        self._n_win = n_samples - self._start
        cycles = (self._n_win - 1) * dt * frequency
        if cycles < 50.0:
            raise ValueError(
                f"window too short: {cycles:.1f} cycles at {frequency:g} Hz, need >= 50"
            )
        turns = 2.0 * frequency * dt  # 2 f / fs: the image at m fs - f is f at m = turns
        widths = abs(turns - round(turns)) * self._n_win
        if widths < 8.0:
            raise ValueError(
                f"the alias image of {frequency:g} Hz at {round(turns) / dt - frequency:g} Hz "
                f"lies {widths:.1f} window widths from it, need >= 8"
            )
        self._sums = [0j, 0j]  # window- and basis-weighted sums of x1 and x2
        self._seen = 0  # samples received

    def add(self, chunk: dict) -> None:
        """Take the record's next samples of x1 and x2."""
        first = self._seen
        self._seen += chunk["x1"].size
        k = np.arange(max(first, self._start), self._seen) - self._start  # index in the window
        if k.size:
            window = 0.5 * (1.0 - np.cos(2.0 * math.pi * k / self._n_win))
            t = (self._start + k) * self.dt
            weights = window * np.exp(-2j * math.pi * self.frequency * t)
            self._sums = [total + np.sum(weights * chunk[name][-k.size:])
                          for total, name in zip(self._sums, ("x1", "x2"))]

    def result(self) -> SteadyStateAmplitude:
        if self._seen != self.n_samples:
            raise ValueError(f"projection took {self._seen} samples, expected {self.n_samples}")
        # x = A sin(w t + p)  =>  projection = (A/2) exp(i (p - pi/2)); the
        # periodic Hann window sums to n_win / 2
        means = [total / (0.5 * self._n_win) for total in self._sums]
        amp1, amp2 = (2.0 * abs(mean) for mean in means)
        phase1, phase2 = (float(np.angle(mean) + 0.5 * math.pi) for mean in means)
        diff = (phase2 - phase1 + math.pi) % (2.0 * math.pi) - math.pi
        return SteadyStateAmplitude(amp1=amp1, amp2=amp2, phase1=phase1, phase2=phase2,
                                    phase_diff=diff)
