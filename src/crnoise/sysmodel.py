"""Mechanics of the weakly coupled two-resonator system.

`build_system` resolves a design, once per run (`RunConfig.design`): the 2x2
mass/damping/stiffness matrices of the coupled pair, its modes
(`mode_analysis`), k_eff, m_eff, kappa and Q, and the engine's first-order
(A, B), as one `System`.  `frequency_response` evaluates the analytic
receptance (displacement per unit force) over frequency.  The first-order AR
sensitivity 1/(2|kappa|) is `resolution.ar_sensitivity`.

kc may be a 1-D array of N designs, solved in one array pass: the fields of
its `System` gain a leading axis N, and `System.point(i)` is design i.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import NumericalError

IN_PHASE = "in_phase"
OUT_OF_PHASE = "out_of_phase"
DEGENERATE = "degenerate"

# |kc|/km above which the weak-coupling approximations degrade
_WEAK_COUPLING_RATIO = 0.1


@dataclass(frozen=True)
class SystemConfig:
    """Physical parameters of the two coupled resonators.

    Masses and mechanical springs must be positive.  The coupling spring kc
    may be negative (an electrostatic coupler behaves as a negative spring)
    as long as the assembled stiffness matrix stays positive definite, which
    requires km_i + kc > 0 and km_i + 2*kc > 0 for both resonators.
    """

    m1: float  # mass, kg
    m2: float  # mass, kg
    km1: float  # mechanical spring, N/m
    km2: float  # mechanical spring, N/m
    kc: float | np.ndarray  # coupling spring(s), N/m (negative for electrostatic coupling)
    c1: float  # resonator damping, N*s/m
    c2: float  # resonator damping, N*s/m
    cc: float  # coupler damping, N*s/m

    def __post_init__(self) -> None:
        for name in ("m1", "m2", "km1", "km2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("c1", "c2", "cc"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("km1", "km2"):
            km = getattr(self, name)
            for term, diagonal in (("kc", km + self.kc), ("2*kc", km + 2.0 * self.kc)):
                if np.any(diagonal <= 0):
                    raise ValueError(
                        f"stiffness matrix not positive definite: "
                        f"{name} + {term} = {np.min(diagonal):g} <= 0"
                    )


@dataclass(frozen=True)
class Modes:
    """Modal decomposition of the coupled pair, ordered omega1 <= omega2.

    For N designs every field gains a leading axis of length N.
    """

    omega1: float  # rad/s
    omega2: float  # rad/s
    f1: float  # Hz
    f2: float  # Hz
    shape1: np.ndarray  # unit-norm eigenvector
    shape2: np.ndarray
    label1: str  # in_phase | out_of_phase | degenerate
    label2: str
    modal_q1: float
    modal_q2: float

    @property
    def split_hz(self) -> float:
        return self.f2 - self.f1


def mode_analysis(mass: np.ndarray, damping: np.ndarray, stiffness: np.ndarray) -> Modes:
    """Solve the generalized symmetric eigenproblem K v = w^2 M v.

    Uses Cholesky reduction of the mass matrix so the reduced problem stays
    symmetric.  Mode 1 is the lower-frequency mode; for kc < 0 that is the
    out-of-phase mode.  Modal quality factors use the eigenvector-projected
    damping: q_i = sqrt(k_i * m_i) / c_i with k_i = v'Kv, m_i = v'Mv,
    c_i = v'Cv.
    """
    chol = np.linalg.cholesky(mass)
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, stiffness).mT).mT
    eigvals, eigvecs = np.linalg.eigh(0.5 * (reduced + reduced.mT))
    shapes = np.linalg.solve(chol.mT, eigvecs)  # columns are the modes

    shapes = shapes / np.sqrt(np.vecdot(shapes, shapes, axis=-2))[..., None, :]
    first, second = shapes[..., 0, :], shapes[..., 1, :]
    flip = (first < 0) | ((first == 0) & (second < 0))
    shapes = np.where(flip[..., None, :], -shapes, shapes)
    labels = np.where(
        (stiffness[..., 0, 1] == 0)[..., None],
        DEGENERATE,
        np.where(shapes[..., 0, :] * shapes[..., 1, :] > 0, IN_PHASE, OUT_OF_PHASE),
    )
    m, k, c = (np.vecdot(shapes, a @ shapes, axis=-2) for a in (mass, stiffness, damping))
    with np.errstate(divide="ignore", invalid="ignore"):
        modal_q = np.where(c > 0, np.sqrt(k * m) / c, np.inf)

    # mode axis first: unpacking a one-design array gives scalars
    omega1, omega2 = np.moveaxis(np.sqrt(eigvals), -1, 0)
    shape1, shape2 = np.moveaxis(shapes, -1, 0)
    label1, label2 = np.moveaxis(labels, -1, 0)
    modal_q1, modal_q2 = np.moveaxis(modal_q, -1, 0)
    return Modes(
        omega1=omega1, omega2=omega2,
        f1=omega1 / (2.0 * math.pi), f2=omega2 / (2.0 * math.pi),
        shape1=shape1, shape2=shape2,
        label1=label1, label2=label2,
        modal_q1=modal_q1, modal_q2=modal_q2,
    )


@dataclass(frozen=True)
class System:
    """One resolved design (`build_system`); for N designs every field but
    config and m_eff has a leading axis N."""

    config: SystemConfig
    mass: np.ndarray  # kg, (..., 2, 2)
    damping: np.ndarray  # N*s/m
    stiffness: np.ndarray  # N/m
    modes: Modes
    k_eff: float  # km + kc, N/m, the two resonators' mean (exact when symmetric)
    m_eff: float  # kg, the two masses' mean
    kappa: float  # normalized coupling kc / k_eff
    q: float  # sqrt(k_eff * m_eff) / c, c = (c1 + c2) / 2
    a: np.ndarray  # x' = A x + B u, state (x1, v1, x2, v2), (..., 4, 4)
    b: np.ndarray  # input (F1, F2), (..., 4, 2)

    def point(self, i: int) -> System:
        """Design i of a batch, sliced from it."""
        per_design = {f.name: getattr(self, f.name)[i] for f in fields(self)
                      if f.name not in ("config", "modes", "m_eff")}
        modes = Modes(**{f.name: getattr(self.modes, f.name)[i] for f in fields(Modes)})
        return System(config=replace(self.config, kc=self.config.kc[i]), modes=modes,
                      m_eff=self.m_eff, **per_design)


def build_system(config: SystemConfig) -> System:
    """Resolve config's design.  It warns when |kc|/km leaves the weak-coupling
    range of the first-order formulas, and when cc differs from c1 = c2: the
    off-diagonal damping is the coupler's -cc, which equals the -c of the
    coupled equations of motion only when c1 = c2 = cc.
    """
    kc = np.asarray(config.kc, dtype=float)
    ratio = np.max(np.abs(kc)) / min(config.km1, config.km2)
    if ratio > _WEAK_COUPLING_RATIO:
        warnings.warn(
            f"|kc|/km = {ratio:.3g} > {_WEAK_COUPLING_RATIO}; "
            "first-order weak-coupling sensitivity formulas may be inaccurate",
            stacklevel=2,
        )
    fully_uncoupled = np.all(kc == 0) and config.cc == 0
    if not (config.c1 == config.c2 == config.cc) and not fully_uncoupled:
        warnings.warn(
            "cc differs from c1/c2: off-diagonal damping uses the coupler "
            "value -cc, which departs from the equal-damping idealization",
            stacklevel=2,
        )
    stiffness = np.empty(kc.shape + (2, 2))
    stiffness[..., 0, 0] = config.km1 + kc
    stiffness[..., 0, 1] = stiffness[..., 1, 0] = -kc
    stiffness[..., 1, 1] = config.km2 + kc
    mass = np.broadcast_to([[config.m1, 0.0], [0.0, config.m2]], stiffness.shape)
    damping = np.broadcast_to(
        [[config.c1 + config.cc, -config.cc], [-config.cc, config.c2 + config.cc]],
        stiffness.shape,
    )
    # from config.kc, not the array kc: a scalar design keeps Python floats
    k_eff = 0.5 * ((config.km1 + config.kc) + (config.km2 + config.kc))
    m_eff = 0.5 * (config.m1 + config.m2)
    with np.errstate(divide="ignore"):
        q = np.sqrt(k_eff * m_eff) / (0.5 * (config.c1 + config.c2))
    # rows 1 and 3, the accelerations, are M^-1 (F - K x - C v)
    per_mass = np.array([[config.m1], [config.m2]])
    a, b = np.zeros(kc.shape + (4, 4)), np.zeros(kc.shape + (4, 2))
    a[..., 0, 1] = a[..., 2, 3] = 1.0
    a[..., 1::2, 0::2] = -stiffness / per_mass
    a[..., 1::2, 1::2] = -damping / per_mass
    b[..., 1::2, :] = np.eye(2) / per_mass
    return System(config=config, mass=mass, damping=damping, stiffness=stiffness,
                  modes=mode_analysis(mass, damping, stiffness), k_eff=k_eff, m_eff=m_eff,
                  kappa=config.kc / k_eff, q=q, a=a, b=b)


def frequency_response(system: System, frequencies: np.ndarray) -> np.ndarray:
    """The complex receptance h(w) = (-w^2 M + i w C + K)^-1 on a grid of
    frequencies [Hz]: h[..., j, k] is the displacement of j per unit force on
    k [m/N], shape (F, 2, 2).

    For N designs the grid is one row per design, shape (F,) or (N, F), and
    h has shape (N, F, 2, 2).  The 2x2 inverse is formed explicitly from the
    determinant.  The matrix can only become singular at an undamped
    resonance (zero damping at an eigenfrequency); that case raises
    NumericalError.
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if np.any(freqs < 0):
        raise ValueError("frequencies must be >= 0")
    omega = 2.0 * math.pi * freqs

    # a frequency axis ahead of each 2x2 block
    m, c, k = (a[..., None, :, :] for a in (system.mass, system.damping, system.stiffness))
    d11 = -(omega**2) * m[..., 0, 0] + 1j * omega * c[..., 0, 0] + k[..., 0, 0]
    d12 = -(omega**2) * m[..., 0, 1] + 1j * omega * c[..., 0, 1] + k[..., 0, 1]
    d21 = -(omega**2) * m[..., 1, 0] + 1j * omega * c[..., 1, 0] + k[..., 1, 0]
    d22 = -(omega**2) * m[..., 1, 1] + 1j * omega * c[..., 1, 1] + k[..., 1, 1]
    det = d11 * d22 - d12 * d21

    # scale from the matrix terms, not from the (possibly cancelling) sums
    m_max, c_max, k_max = (np.abs(a).max(axis=(-2, -1)) for a in (m, c, k))
    term = np.maximum(k_max, np.maximum(omega**2 * m_max, omega * c_max))
    bad = np.abs(det) <= 1e-12 * term**2
    if np.any(bad):
        f_bad = np.broadcast_to(freqs, bad.shape)[bad][0]
        raise NumericalError(f"undamped resonance: receptance singular at {f_bad:g} Hz")

    h = np.empty(det.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = d22 / det
    h[..., 0, 1] = -d12 / det
    h[..., 1, 0] = -d21 / det
    h[..., 1, 1] = d11 / det
    return h
