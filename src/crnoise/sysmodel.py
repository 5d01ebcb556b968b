"""Mechanics of the weakly coupled two-resonator system.

Assembles the 2x2 mass/damping/stiffness matrices of the coupled pair,
solves the modal eigenproblem, evaluates the analytic receptance
(displacement per unit force) over frequency, and provides the closed-form
first-order output-shift estimates used to rate stiffness and mass sensing
through the frequency, amplitude-ratio (AR) and eigenstate readouts.

kc may be a 1-D array of N designs, evaluated in one array pass: matrices
stack to (N, 2, 2) and every per-design result gains a leading axis N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
        ratio = np.max(np.abs(self.kc)) / min(self.km1, self.km2)
        if ratio > _WEAK_COUPLING_RATIO:
            warnings.warn(
                f"|kc|/km = {ratio:.3g} > {_WEAK_COUPLING_RATIO}; "
                "first-order weak-coupling sensitivity formulas may be inaccurate",
                stacklevel=2,
            )


@dataclass(frozen=True)
class DerivedQuantities:
    """Scalar summary of the (nominally symmetric) coupled pair."""

    k_eff: float  # effective stiffness km + kc, N/m
    m_eff: float  # effective mass, kg
    kappa: float  # normalized coupling kc / k_eff
    q: float  # quality factor sqrt(k_eff * m_eff) / c

    @property
    def kc(self) -> float:
        """Coupling spring implied by kappa and k_eff, N/m."""
        return self.kappa * self.k_eff


def derive_quantities(config: SystemConfig) -> DerivedQuantities:
    """Compute k_eff, m_eff, kappa and Q for a system configuration.

    k_eff is the diagonal stiffness km + kc of the equations of motion.  For
    asymmetric configurations the two resonators' diagonal values (and masses
    and dampers) are averaged; for the symmetric design this is exact.
    """
    k_eff = 0.5 * ((config.km1 + config.kc) + (config.km2 + config.kc))
    m_eff = 0.5 * (config.m1 + config.m2)
    c_mean = 0.5 * (config.c1 + config.c2)
    with np.errstate(divide="ignore"):
        q = np.sqrt(k_eff * m_eff) / c_mean
    return DerivedQuantities(k_eff=k_eff, m_eff=m_eff, kappa=config.kc / k_eff, q=q)


@dataclass(frozen=True)
class SystemMatrices:
    """Assembled 2x2 matrices of the equations of motion, (N, 2, 2) for N designs."""

    mass: np.ndarray  # kg
    damping: np.ndarray  # N*s/m
    stiffness: np.ndarray  # N/m


def build_system(config: SystemConfig) -> SystemMatrices:
    """Assemble mass, damping and stiffness matrices from the configuration.

    The off-diagonal damping is -cc (the physical coupler damper).  Under the
    nominal design condition c1 = c2 = cc this coincides with writing -c in
    the coupled equations of motion; a warning is raised otherwise.
    """
    kc = np.asarray(config.kc, dtype=float)
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
    return SystemMatrices(mass=mass, damping=damping, stiffness=stiffness)


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


def mode_analysis(system: SystemMatrices) -> Modes:
    """Solve the generalized symmetric eigenproblem K v = w^2 M v.

    Uses Cholesky reduction of the mass matrix so the reduced problem stays
    symmetric.  Mode 1 is the lower-frequency mode; for kc < 0 that is the
    out-of-phase mode.  Modal quality factors use the eigenvector-projected
    damping: q_i = sqrt(k_i * m_i) / c_i with k_i = v'Kv, m_i = v'Mv,
    c_i = v'Cv.
    """
    chol = np.linalg.cholesky(system.mass)
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, system.stiffness).mT).mT
    eigvals, eigvecs = np.linalg.eigh(0.5 * (reduced + reduced.mT))
    shapes = np.linalg.solve(chol.mT, eigvecs)  # columns are the modes

    shapes = shapes / np.sqrt(np.vecdot(shapes, shapes, axis=-2))[..., None, :]
    first, second = shapes[..., 0, :], shapes[..., 1, :]
    flip = (first < 0) | ((first == 0) & (second < 0))
    shapes = np.where(flip[..., None, :], -shapes, shapes)
    labels = np.where(
        (system.stiffness[..., 0, 1] == 0)[..., None],
        DEGENERATE,
        np.where(shapes[..., 0, :] * shapes[..., 1, :] > 0, IN_PHASE, OUT_OF_PHASE),
    )
    m, k, c = (np.vecdot(shapes, a @ shapes, axis=-2)
               for a in (system.mass, system.stiffness, system.damping))
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
class FrequencyResponse:
    """Complex receptance h[j][k] = displacement of j per unit force on k."""

    frequencies: np.ndarray  # Hz
    h: np.ndarray  # complex, shape (F, 2, 2) or (N, F, 2, 2), m/N


def frequency_response(
    system: SystemMatrices, frequencies: np.ndarray
) -> FrequencyResponse:
    """Evaluate h(w) = (-w^2 M + i w C + K)^-1 on a grid of frequencies [Hz].

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
    return FrequencyResponse(frequencies=freqs, h=h)


@dataclass(frozen=True)
class SensitivityReport:
    """First-order normalized output shifts for a stiffness or mass change.

    frequency_shift, ar_shift and eigenstate_shift are the normalized
    (fractional) shifts of the mode frequency, amplitude-ratio and
    eigenstate-amplitude readouts; the eigenstate shift is half the AR shift.
    The raw frequency form |delta/2m| is not computed (it is dimensionally
    inconsistent) and the normalized form is the authoritative one.

    When kc = 0 the AR and eigenstate readouts are degenerate and their
    shifts are reported as unbounded (inf) with degenerate = True.
    """

    frequency_shift: float
    ar_shift: float
    eigenstate_shift: float
    degenerate: bool


def _sensitivity_report(frequency_shift: float, ar_shift: float) -> SensitivityReport:
    return SensitivityReport(
        frequency_shift=frequency_shift,
        ar_shift=ar_shift,
        eigenstate_shift=ar_shift / 2.0,
        degenerate=math.isinf(ar_shift),
    )


def sensitivity_stiffness(
    delta_k: float, derived: DerivedQuantities
) -> SensitivityReport:
    """Closed-form output shifts for a stiffness perturbation delta_k [N/m].

    frequency: |delta_k / (2 k_eff)|; AR: |delta_k / (2 kc)|;
    eigenstate: |delta_k / (4 kc)|.
    """
    ar = math.inf if derived.kappa == 0 else abs(delta_k / (2.0 * derived.kc))
    return _sensitivity_report(abs(delta_k / (2.0 * derived.k_eff)), ar)


def sensitivity_mass(delta_m: float, derived: DerivedQuantities) -> SensitivityReport:
    """Closed-form output shifts for a mass perturbation delta_m [kg].

    frequency: |delta_m / (2 m_eff)|; AR and eigenstate use the dimensionless
    interpretation dm = delta_m / m_eff: dm/(2|kappa|) and dm/(4|kappa|).
    """
    dm = delta_m / derived.m_eff
    ar = math.inf if derived.kappa == 0 else abs(dm / (2.0 * derived.kappa))
    return _sensitivity_report(abs(delta_m / (2.0 * derived.m_eff)), ar)
