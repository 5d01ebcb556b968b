"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: modal
quantities come from scipy's generalized eigensolver on the raw matrices,
receptance cross-checks use a dense complex solve, and the RK4 reference is
the textbook four-stage step written out by hand.  `collect` joins the
chunks a run hands its sink, for tests that check a record whole.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from crnoise import presets
from crnoise.sysmodel import SystemConfig
from crnoise.timesim import simulate


@pytest.fixture
def reference_config() -> SystemConfig:
    return presets.reference_system()


def collect(system, forcing, plan, channels=("x1", "x2")):
    """Run the engine and join the chunks its sink is handed: a namespace
    with one array per channel plus the run's dt, n_samples and metadata."""
    chunks = {name: [] for name in channels}

    def keep(chunk):
        for name, data in chunk.items():
            chunks[name].append(data)

    series = simulate(system, forcing, plan, keep, channels)
    return SimpleNamespace(dt=series.dt, n_samples=series.n_samples, metadata=series.metadata,
                           **{name: np.concatenate(parts) for name, parts in chunks.items()})


def oracle_modes(mass: np.ndarray, stiffness: np.ndarray):
    """Generalized eigensolution via scipy.linalg.eigh(K, M)."""
    eigvals, eigvecs = scipy.linalg.eigh(stiffness, mass)
    order = np.argsort(eigvals)
    return np.sqrt(eigvals[order]), eigvecs[:, order]


def oracle_ar(mass: np.ndarray, stiffness: np.ndarray, mode: int) -> float:
    """|x1/x2| of the requested mode (0 = lower) from the raw eigenproblem."""
    _, vecs = oracle_modes(mass, stiffness)
    return abs(vecs[0, mode] / vecs[1, mode])


def oracle_eigenstate(mass: np.ndarray, stiffness: np.ndarray, mode: int) -> float:
    """First component magnitude of the unit-norm eigenvector."""
    _, vecs = oracle_modes(mass, stiffness)
    v = vecs[:, mode] / np.linalg.norm(vecs[:, mode])
    return abs(v[0])


def oracle_receptance(mass, damping, stiffness, f_hz: float) -> np.ndarray:
    """Dense complex solve of (-w^2 M + iwC + K) h = I at one frequency."""
    w = 2.0 * np.pi * f_hz
    dyn = -(w**2) * mass + 1j * w * damping + stiffness
    return np.linalg.solve(dyn, np.eye(2))


def textbook_rk4_step(f, x: np.ndarray, t: float, dt: float) -> np.ndarray:
    """Classical four-stage Runge-Kutta step for x' = f(t, x)."""
    k1 = f(t, x)
    k2 = f(t + dt / 2.0, x + dt / 2.0 * k1)
    k3 = f(t + dt / 2.0, x + dt / 2.0 * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def perturbed_stiffness(cfg: SystemConfig, dk1: float, dk2: float = 0.0) -> np.ndarray:
    return np.array(
        [[cfg.km1 + dk1 + cfg.kc, -cfg.kc], [-cfg.kc, cfg.km2 + dk2 + cfg.kc]]
    )


def oracle_stiffness_shifts(cfg: SystemConfig, delta_k: float):
    """Brute-force normalized output shifts from the perturbed eigenproblem.

    AR and eigenstate shifts perturb resonator 1 (the library convention).
    The frequency formula states the common-mode law delta_k/(2 k_eff) of a
    frequency readout, so its oracle perturbs both springs and averages the
    two modes' normalized shifts.
    """
    mass = np.array([[cfg.m1, 0.0], [0.0, cfg.m2]])
    k0 = perturbed_stiffness(cfg, 0.0)
    ar0 = oracle_ar(mass, k0, mode=1)
    es0 = oracle_eigenstate(mass, k0, mode=1)
    w0, _ = oracle_modes(mass, k0)

    k1 = perturbed_stiffness(cfg, delta_k)
    ar_shift = abs(oracle_ar(mass, k1, mode=1) - ar0) / ar0
    es_shift = abs(oracle_eigenstate(mass, k1, mode=1) - es0) / es0
    w_cm, _ = oracle_modes(mass, perturbed_stiffness(cfg, delta_k, delta_k))
    freq_shift = float(np.mean(w_cm / w0 - 1.0))
    return freq_shift, ar_shift, es_shift


def random_valid_config(rng: np.random.Generator) -> SystemConfig:
    """Draw a positive-definite, possibly asymmetric configuration."""
    km1 = 10.0 ** rng.uniform(2, 6)
    km2 = km1 * rng.uniform(0.8, 1.25)
    kc = rng.uniform(-0.04, 0.05) * min(km1, km2)
    m1 = 10.0 ** rng.uniform(-6, -3)
    m2 = m1 * rng.uniform(0.8, 1.25)
    q = rng.uniform(50, 5000)
    c = np.sqrt(km1 * m1) / q
    return SystemConfig(
        m1=m1, m2=m2, km1=km1, km2=km2, kc=kc,
        c1=c, c2=c * rng.uniform(0.9, 1.1), cc=c * rng.uniform(0.0, 1.1),
    )
