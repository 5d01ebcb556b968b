"""Noise-floor and resolution analysis for weakly coupled two-resonator sensors.

The toolkit models a 2-DoF coupled resonator pair, integrates its equations
of motion under harmonic and thermal drive, estimates power spectral
densities, budgets the thermomechanical and transimpedance-readout noise, and
converts the noise floor into output resolution and a minimum detectable
stiffness perturbation.

The public names below load their module on first use (PEP 562), so a
command imports only the modules it runs: `modes` never builds the engine.
"""

from importlib import import_module

_EXPORTS = {
    "errors": ("ConfigError", "NumericalError"),
    "noisebudget": (
        "BOLTZMANN", "Environment", "NoiseBudgetReport", "ReadoutConfig", "TransducerConfig",
        "analytic_displacement_psd", "full_noise_budget", "thermal_force_psd",
    ),
    "resolution": ("ResolutionReport", "ar_sensitivity", "carrier_voltages", "resolution_report"),
    "spectral": (
        "DB_PAPER", "DB_POWER", "Spectrum", "Welch", "band_mean_psd", "band_power",
        "parseval_ratio", "to_db",
    ),
    "sysmodel": (
        "Modes", "System", "SystemConfig", "build_system", "frequency_response", "mode_analysis",
    ),
    "timesim": (
        "Forcing", "HarmonicDrive", "SimulationPlan", "SteadyStateAmplitude",
        "SteadyStateProjection", "StochasticDrive", "TimeSeries", "default_timestep", "simulate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
