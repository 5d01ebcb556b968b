"""Noise-floor and resolution analysis for weakly coupled two-resonator sensors.

The toolkit models a 2-DoF coupled resonator pair, integrates its equations
of motion under harmonic and thermal drive, estimates power spectral
densities, budgets the thermomechanical and transimpedance-readout noise, and
converts the noise floor into output resolution and a minimum detectable
stiffness perturbation.
"""

from .errors import ConfigError, NumericalError
from .noisebudget import (
    BOLTZMANN,
    ElectronicBudget,
    Environment,
    NoiseBudgetReport,
    ReadoutConfig,
    ThermalBudget,
    TransducerConfig,
    analytic_displacement_psd,
    electronic_budget,
    full_noise_budget,
    motional_resistance,
    thermal_budget,
    thermal_force_psd,
    total_system_noise,
)
from .resolution import (
    MinDetectableStiffness,
    ReadoutVoltages,
    ResolutionReport,
    SnrGate,
    amplitude_resolution,
    ar_resolution,
    ar_sensitivity,
    compute_readout_voltages,
    min_detectable_stiffness,
    motional_current,
    output_voltage,
    resolution_report,
    snr_gate,
)
from .spectral import (
    DB_PAPER,
    DB_POWER,
    Spectrum,
    Welch,
    band_mean_psd,
    band_power,
    parseval_ratio,
    to_db,
    welch_psd,
)
from .sysmodel import (
    DerivedQuantities,
    FrequencyResponse,
    Modes,
    SensitivityReport,
    SystemConfig,
    SystemMatrices,
    build_system,
    derive_quantities,
    frequency_response,
    mode_analysis,
    sensitivity_mass,
    sensitivity_stiffness,
)
from .timesim import (
    Forcing,
    HarmonicDrive,
    SimulationPlan,
    SteadyStateAmplitude,
    SteadyStateProjection,
    StochasticDrive,
    TimeSeries,
    default_timestep,
    duration_for_segments,
    simulate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
