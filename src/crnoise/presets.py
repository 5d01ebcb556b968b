"""Named presets: shipped config files layered over the SCHEMA defaults.

The reference design lives only in the `config.SCHEMA` defaults.  A preset
file lists just the keys it changes; `paper-reference` adds the published
readout conventions (see its comments), and `reference_run()` returns it
resolved, so code that needs the reference transducer, readout or published
PSD levels reads them from that run.
"""

from __future__ import annotations

import importlib.resources
import math

from .config import RunConfig, build_run_config, parse_config_text
from .sysmodel import SystemConfig

PRESET_NAMES = ("paper-reference", "uncoupled-demo")


def reference_run() -> RunConfig:
    """The resolved `paper-reference` preset."""
    name = "paper-reference"
    return build_run_config(parse_config_text(preset_text(name), source=name))


def reference_system() -> SystemConfig:
    """Symmetric reference pair at the published operating point."""
    return reference_run().system


def uncoupled_system(q: float = 100.0) -> SystemConfig:
    """Two identical uncoupled resonators at quality factor q.

    Used for the equipartition demonstration: with kc = cc = 0 resonator 1
    behaves as a single mass-spring-damper with the reference k_eff and mass.
    """
    design = reference_run().design
    c = math.sqrt(design.k_eff * design.m_eff) / q
    return SystemConfig(
        m1=design.m_eff, m2=design.m_eff,
        km1=design.k_eff, km2=design.k_eff,
        kc=0.0,
        c1=c, c2=c, cc=0.0,
    )


def preset_text(name: str) -> str:
    """Raw config text of a shipped preset."""
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    filename = name.replace("-", "_") + ".cfg"
    return (
        importlib.resources.files("crnoise").joinpath("data", filename).read_text("utf-8")
    )
