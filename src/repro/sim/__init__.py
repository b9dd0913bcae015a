"""Simulation core: cycle accounting, statistics, exceptions."""

from repro.sim.clock import Clock
from repro.sim.exceptions import (
    AddressError,
    CrossbarError,
    DesignError,
    EnduranceExhaustedError,
    FaultInjectionError,
    MagicProtocolError,
    ProgramError,
    SimulationError,
)
from repro.sim.stats import DesignMetrics, RunStats

# NOTE: repro.sim.waveform is intentionally not imported here — it sits
# above the magic layer; import it directly as `repro.sim.waveform`.

__all__ = [
    "AddressError",
    "Clock",
    "CrossbarError",
    "DesignError",
    "DesignMetrics",
    "EnduranceExhaustedError",
    "FaultInjectionError",
    "MagicProtocolError",
    "ProgramError",
    "RunStats",
    "SimulationError",
]
