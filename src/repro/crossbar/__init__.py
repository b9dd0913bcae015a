"""ReRAM crossbar substrate: devices, arrays, endurance, faults, energy."""

from repro.crossbar.array import (
    FAULT_STUCK_AT_0,
    FAULT_STUCK_AT_1,
    CrossbarArray,
    WordPackedCrossbarArray,
)
from repro.crossbar.faults import (
    StuckAtFault,
    TransientFaultInjector,
    TransientFaultModel,
    clear as clear_faults,
    fault_map,
    inject as inject_faults,
    random_faults,
)
from repro.crossbar.device import (
    ENDURANCE_HIGH_CYCLES,
    ENDURANCE_LOW_CYCLES,
    DeviceModel,
    Memristor,
)
from repro.crossbar.endurance import (
    EnduranceReport,
    WearLevelingController,
    analyze,
    row_write_histogram,
)
from repro.crossbar.energy import EnergyBreakdown, EnergyModel
from repro.crossbar import variability
from repro.crossbar.periphery import (
    PeripheryEstimate,
    PeripheryModel,
)
from repro.crossbar.yieldsim import (
    CriticalityReport,
    FaultTrial,
    adder_fault_trial,
    cell_criticality,
    yield_curve,
)

__all__ = [
    "WordPackedCrossbarArray",
    "CriticalityReport",
    "CrossbarArray",
    "PeripheryEstimate",
    "variability",
    "PeripheryModel",
    "FaultTrial",
    "adder_fault_trial",
    "cell_criticality",
    "yield_curve",
    "DeviceModel",
    "ENDURANCE_HIGH_CYCLES",
    "ENDURANCE_LOW_CYCLES",
    "EnduranceReport",
    "EnergyBreakdown",
    "EnergyModel",
    "FAULT_STUCK_AT_0",
    "FAULT_STUCK_AT_1",
    "Memristor",
    "StuckAtFault",
    "TransientFaultInjector",
    "TransientFaultModel",
    "WearLevelingController",
    "analyze",
    "clear_faults",
    "fault_map",
    "inject_faults",
    "random_faults",
    "row_write_histogram",
]
