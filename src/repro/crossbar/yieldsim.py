"""Monte Carlo fault/yield analysis for CIM arithmetic blocks.

ReRAM arrays ship with stuck-at cells and develop more as endurance
wears out (Sec. II-A).  This module measures how the paper's
Kogge-Stone adder degrades under stuck-at faults:

* :func:`adder_fault_trial` — one trial: inject random stuck-at cells
  into a standalone adder array, run random additions, report whether
  all results were correct;
* :func:`yield_curve` — failure probability versus fault density;
* :func:`cell_criticality` — exhaustive single-fault scan classifying
  every cell of the adder as critical (any fault breaks results) or
  tolerated for a fixed operand set.

Faulty NOR outputs violate the MAGIC init precondition, so trials run
with ``strict_magic`` disabled — the array then models the electrical
reality of a defective cell (it simply holds its stuck value).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.crossbar.array import FAULT_STUCK_AT_0, FAULT_STUCK_AT_1
from repro.sim.exceptions import DesignError, SimulationError

if TYPE_CHECKING:
    from repro.arith.koggestone import AdderUnit


def _build_unit(width: int) -> "AdderUnit":
    # Imported lazily: this analysis module sits above the arithmetic
    # layer, which itself builds on the crossbar package.
    from repro.arith.koggestone import AdderUnit

    unit = AdderUnit(width, spare_rows=0)
    # Lanes inherit the flag: a defective cell just holds its value.
    unit.array.strict_magic = False
    return unit


def _run_additions(
    unit: "AdderUnit", operand_pairs: List[Tuple[int, int]]
) -> bool:
    """True when every addition returns the correct sum.

    The additions are the lanes of one pass, each on its own copy of
    the faulted array; the faults are pinned in every lane.
    """
    try:
        sums = unit.run_pass(operand_pairs, "add")
    except SimulationError:
        return False
    return sums == [x + y for x, y in operand_pairs]


@dataclass(frozen=True)
class FaultTrial:
    """Outcome of one randomized fault-injection trial."""

    faults: int
    correct: bool


def adder_fault_trial(
    width: int,
    fault_count: int,
    rng: random.Random,
    additions: int = 4,
) -> FaultTrial:
    """Inject *fault_count* random stuck-at cells and test the adder."""
    if fault_count < 0:
        raise DesignError("fault count must be non-negative")
    unit = _build_unit(width)
    array = unit.array
    cells = [(r, c) for r in range(array.rows) for c in range(array.cols)]
    rng.shuffle(cells)
    for row, col in cells[:fault_count]:
        kind = FAULT_STUCK_AT_1 if rng.random() < 0.5 else FAULT_STUCK_AT_0
        array.inject_fault(row, col, kind)
    pairs = [
        (rng.getrandbits(width), rng.getrandbits(width))
        for _ in range(additions)
    ]
    return FaultTrial(
        faults=fault_count, correct=_run_additions(unit, pairs)
    )


def yield_curve(
    width: int = 16,
    densities: Tuple[float, ...] = (0.0, 0.005, 0.01, 0.02, 0.05),
    trials: int = 20,
    seed: int = 0xFA17,
) -> List[Tuple[float, float]]:
    """(fault density, survival probability) sampled by Monte Carlo."""
    rng = random.Random(seed)
    total_cells = _build_unit(width).array.cells
    curve: List[Tuple[float, float]] = []
    for density in densities:
        fault_count = round(density * total_cells)
        survived = sum(
            adder_fault_trial(width, fault_count, rng).correct
            for _ in range(trials)
        )
        curve.append((density, survived / trials))
    return curve


@dataclass(frozen=True)
class CriticalityReport:
    """Single-fault sensitivity of the adder array."""

    width: int
    total_cells: int
    critical_cells: int
    tolerated_cells: int

    @property
    def critical_fraction(self) -> float:
        return self.critical_cells / self.total_cells


def cell_criticality(
    width: int = 8,
    operand_pairs: Optional[List[Tuple[int, int]]] = None,
    kind: str = FAULT_STUCK_AT_0,
) -> CriticalityReport:
    """Exhaustive single-stuck-at scan over every cell.

    A cell is *critical* when a single fault there corrupts at least
    one of the probe additions.  Operand rows and the carry chain are
    expected to be critical; some scratch cells are tolerated because
    the probe set never exercises them with a differing value.
    """
    if operand_pairs is None:
        top = (1 << width) - 1
        operand_pairs = [(top, 1), (0x55 & top, 0x2A & top), (top, top)]
    critical = 0
    tolerated = 0
    probe_array = _build_unit(width).array
    for row in range(probe_array.rows):
        for col in range(probe_array.cols):
            unit = _build_unit(width)
            unit.array.inject_fault(row, col, kind)
            if _run_additions(unit, list(operand_pairs)):
                tolerated += 1
            else:
                critical += 1
    return CriticalityReport(
        width=width,
        total_cells=probe_array.cells,
        critical_cells=critical,
        tolerated_cells=tolerated,
    )
