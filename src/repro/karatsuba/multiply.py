"""Multiplication stage of the CIM Karatsuba multiplier (Sec. IV-D).

Nine single-row multipliers (Sec. IV-D adopts the MultPIM approach [9]
with shared input/output memory) run in parallel, one memory row each.
The widest multiplication computes ``c_mm`` from ``n/4 + 2``-bit
operands, so every row is provisioned for that width:

* area: ``9 * 12 * (n/4 + 2)`` cells;
* latency: ``(n/4+2) * (ceil(log2(n/4+2)) + 14) + 3`` cc (all rows
  finish together because the controller schedules them in lock-step).

Wear-leveling alternates each row's hot scratch cells between two
partition-internal locations on successive multiplications, halving
the hottest cell's write accumulation
(:meth:`~repro.arith.rowmul.RowMultiplier.charge_passes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.arith import rowmul
from repro.arith.rowmul import RowMultiplier, RowMultiplierSpec
from repro.karatsuba.unroll import UnrolledPlan, build_plan
from repro.reliability.residue import DEFAULT_RESIDUE_BITS, ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError

#: Parallel multiplier rows in the L = 2 design.
NUM_ROWS = 9


def operand_width(n_bits: int) -> int:
    """Widest partial-multiplication operand: ``n/4 + 2`` bits."""
    _check_width(n_bits)
    return n_bits // 4 + 2


def area_cells(n_bits: int) -> int:
    """Stage footprint: ``9 * 12 * (n/4 + 2)`` cells."""
    return NUM_ROWS * rowmul.area_cells(operand_width(n_bits))


def latency_cc(n_bits: int) -> int:
    """Stage latency, set by the widest row: ``m(ceil(log2 m)+14)+3``."""
    return rowmul.latency_cc(operand_width(n_bits))


def _check_width(n_bits: int) -> None:
    if n_bits < 8 or n_bits % 4:
        raise DesignError(
            f"the L=2 design needs n divisible by 4 and >= 8, got {n_bits}"
        )


@dataclass(frozen=True)
class MultiplicationResult:
    """Outputs of one multiplication pass."""

    products: Dict[str, int]
    cycles: int


class MultiplicationStage:
    """Cycle-accurate multiplication subarray (nine parallel rows)."""

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
    ):
        _check_width(n_bits)
        self.n_bits = n_bits
        self.width = operand_width(n_bits)
        self.plan: UnrolledPlan = build_plan(n_bits, 2)
        self.wear_leveling = wear_leveling
        self.checker = ResidueChecker("multiply", residue_bits)
        self.steps = tuple(
            (step.out, step.lhs, step.rhs) for step in self.plan.multiplications
        )
        spec = RowMultiplierSpec(self.width)
        self.rows: Dict[str, RowMultiplier] = {
            out: RowMultiplier(spec) for out, _, _ in self.steps
        }
        if len(self.rows) != NUM_ROWS:
            raise AssertionError("unexpected L=2 multiplication count")
        self.clock = Clock()
        self.passes = 0

    # ------------------------------------------------------------------
    def process_batch(
        self, operands_list: List[Dict[str, int]]
    ) -> List[MultiplicationResult]:
        """Run B multiplication passes, advancing the clock once.

        Each operand set must contain every name referenced by the plan
        (the precompute stage's output mapping is exactly that).  The
        nine rows already run in lock-step within a pass; batching
        extends the lock-step across operand sets, so the stage clock
        advances by a single row latency for the whole batch.  All
        ``9 B`` sub-products run as one bit-sliced
        :func:`~repro.arith.rowmul.lockstep_pass`, each residue-verified;
        products and wear are identical to one pass per job.
        """
        operands_list = list(operands_list)
        if not operands_list:
            return []
        products = rowmul.lockstep_pass(
            self.rows, self.steps, operands_list, self.checker, self.wear_leveling
        )
        cycles = latency_cc(self.n_bits)
        self.passes += len(operands_list)
        self.clock.tick(cycles, category="rowmul")
        return [MultiplicationResult(products=p, cycles=cycles) for p in products]

    # ------------------------------------------------------------------
    @property
    def area_cells(self) -> int:
        return area_cells(self.n_bits)

    def latency_cc(self) -> int:
        return latency_cc(self.n_bits)

    def max_writes(self) -> int:
        return max(row.max_writes() for row in self.rows.values())

    def row_names(self) -> List[str]:
        return list(self.rows)
