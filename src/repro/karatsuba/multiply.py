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

from repro.arith import rowmul
from repro.arith.rowmul import LockstepRowStage
from repro.karatsuba.unroll import UnrolledPlan, build_plan
from repro.reliability.residue import DEFAULT_RESIDUE_BITS
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


class MultiplicationStage(LockstepRowStage):
    """Cycle-accurate multiplication subarray (nine parallel rows).

    Each operand set must contain every name referenced by the plan
    (the precompute stage's output mapping is exactly that); all
    ``9 B`` sub-products of a batch run as one bit-sliced
    :func:`~repro.arith.rowmul.lockstep_pass`, each residue-verified.
    """

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
    ):
        _check_width(n_bits)
        self.n_bits = n_bits
        self.plan: UnrolledPlan = build_plan(n_bits, 2)
        super().__init__(
            operand_width(n_bits),
            [(s.out, s.lhs, s.rhs) for s in self.plan.multiplications],
            "multiply",
            wear_leveling=wear_leveling,
            residue_bits=residue_bits,
        )
        if len(self.rows) != NUM_ROWS:
            raise AssertionError("unexpected L=2 multiplication count")
