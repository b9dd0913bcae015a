"""Multiplication stage of the CIM Karatsuba multiplier (Sec. IV-D).

One single-row multiplier per partial product of the unrolled plan
(Sec. IV-D adopts the MultPIM approach [9] with shared input/output
memory) runs in parallel, one memory row each: ``3^L`` rows, nine
for the paper's L = 2 design.  Every row is provisioned for the
plan's widest operands (``c_mm``'s ``n/4 + 2`` bits at L = 2):

* area: ``9 * 12 * (n/4 + 2)`` cells at L = 2;
* latency: ``(n/4+2) * (ceil(log2(n/4+2)) + 14) + 3`` cc (all rows
  finish together because the controller schedules them in lock-step).

Wear-leveling alternates each row's hot scratch cells between two
partition-internal locations on successive multiplications, halving
the hottest cell's write accumulation
(:func:`~repro.arith.rowmul.charge_wear`).
"""

from __future__ import annotations

from repro.arith.rowmul import LockstepRowStage
from repro.karatsuba import postcompute
from repro.karatsuba.cost import StageLayout
from repro.karatsuba.unroll import UnrolledPlan, build_plan
from repro.reliability.residue import DEFAULT_RESIDUE_BITS


def layout(plan: UnrolledPlan) -> StageLayout:
    """One row multiplier per partial product of *plan*, all of the
    widest operand width: ``9 * 12 * (n/4 + 2)`` cells at L = 2, and
    the widest row's latency ``m(ceil(log2 m)+14)+3``."""
    return StageLayout(
        "multiply",
        multipliers=len(plan.multiplications),
        multiplier_width=plan.max_mult_width,
    )


class MultiplicationStage(LockstepRowStage):
    """Cycle-accurate multiplication subarray (one row per product).

    The precompute stage's rows name every operand of the plan; all
    ``3^L B`` sub-products of a batch run as one bit-sliced
    :meth:`~repro.arith.rowmul.LockstepRowStage.lockstep_pass`, each
    residue-verified, and leave as rows of the postcompute adder's
    ``1.5 n``-column lanes.
    """

    def __init__(
        self,
        n_bits: int,
        depth: int = 2,
        wear_leveling: bool = True,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
    ):
        self.n_bits = n_bits
        self.plan: UnrolledPlan = build_plan(n_bits, depth)
        (adder,) = postcompute.layout(self.plan).units
        super().__init__(
            layout(self.plan),
            [(s.out, s.lhs, s.rhs) for s in self.plan.multiplications],
            "multiply",
            wear_leveling=wear_leveling,
            residue_bits=residue_bits,
            # Products leave in the postcompute adder's lanes.
            out_cols=adder.cols,
        )
