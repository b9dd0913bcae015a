"""Precomputation stage of the CIM Karatsuba multiplier (Sec. IV-C).

At unroll depth L the stage performs every chunk addition of the
unrolled plan (:func:`~repro.karatsuba.unroll.build_plan`) on one
subarray that :func:`layout` lays out from that plan:

* one row per input chunk, ``2^(L+1)`` rows (a0.., then b..);
* one result row per addition, ``2 (3^L - 2^L)`` rows;
* the 12 Kogge-Stone scratch rows.

A single Kogge-Stone instance of the widest chunk-sum input width
(``n/2^L + L - 1`` bits) serves every addition, which is the
uniformity payoff of unrolling.  For the paper's L = 2 design that is
eight inputs, ten results and a ``(8 + 10 + 12) x (n/4 + 2)``
subarray with latency

    ``8 + 10 * (17 + 11*ceil(log2(n/4 + 1))) + 1``  cc

(8 input-row writes, ten adder passes, one reset cycle).

Wear-leveling exchanges the physical rows of the scratch region with
as many of the data rows (twelve at L = 2) after every
multiplication, halving the per-cell write accumulation at zero
cycle cost (Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arith.koggestone import (
    SCRATCH_ROWS,
    AdderPassStage,
    KoggeStoneAdder,
    KoggeStoneLayout,
    LanePlan,
)
from repro.crossbar.array import CrossbarArray
from repro.crossbar.endurance import WearLevelingController
from repro.karatsuba.cost import StageLayout, UnitLayout
from repro.karatsuba.unroll import UnrolledPlan, build_plan
from repro.magic.backend import DEFAULT_BACKEND
from repro.magic.stage import CrossbarStage
from repro.reliability.residue import DEFAULT_RESIDUE_BITS, ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError

#: Redundant word lines per stage subarray for fault remapping.
DEFAULT_SPARE_ROWS = 2


def layout(plan: UnrolledPlan) -> StageLayout:
    """Rows, columns and passes of the subarray for *plan*: its input
    and result rows plus the 12 scratch rows, ``w + 1`` columns for the
    widest chunk-sum input width ``w``, and one ``w``-bit addition per
    plan entry; the input writes and the closing reset are its
    periphery cycles.  At L = 2 that is ``30 * (n/4 + 2)`` cells (1,980
    at n = 256) and ``8 + 10*(17 + 11*ceil(log2(n/4+1))) + 1`` cc."""
    inputs = 2 * plan.num_chunks
    adds = len(plan.precompute_adds)
    width = plan.max_precompute_input_width
    return StageLayout(
        "precompute",
        units=(
            UnitLayout(
                inputs + adds + SCRATCH_ROWS, width + 1, (("add", width),) * adds
            ),
        ),
        overhead={"write": inputs, "init": 1},
    )


@dataclass(frozen=True)
class PrecomputeResult:
    """Outputs of one precomputation pass."""

    chunk_sums: Dict[str, int]
    cycles: int


class PrecomputeStage(AdderPassStage, CrossbarStage):
    """Cycle-accurate precomputation subarray.

    The stage owns its crossbar, a wear-leveling controller, and one
    Kogge-Stone program per addition, laid out in logical rows.  Each
    job writes its ``2^(L+1)`` chunks, executes the plan's additions
    NOR-by-NOR on rows the program itself computed (no operand
    staging), senses every sum, resets, and returns every named chunk
    sum; the batch runs through :meth:`AdderPassStage.process_batch`.
    """

    #: The adders read the chunk and sum rows in place.
    stages_operands = False

    def __init__(
        self,
        n_bits: int,
        depth: int = 2,
        wear_leveling: bool = True,
        device=None,
        spare_rows: int = DEFAULT_SPARE_ROWS,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
        optimize: bool = False,
        backend: object = DEFAULT_BACKEND,
    ):
        if n_bits < 8:
            raise DesignError(f"precompute needs n >= 8, got {n_bits}")
        self.plan: UnrolledPlan = build_plan(n_bits, depth)
        self.n_bits = n_bits
        #: Run adder programs through the SIMD cycle packer
        #: (:mod:`repro.magic.passes`).  Off by default so the stage
        #: reproduces the paper's per-op cycle counts exactly.
        self.optimize = optimize
        self.layout = layout(self.plan)
        (unit,) = self.layout.units
        self.cols = unit.cols
        chunks = self.plan.num_chunks
        self._inputs = tuple(
            f"{prefix}{i}" for prefix in "ab" for i in range(chunks)
        )
        #: ``(out, lhs, rhs)`` of every addition, in plan order.
        self._adds = tuple(
            (step.out, step.lhs, step.rhs) for step in self.plan.precompute_adds
        )
        data_rows = unit.rows - SCRATCH_ROWS
        self.overhead = self.layout.overhead
        self.clock = Clock()
        super().__init__(
            CrossbarArray(
                unit.rows,
                self.cols,
                device=device,
                spare_rows=spare_rows,
            ),
            backend=backend,
            clock=self.clock,
        )
        self.checker = ResidueChecker("precompute", residue_bits)
        self.wear_leveling = wear_leveling
        # Swap the scratch rows with as many leading data rows; both
        # regions are rewritten from scratch every multiplication, so
        # the exchange is transparent to the dataflow.
        swapped = min(SCRATCH_ROWS, data_rows)
        self.leveler = WearLevelingController(
            region_a=list(range(swapped)),
            region_b=list(range(data_rows, data_rows + swapped)),
        )
        self._data_rows = range(data_rows)
        self._scratch = range(data_rows, data_rows + SCRATCH_ROWS)
        #: Logical row of every named operand (inputs, then results).
        self._row_of = {
            name: row
            for row, name in enumerate(
                self._inputs + tuple(out for out, _, _ in self._adds)
            )
        }
        scratch = tuple(self._scratch)
        #: One pass per addition, in logical rows.
        self._passes = [
            (
                KoggeStoneAdder(
                    KoggeStoneLayout(
                        width=width,
                        col0=0,
                        x_row=self._row_of[lhs],
                        y_row=self._row_of[rhs],
                        out_row=self._row_of[out],
                        scratch_rows=scratch,
                    )
                ),
                op,
            )
            for (op, width), (out, lhs, rhs) in zip(unit.passes, self._adds)
        ]

    # ------------------------------------------------------------------
    def unit_passes(self):
        """Every addition of one job."""
        return [(self, self._passes)]

    def _input_writes(self) -> List[Tuple[int, str, int, int]]:
        return [(self._row_of[name], name, 0, self.cols) for name in self._inputs]

    def _closing_rows(self) -> List[int]:
        # Reset the whole data region (inputs and results) in one
        # multi-row INIT cycle; the adder already reset its own
        # scratch region.  Covering the input rows matters under
        # wear-leveling: after the swap they become the scratch
        # region and must arrive at logic one.
        return list(self._data_rows)

    def _sense_name(self, index: int) -> str:
        return self._adds[index][0]

    def _plan(
        self, job: Tuple[List[int], List[int]]
    ) -> Tuple[List[LanePlan], PrecomputeResult]:
        """Every chunk addition of one job, unrolled on the host."""
        a_chunks, b_chunks = job
        chunks = self.plan.num_chunks
        if len(a_chunks) != chunks or len(b_chunks) != chunks:
            raise DesignError(
                f"precompute expects {chunks} chunks per operand"
            )
        inputs = (*a_chunks, *b_chunks)
        if min(inputs) < 0 or max(inputs) >> self.plan.chunk_bits:
            raise DesignError(
                f"chunks must be non-negative and fit "
                f"{self.plan.chunk_bits} bits"
            )
        values = dict(zip(self._inputs, inputs))
        lane = LanePlan(self._schedule, values)
        sums = dict(values)
        run = lane.run
        for out, lhs, rhs in self._adds:
            sums[out] = run(out, "add", sums[lhs], sums[rhs])
        return [lane], PrecomputeResult(
            chunk_sums=sums, cycles=self._latency
        )
