"""Precomputation stage of the CIM Karatsuba multiplier (Sec. IV-C).

For the paper's L = 2 design the stage performs the ten chunk
additions of Fig. 3 on one ``(8 + 10 + 12) x (n/4 + 2)`` subarray:

* rows 0-7 hold the eight input chunks a0..a3, b0..b3;
* rows 8-17 receive the ten addition results;
* rows 18-29 are the Kogge-Stone scratch region.

A single Kogge-Stone instance of ``n/4 + 1``-bit width serves all ten
additions (eight have ``n/4``-bit inputs, the two deepest — a3210 and
b3210 — have ``n/4 + 1``-bit inputs), which is the uniformity payoff of
unrolling.  Stage latency:

    ``8 + 10 * (17 + 11*ceil(log2(n/4 + 1))) + 1``  cc

(8 input-row writes, ten adder passes, one reset cycle).

Wear-leveling exchanges the physical rows of the scratch region with
twelve of the data rows after every multiplication, halving the
per-cell write accumulation at zero cycle cost (Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arith.bitops import ceil_log2
from repro.arith.koggestone import (
    SCRATCH_ROWS,
    AdderPassStage,
    KoggeStoneAdder,
    KoggeStoneLayout,
    LanePlan,
)
from repro.crossbar.array import CrossbarArray
from repro.crossbar.endurance import WearLevelingController
from repro.karatsuba.unroll import UnrolledPlan, build_plan
from repro.magic.backend import DEFAULT_BACKEND
from repro.magic.stage import CrossbarStage
from repro.reliability.residue import DEFAULT_RESIDUE_BITS, ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError

#: Row budget of the stage (paper: 8 inputs + 10 results + 12 scratch).
INPUT_ROWS = 8
RESULT_ROWS = 10
TOTAL_ROWS = INPUT_ROWS + RESULT_ROWS + SCRATCH_ROWS

#: Redundant word lines per stage subarray for fault remapping.
DEFAULT_SPARE_ROWS = 2


def area_cells(n_bits: int) -> int:
    """Stage footprint: ``30 * (n/4 + 2)`` cells (1,980 at n = 256)."""
    _check_width(n_bits)
    return TOTAL_ROWS * (n_bits // 4 + 2)


def latency_cc(n_bits: int) -> int:
    """Stage latency: ``8 + 10*(17 + 11*ceil(log2(n/4+1))) + 1`` cc."""
    _check_width(n_bits)
    per_add = 17 + 11 * ceil_log2(n_bits // 4 + 1)
    return INPUT_ROWS + RESULT_ROWS * per_add + 1


def _check_width(n_bits: int) -> None:
    if n_bits < 8 or n_bits % 4:
        raise DesignError(
            f"the L=2 design needs n divisible by 4 and >= 8, got {n_bits}"
        )


@dataclass(frozen=True)
class PrecomputeResult:
    """Outputs of one precomputation pass."""

    chunk_sums: Dict[str, int]
    cycles: int


class PrecomputeStage(AdderPassStage, CrossbarStage):
    """Cycle-accurate precomputation subarray.

    The stage owns its crossbar, a wear-leveling controller, and one
    Kogge-Stone program per (addition, wear-state) pair.  Each job
    writes the eight chunks, executes the ten additions NOR-by-NOR on
    rows the program itself computed (no operand staging), senses
    every sum, resets, and returns every named chunk sum; the batch
    runs through :meth:`AdderPassStage.process_batch`.
    """

    #: Eight input-row writes and the closing data-region reset.
    overhead = {"write": INPUT_ROWS, "init": 1}
    #: The adders read the chunk and sum rows in place.
    stages_operands = False

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        device=None,
        spare_rows: int = DEFAULT_SPARE_ROWS,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
        optimize: bool = False,
        backend: object = DEFAULT_BACKEND,
    ):
        _check_width(n_bits)
        self.n_bits = n_bits
        #: Run adder programs through the SIMD cycle packer
        #: (:mod:`repro.magic.passes`).  Off by default so the stage
        #: reproduces the paper's per-op cycle counts exactly.
        self.optimize = optimize
        self.cols = n_bits // 4 + 2
        self.adder_width = n_bits // 4 + 1
        self.clock = Clock()
        super().__init__(
            CrossbarArray(
                TOTAL_ROWS, self.cols, device=device, spare_rows=spare_rows
            ),
            backend=backend,
            clock=self.clock,
        )
        self.checker = ResidueChecker("precompute", residue_bits)
        self.plan: UnrolledPlan = build_plan(n_bits, 2)
        self.wear_leveling = wear_leveling
        # Swap the 12 scratch rows with the first 12 data rows; both
        # regions are rewritten from scratch every multiplication, so
        # the exchange is transparent to the dataflow.
        self.leveler = WearLevelingController(
            region_a=list(range(SCRATCH_ROWS)),
            region_b=list(range(INPUT_ROWS + RESULT_ROWS, TOTAL_ROWS)),
        )
        self._row_of = self._assign_rows()
        self._adders: Dict[Tuple[str, bool], KoggeStoneAdder] = {}

    # ------------------------------------------------------------------
    def _assign_rows(self) -> Dict[str, int]:
        """Logical row of every named operand (inputs then results)."""
        rows: Dict[str, int] = {}
        for i in range(4):
            rows[f"a{i}"] = i
            rows[f"b{i}"] = 4 + i
        for offset, step in enumerate(self.plan.precompute_adds):
            rows[step.out] = INPUT_ROWS + offset
        if len(rows) != INPUT_ROWS + RESULT_ROWS:
            raise AssertionError("unexpected L=2 precompute operand count")
        return rows

    def _scratch_rows(self) -> Tuple[int, ...]:
        rows = range(INPUT_ROWS + RESULT_ROWS, TOTAL_ROWS)
        return tuple(self.leveler.physical_row(r) for r in rows)

    def unit_passes(self):
        """The ten additions of one job, in the current wear state."""
        adds = self.plan.precompute_adds
        return [(self, [(self._adder_for(step), "add") for step in adds])]

    def _adder_for(self, step) -> KoggeStoneAdder:
        """Adder program generator for one addition in the current
        wear state (one adder per step and state)."""
        key = (step.out, self.leveler.swapped)
        if key not in self._adders:
            layout = KoggeStoneLayout(
                width=self.adder_width,
                col0=0,
                x_row=self._physical(self._row_of[step.lhs]),
                y_row=self._physical(self._row_of[step.rhs]),
                out_row=self._physical(self._row_of[step.out]),
                scratch_rows=self._scratch_rows(),
            )
            self._adders[key] = KoggeStoneAdder(layout)
        return self._adders[key]

    def _physical(self, logical_row: int) -> int:
        if logical_row < SCRATCH_ROWS:
            return self.leveler.physical_row(logical_row)
        return logical_row

    # ------------------------------------------------------------------
    _INPUT_NAMES = tuple(f"a{i}" for i in range(4)) + tuple(
        f"b{i}" for i in range(4)
    )

    def _input_writes(self) -> List[Tuple[int, str, int, int]]:
        return [
            (self._physical(self._row_of[name]), name, 0, self.cols)
            for name in self._INPUT_NAMES
        ]

    def _closing_rows(self) -> List[int]:
        # Reset the whole data region (inputs and results) in one
        # multi-row INIT cycle; the adder already reset its own
        # scratch region.  Covering the input rows matters under
        # wear-leveling: after the swap they become the scratch
        # region and must arrive at logic one.
        return [self._physical(r) for r in range(INPUT_ROWS + RESULT_ROWS)]

    def _sense_name(self, index: int) -> str:
        return self.plan.precompute_adds[index].out

    def _plan(
        self, job: Tuple[List[int], List[int]]
    ) -> Tuple[List[LanePlan], PrecomputeResult]:
        """The ten chunk additions of one job, unrolled on the host."""
        a_chunks, b_chunks = job
        if len(a_chunks) != 4 or len(b_chunks) != 4:
            raise DesignError("L=2 precompute expects 4 chunks per operand")
        chunk_bits = self.n_bits // 4
        for chunk in (*a_chunks, *b_chunks):
            if chunk >> chunk_bits:
                raise DesignError(f"chunk {chunk} exceeds {chunk_bits} bits")
        values = {f"a{i}": a_chunks[i] for i in range(4)}
        values.update({f"b{i}": b_chunks[i] for i in range(4)})
        lane = LanePlan(self._schedule, values)
        sums = dict(values)
        for step in self.plan.precompute_adds:
            sums[step.out] = lane.run(
                step.out, "add", sums[step.lhs], sums[step.rhs]
            )
        return [lane], PrecomputeResult(
            chunk_sums=sums, cycles=self.latency_cc()
        )
