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
)
from repro.crossbar.array import CrossbarArray
from repro.crossbar.endurance import WearLevelingController
from repro.karatsuba.unroll import UnrolledPlan, build_plan
from repro.magic.backend import DEFAULT_BACKEND
from repro.magic.program import Program, ProgramBuilder
from repro.magic.stage import CrossbarStage, all_ones
from repro.reliability.residue import DEFAULT_RESIDUE_BITS, ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError, StageSelfCheckError

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
    Kogge-Stone program per (operation, wear-state) pair.  Each pass
    writes the eight chunks, executes the ten additions NOR-by-NOR,
    resets, and returns every named chunk sum.
    """

    #: Eight input-row writes and the closing reset.
    overhead_cc = INPUT_ROWS + 1

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
        self._initialised_states = set()
        #: Per wear state: (mega program, clock histogram).
        self._mega: Dict[bool, Tuple[Program, Dict[str, int]]] = {}
        self.passes = 0

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

    def adder_passes(self) -> List[Tuple[KoggeStoneAdder, str]]:
        """The ten additions of one job, in the current wear state."""
        return [
            (self._adder_for(step), "add") for step in self.plan.precompute_adds
        ]

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

    def _power_up(self) -> None:
        """Once per wear state: initialise the scratch region (and the
        result rows, which double as adder outputs) out-of-band."""
        state = self.leveler.swapped
        if state not in self._initialised_states:
            self.array.init_rows(self._scratch_rows())
            self.array.init_rows(
                [self._physical(r) for r in range(INPUT_ROWS, INPUT_ROWS + RESULT_ROWS)]
            )
            self._initialised_states.add(state)

    # ------------------------------------------------------------------
    _INPUT_NAMES = tuple(f"a{i}" for i in range(4)) + tuple(
        f"b{i}" for i in range(4)
    )

    def _mega_program(self) -> Tuple[Program, Dict[str, int]]:
        """One full pass as a single replayable program, for the
        *current* wear state: eight operand WRITEs, ten adder passes
        each followed by a result READ, and the closing data-region
        INIT.  Returns ``(program, clock histogram)``; the histogram
        charges the input writes, the adder programs and the reset
        (the READs are periphery transfers the stage never charges)."""
        state = self.leveler.swapped
        if state not in self._mega:
            builder = ProgramBuilder(label=f"precompute-pass-{int(state)}")
            hist: Dict[str, int] = {"write": INPUT_ROWS}
            for name in self._INPUT_NAMES:
                builder.write(
                    self._physical(self._row_of[name]), name, width=self.cols
                )
            for step, (adder, op) in zip(
                self.plan.precompute_adds, self.adder_passes()
            ):
                program = adder.program(op, optimize=self.optimize)
                builder.concat(program)
                builder.read(adder.layout.out_row, step.out, width=self.cols)
                for opcode, cost in program.cycles_by_opcode().items():
                    hist[opcode] = hist.get(opcode, 0) + cost
            # Reset the whole data region (inputs and results) in one
            # multi-row INIT cycle; the adder already reset its own
            # scratch region.  Covering the input rows matters under
            # wear-leveling: after the swap they become the scratch
            # region and must arrive at logic one.
            builder.init(
                [self._physical(r) for r in range(INPUT_ROWS + RESULT_ROWS)]
            )
            hist["init"] = hist.get("init", 0) + 1
            self._mega[state] = (builder.build(), hist)
        return self._mega[state]

    def process_batch(
        self, jobs: List[Tuple[List[int], List[int]]]
    ) -> List[PrecomputeResult]:
        """Run B precomputation passes in one SIMD sweep per wear state.

        Jobs are grouped by the wear state each would meet in
        sequential order (the leveler alternates per multiplication);
        each group replays the state's mega-program over lanes seeded
        at the steady all-ones state, and the per-lane writes/energy
        fold back into this stage's array.  Every sensed sum is
        verified twice: the in-band residue code first (what the
        hardware periphery would check), then the full-width
        differential plan as defence-in-depth.  The stage clock
        advances by one pass per group (lanes run in lock-step).
        """
        jobs = list(jobs)
        if not jobs:
            return []
        chunk_bits = self.n_bits // 4
        for a_chunks, b_chunks in jobs:
            if len(a_chunks) != 4 or len(b_chunks) != 4:
                raise DesignError("L=2 precompute expects 4 chunks per operand")
            for chunk in (*a_chunks, *b_chunks):
                if chunk >> chunk_bits:
                    raise DesignError(f"chunk {chunk} exceeds {chunk_bits} bits")

        all_sums: Dict[int, Dict[str, int]] = {}
        for group in self.leveler.job_groups(len(jobs), self.wear_leveling):
            self._power_up()
            program, hist = self._mega_program()
            bindings = []
            for j in group:
                a_chunks, b_chunks = jobs[j]
                values = {f"a{i}": a_chunks[i] for i in range(4)}
                values.update({f"b{i}": b_chunks[i] for i in range(4)})
                bindings.append(values)
            stats, _ = self.replay(program, bindings, all_ones)

            for lane, j in enumerate(group):
                results = dict(bindings[lane])
                results.update(stats[lane].results)
                residues = {
                    name: self.checker.res(value)
                    for name, value in bindings[lane].items()
                }
                for step in self.plan.precompute_adds:
                    sensed = results[step.out]
                    residues[step.out] = self.checker.check_sum(
                        sensed,
                        (residues[step.lhs], residues[step.rhs]),
                        step.out,
                    )
                    expected = results[step.lhs] + results[step.rhs]
                    if sensed != expected:
                        raise StageSelfCheckError(
                            f"precompute addition {step.out} produced "
                            f"{sensed}, expected {expected}",
                            stage="precompute",
                            check="differential",
                            location=step.out,
                        )
                all_sums[j] = results

            for opcode, cost in hist.items():
                self.clock.tick(cost, category=opcode)
            self.passes += len(group)

        cycles = self.latency_cc()
        return [
            PrecomputeResult(chunk_sums=all_sums[j], cycles=cycles)
            for j in range(len(jobs))
        ]
