"""Postcomputation stage of the CIM Karatsuba multiplier (Sec. IV-E).

The stage combines the nine partial products into the ``2n``-bit
result on a ``(8 + 12) x 1.5n`` subarray holding one ``1.5n``-bit
Kogge-Stone adder.  The paper's optimized schedule needs exactly
**11 adder passes** thanks to two tricks this module reproduces
faithfully:

* **batching** — two narrow operations ride one full-width pass by
  placing their operand pairs in disjoint column blocks.  A zeroed gap
  column yields propagate 0 for additions (carry killed) and a
  harmless zero borrow for subtractions, so blocks cannot interact;
* **LSB pass-through** — the low ``n/2`` bits of ``c_l`` are already
  the low bits of the final product, so the last addition runs only on
  the top ``1.5n`` bits (saving 25% of stage area relative to a
  ``2n``-wide adder).

The pass schedule (s = n/4, h = n/2):

====  ===  ====================================================
pass  op   computation
====  ===  ====================================================
 1    add  t_l = c_ll + c_lh   and   t_h = c_hl + c_hh  (batched)
 2    sub  ~c_lm = c_lm - t_l  and  ~c_hm = c_hm - t_h  (batched)
 3    add  t_m = c_ml + c_mh
 4    sub  ~c_mm = c_mm - t_m
 5    add  c_l = (c_lh || c_ll) + ~c_lm << s
 6    add  c_h = (c_hh || c_hl) + ~c_hm << s
 7    add  u_m = c_ml + (c_mh << h)        (c_ml too wide to append)
 8    add  c_m = u_m + ~c_mm << s
 9    add  t = c_l + c_h
10    sub  ~c_m = c_m - t
11    add  T = ((c_l >> h) || c_h << h) + ~c_m   (top 1.5n bits only)
====  ===  ====================================================

Result: ``c = (T << h) | (c_l mod 2^h)``.  Latency:
``11*(11*ceil(log2(1.5n)) + 17) + 18`` cc, the paper's closed form
(the 18 cc covering operand reordering and resets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arith.bitops import ceil_log2, mask
from repro.arith.koggestone import (
    SCRATCH_ROWS,
    AdderPassStage,
    KoggeStoneAdder,
    KoggeStoneLayout,
)
from repro.crossbar.array import CrossbarArray
from repro.crossbar.endurance import WearLevelingController
from repro.magic.backend import DEFAULT_BACKEND
from repro.magic.program import Program, ProgramBuilder
from repro.magic.stage import CrossbarStage, all_ones
from repro.reliability.residue import DEFAULT_RESIDUE_BITS, ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError, StageSelfCheckError

#: Data rows of the stage (paper Fig. 7: 8 available memory rows).
DATA_ROWS = 8
TOTAL_ROWS = DATA_ROWS + SCRATCH_ROWS

#: Adder passes in the optimized schedule.
NUM_PASSES = 11

#: Reordering/reset overhead charged by the paper (2 cc per product).
REORDER_CYCLES = 18


def columns(n_bits: int) -> int:
    """Stage width: ``1.5 n`` bit lines."""
    _check_width(n_bits)
    return (3 * n_bits) // 2


def area_cells(n_bits: int) -> int:
    """Stage footprint: ``(8 + 12) * 1.5n`` cells."""
    return TOTAL_ROWS * columns(n_bits)


def latency_cc(n_bits: int) -> int:
    """Stage latency: ``121*ceil(log2(1.5n)) + 187 + 18`` cc."""
    _check_width(n_bits)
    per_pass = 11 * ceil_log2(columns(n_bits)) + 17
    return NUM_PASSES * per_pass + REORDER_CYCLES


def _check_width(n_bits: int) -> None:
    if n_bits < 16 or n_bits % 4:
        raise DesignError(
            f"the L=2 postcompute needs n divisible by 4 and >= 16, got {n_bits}"
        )


@dataclass(frozen=True)
class PostcomputeResult:
    """Output of one postcomputation pass."""

    product: int
    cycles: int


class PostcomputeStage(AdderPassStage, CrossbarStage):
    """Cycle-accurate postcomputation subarray.

    Every pass stages its operand words into the adder's x/y rows
    (reordering, charged as the paper's lump 18 cc per multiplication),
    executes the full-width Kogge-Stone program NOR-by-NOR, and senses
    the result row.  Arithmetic is therefore bit-exact through the real
    in-memory adder, while latency follows the paper's accounting.
    """

    #: The paper's lump for operand reordering and resets.
    overhead_cc = REORDER_CYCLES

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        device=None,
        spare_rows: int = 2,
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
        self.cols = columns(n_bits)
        self.adder_width = self.cols - 1
        self.clock = Clock()
        super().__init__(
            CrossbarArray(
                TOTAL_ROWS, self.cols, device=device, spare_rows=spare_rows
            ),
            backend=backend,
            clock=self.clock,
        )
        self.checker = ResidueChecker("postcompute", residue_bits)
        self.wear_leveling = wear_leveling
        # Exchange the lower and upper half of the subarray after every
        # multiplication: all 20 rows alternate between two physical
        # locations, so data and scratch wear both halve.
        half_rows = TOTAL_ROWS // 2
        self.leveler = WearLevelingController(
            region_a=list(range(half_rows)),
            region_b=list(range(half_rows, TOTAL_ROWS)),
        )
        self._adders: Dict[bool, KoggeStoneAdder] = {}
        self._initialised_states = set()
        #: Per wear state: (mega program, clock histogram).
        self._mega: Dict[bool, Tuple[Program, Dict[str, int]]] = {}
        self.passes = 0

    # ------------------------------------------------------------------
    def _adder(self) -> KoggeStoneAdder:
        state = self.leveler.swapped
        if state not in self._adders:
            physical = self.leveler.physical_row
            layout = KoggeStoneLayout(
                width=self.adder_width,
                col0=0,
                x_row=physical(5),
                y_row=physical(6),
                out_row=physical(7),
                scratch_rows=tuple(
                    physical(r) for r in range(DATA_ROWS, TOTAL_ROWS)
                ),
            )
            self._adders[state] = KoggeStoneAdder(layout)
        return self._adders[state]

    def adder_passes(self) -> List[Tuple[KoggeStoneAdder, str]]:
        """The eleven passes of one job, in the current wear state."""
        adder = self._adder()
        return [(adder, op) for op in self.PASS_OPS]

    #: Fixed op sequence of the 11-pass schedule (data-independent).
    PASS_OPS = ("add", "sub", "add", "sub", "add",
                "add", "add", "add", "add", "sub", "add")

    #: Packed input slots, two per data row (Fig. 7a).
    _INPUT_NAMES = ("c_ll", "c_lh", "c_lm", "c_hl", "c_hh", "c_hm",
                    "c_ml", "c_mh", "c_mm")

    def _plan_passes(
        self, products: Dict[str, int]
    ) -> Tuple[List[Tuple[str, int, int]], int]:
        """Pure-integer unrolling of the 11-pass schedule.

        Returns the operand pair of every pass plus the final product.
        The in-memory replay follows this plan and checks each sensed
        sum against it, so arithmetic remains verified bit-for-bit
        through the real adder.
        """
        n = self.n_bits
        quarter, half = n // 4, n // 2
        passes: List[Tuple[str, int, int]] = []

        def run(op: str, x: int, y: int) -> int:
            # Operands may use all 1.5n columns (including the carry
            # column) when the result itself has no carry-out — the
            # case of the final top-bits addition, whose sum is
            # < 2^(1.5n) by design.
            if x >> self.cols or y >> self.cols:
                raise DesignError("postcompute operand exceeds the adder window")
            if op == "sub" and y > x:
                raise DesignError("postcompute subtraction went negative")
            if op == "add" and (x + y) >> self.cols:
                raise DesignError("postcompute addition would overflow the window")
            passes.append((op, x, y))
            return x + y if op == "add" else x - y

        p = products
        values: Dict[str, int] = {}

        # Pass 1/2: level-2 tilde values for the l and h nodes, batched.
        off = half + 2
        t_lh = run("add",
                   p["c_ll"] | (p["c_hl"] << off),
                   p["c_lh"] | (p["c_hh"] << off))
        values["t_l"] = t_lh & mask(off)
        values["t_h"] = t_lh >> off
        off = half + 4
        tilde = run("sub",
                    p["c_lm"] | (p["c_hm"] << off),
                    values["t_l"] | (values["t_h"] << off))
        values["~c_lm"] = tilde & mask(off)
        values["~c_hm"] = tilde >> off

        # Pass 3/4: the mm node (wider operands, runs alone).
        values["t_m"] = run("add", p["c_ml"], p["c_mh"])
        values["~c_mm"] = run("sub", p["c_mm"], values["t_m"])

        # Pass 5/6: c_l and c_h — appending is free, one addition each.
        values["c_l"] = run("add",
                            p["c_ll"] | (p["c_lh"] << half),
                            values["~c_lm"] << quarter)
        values["c_h"] = run("add",
                            p["c_hl"] | (p["c_hh"] << half),
                            values["~c_hm"] << quarter)

        # Pass 7/8: c_m needs two additions (c_ml is half+2 bits wide,
        # so (c_mh || c_ml) cannot be formed by appending).
        values["u_m"] = run("add", p["c_ml"], p["c_mh"] << half)
        values["c_m"] = run("add", values["u_m"], values["~c_mm"] << quarter)

        # Pass 9/10: the level-1 tilde value.
        values["t"] = run("add", values["c_l"], values["c_h"])
        values["~c_m"] = run("sub", values["c_m"], values["t"])

        # Pass 11: final addition on the top 1.5n bits only; the low
        # n/2 bits of c_l pass straight through to the result.
        top = run("add",
                  (values["c_l"] >> half) | (values["c_h"] << half),
                  values["~c_m"])
        product = (top << half) | (values["c_l"] & mask(half))
        ops = tuple(op for op, _, _ in passes)
        if ops != self.PASS_OPS:  # pragma: no cover - schedule invariant
            raise AssertionError(f"pass schedule drifted: {ops}")
        return passes, product

    def _power_up(self, adder: KoggeStoneAdder) -> None:
        """Once per wear state: initialise scratch and sum rows."""
        state = self.leveler.swapped
        if state not in self._initialised_states:
            self.array.init_rows(adder.layout.scratch_rows)
            self.array.init_rows([adder.layout.out_row])
            self._initialised_states.add(state)

    def _mega_program(self) -> Tuple[Program, Dict[str, int]]:
        """One full pass as a single replayable program for the
        *current* wear state: nine packed input WRITEs, eleven
        (stage x/y, adder pass, sense) rounds, and the closing data
        INIT.  The clock histogram charges the adder programs plus the
        18 cc reorder lump; operand staging, sensing and the closing
        INIT ride inside that lump."""
        state = self.leveler.swapped
        if state not in self._mega:
            lay = self._adder().layout
            physical = self.leveler.physical_row
            builder = ProgramBuilder(label=f"postcompute-pass-{int(state)}")
            span = self.cols // 2
            for slot, name in enumerate(self._INPUT_NAMES):
                builder.write(
                    physical(slot // 2),
                    name,
                    col_offset=(slot % 2) * span,
                    width=min(span, self.cols - (slot % 2) * span),
                )
            hist: Dict[str, int] = {}
            for index, (adder, op) in enumerate(self.adder_passes()):
                builder.write(lay.x_row, f"x{index}", width=self.cols)
                builder.write(lay.y_row, f"y{index}", width=self.cols)
                program = adder.program(op, optimize=self.optimize)
                builder.concat(program)
                builder.read(lay.out_row, f"out{index}", width=self.cols)
                for opcode, cost in program.cycles_by_opcode().items():
                    hist[opcode] = hist.get(opcode, 0) + cost
            # Reset the data region so that, after a wear-leveling swap,
            # the incoming scratch rows hold logic one.
            builder.init([physical(r) for r in range(DATA_ROWS)])
            hist["reorder"] = REORDER_CYCLES
            self._mega[state] = (builder.build(), hist)
        return self._mega[state]

    def process_batch(
        self, products_list: List[Dict[str, int]]
    ) -> List[PostcomputeResult]:
        """Run B postcomputation passes in one SIMD sweep per wear state.

        Same contract as the precompute stage's batch path: jobs are
        grouped by sequential wear-state parity, each group replays the
        state's mega-program over lanes seeded at the steady all-ones
        state, every sensed pass result is checked against the
        pure-integer plan, and per-lane writes/energy fold back into
        the stage array.
        """
        products_list = list(products_list)
        if not products_list:
            return []
        required = set(self._INPUT_NAMES)
        plans = []
        for products in products_list:
            missing = required - products.keys()
            if missing:
                raise DesignError(f"missing partial products: {sorted(missing)}")
            plans.append(self._plan_passes(products))

        span = self.cols // 2
        products_out: Dict[int, int] = {}
        for group in self.leveler.job_groups(
            len(products_list), self.wear_leveling
        ):
            self._power_up(self._adder())
            program, hist = self._mega_program()
            bindings = []
            for j in group:
                passes, _ = plans[j]
                values: Dict[str, int] = {}
                for slot, name in enumerate(self._INPUT_NAMES):
                    width = min(span, self.cols - (slot % 2) * span)
                    value = products_list[j][name]
                    if value >> width:
                        raise DesignError(f"product {name} does not fit its slot")
                    values[name] = value
                for index, (_, x, y) in enumerate(passes):
                    values[f"x{index}"] = x
                    values[f"y{index}"] = y
                bindings.append(values)
            stats, _ = self.replay(program, bindings, all_ones)

            for lane, j in enumerate(group):
                passes, product = plans[j]
                for index, (op, x, y) in enumerate(passes):
                    sensed = stats[lane].results[f"out{index}"]
                    self._check_pass(sensed, op, x, y, f"pass-{index + 1}")
                products_out[j] = product

            for opcode, cost in hist.items():
                self.clock.tick(cost, category=opcode)
            self.passes += len(group)

        cycles = self.latency_cc()
        return [
            PostcomputeResult(product=products_out[j], cycles=cycles)
            for j in range(len(products_list))
        ]

    def _check_pass(
        self, sensed: int, op: str, x: int, y: int, location: str
    ) -> None:
        """Verify one sensed combine-step result: residue code first
        (in-band, from operand residues), full differential second."""
        rx, ry = self.checker.res(x), self.checker.res(y)
        if op == "add":
            self.checker.check_sum(sensed, (rx, ry), location)
        else:
            self.checker.check_linear(sensed, ((rx, 1), (ry, -1)), location)
        expected = x + y if op == "add" else x - y
        if sensed != expected:
            raise StageSelfCheckError(
                f"postcompute {op} produced {sensed}, expected {expected}",
                stage="postcompute",
                check="differential",
                location=location,
            )
