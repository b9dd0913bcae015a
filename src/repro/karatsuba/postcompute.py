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
from functools import cached_property
from typing import Dict, List, Tuple

from repro.arith.bitops import ceil_log2, mask
from repro.arith.koggestone import (
    SCRATCH_ROWS,
    AdderPassStage,
    KoggeStoneAdder,
    KoggeStoneLayout,
    LanePlan,
)
from repro.crossbar.array import CrossbarArray
from repro.crossbar.endurance import WearLevelingController
from repro.magic.backend import DEFAULT_BACKEND
from repro.magic.stage import CrossbarStage
from repro.reliability.residue import DEFAULT_RESIDUE_BITS, ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError

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

    #: The paper's lump for operand reordering and resets; operand
    #: staging, sensing and the closing INIT ride inside it.
    overhead = {"reorder": REORDER_CYCLES}

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

    def unit_passes(self):
        """The eleven passes of one job, in the current wear state."""
        adder = self._adder()
        return [(self, [(adder, op) for op in self.PASS_OPS])]

    #: Fixed op sequence of the 11-pass schedule (data-independent).
    PASS_OPS = ("add", "sub", "add", "sub", "add",
                "add", "add", "add", "add", "sub", "add")

    #: Packed input slots, two per data row (Fig. 7a).
    _INPUT_NAMES = ("c_ll", "c_lh", "c_lm", "c_hl", "c_hh", "c_hm",
                    "c_ml", "c_mh", "c_mm")

    @cached_property
    def _slots(self) -> List[Tuple[int, str, int, int]]:
        """``(logical row, name, col_offset, width)`` of every packed
        input slot."""
        span = self.cols // 2
        return [
            (slot // 2, name, (slot % 2) * span,
             min(span, self.cols - (slot % 2) * span))
            for slot, name in enumerate(self._INPUT_NAMES)
        ]

    def _input_writes(self) -> List[Tuple[int, str, int, int]]:
        physical = self.leveler.physical_row
        return [
            (physical(row), name, offset, width)
            for row, name, offset, width in self._slots
        ]

    def _closing_rows(self) -> List[int]:
        # Reset the data region so that, after a wear-leveling swap,
        # the incoming scratch rows hold logic one.
        return [self.leveler.physical_row(r) for r in range(DATA_ROWS)]

    def _plan(
        self, products: Dict[str, int]
    ) -> Tuple[List[LanePlan], PostcomputeResult]:
        """Pure-integer unrolling of the 11-pass schedule.

        Records the operand pair of every pass and returns the final
        product.  The in-memory replay follows this plan and checks
        each sensed result against it, so arithmetic remains verified
        bit-for-bit through the real adder.
        """
        missing = set(self._INPUT_NAMES) - products.keys()
        if missing:
            raise DesignError(f"missing partial products: {sorted(missing)}")
        for _, name, _, width in self._slots:
            if products[name] >> width:
                raise DesignError(f"product {name} does not fit its slot")
        p = {name: products[name] for name in self._INPUT_NAMES}
        lane = LanePlan(self._schedule, p)
        run = lane.run
        n = self.n_bits
        quarter, half = n // 4, n // 2
        values: Dict[str, int] = {}

        # Pass 1/2: level-2 tilde values for the l and h nodes, batched.
        off = half + 2
        t_lh = run("pass-1", "add",
                   p["c_ll"] | (p["c_hl"] << off),
                   p["c_lh"] | (p["c_hh"] << off))
        values["t_l"] = t_lh & mask(off)
        values["t_h"] = t_lh >> off
        off = half + 4
        tilde = run("pass-2", "sub",
                    p["c_lm"] | (p["c_hm"] << off),
                    values["t_l"] | (values["t_h"] << off))
        values["~c_lm"] = tilde & mask(off)
        values["~c_hm"] = tilde >> off

        # Pass 3/4: the mm node (wider operands, runs alone).
        values["t_m"] = run("pass-3", "add", p["c_ml"], p["c_mh"])
        values["~c_mm"] = run("pass-4", "sub", p["c_mm"], values["t_m"])

        # Pass 5/6: c_l and c_h — appending is free, one addition each.
        values["c_l"] = run("pass-5", "add",
                            p["c_ll"] | (p["c_lh"] << half),
                            values["~c_lm"] << quarter)
        values["c_h"] = run("pass-6", "add",
                            p["c_hl"] | (p["c_hh"] << half),
                            values["~c_hm"] << quarter)

        # Pass 7/8: c_m needs two additions (c_ml is half+2 bits wide,
        # so (c_mh || c_ml) cannot be formed by appending).
        values["u_m"] = run("pass-7", "add", p["c_ml"], p["c_mh"] << half)
        values["c_m"] = run("pass-8", "add",
                            values["u_m"], values["~c_mm"] << quarter)

        # Pass 9/10: the level-1 tilde value.
        values["t"] = run("pass-9", "add", values["c_l"], values["c_h"])
        values["~c_m"] = run("pass-10", "sub", values["c_m"], values["t"])

        # Pass 11: final addition on the top 1.5n bits only; the low
        # n/2 bits of c_l pass straight through to the result.  Its
        # operands may use all 1.5n columns (including the carry
        # column): the sum is < 2^(1.5n) by design.
        top = run("pass-11", "add",
                  (values["c_l"] >> half) | (values["c_h"] << half),
                  values["~c_m"])
        product = (top << half) | (values["c_l"] & mask(half))
        return [lane], PostcomputeResult(
            product=product, cycles=self.latency_cc()
        )
