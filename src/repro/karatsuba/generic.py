"""Generic-depth CIM Karatsuba multiplier (any unroll depth L).

The paper ships L = 2 (`repro.karatsuba.design`); Fig. 4's sweep prices
the other depths analytically.  This module *instantiates* the design
at any depth, executing every addition, subtraction and recombination
NOR-by-NOR so the Fig. 4 trade-off can also be demonstrated
functionally:

* precompute: one Kogge-Stone instance of the widest chunk-sum width
  runs the plan's ``2(3^L - 2^L)`` additions in dependency order;
* multiply: ``3^L`` row multipliers of width ``n/2^L + L`` in
  lock-step;
* postcompute: the combine tree bottom-up on a 1.5n-bit Kogge-Stone,
  one pass per operation (unbatched — the hand-batched 11-pass schedule
  is the L = 2 specialisation in `repro.karatsuba.postcompute`), with
  the top-level LSB pass-through.

Latency is measured from the executed programs, not assumed, which
gives an independent check of the generalised cost model's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.arith.bitops import mask, split_chunks
from repro.arith.koggestone import AdderUnit
from repro.arith.rowmul import (
    RowMultiplier,
    RowMultiplierSpec,
    carry_save_products,
)
from repro.karatsuba.unroll import UnrolledPlan, build_plan
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError


@dataclass(frozen=True)
class GenericRunStats:
    """Measured execution profile of one generic multiplication."""

    precompute_cycles: int
    multiply_cycles: int
    postcompute_cycles: int
    precompute_passes: int
    postcompute_passes: int

    @property
    def total_cycles(self) -> int:
        return (
            self.precompute_cycles
            + self.multiply_cycles
            + self.postcompute_cycles
        )


class GenericKaratsubaMultiplier:
    """Executable unrolled Karatsuba design at any depth.

    >>> mul = GenericKaratsubaMultiplier(64, depth=3)
    >>> mul.multiply(123456789, 987654321)
    121932631112635269
    """

    def __init__(self, n_bits: int, depth: int):
        self.plan: UnrolledPlan = build_plan(n_bits, depth)
        self.n_bits = n_bits
        self.depth = depth
        self.clock = Clock()
        pre_width = self.plan.max_precompute_input_width + 1
        self.pre_adder = AdderUnit(pre_width, spare_rows=0)
        post_width = (3 * n_bits) // 2 - 1
        self.post_adder = AdderUnit(post_width, spare_rows=0)
        #: Adder passes run so far, both units together.
        self.passes = 0
        spec = RowMultiplierSpec(self.plan.max_mult_width)
        self.rows: Dict[str, RowMultiplier] = {
            step.out: RowMultiplier(spec) for step in self.plan.multiplications
        }
        self.last_stats: GenericRunStats = None

    # ------------------------------------------------------------------
    def multiply(self, a: int, b: int) -> int:
        """One full multiplication through the generic datapath."""
        if a < 0 or b < 0:
            raise DesignError("operands must be non-negative")
        if a >> self.n_bits or b >> self.n_bits:
            raise DesignError(f"operands must fit in {self.n_bits} bits")
        plan = self.plan
        chunk_bits = plan.chunk_bits

        # ---- precompute -------------------------------------------------
        start = self.clock.cycles
        passes_before = self.passes
        values: Dict[str, int] = {}
        for prefix, operand in (("a", a), ("b", b)):
            for i, chunk in enumerate(
                split_chunks(operand, chunk_bits, plan.num_chunks)
            ):
                values[f"{prefix}{i}"] = chunk
        self.clock.tick(2 * plan.num_chunks, category="write")
        for step in plan.precompute_adds:
            values[step.out] = self._pass(
                self.pre_adder, "add", values[step.lhs], values[step.rhs]
            )
        self.clock.tick(1, category="init")
        pre_cycles = self.clock.cycles - start
        pre_passes = self.passes - passes_before

        # ---- multiply (lock-step rows) ---------------------------------
        start = self.clock.cycles
        steps = plan.multiplications
        products = carry_save_products(
            plan.max_mult_width,
            [(values[step.lhs], values[step.rhs]) for step in steps],
        )
        for step, product in zip(steps, products):
            values[step.out] = product
            self.rows[step.out].charge_passes(1, rotate=False)
        self.clock.tick(
            RowMultiplierSpec(plan.max_mult_width).latency_cc,
            category="rowmul",
        )
        mult_cycles = self.clock.cycles - start

        # ---- postcompute -------------------------------------------------
        start = self.clock.cycles
        passes_before = self.passes
        result = self._combine(values)
        self.clock.tick(2 * len(plan.multiplications), category="reorder")
        post_cycles = self.clock.cycles - start
        post_passes = self.passes - passes_before

        self.last_stats = GenericRunStats(
            precompute_cycles=pre_cycles,
            multiply_cycles=mult_cycles,
            postcompute_cycles=post_cycles,
            precompute_passes=pre_passes,
            postcompute_passes=post_passes,
        )
        if result != a * b:
            raise AssertionError("generic datapath produced a wrong product")
        return result

    # ------------------------------------------------------------------
    def _pass(self, unit: AdderUnit, op: str, x: int, y: int) -> int:
        """One adder pass, its sum verified; the clock advances by the
        replayed program's cycles, opcode by opcode."""
        (value,) = unit.run_pass([(x, y)], op)
        expected = x + y if op == "add" else x - y
        if value != expected:
            raise AssertionError(f"{op} produced {value}, expected {expected}")
        program = unit.adder.program(op, optimize=unit.optimize)
        for opcode, cycles in program.cycles_by_opcode().items():
            self.clock.tick(cycles, category=opcode)
        self.passes += 1
        return value

    def _combine(self, values: Dict[str, int]) -> int:
        """Walk the combine tree bottom-up on the postcompute adder."""
        plan = self.plan
        for node in plan.combine_nodes:
            low = values[node.low]
            high = values[node.high]
            mid = values[node.mid]
            shift = node.shift_bits
            if node.path == "top":
                # Top level: LSB pass-through trick, as in Sec. IV-E.
                t = self._pass(self.post_adder, "add", low, high)
                tilde = self._pass(self.post_adder, "sub", mid, t)
                low_keep = low & mask(shift)
                top_operand = (low >> shift) | (high << shift)
                total = self._pass(self.post_adder, "add", top_operand, tilde)
                values[node.out] = (total << shift) | low_keep
                continue
            t = self._pass(self.post_adder, "add", low, high)
            tilde = self._pass(self.post_adder, "sub", mid, t)
            if node.appendable:
                u = low | (high << (2 * shift))
            else:
                u = self._pass(
                    self.post_adder, "add", low, high << (2 * shift)
                )
            values[node.out] = self._pass(
                self.post_adder, "add", u, tilde << shift
            )
        return values[plan.combine_nodes[-1].out]

    # ------------------------------------------------------------------
    @property
    def area_cells(self) -> int:
        """Measured footprint of the instantiated units."""
        mult_cells = sum(row.spec.cells for row in self.rows.values())
        return (
            self.pre_adder.array.cells
            + self.post_adder.array.cells
            + mult_cells
        )


def depth_study(
    n_bits: int = 64, depths: Tuple[int, ...] = (1, 2, 3)
) -> Dict[int, GenericRunStats]:
    """Run one multiplication per depth and return the measured stats
    (a functional counterpart to Fig. 4's analytic sweep)."""
    import random

    rng = random.Random(0xF164)
    out: Dict[int, GenericRunStats] = {}
    for depth in depths:
        if n_bits % (1 << depth):
            continue
        mul = GenericKaratsubaMultiplier(n_bits, depth)
        a, b = rng.getrandbits(n_bits), rng.getrandbits(n_bits)
        mul.multiply(a, b)
        out[depth] = mul.last_stats
    return out
