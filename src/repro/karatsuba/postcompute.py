"""Postcomputation stage of the CIM Karatsuba multiplier (Sec. IV-E).

The stage combines the ``3^L`` partial products into the ``2n``-bit
result on one subarray holding a ``1.5n``-bit Kogge-Stone adder.  Its
passes are the unrolled plan's batched combine-tree schedule
(:meth:`~repro.karatsuba.unroll.UnrolledPlan.postcompute_schedule`),
which needs exactly the paper's **11 adder passes** at L = 2 thanks to
two tricks this module reproduces faithfully:

* **batching** — narrow operations ride one full-width pass by placing
  their operand pairs in disjoint column blocks.  A zeroed gap column
  yields propagate 0 for additions (carry killed) and a harmless zero
  borrow for subtractions, so blocks cannot interact;
* **LSB pass-through** — the low ``n/2`` bits of ``c_l`` are already
  the low bits of the final product, so the last addition runs only on
  the top ``1.5n`` bits (saving 25% of stage area relative to a
  ``2n``-wide adder).

The schedule at L = 2 (s = n/4, h = n/2):

====  ===  ====================================================
pass  op   computation
====  ===  ====================================================
 1    add  t_l = c_ll + c_lh   and   t_h = c_hl + c_hh  (batched)
 2    add  t_m = c_ml + c_mh
 3    sub  ~c_lm = c_lm - t_l  and  ~c_hm = c_hm - t_h  (batched)
 4    sub  ~c_mm = c_mm - t_m
 5    add  u_m = c_ml + (c_mh << h)        (c_ml too wide to append)
 6    add  c_l = (c_lh || c_ll) + ~c_lm << s
 7    add  c_h = (c_hh || c_hl) + ~c_hm << s
 8    add  c_m = u_m + ~c_mm << s
 9    add  t = c_l + c_h
10    sub  ~c_m = c_m - t
11    add  T = ((c_l >> h) || c_h << h) + ~c_m   (top 1.5n bits only)
====  ===  ====================================================

Result: ``c = (T << h) | (c_l mod 2^h)``.  Latency:
``11*(11*ceil(log2(1.5n)) + 17) + 18`` cc, the paper's closed form
(the 18 cc, 2 per product, covering operand reordering and resets).

The partial products sit packed side by side in the data rows (two
per row at L = 2, Fig. 7a), followed by the adder's two operand rows
and its sum row: ``(8 + 12) x 1.5n`` cells at L = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arith.koggestone import (
    SCRATCH_ROWS,
    AdderPassStage,
    KoggeStoneAdder,
    KoggeStoneLayout,
    RowPlan,
)
from repro.crossbar.array import CrossbarArray
from repro.crossbar.endurance import WearLevelingController
from repro.karatsuba.cost import StageLayout, UnitLayout
from repro.karatsuba.unroll import UnrolledPlan, build_plan
from repro.magic.backend import DEFAULT_BACKEND
from repro.magic.executor import (
    LaneRows,
    StageRows,
    lane_field,
    pack_row,
    restride_row,
)
from repro.magic.stage import CrossbarStage
from repro.reliability.residue import DEFAULT_RESIDUE_BITS, ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError

#: Smallest operand width the stage accepts.
MIN_BITS = 16

#: Key prefix of the value each schedule phase produces per node.
_PRODUCED = {"t": "t:", "tilde": "~", "u": "u:", "combine": ""}


def _key(phase: str, node) -> str:
    """Host-walk key of the value *phase* produces for *node*."""
    return _PRODUCED[phase] + node.out


def _slots(plan: UnrolledPlan, cols: int) -> List[Tuple[int, str, int, int]]:
    """``(logical row, name, col_offset, width)`` of every partial
    product's input slot: as many products per row as the widest fits."""
    per_row = cols // plan.max_product_width
    span = cols // per_row
    return [
        (slot // per_row, step.out, (slot % per_row) * span,
         min(span, cols - (slot % per_row) * span))
        for slot, step in enumerate(plan.multiplications)
    ]


def layout(plan: UnrolledPlan) -> StageLayout:
    """Rows, columns and passes of the subarray for *plan*: the packed
    input rows, the adder's x, y and sum rows and its 12 scratch rows,
    ``1.5n`` columns, and one ``(1.5n - 1)``-bit pass per step of the
    batched schedule; operand reordering and resets are a lump of 2 cc
    per partial product.  At L = 2 that is ``(8 + 12) * 1.5n`` cells
    and ``121*ceil(log2(1.5n)) + 187 + 18`` cc."""
    cols = (3 * plan.n_bits) // 2
    input_rows = _slots(plan, cols)[-1][0] + 1
    return StageLayout(
        "postcompute",
        units=(
            UnitLayout(
                input_rows + 3 + SCRATCH_ROWS,
                cols,
                tuple((p.op, cols - 1) for p in plan.postcompute_schedule(cols)),
            ),
        ),
        overhead={"reorder": 2 * len(plan.multiplications)},
    )


@dataclass(frozen=True)
class PostcomputeResult:
    """Output of one postcomputation pass."""

    product: int
    cycles: int


class PostcomputeStage(AdderPassStage, CrossbarStage):
    """Cycle-accurate postcomputation subarray.

    Every pass stages its operand words into the adder's x/y rows
    (reordering, charged as the paper's lump of 2 cc per partial
    product), executes the full-width Kogge-Stone program NOR-by-NOR,
    and senses the result row.  Arithmetic is therefore bit-exact
    through the real in-memory adder, while latency follows the
    paper's accounting.
    """

    def __init__(
        self,
        n_bits: int,
        depth: int = 2,
        wear_leveling: bool = True,
        device=None,
        spare_rows: int = 2,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
        optimize: bool = False,
        backend: object = DEFAULT_BACKEND,
    ):
        if n_bits < MIN_BITS:
            raise DesignError(
                f"postcompute needs n >= {MIN_BITS}, got {n_bits}"
            )
        self.plan: UnrolledPlan = build_plan(n_bits, depth)
        self.n_bits = n_bits
        #: Run adder programs through the SIMD cycle packer
        #: (:mod:`repro.magic.passes`).  Off by default so the stage
        #: reproduces the paper's per-op cycle counts exactly.
        self.optimize = optimize
        self.layout = layout(self.plan)
        (unit,) = self.layout.units
        self.cols = unit.cols
        #: The batched passes one job replays, in order.
        self.schedule = self.plan.postcompute_schedule(self.cols)
        #: ``(logical row, name, col_offset, width)`` of every packed
        #: input slot.
        self._slots = _slots(self.plan, self.cols)
        self._slot_widths = [(name, width) for _, name, _, width in self._slots]
        # The adder's x, y and sum rows follow the input rows.
        total_rows = unit.rows
        data_rows = total_rows - SCRATCH_ROWS
        self._operand_rows = (data_rows - 3, data_rows - 2, data_rows - 1)
        self.overhead = self.layout.overhead
        self.clock = Clock()
        super().__init__(
            CrossbarArray(
                total_rows, self.cols, device=device, spare_rows=spare_rows
            ),
            backend=backend,
            clock=self.clock,
        )
        self.checker = ResidueChecker("postcompute", residue_bits)
        self.wear_leveling = wear_leveling
        # Exchange the lower and upper half of the subarray after every
        # multiplication: the rows alternate between two physical
        # locations, so data and scratch wear both halve.
        half_rows = total_rows // 2
        self.leveler = WearLevelingController(
            region_a=list(range(half_rows)),
            region_b=list(range(total_rows - half_rows, total_rows)),
        )
        self._data_rows = range(data_rows)
        self._scratch = range(data_rows, total_rows)
        x_row, y_row, out_row = self._operand_rows
        #: The one adder every pass runs, in logical rows.
        self.adder = KoggeStoneAdder(
            KoggeStoneLayout(
                width=unit.passes[0][1],
                col0=0,
                x_row=x_row,
                y_row=y_row,
                out_row=out_row,
                scratch_rows=tuple(self._scratch),
            )
        )
        self._passes = [(self.adder, op) for op, _ in unit.passes]
        self._walk = self._compile_walk()
        top = self.plan.combine_nodes[-1]
        self._top = (f"pass-{len(self.schedule)}", top.low, top.high,
                     _key("tilde", top), top.shift_bits)

    # ------------------------------------------------------------------
    def unit_passes(self):
        """The scheduled passes of one job."""
        return [(self, self._passes)]

    def _input_writes(self) -> List[Tuple[int, str, int, int]]:
        return self._slots

    def _closing_rows(self) -> List[int]:
        # Reset the data region so that, after a wear-leveling swap,
        # the incoming scratch rows hold logic one.
        return list(self._data_rows)

    def _compile_walk(self) -> list:
        """The schedule, top node's final pass excepted, as host steps
        ``(name, op, x key, x shift, more x terms, y key, y shift,
        more y terms, outputs)``.

        An operand is the sum of ``values[key] << shift`` over its
        terms (the terms never overlap).  A lone block's result lands
        whole in ``values[outputs]``; a batched pass's outputs are
        ``(key, col, bits)`` triples, each block's result being the
        low *bits* bits of ``pass result >> col``.  A node's values are
        keyed by its output name with a phase prefix (:func:`_key`).
        """
        walk = []
        for index, step in enumerate(self.schedule[:-1]):
            xs, ys, outs = [], [], []
            for node, col, span in step.blocks:
                s = node.shift_bits
                if step.phase == "t":
                    xs.append((node.low, col))
                    ys.append((node.high, col))
                elif step.phase == "tilde":
                    xs.append((node.mid, col))
                    ys.append((_key("t", node), col))
                elif step.phase == "u":
                    xs.append((node.low, col))
                    ys.append((node.high, col + 2 * s))
                else:   # combine: (high || low) or u, plus ~c << s
                    if node.appendable:
                        xs += [(node.low, col), (node.high, col + 2 * s)]
                    else:
                        xs.append((_key("u", node), col))
                    ys.append((_key("tilde", node), col + s))
                outs.append((_key(step.phase, node), col, min(span, self.cols - col)))
            walk.append(
                (f"pass-{index + 1}", step.op, *xs[0], tuple(xs[1:]),
                 *ys[0], tuple(ys[1:]),
                 outs[0][0] if len(outs) == 1 else tuple(outs))
            )
        return walk

    def _plan(self, batch) -> Tuple[RowPlan, StageRows]:
        """Pure-integer walk of the pass schedule over the batch.

        *batch* is the multiply stage's product rows as they stand, or
        one partial-product map per job.  Records the operand rows of
        every pass and hands on the product row.  The in-memory replay
        follows this plan and checks each sensed result against it, so
        arithmetic remains verified bit-for-bit through the real adder.
        """
        cols = self.cols
        if isinstance(batch, LaneRows):
            lanes, rows = batch.lanes, batch.rows
            if batch.cols != cols:
                raise DesignError(
                    f"product rows of {batch.cols}-column lanes, the stage "
                    f"adds {cols}-column lanes"
                )
        else:
            jobs = list(batch)
            lanes, rows = len(jobs), {}
            for name, width in self._slot_widths:
                products = [job[name] for job in jobs if name in job]
                if len(products) == lanes:
                    if min(products) < 0 or max(products) >> width:
                        raise DesignError(f"product {name} does not fit its slot")
                    rows[name] = pack_row(products, cols)
        missing = [name for name, _ in self._slot_widths if name not in rows]
        if missing:
            raise DesignError(f"missing partial products: {sorted(missing)}")
        values = {}
        for name, width in self._slot_widths:
            if rows[name] & ~lane_field(lanes, cols, width):
                raise DesignError(f"product {name} does not fit its slot")
            values[name] = rows[name]
        plan = RowPlan(self._schedule, lanes, dict(values))
        run, shl = plan.run, plan.shl
        for name, op, xk, xs, x_more, yk, ys, y_more, outs in self._walk:
            x = shl(values[xk], xs, cols)
            for key, shift in x_more:
                x |= shl(values[key], shift, cols)
            y = shl(values[yk], ys, cols)
            for key, shift in y_more:
                y |= shl(values[key], shift, cols)
            total = run(name, op, x, y)
            if outs.__class__ is str:
                values[outs] = total
            else:
                for key, col, bits in outs:
                    values[key] = plan.low(total >> col, bits, cols)
        # Final addition on the top 1.5n bits only; the low shift bits
        # of c_l pass straight through to the result.  Its operands may
        # use all 1.5n columns (including the carry column): the sum is
        # < 2^(1.5n) by design.
        name, low_key, high_key, tilde_key, shift = self._top
        low = values[low_key]
        total = run(
            name,
            "add",
            plan.shr(low, shift, cols) | shl(values[high_key], shift, cols),
            values[tilde_key],
        )
        # The product lanes are 2n wide: each the sum's lanes above the
        # pass-through bits of c_l.
        width = 2 * self.n_bits
        product = restride_row(total, lanes, cols, width) << shift | restride_row(
            plan.low(low, shift, cols), lanes, cols, width
        )
        return plan, StageRows(
            {"product": product}, lanes, width, self._latency, _product_result
        )


def _product_result(values: Dict[str, int], cycles: int) -> PostcomputeResult:
    return PostcomputeResult(product=values["product"], cycles=cycles)
