"""Single-row bit-serial multiplier in the style of MultPIM [9].

The paper's multiplication stage (Sec. IV-D) adopts the row-parallel
multiplier of Leitersdorf et al. [9]: each small multiplication runs
entirely inside one memory row that is divided into partitions, so nine
multiplications proceed in parallel across nine rows.  The paper
additionally shares memory between input and output operands, reducing
the per-row footprint from MultPIM's ``14m - 7`` cells to ``12m`` cells
for ``m``-bit operands.

The functional model is a carry-save serial-parallel multiplier: each
of the ``m`` iterations ANDs the current multiplier bit into a
carry-save accumulator through one full-adder layer evaluated in every
partition simultaneously (14 NOR-level steps), plus a log-depth
partition-communication phase of ``ceil(log2 m)`` cycles that
broadcasts the multiplier bit and forwards carries between partitions.
Three final cycles merge and release the product.  Total latency:

    ``m * (ceil(log2 m) + 14) + 3``  clock cycles,

which is the closed form the paper uses for its multiplication stage
(with ``m = n/4 + 2``) and which also reproduces [9]'s scaled-up
throughput numbers in Table I.

Write wear: each iteration rewrites the two accumulator cells of every
partition once and its two hot scratch cells up to four times (init +
switch, twice), so the hottest cell receives ``4m`` writes per
multiplication — matching the 256/512/1,024/1,536 max-writes column the
paper reports for [9] at n = 64..384.

Lock-step stages run many rows and many jobs at once, so the simulator
evaluates them the same way: :func:`carry_save_products` bit-slices all
lanes into one pass of the algorithm, and
:func:`charge_wear` charges a batch's wear to every row in closed
form.  Products, cycle counts and write images equal those of one
multiplication at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.arith.bitops import ceil_log2
from repro.magic.executor import pack_lanes, unpack_lanes
from repro.reliability.residue import DEFAULT_RESIDUE_BITS, ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError
from repro.sim.stats import RunStats

#: Cells per partition in the area-optimised row layout (paper Sec. IV-D):
#: multiplicand bit, multiplier bit, sum, carry, and eight scratch cells
#: (the product overwrites the operand cells, saving 2 cells/partition
#: over MultPIM's standalone layout).
CELLS_PER_PARTITION = 12

#: NOR-level steps of the per-iteration partition-parallel full adder.
STEPS_PER_ITERATION = 14

#: Cycles of the final merge/readout phase.
FINAL_CYCLES = 3

#: Per-partition columns of the hot scratch pair and its cold twin, and
#: the same columns after the wear-leveling swap exchanges them.
_HOT_PAIRS = [4, 5, 8, 9]
_SWAPPED_PAIRS = [8, 9, 4, 5]


def latency_cc(width: int) -> int:
    """Closed-form row-multiplier latency: ``m(ceil(log2 m) + 14) + 3``."""
    if width < 1:
        raise DesignError("multiplier width must be at least 1 bit")
    return width * (ceil_log2(max(width, 2)) + STEPS_PER_ITERATION) + FINAL_CYCLES


def area_cells(width: int) -> int:
    """Row footprint of one multiplier: ``12 m`` cells."""
    if width < 1:
        raise DesignError("multiplier width must be at least 1 bit")
    return CELLS_PER_PARTITION * width


def max_writes_per_cell(width: int) -> int:
    """Writes to the hottest cell during one multiplication: ``4 m``."""
    return 4 * width


def carry_save_products(
    width: int, pairs: Sequence[Tuple[int, int]]
) -> List[int]:
    """Products of every ``(a, b)`` pair through the row's carry-save
    serial-parallel algorithm, all lanes in one bit-sliced pass.

    An operand field is one integer in which bit ``j*S + lane`` is bit
    *j* of that lane's operand.  The stride ``S`` is the lane count
    rounded up to whole bytes (padding lanes repeat the last pair), or
    1 for a single lane, whose field is then the value itself.  Each of
    the ``m`` iterations ANDs the multiplicand field with multiplier
    bit *t* of every lane, replicated to all ``m`` positions; adds it
    to the carry-save accumulator (the sum is a 3-way XOR, the carry
    the majority); and releases product bit *t* of every lane as the
    low ``S`` bits of the sum.  The residual upper half is a lane-wise
    ripple add.  All operands are validated before any work is done.
    """
    m = width
    lanes = len(pairs)
    if not lanes:
        return []
    for a, b in pairs:
        if a >> m or b >> m or a < 0 or b < 0:
            raise DesignError(f"operands must be {m}-bit non-negative integers")
    if lanes == 1:
        stride = 1
        (a_field, b), = pairs
        ones = (1 << m) - 1
        b_masks = [ones if (b >> t) & 1 else 0 for t in range(m)]
    else:
        stride = -(-lanes // 8) * 8
        a_field = pack_lanes([a for a, _ in pairs], m, stride)
        step = stride // 8
        b_bytes = pack_lanes([b for _, b in pairs], m, stride).to_bytes(
            m * step, "little"
        )
        # Bit t of every lane, repeated at all m positions: byte-string
        # repetition of the bit-t word is far cheaper than a big multiply.
        b_masks = (
            int.from_bytes(b_bytes[t * step:(t + 1) * step] * m, "little")
            for t in range(m)
        )
    lane_mask = (1 << stride) - 1

    sum_acc = 0
    carry_acc = 0
    low = 0
    for t, b_mask in enumerate(b_masks):
        partial = a_field & b_mask
        # One carry-save adder layer across all partitions and lanes.
        half = sum_acc ^ carry_acc
        new_sum = half ^ partial
        carry_acc = (sum_acc & carry_acc) | (half & partial)
        low |= (new_sum & lane_mask) << (t * stride)
        sum_acc = new_sum >> stride
    # Final carry propagation of the residual upper half, overlapped
    # with the epilogue cycles.
    while carry_acc:
        sum_acc, carry_acc = sum_acc ^ carry_acc, (sum_acc & carry_acc) << stride
    product = low | (sum_acc << (m * stride))
    if product >> (2 * m * stride):
        raise AssertionError("row multiplier produced an overflowing product")
    return unpack_lanes(product, 2 * m, stride, lanes)


@dataclass(frozen=True)
class RowMultiplierSpec:
    """Static cost/footprint description of one row multiplier."""

    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise DesignError("multiplier width must be at least 1 bit")

    @property
    def cells(self) -> int:
        return area_cells(self.width)

    @property
    def latency_cc(self) -> int:
        return latency_cc(self.width)

    @property
    def max_writes_per_cell(self) -> int:
        return max_writes_per_cell(self.width)

    @property
    def product_bits(self) -> int:
        return 2 * self.width


def charge_wear(
    cell_writes: np.ndarray, width: int, passes: int, rotate: bool
) -> None:
    """Charge *passes* multiplications' wear to ``width``-bit row images.

    *cell_writes* holds one ``12 m``-cell row image or a stack of them
    (``(rows, 12 m)``), each charged the same.  Per partition and
    iteration: the sum and carry cells are rewritten once each, and
    the two hot scratch cells absorb four write pulses each (initialise
    + conditional switch, twice).  The increments are data-independent,
    so all ``m`` iterations of all *passes* multiplications are charged
    in one step.

    With *rotate*, every multiplication is followed by the
    wear-leveling swap of the hot scratch pair (columns 4, 5) with the
    cold pair (8, 9).  After an even count both pairs have absorbed
    ``passes/2`` multiplications' hot writes and sit in their original
    places; an odd count adds one more to the active pair and leaves
    the two swapped.
    """
    m = width
    hot = 4 * m
    cells = cell_writes.reshape(*cell_writes.shape[:-1], m, CELLS_PER_PARTITION)
    cells[..., 2:4] += passes * m        # sum, carry accumulators
    cells[..., 6:8] += passes * 2 * m    # cool scratch
    if not rotate:
        cells[..., 4:6] += passes * hot  # hot scratch A, B
    else:
        cells[..., _HOT_PAIRS] += (passes // 2) * hot
        if passes % 2:
            cells[..., 4:6] += hot
            cells[..., _HOT_PAIRS] = cells[..., _SWAPPED_PAIRS]


class RowMultiplier:
    """Executable model of one single-row multiplier.

    The multiplier is *functionally* exact (carry-save serial-parallel
    algorithm, verified bit-for-bit against integer multiplication) and
    *temporally* exact at phase granularity: every iteration charges
    ``ceil(log2 m) + 14`` cycles and the epilogue charges 3, matching
    the published closed form.  Per-cell write wear is charged to a
    ``12 m``-cell row image so endurance analyses see realistic
    hot spots.
    """

    def __init__(self, spec: RowMultiplierSpec, cell_writes=None):
        self.spec = spec
        #: Per-cell write counts of the row image; *cell_writes* makes
        #: it a view of a stage's shared ``(rows, cells)`` wear array.
        self.cell_writes = (
            np.zeros(spec.cells, dtype=np.int64)
            if cell_writes is None
            else cell_writes
        )
        self.multiplications = 0

    # ------------------------------------------------------------------
    def multiply(self, a: int, b: int, clock: Clock = None) -> int:
        """Multiply two ``width``-bit operands inside the row.

        Returns the ``2*width``-bit product.  When *clock* is given it
        advances by the row's full latency (callers modelling parallel
        rows advance a shared clock once for the slowest row instead).
        """
        product = carry_save_products(self.spec.width, [(a, b)])[0]
        self.charge_passes(1, rotate=False)
        if clock is not None:
            clock.tick(self.spec.latency_cc, category="rowmul")
        return product

    def charge_passes(self, passes: int, rotate: bool) -> None:
        """Charge the wear of *passes* multiplications in closed form
        (see :func:`charge_wear`)."""
        charge_wear(self.cell_writes, self.spec.width, passes, rotate)
        self.multiplications += passes

    # ------------------------------------------------------------------
    def stats(self) -> RunStats:
        """Aggregate run statistics for all multiplications so far."""
        return RunStats(
            cycles=self.multiplications * self.spec.latency_cc,
            cell_writes=int(self.cell_writes.sum()),
        )

    def max_writes(self) -> int:
        """Hottest-cell write count accumulated so far."""
        return int(self.cell_writes.max()) if self.cell_writes.size else 0


@dataclass(frozen=True)
class RowStageResult:
    """The sub-products of one job through a lock-step row stage."""

    products: Dict[str, int]
    cycles: int


class LockstepRowStage:
    """Single-row multipliers in lock-step, one row per ``(out, lhs, rhs)``
    step, all *width* bits wide.

    The pipeline slot between a design's evaluation and interpolation
    stages (Karatsuba's nine sub-products, Toom-3's five point-wise
    products, the schoolbook design's one full-width row).  A batch of B
    jobs runs as one :meth:`lockstep_pass` and advances the stage clock by a single row latency.  The rows
    are a numeric model: the stage owns no MAGIC crossbar
    (:attr:`units` is empty).  *layout* is the slot's
    :class:`~repro.karatsuba.cost.StageLayout`; its
    ``multiplier_width`` is the rows' width.
    """

    units: Tuple[object, ...] = ()

    def __init__(
        self,
        layout,
        steps: Sequence[Tuple[str, str, str]],
        name: str,
        wear_leveling: bool = True,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
    ):
        self.layout = layout
        self.width = width = layout.multiplier_width
        self.steps = tuple(steps)
        self.wear_leveling = wear_leveling
        self.checker = ResidueChecker(name, residue_bits)
        spec = RowMultiplierSpec(width)
        #: Wear of every row, one ``(rows, cells)`` array; each row's
        #: :attr:`RowMultiplier.cell_writes` is a view of its line.
        self.cell_writes = np.zeros((len(self.steps), spec.cells), dtype=np.int64)
        self.rows: Dict[str, RowMultiplier] = {
            out: RowMultiplier(spec, wear)
            for (out, _, _), wear in zip(self.steps, self.cell_writes)
        }
        self.clock = Clock()
        self.passes = 0

    def process_batch(
        self, operands_list: Sequence[Mapping[str, int]]
    ) -> List[RowStageResult]:
        """Run B jobs in lock-step, advancing the clock once.

        Every operand map must name each step's inputs.  All
        ``len(steps) * B`` sub-products are residue-verified; products
        and wear equal one pass per job.
        """
        operands_list = list(operands_list)
        if not operands_list:
            return []
        products = self.lockstep_pass(operands_list)
        cycles = self.latency_cc()
        self.passes += len(operands_list)
        self.clock.tick(cycles, category="rowmul")
        return [RowStageResult(products=p, cycles=cycles) for p in products]

    def lockstep_pass(
        self, operands_list: Sequence[Mapping[str, int]]
    ) -> List[Dict[str, int]]:
        """Run the rows over a batch of jobs; one product map per job.

        All ``len(steps) * B`` sub-products go through one
        :func:`carry_save_products` call, every row is charged ``B``
        multiplications in one :func:`charge_wear` step (plus the
        hot-cell swap with wear leveling), and every sub-product is
        residue-verified on its own under its *out* label:
        ``res(z) == res(x)·res(y) mod (2^r − 1)``.  The stage clock is
        the caller's.
        """
        try:
            pairs = [
                (operands[lhs], operands[rhs])
                for operands in operands_list
                for _, lhs, rhs in self.steps
            ]
        except KeyError as missing:
            raise DesignError(f"missing operand {missing}") from None
        products = iter(zip(pairs, carry_save_products(self.width, pairs)))
        passes = len(operands_list)
        charge_wear(self.cell_writes, self.width, passes, self.wear_leveling)
        for row in self.rows.values():
            row.multiplications += passes
        checker = self.checker
        res = checker.res
        results: List[Dict[str, int]] = []
        for _ in operands_list:
            job: Dict[str, int] = {}
            for out, _, _ in self.steps:
                (lhs, rhs), product = next(products)
                checker.check_product(product, res(lhs), res(rhs), out)
                job[out] = product
            results.append(job)
        return results

    def latency_cc(self) -> int:
        """One row latency: the rows finish together."""
        return latency_cc(self.width)

    @property
    def area_cells(self) -> int:
        return len(self.rows) * area_cells(self.width)

    def max_writes(self) -> int:
        return max(row.max_writes() for row in self.rows.values())
