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
evaluates them the same way: :func:`carry_save_bits` bit-slices all
lanes into one pass of the algorithm.  A :class:`LockstepRowStage`
takes the previous stage's lane-major rows as they stand, transposes
each operand side into its bit-sliced field in one numpy step,
residue-checks every product at once from the bit matrices, and hands
the products on as rows in the next stage's lanes: no per-job integer
exists on the way.  Wear does not depend on the data, so it is not
charged per batch at all: a :class:`RowWear` only counts passes, and
charges them to its row images with one :func:`charge_wear` when
someone reads an image; the hottest cell is a closed form of the pass
count (:meth:`RowWear.max_writes`).  Products, cycle counts, checker
counts and write images equal those of one multiplication at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.arith.bitops import ceil_log2
from repro.magic.executor import (
    LaneRows,
    StageRows,
    bits_rows,
    lane_field,
    pack_ints,
    pack_row,
    rows_bits,
    unpack_ints,
)
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


def _carry_save(
    width: int, a_field: int, b_masks: Iterable[int], stride: int
) -> Tuple[List[int], int]:
    """The carry-save serial-parallel loop over bit-sliced fields.

    Bit ``j*S + lane`` of a field is bit *j* of that lane's value, ``S``
    = *stride*.  Each of the ``m`` iterations ANDs the multiplicand
    field with *b_masks*' next entry (multiplier bit *t* of every lane,
    replicated to all ``m`` positions), adds it to the carry-save
    accumulator (the sum is a 3-way XOR, the carry the majority) and
    releases product bit *t* of every lane, the low ``S`` bits of the
    sum.  Returns those ``m`` released words and the residual upper
    half, carried through by a lane-wise ripple add.
    """
    lane_mask = (1 << stride) - 1
    sum_acc = carry_acc = 0
    low: List[int] = []
    for b_mask in b_masks:
        partial = a_field & b_mask
        # One carry-save adder layer across all partitions and lanes.
        half = sum_acc ^ carry_acc
        new_sum = half ^ partial
        carry_acc = (sum_acc & carry_acc) | (half & partial)
        low.append(new_sum & lane_mask)
        sum_acc = new_sum >> stride
    # Final carry propagation of the residual upper half, overlapped
    # with the epilogue cycles.
    while carry_acc:
        sum_acc, carry_acc = sum_acc ^ carry_acc, (sum_acc & carry_acc) << stride
    if sum_acc >> width * stride:
        raise AssertionError("row multiplier produced an overflowing product")
    return low, sum_acc


#: Operand bits per side (``m`` x lanes) from which the carry-save loop
#: runs on numpy ``uint64`` lane words rather than on one big integer
#: per field: a wide batch's big-integer loop spends most of its time
#: replicating multiplier bits, which a numpy operand broadcasts for
#: free, while a narrow batch pays numpy's per-call cost on every step.
_WORD_LOOP_BITS = 1 << 14


def carry_save_bits(
    width: int, a_bits: np.ndarray, b_bits: np.ndarray
) -> np.ndarray:
    """Products of every lane's operands through the row's carry-save
    algorithm, all lanes in one bit-sliced pass.

    *a_bits* and *b_bits* are position-major ``(m, lanes)`` operand bit
    matrices (row *j* is bit *j* of every lane); the result is the
    ``(2m, lanes)`` product bit matrix.  Each side packs into its field
    in one numpy step.  A narrow batch runs :func:`_carry_save` on one
    integer per field, its lanes padded to whole bytes (the stride
    ``S``): each multiplier word is replicated to all ``m`` positions
    by one multiply, and the released product words are gathered as
    bytes.  A wide batch (:data:`_WORD_LOOP_BITS`) runs
    :func:`_carry_save_words` on 64-lane words.
    """
    m, lanes = a_bits.shape
    if m * lanes >= _WORD_LOOP_BITS:
        return _carry_save_words(a_bits, b_bits)
    stride = -(-lanes // 8) * 8
    step = stride // 8
    a_bytes = np.packbits(a_bits, axis=1, bitorder="little").tobytes()
    b_words = np.packbits(b_bits, axis=1, bitorder="little")
    if step <= 8:
        # Up to 64 lanes a multiplier word is one uint64.
        padded = np.zeros((m, 8), dtype=np.uint8)
        padded[:, :step] = b_words
        words = padded.view("<u8").ravel().tolist()
    else:
        raw = b_words.tobytes()
        words = [
            int.from_bytes(raw[start:start + step], "little")
            for start in range(0, m * step, step)
        ]
    repunit = lane_field(m, stride, 1)
    masks = [word * repunit for word in words]
    low, high = _carry_save(m, int.from_bytes(a_bytes, "little"), masks, stride)
    raw = b"".join([word.to_bytes(step, "little") for word in low])
    raw += high.to_bytes(m * step, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(2 * m, stride)[:, :lanes]


def _carry_save_words(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """:func:`_carry_save`'s loop on numpy arrays of 64-lane words.

    Row *j* of a side is bit *j* of every lane, packed into ``uint64``
    words.  The accumulator is one ``(2m, words)`` array and the sum a
    window of ``m`` rows into it that slides up one row per iteration,
    so releasing product bit *t* costs nothing: row *t* is final once
    the window has passed it.  The multiplier row broadcasts across
    the window.
    """
    m, lanes = a_bits.shape
    words = -(-lanes // 64)
    a, b = (np.zeros((m, 8 * words), dtype=np.uint8) for _ in range(2))
    for side, bits in ((a, a_bits), (b, b_bits)):
        packed = np.packbits(bits, axis=1, bitorder="little")
        side[:, :packed.shape[1]] = packed
    a, b = a.view("<u8"), b.view("<u8")
    acc = np.zeros((2 * m, words), dtype="<u8")
    carry, partial, half = (np.zeros((m, words), dtype="<u8") for _ in range(3))
    and_, xor, or_ = np.bitwise_and, np.bitwise_xor, np.bitwise_or
    for t in range(m):
        total = acc[t:t + m]
        and_(a, b[t], out=partial)
        xor(total, carry, out=half)
        and_(total, carry, out=carry)
        xor(half, partial, out=total)
        and_(half, partial, out=partial)
        or_(carry, partial, out=carry)
    # Final ripple of the upper half: the carry moves up one row.
    total = acc[m:]
    while carry.any():
        and_(total, carry, out=partial)
        xor(total, carry, out=total)
        if partial[-1].any():
            raise AssertionError("row multiplier produced an overflowing product")
        carry[1:] = partial[:-1]
        carry[0] = 0
    bits = np.unpackbits(acc.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :lanes]


def carry_save_products(
    width: int, pairs: Sequence[Tuple[int, int]]
) -> List[int]:
    """Products of every ``(a, b)`` pair of ``width``-bit operands
    through the row's carry-save algorithm, all lanes in one pass.

    All operands are validated before any work is done.  One lane runs
    the loop on the values themselves (stride 1, the field is the
    value); more lanes run as one :func:`carry_save_bits` pass.
    """
    m = width
    if not pairs:
        return []
    for a, b in pairs:
        if a >> m or b >> m or a < 0 or b < 0:
            raise DesignError(f"operands must be {m}-bit non-negative integers")
    if len(pairs) == 1:
        (a, b), = pairs
        ones = (1 << m) - 1
        low, high = _carry_save(
            m, a, [ones if (b >> t) & 1 else 0 for t in range(m)], 1
        )
        return [sum(bit << t for t, bit in enumerate(low)) | high << m]
    a_bits, b_bits = (pack_ints(values, m).T for values in zip(*pairs))
    return unpack_ints(carry_save_bits(m, a_bits, b_bits).T)


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


class RowWear:
    """Write wear of one ``12 m``-cell row image, or of a stack of
    *rows* such images that run in lock-step, charged lazily.

    :meth:`charge` only counts passes.  :attr:`image` charges the
    pending passes with one :func:`charge_wear` and returns the
    ``(12 m,)`` or ``(rows, 12 m)`` counts, so a batch costs no array
    work and the image is exact whenever it is read: charging per batch
    and charging the total at once leave the same image.  A change of
    the rotate flag first charges the passes pending under the old one.
    """

    def __init__(self, width: int, rows: int = None):
        self.width = width
        cells = area_cells(width)
        self._image = np.zeros(
            cells if rows is None else (rows, cells), dtype=np.int64
        )
        #: Multiplications charged so far, pending ones included.
        self.passes = 0
        self._pending = 0
        self._rotate = False
        #: Whether every pass was charged under one rotate flag, so the
        #: image is the closed form of :attr:`passes`.
        self._uniform = True

    def charge(self, passes: int, rotate: bool) -> None:
        """Charge *passes* multiplications (see :func:`charge_wear`)."""
        if rotate != self._rotate:
            if self.passes:
                self._charge_pending()
                self._uniform = False
            self._rotate = rotate
        self._pending += passes
        self.passes += passes

    def _charge_pending(self) -> None:
        if self._pending:
            charge_wear(self._image, self.width, self._pending, self._rotate)
            self._pending = 0

    @property
    def image(self) -> np.ndarray:
        """The per-cell write counts, every charged pass included."""
        self._charge_pending()
        return self._image

    def max_writes(self) -> int:
        """Hottest-cell write count.  After ``P`` passes under one flag
        it is ``4 P m`` without rotation, and ``max(2 P m, ceil(P/2) 4 m)``
        with it (the cool scratch cells take ``2 m`` per pass, each hot
        pair every other pass's ``4 m``)."""
        if not self._uniform:
            return int(self.image.max())
        passes, m = self.passes, self.width
        if not self._rotate:
            return 4 * passes * m
        return max(2 * passes * m, -(-passes // 2) * 4 * m)


class RowMultiplier:
    """Executable model of one single-row multiplier.

    The multiplier is *functionally* exact (carry-save serial-parallel
    algorithm, verified bit-for-bit against integer multiplication) and
    *temporally* exact at phase granularity: every iteration charges
    ``ceil(log2 m) + 14`` cycles and the epilogue charges 3, matching
    the published closed form.  Per-cell write wear is charged to a
    ``12 m``-cell row image (a :class:`RowWear`, read through
    :attr:`cell_writes`) so endurance analyses see realistic hot spots.
    """

    def __init__(self, spec: RowMultiplierSpec, wear: RowWear = None, line=None):
        self.spec = spec
        #: The row's wear record; with *line*, the row is line *line* of
        #: a lock-step stage's shared record and is charged by the stage.
        self.wear = RowWear(spec.width) if wear is None else wear
        self._line = line

    @property
    def cell_writes(self) -> np.ndarray:
        """Per-cell write counts of the row image (a view of the
        stage's image for a lock-step row)."""
        image = self.wear.image
        return image if self._line is None else image[self._line]

    @property
    def multiplications(self) -> int:
        return self.wear.passes

    # ------------------------------------------------------------------
    def multiply(self, a: int, b: int, clock: Clock = None) -> int:
        """Multiply two ``width``-bit operands inside the row.

        Returns the ``2*width``-bit product.  When *clock* is given it
        advances by the row's full latency (callers modelling parallel
        rows advance a shared clock once for the slowest row instead).
        """
        self._check_standalone()
        product = carry_save_products(self.spec.width, [(a, b)])[0]
        self.charge_passes(1, rotate=False)
        if clock is not None:
            clock.tick(self.spec.latency_cc, category="rowmul")
        return product

    def charge_passes(self, passes: int, rotate: bool) -> None:
        """Charge the wear of *passes* multiplications (see
        :func:`charge_wear`); the image catches up when read."""
        self._check_standalone()
        self.wear.charge(passes, rotate)

    def _check_standalone(self) -> None:
        if self._line is not None:
            raise DesignError(
                "a lock-step row multiplies and is charged through its stage"
            )

    # ------------------------------------------------------------------
    def stats(self) -> RunStats:
        """Aggregate run statistics for all multiplications so far."""
        return RunStats(
            cycles=self.multiplications * self.spec.latency_cc,
            cell_writes=int(self.cell_writes.sum()),
        )

    def max_writes(self) -> int:
        """Hottest-cell write count accumulated so far."""
        return int(self.cell_writes.max())


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
    products, the schoolbook design's one full-width row).  A batch of
    B jobs runs as one :meth:`lockstep_pass` and advances the stage
    clock by a single row latency.  The rows are a numeric model: the
    stage owns no MAGIC crossbar (:attr:`units` is empty).  *layout* is
    the slot's :class:`~repro.karatsuba.cost.StageLayout`; its
    ``multiplier_width`` is the rows' width.  Products leave as
    lane-major rows of *out_cols*-column lanes (the next stage's
    stride; ``2 m`` by default).

    Every row takes the same wear on every pass, so a batch charges its
    B passes to the stage's one :class:`RowWear` and touches no image:
    the ``(rows, 12 m)`` image is charged when :attr:`cell_writes`, a
    row's :attr:`RowMultiplier.cell_writes` view or a row's
    ``stats()`` reads it, and :meth:`max_writes` is the closed form of
    the pass count.
    """

    units: Tuple[object, ...] = ()

    def __init__(
        self,
        layout,
        steps: Sequence[Tuple[str, str, str]],
        name: str,
        wear_leveling: bool = True,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
        out_cols: int = None,
    ):
        self.layout = layout
        self.width = width = layout.multiplier_width
        self.steps = tuple(steps)
        self.wear_leveling = wear_leveling
        self.checker = ResidueChecker(name, residue_bits)
        self.out_cols = 2 * width if out_cols is None else out_cols
        spec = RowMultiplierSpec(width)
        #: Wear of every row; each row reads its line of the one image.
        self.wear = RowWear(width, len(self.steps))
        self.rows: Dict[str, RowMultiplier] = {
            out: RowMultiplier(spec, self.wear, line)
            for line, (out, _, _) in enumerate(self.steps)
        }
        self.clock = Clock()
        self._outs = tuple(out for out, _, _ in self.steps)
        #: Every operand name once, and each step's operands as indices
        #: into them.
        self._inputs = tuple(dict.fromkeys(
            name for _, lhs, rhs in self.steps for name in (lhs, rhs)
        ))
        index = {name: k for k, name in enumerate(self._inputs)}
        self._lhs = [index[lhs] for _, lhs, _ in self.steps]
        self._rhs = [index[rhs] for _, _, rhs in self.steps]

    @property
    def cell_writes(self) -> np.ndarray:
        """Wear of every row, one ``(rows, 12 m)`` image."""
        return self.wear.image

    @property
    def passes(self) -> int:
        """Jobs the rows have run."""
        return self.wear.passes

    def process_batch(
        self, batch: Union[LaneRows, Sequence[Mapping[str, int]]]
    ) -> StageRows:
        """Run B jobs in lock-step, advancing the clock once.

        *batch* is the previous stage's rows as they stand, or one
        operand map per job; either must name each step's inputs.
        Returns the product rows, which index into per-job
        :class:`RowStageResult` views.  Products and wear equal one
        pass per job.
        """
        products = self.lockstep_pass(batch)
        cycles = self.latency_cc()
        if products.lanes:
            self.clock.tick(cycles, category="rowmul")
        return StageRows(
            products.rows, products.lanes, products.cols, cycles, RowStageResult
        )

    def lockstep_pass(
        self, batch: Union[LaneRows, Sequence[Mapping[str, int]]]
    ) -> LaneRows:
        """Run the rows over a batch of jobs; one product row per step.

        The operand rows become one bit matrix, every operand is
        range-checked before anything is charged, and each side of all
        ``len(steps) * B`` sub-products goes through one
        :func:`carry_save_bits` pass.  Every row is charged ``B``
        multiplications (one count on the stage's :class:`RowWear`),
        and every sub-product is residue-verified under its *out*
        label, ``res(z) == res(x)·res(y) mod (2^r − 1)``, all at once
        from the bit matrices, counted and raised in job-major order as
        one check per product.  The stage clock is the caller's.
        """
        operands = self._operand_rows(batch)
        lanes, m = operands.lanes, self.width
        if not lanes:
            return LaneRows({}, 0, self.out_cols)
        try:
            rows = [operands.rows[name] for name in self._inputs]
        except KeyError as missing:
            raise DesignError(f"missing operand {missing}") from None
        steps, cols = len(self.steps), operands.cols
        if cols < m:
            raise DesignError(f"{cols}-column lanes cannot hold {m}-bit operands")
        # A negative row, a bit above the top lane or above a lane's
        # m-bit field all meet the complement of the operand field.
        outside = ~lane_field(lanes, cols, m)
        if any(row & outside for row in rows):
            raise DesignError(f"operands must be {m}-bit non-negative integers")
        # Position-major, the kernel's and the residue fold's layout:
        # ``[j, name, job]`` is bit j of a job's operand.
        bits = rows_bits(rows, lanes, cols)[:, :, :m]
        bits = np.ascontiguousarray(bits.transpose(2, 0, 1))
        products = carry_save_bits(
            m,
            # Lane ``s*B + j`` is step s of job j.
            bits[:, self._lhs].reshape(m, steps * lanes),
            bits[:, self._rhs].reshape(m, steps * lanes),
        )
        self.wear.charge(lanes, self.wear_leveling)
        checker = self.checker
        res = checker.residues(bits)
        checker.check_products(
            checker.residues(products).reshape(steps, lanes),
            res[self._lhs],
            res[self._rhs],
            self._outs,
        )
        out_rows = bits_rows(
            products.reshape(2 * m, steps, lanes).transpose(1, 2, 0), self.out_cols
        )
        return LaneRows(dict(zip(self._outs, out_rows)), lanes, self.out_cols)

    def _operand_rows(self, batch) -> LaneRows:
        """*batch* as operand rows: rows as they stand, or per-job maps
        packed at ``m`` columns per lane."""
        if isinstance(batch, LaneRows):
            return batch
        jobs, m, rows = list(batch), self.width, {}
        if not jobs:
            return LaneRows(rows, 0, m)
        for name in self._inputs:
            try:
                values = [job[name] for job in jobs]
            except KeyError as missing:
                raise DesignError(f"missing operand {missing}") from None
            if min(values) < 0 or max(values) >> m:
                raise DesignError(
                    f"operands must be {m}-bit non-negative integers"
                )
            rows[name] = pack_row(values, m)
        return LaneRows(rows, len(jobs), m)

    def latency_cc(self) -> int:
        """One row latency: the rows finish together."""
        return latency_cc(self.width)

    @property
    def area_cells(self) -> int:
        return len(self.rows) * area_cells(self.width)

    def max_writes(self) -> int:
        return self.wear.max_writes()
