"""Cycle-accurate executors for MAGIC programs on crossbar arrays.

Two execution paths share one instruction set:

* :class:`MagicExecutor` — the scalar reference path.  It applies
  micro-ops one at a time to a :class:`CrossbarArray`, advancing a
  :class:`Clock` by each op's cycle cost and collecting a
  :class:`RunStats`.  The per-op costs match the paper's accounting:
  1 cc for any row-parallel NOR/NOT/INIT/WRITE/READ, 2 cc for a
  periphery shift (read + write-back).  It is kept as the
  differential-testing oracle.
* :class:`WordPackedMagicExecutor` — the default SIMD path (paper
  Sec. II-B).  A :class:`Program` is *compiled once* per array
  geometry (validated once, its static stats counted) into the
  :class:`CompiledProgram` the program keeps
  (:meth:`Program.compiled`).  A MAGIC program is a static schedule,
  so its word lowering turns it into generated straight-line Python,
  one function per chunk of gates, compiled once per row map and
  strictness and kept on the compiled form; it replays against a
  :class:`WordPackedCrossbarArray` whose rows each pack every lane
  into one Python integer, lane by lane, each lane's columns side by
  side.  The code names no lane count: a batch size only adds one
  tuple of constants.

Per-lane results, cycle counts and write counters of the SIMD path are
bit-identical to running the scalar executor once per lane, and its
array's one energy total equals the sum of the per-lane energies (the
``scalar`` backend of :mod:`repro.magic.backend` does exactly that, and
is the oracle the SIMD path is differentially tested against).

Data enters a program through *bindings* (name -> integer) consumed by
WRITE ops and leaves through *results* (name -> integer) produced by
READ ops; both are LSB-first bit fields within a row.  Results are
per-run: each :meth:`MagicExecutor.execute` clears the previous run's
mapping and also attaches its own mapping to the returned stats.  A
batched executor takes the bindings of all its lanes at once, as a
:class:`LaneRows` of lane-major rows (one integer per name, each lane's
value in its own field) or one mapping per lane, and returns a
:class:`LaneRuns`: every READ as one lane-major row, and each lane's
:class:`RunStats` when asked for.
"""

from __future__ import annotations

import math
from collections import abc
from functools import cached_property, lru_cache
from types import FunctionType
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crossbar.array import (
    CrossbarArray,
    WordPackedCrossbarArray,
    _repunit,
)
from repro.magic.ops import (
    Init,
    MicroOp,
    Nop,
    Nor,
    Not,
    ParallelNor,
    ParallelNot,
    Read,
    Shift,
    Write,
)
from repro.magic.program import Program
from repro.sim.clock import Clock
from repro.sim.exceptions import MagicProtocolError, ProgramError
from repro.sim.stats import CacheStats, RunStats
from repro.telemetry import spans as _telemetry


def int_to_bits(value: int, width: int) -> np.ndarray:
    """LSB-first bit vector of *value* over *width* bits."""
    if value < 0:
        raise ValueError("only non-negative integers are storable")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    raw = np.frombuffer(value.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(bool)


def bits_to_int(bits: np.ndarray) -> int:
    """Integer from an LSB-first bit vector."""
    bits = np.ascontiguousarray(bits, dtype=bool)
    if bits.size == 0:
        return 0
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little"
    )


def _check_storable(values: Sequence[int], width: int) -> None:
    """Reject a negative *width*, and any negative value or one wider
    than *width* bits."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    for value in values:
        if value < 0:
            raise ValueError("only non-negative integers are storable")
        if value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")


def pack_ints(values: Sequence[int], width: int) -> np.ndarray:
    """Stack LSB-first bit vectors of *values* into a ``(len, width)``
    bool matrix (the batched counterpart of :func:`int_to_bits`).

    Every value is validated (non-negative, fits in *width* bits)
    before any early return, so an out-of-range operand is rejected
    even when the degenerate ``width == 0`` shape short-circuits the
    bit unpacking; iterables are materialised once, so generators are
    accepted.
    """
    values = list(values)
    _check_storable(values, width)
    if not values or width == 0:
        return np.zeros((len(values), width), dtype=bool)
    nbytes = (width + 7) // 8
    chunks = [value.to_bytes(nbytes, "little") for value in values]
    raw = np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(len(values), nbytes)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :width].astype(bool)


def unpack_ints(words: np.ndarray) -> List[int]:
    """Integers from a ``(batch, width)`` LSB-first bit matrix (the
    batched counterpart of :func:`bits_to_int`)."""
    words = np.ascontiguousarray(words, dtype=bool)
    if words.ndim != 2:
        raise ValueError(f"expected a (batch, width) bit matrix, got {words.shape}")
    if words.shape[1] == 0:
        return [0] * words.shape[0]
    packed = np.packbits(words, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


#: RunStats counter attribute per micro-op opcode.
_STAT_FIELD = {
    "init": "init_ops",
    "nor": "nor_ops",
    "not": "not_ops",
    "write": "write_ops",
    "read": "read_ops",
    "shift": "shift_ops",
}


def _window(cols, width: int) -> Optional[Tuple[int, int]]:
    """The validated column window *cols* of an array *width* columns
    wide; a full-width window lowers to None (it selects the same
    cells, so accounting is unchanged)."""
    if cols is None:
        return None
    start, stop = cols
    if not (0 <= start < stop <= width):
        raise ProgramError(f"column range {cols} outside array width {width}")
    return None if stop - start == width else (start, stop)


def _field(col_offset: int, width: Optional[int], cols: int) -> Tuple[int, int]:
    """The validated ``(start, stop)`` columns of a WRITE/READ field."""
    if width is None:
        width = cols - col_offset
    if col_offset < 0 or col_offset + width > cols:
        raise ProgramError(
            f"field [{col_offset}, {col_offset + width}) outside array"
        )
    return col_offset, col_offset + width


def _mask(window: Optional[Tuple[int, int]], cols: int) -> Optional[np.ndarray]:
    """Column mask of a window (None: every column)."""
    if window is None:
        return None
    mask = np.zeros(cols, dtype=bool)
    mask[window[0]:window[1]] = True
    return mask


class CompiledProgram:
    """A :class:`Program` validated for one array geometry.

    Compilation validates every op against the target array geometry
    once and precomputes the WRITE operand widths and the static stats
    (cycle count, op histogram, per-category cycles).  The compiled
    form is immutable and reusable: one compile per program and
    geometry (build it through :meth:`Program.compiled`), any number of
    :meth:`WordPackedMagicExecutor.execute` (or scalar-oracle) replays
    with fresh bindings; it keeps its word lowering (:attr:`word`).
    """

    def __init__(self, program: Program, rows: int, cols: int):
        self.program = program
        self.rows = rows
        self.cols = cols
        self.label = program.label
        self.cycle_count = 0
        self.op_counts: Dict[str, int] = {}
        self.cycles_by_opcode: Dict[str, int] = {}
        self.stat_counts: Dict[str, int] = {}
        #: Unique (name, width) pairs consumed by WRITE ops.
        self.write_specs: List[Tuple[str, int]] = []
        self._compile(program)

    def _compile(self, program: Program) -> None:
        specs_seen: Dict[Tuple[str, int], None] = {}
        # A repeated op object (``ProgramBuilder.concat`` reuses the ops
        # of an adder program across passes) is validated once.
        validated = set()
        for op in program:
            if id(op) not in validated:
                validated.add(id(op))
                op.validate(self.rows, self.cols)
            self.cycle_count += op.cycles
            self.op_counts[op.opcode] = self.op_counts.get(op.opcode, 0) + 1
            self.cycles_by_opcode[op.opcode] = (
                self.cycles_by_opcode.get(op.opcode, 0) + op.cycles
            )
            stat_field = _STAT_FIELD.get(op.opcode)
            if stat_field:
                # A packed op retires one gate per gang member within
                # its single cycle; stats count gates, the clock counts
                # cycles.
                weight = (
                    len(op.gates)
                    if isinstance(op, (ParallelNor, ParallelNot))
                    else 1
                )
                self.stat_counts[stat_field] = (
                    self.stat_counts.get(stat_field, 0) + weight
                )
            if isinstance(op, Write):
                start, stop = _field(op.col_offset, op.width, self.cols)
                specs_seen.setdefault((op.name, stop - start))
        self.write_specs = list(specs_seen)

    def __len__(self) -> int:
        return len(self.program)

    @cached_property
    def word(self) -> "_WordLoweredProgram":
        """This compiled form lowered for the word-packed replay."""
        return _WordLoweredProgram(self)


class MagicExecutor:
    """Executes :class:`Program` objects cycle-accurately (scalar path).

    Parameters
    ----------
    array:
        Target crossbar.
    clock:
        Shared cycle counter; a fresh one is created when omitted.
    fault_hook:
        Optional transient-fault injector (duck-typed; see
        :class:`repro.crossbar.faults.TransientFaultInjector`).  Its
        ``on_nor`` / ``on_write`` / ``on_read`` callbacks fire after the
        corresponding micro-op so faults strike *mid-program*, not just
        as statically pinned cells.
    """

    def __init__(
        self,
        array: CrossbarArray,
        clock: Optional[Clock] = None,
        fault_hook=None,
    ):
        self.array = array
        self.clock = clock if clock is not None else Clock()
        self.fault_hook = fault_hook
        self.results: Dict[str, int] = {}
        self._compile_stats = CacheStats()

    def compile_cache_stats(self) -> CacheStats:
        """This executor's compile lookups: a hit found *program*
        already compiled for this geometry, a miss compiled it."""
        return self._compile_stats

    def compile(self, program: Program) -> CompiledProgram:
        """*program*'s compiled form for this array's geometry.

        The compiled form is immutable and kept on the program, so it
        is replayed by any batched executor whose array has the same
        ``rows x cols`` — the stage batch paths use this to compile
        their mega-programs once and replay them per batch.
        """
        rows, cols = self.array.rows, self.array.cols
        if program.is_compiled(rows, cols):
            self._compile_stats.hits += 1
        else:
            self._compile_stats.misses += 1
        return program.compiled(rows, cols)

    # ------------------------------------------------------------------
    def _col_mask(self, cols) -> Optional[np.ndarray]:
        return _mask(_window(cols, self.array.cols), self.array.cols)

    def _field(self, col_offset: int, width: Optional[int]) -> slice:
        return slice(*_field(col_offset, width, self.array.cols))

    # ------------------------------------------------------------------
    def execute(
        self,
        program: Program,
        bindings: Optional[Dict[str, int]] = None,
    ) -> RunStats:
        """Run *program* to completion and return its :class:`RunStats`.

        READ results are collected per run: :attr:`results` holds the
        mapping of the most recent run only (a previous run's names do
        not leak into the next), and the same mapping is attached to the
        returned stats as ``stats.results``.
        """
        bindings = bindings or {}
        run_results: Dict[str, int] = {}
        self.results = run_results
        stats = RunStats(results=run_results)
        energy_before = self.array.energy_fj
        tracer = _telemetry.active()
        for op in program:
            self._dispatch(op, bindings, stats, run_results)
            stats.cycles += op.cycles
            self.clock.tick(op.cycles, category=op.opcode)
            stats.op_counts[op.opcode] = stats.op_counts.get(op.opcode, 0) + 1
        stats.energy_fj = self.array.energy_fj - energy_before
        if tracer is not None:
            tracer.record(
                "magic.program",
                self.clock.cycles - stats.cycles,
                self.clock.cycles,
                label=program.label or "program",
                ops=len(program.ops),
                nor=stats.nor_ops + stats.not_ops,
                energy_fj=stats.energy_fj,
            )
        return stats

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        op: MicroOp,
        bindings: Dict[str, int],
        stats: RunStats,
        results: Dict[str, int],
    ) -> None:
        hook = self.fault_hook
        if isinstance(op, Init):
            self.array.init_rows(op.rows, self._col_mask(op.cols))
            stats.init_ops += 1
        elif isinstance(op, Nor):
            mask = self._col_mask(op.cols)
            self.array.nor_rows(list(op.in_rows), op.out_row, mask)
            if hook is not None:
                hook.on_nor(self.array, op.out_row, mask)
            stats.nor_ops += 1
        elif isinstance(op, Not):
            mask = self._col_mask(op.cols)
            self.array.not_row(op.in_row, op.out_row, mask)
            if hook is not None:
                hook.on_nor(self.array, op.out_row, mask)
            stats.not_ops += 1
        elif isinstance(op, (ParallelNor, ParallelNot)):
            # One cycle retires the whole gang: output word lines are
            # pairwise disjoint and never aliased by an operand row (the
            # op's constructor enforces it), so the sequential member
            # evaluation below is order-independent and each gate's
            # switching energy is charged exactly as in the unpacked
            # program.
            for g in op.gates:
                mask = self._col_mask(g.cols)
                if isinstance(g, Nor):
                    self.array.nor_rows(list(g.in_rows), g.out_row, mask)
                else:
                    self.array.not_row(g.in_row, g.out_row, mask)
                if hook is not None:
                    hook.on_nor(self.array, g.out_row, mask)
            if isinstance(op, ParallelNor):
                stats.nor_ops += len(op.gates)
            else:
                stats.not_ops += len(op.gates)
        elif isinstance(op, Write):
            self._do_write(op, bindings)
            stats.write_ops += 1
        elif isinstance(op, Read):
            self._do_read(op, results)
            stats.read_ops += 1
        elif isinstance(op, Shift):
            self._do_shift(op)
            stats.shift_ops += 1
        elif isinstance(op, Nop):
            pass
        else:  # pragma: no cover - defensive
            raise ProgramError(f"unknown micro-op {op!r}")

    def _do_write(self, op: Write, bindings: Dict[str, int]) -> None:
        if op.name not in bindings:
            raise ProgramError(f"WRITE references unbound operand {op.name!r}")
        field = self._field(op.col_offset, op.width)
        width = field.stop - field.start
        bits = int_to_bits(bindings[op.name], width)
        word = self.array.peek_row(op.row)
        pre = word.copy() if self.fault_hook is not None else None
        word[field] = bits
        mask = np.zeros(self.array.cols, dtype=bool)
        mask[field] = True
        self.array.write_row(op.row, word, mask)
        if self.fault_hook is not None:
            self.fault_hook.on_write(self.array, op.row, mask, pre)

    def _do_read(self, op: Read, results: Dict[str, int]) -> None:
        field = self._field(op.col_offset, op.width)
        word = self.array.read_row(op.row)
        results[op.name] = bits_to_int(word[field])
        if self.fault_hook is not None:
            self.fault_hook.on_read(self.array, op.row)

    def _do_shift(self, op: Shift) -> None:
        mask = self._col_mask(op.cols)
        window = slice(0, self.array.cols) if op.cols is None else slice(*op.cols)
        # Only the window's sense amplifiers fire: narrow shifts must
        # not be charged a full-row read (the write below is already
        # masked to the window).
        src = self.array.read_row(op.src_row, mask)[window]
        shifted = np.full(src.shape, bool(op.fill))
        if op.offset >= 0:
            if op.offset < len(src):
                shifted[op.offset:] = src[: len(src) - op.offset]
        else:
            amount = -op.offset
            if amount < len(src):
                shifted[: len(src) - amount] = src[amount:]
        word = self.array.peek_row(op.dst_row)
        pre = word.copy() if self.fault_hook is not None else None
        word[window] = shifted
        self.array.write_row(op.dst_row, word, mask)
        if self.fault_hook is not None:
            write_mask = (
                np.ones(self.array.cols, dtype=bool) if mask is None else mask
            )
            self.fault_hook.on_write(self.array, op.dst_row, write_mask, pre)
        if op.also_init:
            # Piggy-backed initialisation during the write cycle: the
            # word-line driver raises the listed rows while the write
            # circuit programs the shifted word.  No extra cycles.
            self.array.init_rows(op.also_init, mask)


#: Gates in one generated chunk at most: a chunk is compiled on its
#: own, so a long program never has its whole source compiled at once.
_CHUNK_GATES = 128

#: Row maps whose write-counter delta a lowered program keeps at most
#: (a stage meets its spare-row remap and each wear permutation of it;
#: a fault campaign meets many more), the oldest dropped first.
_WRITES_DELTAS = 8


def pack_row(values: Sequence[int], cols: int) -> int:
    """Lane-major row holding ``values[lane]`` at bit ``lane * cols``.

    Up to eight lanes are shifted into place one by one; more are packed
    eight at a time into blocks, which are packed the same way, so each
    level costs a few passes over the row and the whole pack is
    near-linear in it, where a shift per lane into the whole row is
    quadratic.  Each value must fit in *cols* bits.  At one lane the row
    is the value itself.
    """
    if len(values) > 8:
        blocks = [pack_row(values[i:i + 8], cols) for i in range(0, len(values), 8)]
        return pack_row(blocks, cols << 3)
    if len(values) == 1:
        return values[0]
    word = 0
    for value, shift in zip(values, range(0, len(values) * cols, cols)):
        word |= value << shift
    return word


def _split_row(word: int, batch: int, cols: int) -> List[int]:
    """The first *batch* *cols*-bit blocks of *word*, lowest first: the
    inverse of :func:`pack_row`, split the same way in near-linear
    time.  Each block keeps the bits above it; callers mask."""
    if batch <= 8:
        return [word >> shift for shift in range(0, batch * cols, cols)]
    lanes = 8
    while lanes * 8 < batch:
        lanes <<= 3
    mask = (1 << lanes * cols) - 1
    pieces: List[int] = []
    for start in range(0, batch, lanes):
        block = word >> start * cols & mask
        pieces += _split_row(block, min(lanes, batch - start), cols)
    return pieces


def split_row(word: int, batch: int, cols: int) -> List[int]:
    """Each of *batch* lanes' *cols*-bit value in the lane-major row
    *word*, lane 0 first (the inverse of :func:`pack_row`)."""
    mask = (1 << cols) - 1
    return [block & mask for block in _split_row(word, batch, cols)]


@lru_cache(maxsize=512)
def lane_field(batch: int, cols: int, bits: int) -> int:
    """Lane-major row with the low *bits* columns of each of *batch*
    lanes set: a lane-wise mask of a *bits*-bit field."""
    return _repunit(batch, cols) * ((1 << bits) - 1)


def rows_bits(rows: Sequence[int], lanes: int, cols: int) -> np.ndarray:
    """The ``(len(rows), lanes, cols)`` bit matrix (``uint8``) of the
    lane-major *rows*: entry ``[k, lane, c]`` is bit ``lane * cols + c``
    of ``rows[k]``.  Every row is non-negative and fits ``lanes * cols``
    bits."""
    total = lanes * cols
    nbytes = (total + 7) // 8
    raw = np.frombuffer(
        b"".join([row.to_bytes(nbytes, "little") for row in rows]), dtype=np.uint8
    )
    bits = np.unpackbits(
        raw.reshape(len(rows), nbytes), axis=1, count=total, bitorder="little"
    )
    return bits.reshape(len(rows), lanes, cols)


def bits_rows(bits: np.ndarray, cols: int) -> List[int]:
    """Lane-major rows of *cols*-column lanes from a ``(rows, lanes,
    width)`` bit matrix, ``width <= cols``, the columns above *width*
    zero (the inverse of :func:`rows_bits`)."""
    count, lanes, width = bits.shape
    if width != cols:
        padded = np.zeros((count, lanes, cols), dtype=np.uint8)
        padded[:, :, :width] = bits
        bits = padded
    packed = np.packbits(bits.reshape(count, lanes * cols), axis=1, bitorder="little")
    step = packed.shape[1]
    raw = packed.tobytes()
    return [
        int.from_bytes(raw[start:start + step], "little")
        for start in range(0, count * step, step)
    ]


#: Lane counts up to which :func:`restride_row` and :func:`chunk_rows`
#: split and pack lanes with integer shifts; wider rows go through one
#: bit matrix.
_SHIFT_LANES = 8


def chunk_rows(
    values: Sequence[int], width: int, chunk_bits: int, chunks: int, cols: int
) -> List[int]:
    """The lane-major rows of *values*' *chunk_bits*-bit chunks, chunk 0
    first: one lane per value, of *cols* columns, each value
    non-negative and fitting *width* ``<= chunks * chunk_bits`` bits.
    A wide batch splits as one bit matrix, a narrow one with shifts."""
    lanes = len(values)
    if lanes <= _SHIFT_LANES:
        mask = (1 << chunk_bits) - 1
        return [
            pack_row([value >> shift & mask for value in values], cols)
            for shift in range(0, chunks * chunk_bits, chunk_bits)
        ]
    bits = np.zeros((lanes, chunks * chunk_bits), dtype=np.uint8)
    bits[:, :width] = rows_bits(values, 1, width).reshape(lanes, width)
    return bits_rows(bits.reshape(lanes, chunks, chunk_bits).transpose(1, 0, 2), cols)


def restride_row(row: int, lanes: int, cols: int, new_cols: int) -> int:
    """*row* re-packed from *cols*- to *new_cols*-column lanes; every
    lane's value must fit *new_cols* columns."""
    if lanes == 1 or cols == new_cols:
        return row
    if lanes <= _SHIFT_LANES:
        return pack_row(split_row(row, lanes, cols), new_cols)
    bits = rows_bits([row], lanes, cols)[:, :, :new_cols]
    return bits_rows(bits, new_cols)[0]


class LaneRows(abc.Sequence):
    """Named values of a batch's lanes, as lane-major rows.

    Bit ``lane * cols + c`` of ``rows[name]`` is bit *c* of lane
    *lane*'s value: the layout of a :class:`WordPackedCrossbarArray`
    row, so a row binds a WRITE as it stands and a sensed row is one
    integer per READ.  It is also the sequence of the lanes' ``{name:
    value}`` dicts: ``len`` is the lane count, and indexing or
    iterating splits the rows (the scalar oracle's per-lane view).
    """

    __slots__ = ("rows", "lanes", "cols")

    def __init__(self, rows: Dict[str, int], lanes: int, cols: int):
        self.rows = rows
        self.lanes = lanes
        self.cols = cols

    def __len__(self) -> int:
        return self.lanes

    def __getitem__(self, lane: int) -> Dict[str, int]:
        if lane < 0:
            lane += self.lanes
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} of {self.lanes}")
        shift, mask = lane * self.cols, (1 << self.cols) - 1
        return {name: row >> shift & mask for name, row in self.rows.items()}

    def __iter__(self):
        names = list(self.rows)
        if not names:
            return iter([{} for _ in range(self.lanes)])
        columns = [self.split(name) for name in names]
        return (dict(zip(names, values)) for values in zip(*columns))

    def split(self, name: str) -> List[int]:
        """Every lane's value of *name*, lane 0 first."""
        return split_row(self.rows[name], self.lanes, self.cols)


class StageRows(LaneRows):
    """One pipeline stage's results for a batch: the lane-major rows it
    hands to the next stage, one lane per job, and each job's result
    record, built only when indexed.

    A controller hands the rows on as they stand; indexing or iterating
    gives ``record(values, cycles)`` per job, *values* that job's
    ``{name: value}`` view of the rows and *cycles* the stage latency
    every job of the batch took.
    """

    __slots__ = ("cycles", "_record")

    def __init__(
        self, rows: Dict[str, int], lanes: int, cols: int, cycles: int, record
    ):
        super().__init__(rows, lanes, cols)
        self.cycles = cycles
        self._record = record

    def __getitem__(self, job: int):
        return self._record(super().__getitem__(job), self.cycles)

    def __iter__(self):
        record, cycles = self._record, self.cycles
        return (record(values, cycles) for values in super().__iter__())


class LaneRuns(abc.Sequence):
    """What a batched replay returns: :attr:`results`, every READ
    result as a :class:`LaneRows` row, and one :class:`RunStats` per
    lane (``len`` is the lane count).

    The word replay keeps the rows only and builds a lane's stats when
    it is indexed; the scalar oracle keeps its lanes' own stats (with
    per-lane energy) and packs their results into the rows.
    """

    __slots__ = ("results", "_stats", "_compiled")

    def __init__(
        self,
        results: LaneRows,
        compiled: Optional["CompiledProgram"] = None,
        stats: Optional[List[RunStats]] = None,
    ):
        self.results = results
        self._compiled = compiled
        self._stats = stats

    @classmethod
    def of(cls, stats: List[RunStats], cols: int) -> "LaneRuns":
        """The runs of per-lane *stats*, their results packed."""
        names = stats[0].results if stats else {}
        rows = {
            name: pack_row([lane.results[name] for lane in stats], cols)
            for name in names
        }
        return cls(LaneRows(rows, len(stats), cols), stats=stats)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, lane: int) -> RunStats:
        if self._stats is not None:
            return self._stats[lane]
        return self._lane(self.results[lane])

    def __iter__(self):
        if self._stats is not None:
            return iter(self._stats)
        return map(self._lane, self.results)

    def _lane(self, results: Dict[str, int]) -> RunStats:
        compiled = self._compiled
        return RunStats(
            cycles=compiled.cycle_count,
            # The word array counts one energy total, not one per lane.
            energy_fj=math.nan,
            op_counts=dict(compiled.op_counts),
            results=results,
            **compiled.stat_counts,
        )


def bound_rows(compiled, bindings, cols: int) -> List[int]:
    """The packed WRITE operands of *bindings*, in ``write_specs``
    order: a :class:`LaneRows`'s rows as they stand, each lane's value
    checked to fit its field with one mask, or a sequence of per-lane
    ``{name: value}`` dicts packed lane by lane."""
    lanes = len(bindings)
    rows = []
    if isinstance(bindings, LaneRows):
        for name, width in compiled.write_specs:
            row = bindings.rows.get(name)
            if row is None:
                raise ProgramError(f"WRITE references unbound operand {name!r}")
            if row & ~lane_field(lanes, cols, width):
                if row < 0 or row >> lanes * cols:
                    raise ValueError(
                        f"row {name!r} is not {lanes} lanes of {cols} columns"
                    )
                _check_storable(bindings.split(name), width)
            rows.append(row)
        return rows
    for name, width in compiled.write_specs:
        try:
            values = [lane[name] for lane in bindings]
        except KeyError:
            raise ProgramError(
                f"WRITE references unbound operand {name!r}"
            ) from None
        _check_storable(values, width)
        rows.append(pack_row(values, cols))
    return rows


def check_bindings(compiled, bindings, rows: int, cols: int, batch: int) -> None:
    """Reject a program compiled for another geometry, and *bindings*
    for another lane count or lane width."""
    if compiled.rows != rows or compiled.cols != cols:
        raise ProgramError(
            f"program compiled for {compiled.rows}x{compiled.cols} "
            f"cannot run on {rows}x{cols}"
        )
    if len(bindings) != batch:
        raise ProgramError(f"got {len(bindings)} binding sets for {batch} lanes")
    if isinstance(bindings, LaneRows) and bindings.cols != cols:
        raise ProgramError(
            f"rows of {bindings.cols}-column lanes cannot bind {cols} columns"
        )


def _span(start: int, stop: int) -> int:
    """Column word of columns ``[start, stop)`` (none if empty)."""
    return ((1 << (stop - start)) - 1) << start if start < stop else 0


class _WordLoweredProgram:
    """A :class:`CompiledProgram` lowered to generated replay code.

    One lowering exists per compiled program (:attr:`CompiledProgram
    .word`), so everything that replays the program shares it.  One walk
    over the program's ops builds the data-independent accounting (the
    per-lane set/reset/read cell counts behind the constant part of the
    energy model, and the write pulses per logical cell) and a lane-free
    script: the gates cut into chunks of at most :data:`_CHUNK_GATES`,
    and also around each operand WRITE and READ, every mask, field and
    shift window a slot of one table of column words.

    :meth:`replay` turns the script into Python source once per row map
    and strictness (the slow variant once per strictness: it reads the
    row map off the array) and compiles it chunk by chunk into
    straight-line functions, called in program order by one generated
    outer function that also does the WRITEs and READs.  A function's
    rows, constants and hook masks are parameters bound per use, so chunks
    equal up to them (every pass of one adder layout, or one chunk under
    another row map) compile once.  The code names no lane count: its
    constants are one tuple per batch size (:meth:`constants`).

    The fast variant (no pinned fault, no hook) keeps a chunk's rows in
    locals, loaded on entry and stored back with the chunk's switching
    energy counts in a ``finally``, so a strict check that raises leaves
    state and energy exactly at the failing gate.  A whole-row INIT
    makes its row the all-ones constant until the row is next written:
    a strict gate on it needs no check, and reads of it use the
    constant.  The slow variant works on the state list itself, applies
    the pinned faults and calls the hook after every gate, WRITE and
    SHIFT, and checks every strict gate at run time.
    """

    def __init__(self, compiled: CompiledProgram):
        cols = self.cols = compiled.cols
        self.label = compiled.label or "program"
        self.set_cells = self.reset_cells = self.read_cells = 0
        all_cols = (1 << cols) - 1
        #: Column word -> constant slot; slot 0 is the full row.
        words: Dict[int, int] = {all_cols: 0}
        #: The (read-only) columns a hook is handed per window; every
        #: column for a full-width write (a full-width gate hands None).
        hook_masks: Dict[Optional[tuple], np.ndarray] = {}
        spec_index = {spec: i for i, spec in enumerate(compiled.write_specs)}

        def slot(word: int) -> int:
            return words.setdefault(word, len(words))

        def hook(window: Optional[tuple]) -> np.ndarray:
            mask = hook_masks.get(window)
            if mask is None:
                mask = _mask(window, cols) if window else np.ones(cols, dtype=bool)
                mask.flags.writeable = False
                hook_masks[window] = mask
            return mask

        def lower(op) -> tuple:
            # (kind, payload, set, reset, read cells, write pulses) of
            # one validated op; a pulse is (row, column window or None).
            packed = isinstance(op, (ParallelNor, ParallelNot))
            if packed or isinstance(op, (Nor, Not)):
                items, pulses = [], []
                for g in op.gates if packed else (op,):
                    in_rows = tuple(g.in_rows) if isinstance(g, Nor) else (g.in_row,)
                    if g.out_row in in_rows:
                        # Row maps are injective, so logical aliasing is
                        # exactly physical aliasing; reject it once here.
                        raise MagicProtocolError(
                            f"output row {g.out_row} cannot also be a NOR input"
                        )
                    window = _window(g.cols, cols)
                    m = not_m = h = None
                    if window:
                        m, not_m = slot(_span(*window)), slot(all_cols ^ _span(*window))
                        h = hook(window)
                    items.append(("nor", in_rows, g.out_row, m, not_m, h))
                    pulses.append((g.out_row, window))
                return "gates", items, 0, 0, 0, pulses
            if isinstance(op, Init):
                rows, window = tuple(dict.fromkeys(op.rows)), _window(op.cols, cols)
                m = slot(_span(*window)) if window else None
                cells = window[1] - window[0] if window else cols
                pulses = [(row, window) for row in rows]
                return "gates", [("init", rows, m)], cells * len(rows), 0, 0, pulses
            if isinstance(op, Read):
                start, stop = _field(op.col_offset, op.width, cols)
                read = (op.row, op.name, start, stop - start)
                return "read", read, 0, 0, cols, []
            if isinstance(op, Write):
                start, stop = _field(op.col_offset, op.width, cols)
                window = None if stop - start == cols else (start, stop)
                not_field = slot(all_cols ^ _span(start, stop)) if window else None
                spec = spec_index[(op.name, stop - start)]
                write = ("write", op.row, spec, start, not_field, hook(window))
                return "write", write, 0, stop - start, 0, [(op.row, window)]
            if isinstance(op, Shift):
                window, offset = _window(op.cols, cols), op.offset
                lo, hi = window or (0, cols)
                fill_slot = None
                if op.fill:
                    fill_slot = slot(
                        _span(lo, min(lo + offset, hi))
                        if offset >= 0
                        else _span(max(hi + offset, lo), hi)
                    )
                # The source columns that land inside the window: a
                # shifted lane cannot spill into its neighbour.
                keep = slot(_span(max(lo, lo - offset), min(hi, hi - offset)))
                not_window = slot(all_cols ^ _span(lo, hi)) if window else None
                src, dst, h = op.src_row, op.dst_row, hook(window)
                items = [("shift", src, dst, offset, keep, not_window, fill_slot, h)]
                also_init = tuple(dict.fromkeys(op.also_init))
                if also_init:
                    # The piggy-backed INIT of the write cycle, replayed
                    # right after the write as the window's own INIT.
                    m = slot(_span(lo, hi)) if window else None
                    items.append(("init", also_init, m))
                span = hi - lo
                pulses = [(row, window) for row in (dst, *also_init)]
                return "gates", items, span * len(also_init), span, span, pulses
            return "gates", [], 0, 0, 0, []  # NOP: an idle cycle

        pulse_counts: Dict[tuple, int] = {}
        segments: List[tuple] = []
        reads: List[tuple] = []
        chunk: List[tuple] = []
        chunk_key: List[int] = []

        def cut() -> None:
            if chunk:
                segments.append(("chunk", tuple(chunk_key), tuple(chunk)))
                chunk.clear()
                chunk_key.clear()

        # A repeated op object (one adder program a mega-program
        # concatenates once per pass) is lowered once.
        lowered_of: Dict[int, tuple] = {}
        for op in compiled.program:
            entry = lowered_of.get(id(op))
            if entry is None:
                entry = lowered_of[id(op)] = lower(op)
            kind, payload, set_cells, reset_cells, read_cells, pulses = entry
            self.set_cells += set_cells
            self.reset_cells += reset_cells
            self.read_cells += read_cells
            for pulse in pulses:
                pulse_counts[pulse] = pulse_counts.get(pulse, 0) + 1
            if kind != "gates":
                cut()
                segments.append(payload if kind == "write" else ("read", payload[0]))
                if kind == "read":
                    reads.append(payload[1:])
            elif payload:
                if len(chunk) + len(payload) > _CHUNK_GATES:
                    cut()
                chunk.extend(payload)
                chunk_key.append(id(op))
        cut()

        #: Write pulses per logical cell of one lane.
        self._logical_writes = np.zeros((compiled.rows, cols), dtype=np.int64)
        for (row, window), count in pulse_counts.items():
            self._logical_writes[row, slice(*(window or (0, cols)))] += count
        self._words = tuple(words)
        self._segments = segments
        #: (name, start column, field width) per READ, in program order.
        self._reads = reads
        #: (row_map, phys_rows) -> write-counter delta.
        self._writes_deltas: Dict[tuple, np.ndarray] = {}
        #: batch -> constants tuple.
        self._constants: Dict[int, tuple] = {}
        #: (row_map or None, strict, slow) -> generated replay function.
        self._replays: Dict[tuple, object] = {}
        #: Generated source -> its compiled function body.
        self._code: Dict[str, object] = {}

    def energy_const_fj(self, device) -> float:
        """Data-independent per-lane energy of one replay on *device*."""
        return (
            device.e_set_fj * self.set_cells
            + device.e_reset_fj * self.reset_cells
            + device.e_read_fj * self.read_cells
        )

    def writes_delta(self, row_map: tuple, phys_rows: int) -> np.ndarray:
        """Write-counter delta of one replay under *row_map*.

        Pulse placement is data-independent, so the delta is a static
        property of (program, remap table); it is placed once per
        distinct row map (the last :data:`_WRITES_DELTAS` are kept) and
        added to the array's counters per batch.
        """
        key = (row_map, phys_rows)
        deltas = self._writes_deltas
        delta = deltas.get(key)
        if delta is None:
            if len(deltas) >= _WRITES_DELTAS:
                del deltas[next(iter(deltas))]
            delta = np.zeros((phys_rows, self.cols), dtype=np.int64)
            delta[list(row_map)] = self._logical_writes
            deltas[key] = delta
        return delta

    def constants(self, batch: int) -> tuple:
        """The replay code's lane-dependent constants at *batch* lanes:
        each column word in every lane (built once per batch size)."""
        table = self._constants.get(batch)
        if table is None:
            repunit = _repunit(batch, self.cols)
            table = tuple(word * repunit for word in self._words)
            self._constants[batch] = table
        return table

    def sensed_rows(self, sensed: List[int], batch: int) -> Dict[str, int]:
        """Each READ's result as a lane-major row, from the rows a
        replay sensed: the field shifted to column 0 of its lane and
        masked lane-wise (a full-row READ is the row as sensed)."""
        cols = self.cols
        rows = {}
        for (name, start, width), word in zip(self._reads, sensed):
            if start or width != cols:
                word = word >> start & lane_field(batch, cols, width)
            rows[name] = word
        return rows

    def replay(self, row_map: tuple, strict: bool, slow: bool):
        """The generated replay function for *row_map* (logical ->
        physical rows), a strict or non-strict array, and the fast path
        or the slow one (a pinned fault or a hook), which serves every
        row map; built once per key.

        ``replay(state, K, W, acc[, array, hook])`` runs on the state
        list *state* with the :meth:`constants` *K* and the packed WRITE
        operands *W* (in ``write_specs`` order), adds the switched cells
        to ``acc[0]`` (RESETs) and ``acc[1]`` (writes), also when a strict
        check raises, and returns the sensed rows, one per READ.
        """
        key = (None if slow else row_map, strict, slow)
        function = self._replays.get(key)
        if function is None:
            namespace = {"U": _uninitialised}
            names: Dict[tuple, str] = {}
            outer = []
            for segment in self._segments:
                if segment[0] == "chunk":
                    _, chunk, items = segment
                    if chunk not in names:
                        names[chunk] = f"c{len(names)}"
                        source = _source("chunk", items, row_map, strict, slow)
                        namespace[names[chunk]] = self._function(namespace, *source)
                    segment = ("call", names[chunk])
                outer.append(segment)
            source = _source("replay", outer, row_map, strict, slow, True)
            function = self._replays[key] = self._function(namespace, *source)
        return function

    def _function(self, namespace: dict, name: str, source: str, defaults: tuple):
        """Function *name* of the generated *source*, global to
        *namespace*, its row, constant and mask parameters bound to
        *defaults*.  Equal sources (chunks equal up to their rows,
        constants and masks, such as every pass of one adder layout)
        compile once."""
        code = self._code.get(source)
        if code is None:
            scratch: Dict[str, object] = {}
            exec(compile(source, self.label, "exec"), scratch)
            code = self._code[source] = scratch[name].__code__
        return FunctionType(code, namespace, name, defaults)


def _source(
    name: str,
    items: Sequence[tuple],
    row_map: tuple,
    strict: bool,
    slow: bool,
    outer: bool = False,
) -> Tuple[str, str, tuple]:
    """Python source of one straight-line function of a generated replay
    (see :class:`_WordLoweredProgram`), a chunk of gates or the *outer*
    function that calls the chunks and does the WRITEs and READs, and
    the values of its parameters.  Rows (``p`` physical, ``q``
    logical), constant slots (``s``) and hook masks (``h``) are
    parameters numbered in order of first use, so the source depends
    only on what the function does."""
    lines: List[str] = []
    emit = lines.append
    rows: Dict[int, int] = {}
    slots: Dict[int, int] = {}
    masks: Dict[int, tuple] = {}
    #: Rows held in locals (a fast chunk's), and those written back.
    loaded: Dict[int, None] = {}
    stored: Dict[int, None] = {}
    #: Rows a whole-row INIT of this fast chunk left at all ones.
    ones = set()
    sensed: List[str] = []
    in_locals = not (slow or outer)
    #: The strict fast path's known popcount of a row's value, as an
    #: expression: ``N`` (the row's cells), ``0``, ``cK`` (a count the
    #: chunk took) or ``N - cK``.
    counted: Dict[int, str] = {}
    counting = in_locals and strict

    def complement(count: str) -> str:
        # The popcount of F ^ v from that of v.
        if count in ("N", "0"):
            return "0" if count == "N" else "N"
        return count[4:] if count.startswith("N - ") else f"N - {count}"

    counts: List[str] = []
    uses_n = False

    def count(expr: str) -> Tuple[str, str]:
        # One statement per gate: the popcount of expr, named for reuse.
        counts.append(f"c{len(counts)}")
        return f"({counts[-1]} := {expr}.bit_count())", counts[-1]

    def q(row: int) -> str:
        return f"q{rows.setdefault(row, len(rows))}"

    def read(row: int) -> str:
        i = rows.setdefault(row, len(rows))
        if not in_locals:
            return f"state[R[q{i}]]" if slow else f"state[p{i}]"
        loaded.setdefault(i)
        return "F" if row in ones else f"r{i}"

    def write(row: int) -> str:
        ones.discard(row)
        counted.pop(row, None)
        if in_locals:
            stored.setdefault(rows.setdefault(row, len(rows)))
        return read(row)

    def const(index: int) -> str:
        return f"k{slots.setdefault(index, len(slots))}" if index else "F"

    def hook(mask: Optional[np.ndarray]) -> str:
        if mask is None:
            return "None"
        return f"h{masks.setdefault(id(mask), (len(masks), mask))[0]}"

    def store(row: int, not_mask: Optional[int], mask: np.ndarray) -> None:
        # Write the value t into the row's columns outside not_mask.
        if counting and not_mask is None:
            stored_count, known = count("t")
            emit(f"wc += {stored_count}")
        else:
            known = None
            emit("wc += t.bit_count()")
        if slow:
            emit(f"pre = None if hook is None else array.unpack_row({q(row)})")
        kept = "" if not_mask is None else f"{read(row)} & {const(not_mask)} | "
        emit(f"{write(row)} = {kept}t")
        if known:
            # A full-row store leaves the row holding exactly t.
            counted[row] = known
        if slow:
            emit("if faults: apply()")
            hooked = f"hook.on_write(array, {q(row)}, {hook(mask)}, pre)"
            emit(f"if hook is not None: {hooked}")

    for item in items:
        kind = item[0]
        if kind == "nor":
            _, in_rows, out_row, m, not_m, mask = item
            t = " | ".join(read(row) for row in in_rows)
            if m is not None:
                t = f"({t}) & {const(m)}"
            if not (in_locals and t.isidentifier()):
                emit(f"t = {t}")
                t = "t"
            proven = out_row in ones
            o = read(out_row)
            if not in_locals:
                emit(f"o = {o}")
                o = "o"
            if strict:
                if not proven:
                    check = f"{o} != F"
                    if m is not None:
                        check = f"{o} & {const(m)} != {const(m)}"
                    emit(f"if {check}: raise U({q(out_row)})")
                known = None
                if counting and len(in_rows) == 1 and m is None:
                    # A NOT of a row whose count is known reuses it.
                    known = counted.get(in_rows[0])
                if known is None:
                    expr, known = count(t) if counting else (f"{t}.bit_count()", None)
                    emit(f"rc += {expr}")
                elif known != "0":
                    emit(f"rc += {known}")
                    uses_n = uses_n or known.startswith("N")
                emit(f"{write(out_row)} = {o} ^ {t}")
                if known is not None and (proven or m is None):
                    # The output was all ones: it now holds F ^ t.
                    counted[out_row] = complement(known)
            else:
                emit(f"rc += ({t} & {o}).bit_count()")
                kept = "" if m is None else f"{o} & {const(not_m)} | "
                emit(f"{write(out_row)} = {kept}{const(m or 0)} ^ {t}")
            if slow:
                emit("if faults: apply()")
                hooked = f"hook.on_nor(array, {q(out_row)}, {hook(mask)})"
                emit(f"if hook is not None: {hooked}")
        elif kind == "init":
            _, init_rows, m = item
            for row in init_rows:
                if m is None:
                    emit(f"{write(row)} = F")
                    if in_locals:
                        ones.add(row)
                    if counting:
                        counted[row] = "N"
                elif row not in ones:
                    emit(f"{write(row)} |= {const(m)}")
            if slow:
                emit("if faults: apply()")
        elif kind == "shift":
            _, src, dst, offset, keep, not_window, fill, mask = item
            shifted = f"{read(src)} & {const(keep)}"
            if offset:
                shifted = f"({shifted}) {'<<' if offset > 0 else '>>'} {abs(offset)}"
            emit(f"t = {shifted}" if fill is None else f"t = {shifted} | {const(fill)}")
            store(dst, not_window, mask)
        elif kind == "write":
            _, row, spec, start, not_field, mask = item
            emit(f"t = W[{spec}] << {start}" if start else f"t = W[{spec}]")
            store(row, not_field, mask)
        elif kind == "read":
            sensed.append(f"x{len(sensed)}")
            emit(f"{sensed[-1]} = {read(item[1])}")
            if slow:
                emit(f"if hook is not None: hook.on_read(array, {q(item[1])})")
        else:  # call
            emit(f"{item[1]}(state, K, W, acc{', array, hook' if slow else ''})")

    args = ["state", "K", "W", "acc"] + (["array", "hook"] if slow else [])
    args += [f"p{i}" for i in range(len(rows))] + [f"q{i}" for i in range(len(rows))]
    args += [f"s{j}" for j in range(len(slots))] + [f"h{j}" for j in range(len(masks))]
    head = ["    F = K[0]"] + [f"    k{j} = K[s{j}]" for j in range(len(slots))]
    if slow:
        head += ["    R = array._row_map", "    faults = array._faults"]
        head.append("    apply = array._apply_faults")
    head += [f"    r{i} = state[p{i}]" for i in loaded]
    if uses_n:
        head.append("    N = F.bit_count()")
    head += ["    rc = wc = 0", "    try:"]
    tail = ["    finally:"] + [f"        state[p{i}] = r{i}" for i in stored]
    tail += ["        acc[0] += rc", "        acc[1] += wc"]
    tail.append(f"    return [{', '.join(sensed)}]")
    body = [f"        {line}" for line in lines or ["pass"]]
    source = "\n".join([f"def {name}({', '.join(args)}):"] + head + body + tail)
    values = [row_map[row] for row in rows] + list(rows) + list(slots)
    return name, source, tuple(values + [mask for _, mask in masks.values()])


def _tick_batch(clock: Clock, compiled: CompiledProgram, lanes: int) -> None:
    """Advance *clock* by one lock-step replay of *compiled* over
    *lanes* lanes and record its ``magic.program`` telemetry span."""
    begin_cc = clock.cycles
    for opcode, cycles in compiled.cycles_by_opcode.items():
        clock.tick(cycles, category=opcode)
    tracer = _telemetry.active()
    if tracer is not None:
        tracer.record(
            "magic.program",
            begin_cc,
            clock.cycles,
            label=compiled.label or "program",
            ops=len(compiled.program),
            lanes=lanes,
            nor=compiled.stat_counts.get("nor_ops", 0)
            + compiled.stat_counts.get("not_ops", 0),
        )


def _uninitialised(out_row: int) -> MagicProtocolError:
    return MagicProtocolError(
        f"NOR output row {out_row} not initialised to logic one in every lane"
    )


class WordPackedMagicExecutor:
    """Replays compiled programs against a :class:`WordPackedCrossbarArray`.

    The word-packed fast path of the batched executor: every physical
    row is one big integer holding every lane's columns side by side
    (lane-major, exactly ``batch * cols`` bits), so a row-parallel NOR
    over the whole batch is a handful of bitwise integer operations.  A
    replay binds each WRITE operand as one lane-major row (a
    :class:`LaneRows` row as it stands, checked with one mask; per-lane
    dicts are packed, near-linear in the row), calls the program's
    generated straight-line code (:meth:`_WordLoweredProgram.replay`)
    for the array's row map and strictness, on the slow path when a
    fault hook or a pinned fault is present, with the batch's constants
    tuple, and returns each READ as one lane-major row
    (:class:`LaneRuns`); a lane's results are split out only when that
    lane is indexed.  Switching energy costs at most one
    ``int.bit_count`` per event (the strict fast path reuses the counts
    it already knows), added to the array's counters once per replay;
    the array reports one energy total
    (:meth:`WordPackedCrossbarArray.total_energy_fj`), equal to the sum
    of the scalar oracle's lanes, so each lane's
    :attr:`RunStats.energy_fj` is ``nan``.  Write counters are one
    precomputed per-program delta — per-lane results, cycle counts and
    write counters stay bit-identical to the oracle.
    """

    def __init__(
        self,
        array: WordPackedCrossbarArray,
        clock: Optional[Clock] = None,
        fault_hook=None,
    ):
        self.array = array
        self.clock = clock if clock is not None else Clock()
        self.fault_hook = fault_hook

    def compile(self, program: Program) -> CompiledProgram:
        """*program*'s compiled form for this array's geometry."""
        return program.compiled(self.array.rows, self.array.cols)

    # ------------------------------------------------------------------
    def execute(self, program, bindings) -> LaneRuns:
        """Execute a :class:`Program` or :class:`CompiledProgram` over
        the array's lanes.

        *bindings* holds the WRITE operands, one lane per item: a
        :class:`LaneRows` binds its rows as they stand, a sequence of
        per-lane ``{name: value}`` dicts is packed lane by lane.  Returns
        the :class:`LaneRuns`: the READ results as lane-major rows,
        split into per-lane stats only when a lane is indexed.
        """
        compiled = (
            program
            if isinstance(program, CompiledProgram)
            else self.compile(program)
        )
        array = self.array
        batch = array.batch
        check_bindings(compiled, bindings, array.rows, array.cols, batch)
        lowered = compiled.word
        packed = bound_rows(compiled, bindings, array.cols)

        row_map = tuple(array._row_map)
        hook = self.fault_hook
        # Hooks and pinned faults are the slow path; nothing else can
        # pin a fault mid-replay, so the choice holds for the replay.
        slow = hook is not None or bool(array._faults)
        replay = lowered.replay(row_map, array.strict_magic, slow)
        device = array.device
        # Switched cells per coefficient: RESETs, then writes.
        counts = [0, 0]
        try:
            sensed = replay(
                array._state,
                lowered.constants(batch),
                packed,
                counts,
                *((array, hook) if slow else ()),
            )
        finally:
            # Also when a strict check raised mid-replay: the gates
            # before it stay counted.
            array._add_energy_cells(device.e_reset_fj, counts[0])
            array._add_energy_cells(device.e_set_fj - device.e_reset_fj, counts[1])

        array._energy_const += lowered.energy_const_fj(device)
        array.writes += lowered.writes_delta(row_map, array.phys_rows)
        _tick_batch(self.clock, compiled, batch)

        sensed = LaneRows(lowered.sensed_rows(sensed, batch), batch, array.cols)
        return LaneRuns(sensed, compiled)
