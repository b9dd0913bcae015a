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
  geometry (parsed, validated, column masks and field slices
  precomputed) into a :class:`CompiledProgram` the program keeps
  (:meth:`Program.compiled`), lowered once to physical-row replay
  plans (one step per gate, big-integer masks, rows already through
  the remap table) the compiled form keeps, then replayed against a
  :class:`WordPackedCrossbarArray` whose rows each pack every lane
  into one Python integer, lane by lane, each lane's columns side by
  side.

Per-lane results, cycle counts and write counters of the SIMD path are
bit-identical to running the scalar executor once per lane, and its
array's one energy total equals the sum of the per-lane energies (the
``scalar`` backend of :mod:`repro.magic.backend` does exactly that, and
is the oracle the SIMD path is differentially tested against).

Data enters a program through *bindings* (name -> integer) consumed by
WRITE ops and leaves through *results* (name -> integer) produced by
READ ops; both are LSB-first bit fields within a row.  Results are
per-run: each :meth:`MagicExecutor.execute` clears the previous run's
mapping and also attaches its own mapping to the returned stats.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crossbar.array import (
    CrossbarArray,
    WordPackedCrossbarArray,
    _lane_spread,
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


def pack_lanes(values: Sequence[int], width: int, lane_bits: int) -> int:
    """Bit-slice per-lane values position-major into one integer (the
    row multiplier's layout, :mod:`repro.arith.rowmul`).

    Bit ``i * lane_bits + lane`` of the result is bit *i* of
    ``values[lane]``.  Lanes past ``len(values)`` repeat the last value.
    At one lane the field is the (validated) value itself, and nothing
    is packed.
    """
    if lane_bits == 1:
        (value,) = values
        _check_storable((value,), width)
        return value
    bits = pack_ints(values, width)
    if width == 0:
        return 0
    if lane_bits != bits.shape[0]:
        pad = np.broadcast_to(bits[-1:], (lane_bits - bits.shape[0], width))
        bits = np.concatenate([bits, pad], axis=0)
    raw = np.packbits(np.ascontiguousarray(bits.T).reshape(-1), bitorder="little")
    return int.from_bytes(raw.tobytes(), "little")


def unpack_lanes(value: int, width: int, lane_bits: int, lanes: int) -> List[int]:
    """The first *lanes* per-lane integers of a :func:`pack_lanes` field."""
    if lane_bits == 1:
        return [value][:lanes]
    if width == 0:
        return [0] * lanes
    total = width * lane_bits
    raw = np.frombuffer(value.to_bytes((total + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[:total].reshape(width, lane_bits)
    return unpack_ints(np.ascontiguousarray(bits[:, :lanes].T))


#: Compiled-step opcodes.  _PACK carries a gang of independent NOR
#: gates retired in one cycle.
_INIT, _NOR, _WRITE, _READ, _SHIFT, _NOP, _PACK = range(7)

#: Word replay-plan gate kinds (plans reuse _INIT/_WRITE/_READ/_SHIFT):
#: a strict full-width gate of one or two inputs, and every other gate.
_NOR1, _NOR2, _GATE = range(7, 10)

#: RunStats counter attribute per micro-op opcode.
_STAT_FIELD = {
    "init": "init_ops",
    "nor": "nor_ops",
    "not": "not_ops",
    "write": "write_ops",
    "read": "read_ops",
    "shift": "shift_ops",
}


class CompiledProgram:
    """A :class:`Program` lowered for replay at near-zero Python cost.

    Compilation validates every op against the target array geometry,
    materialises column masks and field slices once, and precomputes the
    static stats (cycle count, op histogram, per-category cycles).  The
    compiled form is immutable and reusable: one compile per program
    and geometry (build it through :meth:`Program.compiled`), any
    number of :meth:`WordPackedMagicExecutor.execute` (or
    scalar-oracle) replays with fresh bindings.
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
        self.steps: List[tuple] = []
        self._compile(program)

    # ------------------------------------------------------------------
    def _col_mask(self, cols) -> Optional[np.ndarray]:
        if cols is None:
            return None
        start, stop = cols
        if not (0 <= start < stop <= self.cols):
            raise ProgramError(
                f"column range {cols} outside array width {self.cols}"
            )
        if start == 0 and stop == self.cols:
            # Full-width window: lower to the unmasked fast path (a
            # full-ones mask selects the same cells, so accounting is
            # unchanged).
            return None
        mask = np.zeros(self.cols, dtype=bool)
        mask[start:stop] = True
        return mask

    def _field(self, col_offset: int, width: Optional[int]) -> slice:
        if width is None:
            width = self.cols - col_offset
        if col_offset < 0 or col_offset + width > self.cols:
            raise ProgramError(
                f"field [{col_offset}, {col_offset + width}) outside array"
            )
        return slice(col_offset, col_offset + width)

    def _compile(self, program: Program) -> None:
        specs_seen: Dict[Tuple[str, int], None] = {}
        # A repeated op object (``ProgramBuilder.concat`` reuses the ops
        # of an adder program across passes) lowers to one shared step.
        steps_of: Dict[int, tuple] = {}
        for op in program:
            step = steps_of.get(id(op))
            if step is None:
                op.validate(self.rows, self.cols)
                step = steps_of[id(op)] = self._lower(op)
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
            if step[0] == _WRITE:
                specs_seen.setdefault(step[4])
            self.steps.append(step)
        self.write_specs = list(specs_seen)

    def _lower(self, op) -> tuple:
        """The replay step of one validated op."""
        if isinstance(op, (ParallelNor, ParallelNot)):
            gang = []
            for g in op.gates:
                in_rows = list(g.in_rows) if isinstance(g, Nor) else [g.in_row]
                gang.append((in_rows, g.out_row, self._col_mask(g.cols)))
            return (_PACK, tuple(gang))
        if isinstance(op, Init):
            return (_INIT, tuple(dict.fromkeys(op.rows)), self._col_mask(op.cols))
        if isinstance(op, Nor):
            return (_NOR, list(op.in_rows), op.out_row, self._col_mask(op.cols))
        if isinstance(op, Not):
            return (_NOR, [op.in_row], op.out_row, self._col_mask(op.cols))
        if isinstance(op, Write):
            field = self._field(op.col_offset, op.width)
            if field.start == 0 and field.stop == self.cols:
                mask = None
            else:
                mask = np.zeros(self.cols, dtype=bool)
                mask[field] = True
            spec = (op.name, field.stop - field.start)
            return (_WRITE, op.row, field, mask, spec)
        if isinstance(op, Read):
            field = self._field(op.col_offset, op.width)
            return (_READ, op.row, field, op.name)
        if isinstance(op, Shift):
            mask = self._col_mask(op.cols)
            window = slice(0, self.cols) if op.cols is None else slice(*op.cols)
            return (
                _SHIFT,
                op.src_row,
                op.dst_row,
                op.offset,
                bool(op.fill),
                window,
                mask,
                tuple(dict.fromkeys(op.also_init)),
            )
        if isinstance(op, Nop):
            return (_NOP,)
        raise ProgramError(f"unknown micro-op {op!r}")  # pragma: no cover

    def __len__(self) -> int:
        return len(self.steps)

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
        if cols is None:
            return None
        start, stop = cols
        if not (0 <= start < stop <= self.array.cols):
            raise ProgramError(
                f"column range {cols} outside array width {self.array.cols}"
            )
        mask = np.zeros(self.array.cols, dtype=bool)
        mask[start:stop] = True
        return mask

    def _field(self, col_offset: int, width: Optional[int]) -> slice:
        if width is None:
            width = self.array.cols - col_offset
        if col_offset < 0 or col_offset + width > self.array.cols:
            raise ProgramError(
                f"field [{col_offset}, {col_offset + width}) outside array"
            )
        return slice(col_offset, col_offset + width)

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


class _WordLoweredProgram:
    """A :class:`CompiledProgram` lowered to physical-row replay plans.

    One lowering exists per compiled program (:attr:`CompiledProgram
    .word`, so it is shared wherever the compiled program is).  It
    precomputes the
    program's data-independent accounting once: the per-lane pulse-cell
    counts (set/reset/read) behind the constant part of the energy
    model, and the write-pulse *recipe* from which a per-row-map
    ``(phys_rows, cols)`` write-counter delta is materialised once and
    replayed per batch.

    :meth:`plan` turns the compiled steps into the flat step list
    :meth:`WordPackedMagicExecutor.execute` replays, once per
    ``(batch, row map, strict)``: rows are already physical, a packed
    gang is one step per gate, every column mask, field and shift
    window is a big-int over the plan's lanes (equal ones built once),
    and a whole-row INIT stores the all-ones row.  A strict full-width
    gate with one or two inputs gets its own step kind; masked, wider
    and non-strict gates share the general one.  Gates keep their logical output row for hooks and
    error messages.  Plans of one row map and strictness share their
    lane-free gate steps, a repeated compiled step (one op a
    mega-program concatenates many times) reuses the entries of its
    first occurrence, and NOPs (pure idle cycles) are dropped.
    """

    __slots__ = (
        "cols",
        "set_cells",
        "reset_cells",
        "read_cells",
        "writes_recipe",
        "_writes_deltas",
        "_steps",
        "_plans",
    )

    def __init__(self, compiled: CompiledProgram):
        cols = self.cols = compiled.cols
        self.set_cells = 0
        self.reset_cells = 0
        self.read_cells = 0
        #: (logical row, column mask or None) per write pulse.
        self.writes_recipe: List[Tuple[int, Optional[np.ndarray]]] = []
        #: (row_map, phys_rows) -> materialised (phys_rows, cols) delta.
        self._writes_deltas: Dict[tuple, np.ndarray] = {}
        #: The compiled steps plans are built from (not the compiled
        #: program itself, which holds this lowering).
        self._steps = compiled.steps
        #: (batch, row_map, strict) -> replay plan.
        self._plans: Dict[tuple, List[tuple]] = {}

        for step in compiled.steps:
            code = step[0]
            if code == _NOR or code == _PACK:
                for in_rows, out_row, mask in (
                    (step[1:],) if code == _NOR else step[1]
                ):
                    if out_row in in_rows:
                        # Row maps are injective, so logical aliasing is
                        # exactly physical aliasing; reject it once here
                        # instead of on every replay.
                        raise MagicProtocolError(
                            f"output row {out_row} cannot also be a NOR input"
                        )
                    self.writes_recipe.append((out_row, mask))
            elif code == _INIT:
                _, rows, mask = step
                cells = cols if mask is None else int(mask.sum())
                self.set_cells += cells * len(rows)
                for row in rows:
                    self.writes_recipe.append((row, mask))
            elif code == _WRITE:
                _, row, field, mask, spec = step
                # A full-row field lowers its mask to None; either way
                # the driven cells are exactly the field's.
                self.reset_cells += field.stop - field.start
                self.writes_recipe.append((row, mask))
            elif code == _READ:
                # The batched read senses the full row (unmasked).
                self.read_cells += cols
            elif code == _SHIFT:
                _, src, dst, offset, fill, window, mask, also_init = step
                span = window.stop - window.start
                # One sensed read of the window, one masked write-back,
                # plus a piggy-backed INIT of each listed row.
                self.read_cells += span
                self.reset_cells += span
                self.set_cells += span * len(also_init)
                self.writes_recipe.append((dst, mask))
                for row in also_init:
                    self.writes_recipe.append((row, mask))

    def plan(self, batch: int, row_map: tuple, strict: bool) -> List[tuple]:
        """Replay steps over *batch* lanes, rows resolved through
        *row_map*, for a strict or non-strict array (built once per
        key)."""
        key = (batch, row_map, strict)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._build_plan(batch, row_map, strict)
        return plan

    def _build_plan(self, batch: int, row_map: tuple, strict: bool) -> List[tuple]:
        cols = self.cols
        full = (1 << (cols * batch)) - 1
        repunit = _repunit(batch, cols)
        # A plan of the same row map and strictness at another batch
        # lines up step for step; its lane-free entries are reused.
        sibling = next(
            (
                plan
                for (_, rows, is_strict), plan in self._plans.items()
                if rows == row_map and is_strict == strict
            ),
            None,
        )
        # Equal masks, fields and shift windows share one big-int each.
        by_mask: Dict[bytes, tuple] = {}
        by_field: Dict[tuple, tuple] = {}
        by_window: Dict[tuple, tuple] = {}

        def span(start: int, stop: int) -> int:
            # Every lane of columns [start, stop) (none if empty).
            if start >= stop:
                return 0
            return (((1 << (stop - start)) - 1) << start) * repunit

        def masked(mask: Optional[np.ndarray]) -> tuple:
            # (m, full ^ m) of a column mask; equal masks share one pair.
            if mask is None:
                return full, 0
            key = mask.tobytes()
            pair = by_mask.get(key)
            if pair is None:
                m = _lane_spread(mask, batch)
                pair = by_mask[key] = (m, full ^ m)
            return pair

        def lane_free(entry: tuple) -> tuple:
            # An entry that holds no lane mask: the sibling's, if any.
            return entry if sibling is None else sibling[len(out)]

        def init(phys: tuple, mask: Optional[int]) -> None:
            # A whole-row INIT (mask None) stores the all-ones row.
            entry = (_INIT, phys, mask)
            out.append(entry if mask is not None else lane_free(entry))

        # A write hook sees the written columns: all of them, unmasked.
        every_col = np.ones(cols, dtype=bool)
        every_col.flags.writeable = False
        out: List[tuple] = []
        # Plan entries per compiled step: a repeated step (a shared op
        # lowered once) reuses the entries of its first occurrence.
        entries_of: Dict[int, List[tuple]] = {}
        for step in self._steps:
            entries = entries_of.get(id(step))
            if entries is not None:
                out.extend(entries)
                continue
            start = len(out)
            code = step[0]
            if code == _NOR or code == _PACK:
                for in_rows, out_row, mask in (
                    (step[1:],) if code == _NOR else step[1]
                ):
                    dst = row_map[out_row]
                    if strict and mask is None and len(in_rows) <= 2:
                        if len(in_rows) == 1:
                            entry = (_NOR1, row_map[in_rows[0]], dst, out_row)
                        else:
                            a, b = in_rows
                            entry = (_NOR2, row_map[a], row_map[b], dst, out_row)
                        out.append(lane_free(entry))
                        continue
                    phys = [row_map[row] for row in in_rows]
                    out.append(
                        (
                            _GATE,
                            phys[0],
                            tuple(phys[1:]),
                            dst,
                            out_row,
                            *masked(mask),
                            mask,
                        )
                    )
            elif code == _INIT:
                _, rows, mask = step
                phys = tuple(row_map[row] for row in rows)
                init(phys, None if mask is None else masked(mask)[0])
            elif code == _WRITE:
                _, row, field, mask, spec = step
                key = (field.start, field.stop)
                pair = by_field.get(key)
                if pair is None:
                    pair = by_field[key] = (
                        field.start,
                        full ^ span(field.start, field.stop),
                    )
                write_mask = every_col if mask is None else mask
                out.append((_WRITE, row_map[row], row, spec, *pair, write_mask))
            elif code == _READ:
                _, row, field, name = step
                width = field.stop - field.start
                out.append(
                    lane_free(
                        (_READ, row_map[row], row, field.start, (1 << width) - 1, name)
                    )
                )
            elif code == _SHIFT:
                _, src, dst, offset, fill, window, mask, also_init = step
                key = (window.start, window.stop, offset, fill)
                masks = by_window.get(key)
                if masks is None:
                    lo, hi = window.start, window.stop
                    window_mask = span(lo, hi)
                    if not fill:
                        fill_mask = 0
                    elif offset >= 0:
                        fill_mask = span(lo, min(lo + offset, hi))
                    else:
                        fill_mask = span(max(hi + offset, lo), hi)
                    # The source columns that land inside the window: a
                    # shifted lane cannot spill into its neighbour.
                    keep = span(max(lo, lo - offset), min(hi, hi - offset))
                    masks = by_window[key] = (
                        keep,
                        full ^ window_mask,
                        fill_mask,
                        None if mask is None else window_mask,
                    )
                keep, not_window, fill_mask, init_mask = masks
                out.append(
                    (
                        _SHIFT,
                        row_map[src],
                        row_map[dst],
                        dst,
                        offset,
                        keep,
                        not_window,
                        fill_mask,
                        every_col if mask is None else mask,
                    )
                )
                if also_init:
                    # The piggy-backed INIT of the write cycle, replayed
                    # right after the write as the window's own INIT.
                    init(tuple(row_map[row] for row in also_init), init_mask)
            # _NOP: an idle cycle, nothing to replay.
            entries_of[id(step)] = out[start:]
        return out

    def energy_const_fj(self, device) -> float:
        """Data-independent per-lane energy of one replay on *device*."""
        return (
            device.e_set_fj * self.set_cells
            + device.e_reset_fj * self.reset_cells
            + device.e_read_fj * self.read_cells
        )

    def writes_delta(
        self, row_map: Sequence[int], phys_rows: int, cols: int
    ) -> np.ndarray:
        """Write-counter delta of one replay under *row_map*.

        Pulse placement is data-independent, so the delta is a static
        property of (program, remap table); it is materialised once per
        distinct row map and added to the array's counters per batch.
        """
        key = (tuple(row_map), phys_rows)
        delta = self._writes_deltas.get(key)
        if delta is None:
            delta = np.zeros((phys_rows, cols), dtype=np.int64)
            for row, mask in self.writes_recipe:
                phys = row_map[row]
                if mask is None:
                    delta[phys] += 1
                else:
                    delta[phys][mask] += 1
            self._writes_deltas[key] = delta
        return delta


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
            ops=len(compiled.steps),
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
    replay walks the program's physical-row plan (see
    :class:`_WordLoweredProgram`) for the array's batch, row map and
    strictness, one Python step per gate: a strict NOR writes back with
    one XOR, a SHIFT shifts the source row's in-window columns once, and
    full-width gates apply no mask.  A WRITE operand is each lane's
    value shifted to its lane's field and ORed together; a READ result
    is each lane's field shifted out and masked.  Fault hooks and pinned
    faults are served in the same loop behind one flag.
    Accounting is deferred: data-dependent switching energy costs one
    ``int.bit_count`` per event, into two local totals added to the
    array's counters once per replay, at every lane count.  The array
    reports one energy total
    (:meth:`WordPackedCrossbarArray.total_energy_fj`), equal to the sum
    of the scalar oracle's lanes; per-lane energy is not kept, so each
    lane's :attr:`RunStats.energy_fj` is ``nan``.  Write counters are
    applied as one precomputed per-program delta — per-lane results,
    cycle counts and write counters stay bit-identical to the oracle.
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
    def execute(
        self,
        program,
        bindings_list: Sequence[Dict[str, int]],
    ) -> List[RunStats]:
        """Execute a :class:`Program` or :class:`CompiledProgram` with
        one binding set per lane; returns one :class:`RunStats` per lane.
        """
        compiled = (
            program
            if isinstance(program, CompiledProgram)
            else self.compile(program)
        )
        array = self.array
        if compiled.rows != array.rows or compiled.cols != array.cols:
            raise ProgramError(
                f"program compiled for {compiled.rows}x{compiled.cols} "
                f"cannot run on {array.rows}x{array.cols}"
            )
        batch = array.batch
        if len(bindings_list) != batch:
            raise ProgramError(
                f"got {len(bindings_list)} binding sets for {batch} lanes"
            )
        lowered = compiled.word
        # Lane *lane*'s field starts at bit lane * cols of a row.
        lane_shifts = range(0, batch * array.cols, array.cols)
        packed: Dict[Tuple[str, int], int] = {}
        for name, width in compiled.write_specs:
            try:
                values = [bindings[name] for bindings in bindings_list]
            except KeyError:
                raise ProgramError(
                    f"WRITE references unbound operand {name!r}"
                ) from None
            _check_storable(values, width)
            word = 0
            for value, lane_shift in zip(values, lane_shifts):
                word |= value << lane_shift
            packed[(name, width)] = word

        results: List[Dict[str, int]] = [{} for _ in range(batch)]
        row_map = tuple(array._row_map)
        strict = array.strict_magic
        plan = lowered.plan(batch, row_map, strict)
        hook = self.fault_hook
        # Hooks and pinned faults are the slow path; nothing else can
        # pin a fault mid-replay, so the flag holds for the whole loop.
        slow = hook is not None or bool(array._faults)
        device = array.device
        e_reset = device.e_reset_fj
        w_coeff = device.e_set_fj - e_reset
        state = array._state
        full = array._full
        # Switching energy per coefficient: set-cell counts in two
        # locals, added to the array's counters once per replay.
        reset_cells = write_cells = 0
        try:
            for step in plan:
                code = step[0]
                if code == _NOR1:
                    _, src, dst, out_row = step
                    out = state[dst]
                    if out != full:
                        raise _uninitialised(out_row)
                    # out is all ones and the input lies inside it, so
                    # flipping the input writes the NOR, and the input's
                    # set cells are the RESET events.
                    am = state[src]
                    reset_cells += am.bit_count()
                    state[dst] = out ^ am
                    if slow:
                        if array._faults:
                            array._apply_faults()
                        if hook is not None:
                            hook.on_nor(array, out_row, None)
                elif code == _NOR2:
                    _, a, b, dst, out_row = step
                    out = state[dst]
                    if out != full:
                        raise _uninitialised(out_row)
                    am = state[a] | state[b]
                    reset_cells += am.bit_count()
                    state[dst] = out ^ am
                    if slow:
                        if array._faults:
                            array._apply_faults()
                        if hook is not None:
                            hook.on_nor(array, out_row, None)
                elif code == _SHIFT:
                    (
                        _,
                        src,
                        dst,
                        dst_row,
                        offset,
                        keep,
                        not_window,
                        fill_mask,
                        write_mask,
                    ) = step
                    sh = state[src] & keep
                    if offset >= 0:
                        sh <<= offset
                    else:
                        sh >>= -offset
                    sh |= fill_mask
                    write_cells += sh.bit_count()
                    pre = None
                    if slow and hook is not None:
                        pre = array.unpack_row(dst_row)
                    state[dst] = (state[dst] & not_window) | sh
                    if slow:
                        if array._faults:
                            array._apply_faults()
                        if hook is not None:
                            hook.on_write(array, dst_row, write_mask, pre)
                elif code == _WRITE:
                    _, phys, row, spec, shift, not_field, write_mask = step
                    value = packed[spec] << shift
                    write_cells += value.bit_count()
                    pre = None
                    if slow and hook is not None:
                        pre = array.unpack_row(row)
                    state[phys] = (state[phys] & not_field) | value
                    if slow:
                        if array._faults:
                            array._apply_faults()
                        if hook is not None:
                            hook.on_write(array, row, write_mask, pre)
                elif code == _INIT:
                    _, rows, m = step
                    if m is None:
                        for phys in rows:
                            state[phys] = full
                    else:
                        for phys in rows:
                            state[phys] |= m
                    if slow and array._faults:
                        array._apply_faults()
                elif code == _GATE:
                    _, first, rest, dst, out_row, m, not_m, np_mask = step
                    any_one = state[first]
                    for row in rest:
                        any_one |= state[row]
                    am = any_one & m
                    out = state[dst]
                    if strict:
                        if out & m != m:
                            raise _uninitialised(out_row)
                        state[dst] = out ^ am
                    else:
                        state[dst] = (out & not_m) | (m ^ am)
                        am &= out
                    reset_cells += am.bit_count()
                    if slow:
                        if array._faults:
                            array._apply_faults()
                        if hook is not None:
                            hook.on_nor(array, out_row, np_mask)
                else:  # _READ
                    _, phys, row, start, field_mask, name = step
                    word = state[phys] >> start
                    for lane_results, lane_shift in zip(results, lane_shifts):
                        lane_results[name] = (word >> lane_shift) & field_mask
                    if slow and hook is not None:
                        hook.on_read(array, row)
        finally:
            # Also when a strict check raised mid-replay: the gates
            # before it stay counted.
            array._add_energy_cells(e_reset, reset_cells)
            array._add_energy_cells(w_coeff, write_cells)

        array._energy_const += lowered.energy_const_fj(device)
        array.writes += lowered.writes_delta(row_map, array.phys_rows, array.cols)
        _tick_batch(self.clock, compiled, batch)

        stats_list = []
        for lane in range(batch):
            stats = RunStats(
                cycles=compiled.cycle_count,
                # The array counts one energy total, not one per lane.
                energy_fj=math.nan,
                op_counts=dict(compiled.op_counts),
                results=results[lane],
            )
            for field_name, count in compiled.stat_counts.items():
                setattr(stats, field_name, count)
            stats_list.append(stats)
        return stats_list
