"""Bit-level ReRAM crossbar array with in-memory logic primitives.

The array stores one bit per memristor in a ``rows x cols`` grid
(Fig. 1a of the paper): horizontal word lines select rows, vertical bit
lines carry write voltages and sense currents.  On top of plain
read/write words it implements the stateful-logic primitives the paper
and its baselines rely on:

* **MAGIC NOR / NOT** (Sec. II-B): row-parallel NOR of one or more input
  rows into an output row whose cells were initialised to logic one.
* **IMPLY** (baseline [6]): material implication, destructive on the
  second operand row.
* **MAJORITY** (baseline [8]): row-parallel three-input majority.

The array is purely *spatial*: it tracks state, per-cell write counts
and injected faults, but not time.  Cycle accounting belongs to the
executors (:mod:`repro.magic.executor` and the baseline models), which
call into this class.

:class:`WordPackedCrossbarArray` is the SIMD lane container of the
batched executor: it bit-slices *batch* independent operand sets into
one big integer per word line, so one micro-op sequence evaluates every
lane in a handful of integer operations.  It is storage and accounting
only: every write, read and gate on it is a micro-op replayed by
:class:`repro.magic.executor.WordPackedMagicExecutor`.  Write-pulse
counts are data-independent (every lane sees the same pulses for the
same op sequence), so the write counters stay ``(rows, cols)`` with
per-lane semantics; energy is counted once for the whole array (one
total over every lane, not one figure per lane).
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.crossbar.device import DeviceModel
from repro.sim.exceptions import (
    AddressError,
    FaultInjectionError,
    MagicProtocolError,
    SpareRowsExhaustedError,
)

#: Supported stuck-at fault kinds.
FAULT_STUCK_AT_0 = "sa0"
FAULT_STUCK_AT_1 = "sa1"
_FAULT_KINDS = (FAULT_STUCK_AT_0, FAULT_STUCK_AT_1)


class CrossbarArray:
    """A simulated memristive crossbar.

    Parameters
    ----------
    rows, cols:
        Grid dimensions (word lines x bit lines).
    device:
        Electrical/lifetime parameters shared by every cell.
    strict_magic:
        When true (the default), executing a MAGIC NOR whose output
        cells are not initialised to logic one raises
        :class:`MagicProtocolError` instead of silently computing a
        wrong value.  Disable only for fault-injection studies.
    spare_rows:
        Redundant word lines appended below the logical grid.  Logical
        row addresses stay ``0..rows-1``; :meth:`remap_row` retargets a
        logical row onto a spare physical word line (transparent to
        compiled programs, which only ever see logical addresses).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        device: Optional[DeviceModel] = None,
        strict_magic: bool = True,
        spare_rows: int = 0,
    ):
        if rows <= 0 or cols <= 0:
            raise ValueError(f"crossbar dimensions must be positive, got {rows}x{cols}")
        if spare_rows < 0:
            raise ValueError(f"spare_rows must be non-negative, got {spare_rows}")
        self.rows = rows
        self.cols = cols
        self.spare_rows = spare_rows
        self.device = device if device is not None else DeviceModel()
        self.strict_magic = strict_magic
        self.state = np.zeros((rows + spare_rows, cols), dtype=bool)
        self.writes = np.zeros((rows + spare_rows, cols), dtype=np.int64)
        self.energy_fj = 0.0
        #: Faults are keyed by *physical* coordinates, so remapping a
        #: logical row onto a spare leaves the defect behind.
        self._faults: Dict[Tuple[int, int], str] = {}
        #: Logical -> physical word-line translation.
        self._row_map = list(range(rows))
        self._spares_free = list(range(rows, rows + spare_rows))

    # ------------------------------------------------------------------
    # Addressing helpers
    # ------------------------------------------------------------------
    @property
    def cells(self) -> int:
        """Total number of logical memristors in the array."""
        return self.rows * self.cols

    @property
    def phys_rows(self) -> int:
        """Physical word lines, including spares."""
        return self.rows + self.spare_rows

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside 0..{self.rows - 1}")

    def _row(self, row: int) -> int:
        """Translate a logical row address to its physical word line."""
        self._check_row(row)
        return self._row_map[row]

    def physical_row(self, row: int) -> int:
        """Public logical->physical translation (fault models need it to
        corrupt the cells actually backing a logical row)."""
        return self._row(row)

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.cols:
            raise AddressError(f"col {col} outside 0..{self.cols - 1}")

    def _mask(self, mask: Optional[np.ndarray]) -> np.ndarray:
        if mask is None:
            return np.ones(self.cols, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.cols,):
            raise AddressError(
                f"column mask shape {mask.shape} != ({self.cols},)"
            )
        return mask

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_fault(self, row: int, col: int, kind: str) -> None:
        """Pin the cell currently backing logical (*row*, *col*).

        The fault attaches to the *physical* word line the logical row
        maps to right now — remapping the row afterwards leaves the
        defective cell stranded on the retired physical line.
        """
        phys = self._row(row)
        self._check_col(col)
        if kind not in _FAULT_KINDS:
            raise FaultInjectionError(f"unknown fault kind {kind!r}")
        self._faults[(phys, col)] = kind
        self.state[phys, col] = kind == FAULT_STUCK_AT_1

    def clear_faults(self) -> None:
        """Remove all injected faults (cell values keep their last state)."""
        self._faults.clear()

    @property
    def fault_count(self) -> int:
        return len(self._faults)

    @property
    def faults(self) -> Dict[Tuple[int, int], str]:
        """Read-only copy of the injected fault map.

        Keys are *physical* ``(row, col)`` coordinates; values are the
        fault kinds (``"sa0"`` / ``"sa1"``).
        """
        return dict(self._faults)

    def _apply_faults(self) -> None:
        for (row, col), kind in self._faults.items():
            self.state[row, col] = kind == FAULT_STUCK_AT_1

    def repin_faults(self) -> None:
        """Re-assert every pinned fault onto the state.

        Public hook for fault models and repair paths that mutate
        ``state`` directly and must keep permanent defects visible.
        """
        self._apply_faults()

    # ------------------------------------------------------------------
    # Spare-row remapping & write-verify diagnosis
    # ------------------------------------------------------------------
    @property
    def spare_rows_free(self) -> int:
        """Spare word lines still available for remapping."""
        return len(self._spares_free)

    def remap_table(self) -> Dict[int, int]:
        """Logical rows currently remapped, as ``{logical: physical}``."""
        return {
            logical: phys
            for logical, phys in enumerate(self._row_map)
            if phys != logical
        }

    def remap_row(self, row: int) -> int:
        """Retarget logical *row* onto a fresh spare word line.

        The spare is initialised to logic one (the MAGIC steady state a
        freshly-initialised output row would hold); the caller replays
        whatever computation depended on the row.  Returns the physical
        line now backing the row; raises
        :class:`SpareRowsExhaustedError` when no spares remain.
        """
        self._check_row(row)
        if not self._spares_free:
            raise SpareRowsExhaustedError(
                f"cannot remap row {row}: 0 of {self.spare_rows} spare "
                "rows left"
            )
        phys = self._spares_free.pop(0)
        self._row_map[row] = phys
        self.state[phys] = True
        self._apply_faults()
        return phys

    def verify_row_writable(self, row: int) -> bool:
        """March-test logical *row*: write 0s and 1s, sense each back.

        Destructive — the row is left holding all-ones (the MAGIC
        steady state), so run this only during repair, before operands
        are (re)loaded.  Returns ``False`` when any cell fails to take
        either polarity (stuck-at, or a parametric write failure that
        happens to strike the march writes).
        """
        zeros = np.zeros(self.cols, dtype=bool)
        ones = np.ones(self.cols, dtype=bool)
        self.write_row(row, zeros)
        if bool(self.read_row(row).any()):
            self.write_row(row, ones)
            return False
        self.write_row(row, ones)
        return bool(self.read_row(row).all())

    def find_faulty_rows(self, rows: Optional[Iterable[int]] = None) -> list:
        """Write-verify every row in *rows* (default: all logical rows).

        Returns the logical rows that fail the march test.  Destructive
        (rows end holding all-ones) — see :meth:`verify_row_writable`.
        """
        candidates = range(self.rows) if rows is None else rows
        return [row for row in candidates if not self.verify_row_writable(row)]

    # ------------------------------------------------------------------
    # Plain memory operations
    # ------------------------------------------------------------------
    def write_row(
        self, row: int, bits: Sequence[int], mask: Optional[np.ndarray] = None
    ) -> None:
        """Program a full word: the word-line driver selects *row* and
        the write circuit drives every (unmasked) bit line at once."""
        row = self._row(row)
        mask = self._mask(mask)
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (self.cols,):
            raise AddressError(f"word shape {bits.shape} != ({self.cols},)")
        self.state[row, mask] = bits[mask]
        self.writes[row, mask] += 1
        self.energy_fj += float(
            np.where(bits[mask], self.device.e_set_fj, self.device.e_reset_fj).sum()
        )
        self._apply_faults()

    def read_row(self, row: int, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Sense a word via the bit-line sense amplifiers.

        A column *mask* restricts which sense amplifiers are activated:
        only masked cells are charged read energy.  The full row state
        is still returned (callers slice out their window); the energy
        model is what the mask exists for.
        """
        row = self._row(row)
        mask = self._mask(mask)
        self.energy_fj += self.device.e_read_fj * int(mask.sum())
        return self.state[row].copy()

    def write_bit(self, row: int, col: int, bit: int) -> None:
        """Program a single cell."""
        row = self._row(row)
        self._check_col(col)
        self.state[row, col] = bool(bit)
        self.writes[row, col] += 1
        self.energy_fj += self.device.write_energy_fj(int(bit))
        self._apply_faults()

    def read_bit(self, row: int, col: int) -> int:
        row = self._row(row)
        self._check_col(col)
        self.energy_fj += self.device.e_read_fj
        return int(self.state[row, col])

    def peek_row(self, row: int) -> np.ndarray:
        """Current word of logical *row* without sensing (no energy).

        Modelling convenience for read-modify-write composition: a
        masked write only drives its window, so the caller peeks the
        untouched cells rather than charging a full sense operation.
        """
        return self.state[self._row(row)].copy()

    # ------------------------------------------------------------------
    # Stateful logic primitives
    # ------------------------------------------------------------------
    def init_rows(
        self, rows: Iterable[int], mask: Optional[np.ndarray] = None
    ) -> None:
        """Initialise cells in *rows* to logic one (MAGIC preparation).

        Multiple word lines are driven simultaneously, so the MAGIC
        literature counts this as a single cycle regardless of how many
        rows are initialised; it is still one write pulse per cell.  A
        row listed more than once still receives exactly one pulse (the
        word line is either driven or not), so duplicates are counted
        and charged once.
        """
        mask = self._mask(mask)
        for row in dict.fromkeys(rows):
            row = self._row(row)
            self.state[row, mask] = True
            self.writes[row, mask] += 1
            self.energy_fj += self.device.e_set_fj * int(mask.sum())
        self._apply_faults()

    def nor_rows(
        self,
        in_rows: Sequence[int],
        out_row: int,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Row-parallel MAGIC NOR: ``out = NOR(in_rows)`` per bit line.

        Electrically, input word lines are driven at ``V0`` and the
        output row is grounded; output cells conduct enough current to
        switch to logic zero exactly when at least one input cell in the
        same bit line stores logic one.  A single-element *in_rows* is a
        MAGIC NOT.  Output cells must hold logic one beforehand.
        """
        if not in_rows:
            raise MagicProtocolError("MAGIC NOR requires at least one input row")
        in_phys = [self._row(row) for row in in_rows]
        out_phys = self._row(out_row)
        if out_phys in in_phys:
            raise MagicProtocolError(
                f"output row {out_row} cannot also be a NOR input"
            )
        mask = self._mask(mask)
        if self.strict_magic and not bool(self.state[out_phys, mask].all()):
            raise MagicProtocolError(
                f"NOR output row {out_row} not initialised to logic one"
            )
        any_one = np.zeros(self.cols, dtype=bool)
        for row in in_phys:
            any_one |= self.state[row]
        switching = mask & any_one & self.state[out_phys]
        self.state[out_phys, mask] = ~any_one[mask]
        # Every output cell receives the pulse; switching cells dissipate
        # the reset energy.
        self.writes[out_phys, mask] += 1
        self.energy_fj += self.device.e_reset_fj * int(switching.sum())
        self._apply_faults()

    def not_row(
        self, in_row: int, out_row: int, mask: Optional[np.ndarray] = None
    ) -> None:
        """MAGIC NOT: single-input special case of :meth:`nor_rows`."""
        self.nor_rows([in_row], out_row, mask)

    def imply_rows(
        self, p_row: int, q_row: int, mask: Optional[np.ndarray] = None
    ) -> None:
        """Row-parallel IMPLY: ``q <- p IMPLY q`` (destructive on *q*).

        Used by the IMPLY-based baseline [6].  Truth table: the result
        is 0 only when ``p = 1`` and ``q = 0``; since ``q`` already
        holds 0 in that case, only ``p = 0`` cells may switch ``q`` to 1.
        """
        p_row = self._row(p_row)
        q_row = self._row(q_row)
        if p_row == q_row:
            raise MagicProtocolError("IMPLY operand rows must differ")
        mask = self._mask(mask)
        p = self.state[p_row]
        result = ~p | self.state[q_row]
        switching = mask & result & ~self.state[q_row]
        self.state[q_row, mask] = result[mask]
        self.writes[q_row, mask] += 1
        self.energy_fj += self.device.e_set_fj * int(switching.sum())
        self._apply_faults()

    def maj_rows(
        self,
        in_rows: Sequence[int],
        out_row: int,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Row-parallel three-input MAJORITY into *out_row*.

        Used by the MAJORITY-logic baseline [8] (Reuben-style adders).
        """
        if len(in_rows) != 3:
            raise MagicProtocolError("MAJORITY requires exactly three input rows")
        in_phys = [self._row(row) for row in in_rows]
        out_phys = self._row(out_row)
        if out_phys in in_phys:
            raise MagicProtocolError("MAJORITY output row cannot be an input")
        mask = self._mask(mask)
        total = np.zeros(self.cols, dtype=np.int8)
        for row in in_phys:
            total += self.state[row].astype(np.int8)
        result = total >= 2
        # Like NOR/IMPLY, only cells whose value actually changes
        # dissipate switching energy; 0->1 transitions cost a set pulse,
        # 1->0 transitions a reset pulse.
        switching = mask & (result != self.state[out_phys])
        sets = int((switching & result).sum())
        resets = int((switching & ~result).sum())
        self.state[out_phys, mask] = result[mask]
        self.writes[out_phys, mask] += 1
        self.energy_fj += (
            self.device.e_set_fj * sets + self.device.e_reset_fj * resets
        )
        self._apply_faults()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def max_writes(self) -> int:
        """Maximum write count over all cells (the paper's endurance metric)."""
        return int(self.writes.max())

    def total_writes(self) -> int:
        return int(self.writes.sum())

    def reset_write_counters(self) -> None:
        self.writes.fill(0)

    def snapshot(self) -> np.ndarray:
        """Copy of the logical bit state (rows x cols), remap applied."""
        return self.state[self._row_map].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrossbarArray({self.rows}x{self.cols}, "
            f"max_writes={self.max_writes()}, faults={self.fault_count})"
        )


@functools.lru_cache(maxsize=128)
def _repunit(batch: int, cols: int) -> int:
    """Lane-major row with column 0 set in each of *batch* lanes: a
    column word times it sets that word in every lane.  Cached, so an
    array or constants tuple of a known shape pays no big-int arithmetic
    for it."""
    return sum(1 << lane * cols for lane in range(batch))


def _lane_spread(bits: np.ndarray, batch: int) -> int:
    """Packed row holding the ``(cols,)`` word *bits* in each of *batch*
    lanes."""
    bits = np.asarray(bits, dtype=bool)
    raw = np.packbits(bits, bitorder="little")
    return int.from_bytes(raw.tobytes(), "little") * _repunit(batch, len(bits))


class WordPackedCrossbarArray:
    """Batched crossbar lanes bit-sliced into big integers.

    *batch* independent lanes of a :class:`CrossbarArray` evaluated in
    lock-step — the paper's row-parallel SIMD execution across
    replicated operand sets.  Each physical word line is stored as one
    Python integer, lane-major: bit ``lane * cols + col`` holds lane
    *lane*'s value of column *col*, so a row is exactly ``batch * cols``
    bits and each lane's word is one contiguous field (at one lane the
    row is the plain word).  A column mask, field or fault pin is a
    column word times :func:`_repunit`.  A row-parallel MAGIC NOR over
    the whole batch is then a handful of bitwise integer operations,
    replayed by :class:`repro.magic.executor.WordPackedMagicExecutor`;
    the array itself defines no memory or logic op.

    Accounting matches one :class:`CrossbarArray` per lane exactly —
    :attr:`writes` is ``(phys_rows, cols)`` and counts pulses **per
    lane** (pulse placement is data-independent, so the executor adds
    one precomputed per-program delta and :meth:`max_writes` matches
    what a scalar array running any one lane would report), and
    :meth:`total_energy_fj` equals the sum of the per-lane scalar
    energies.  Data-dependent switching energy is one integer per
    coefficient: each replay adds its switched cells, so the array
    reports one energy total, ``sum(coeff * cells)`` plus the
    data-independent per-lane constant times ``batch``.  Per-lane
    energy is not kept (the scalar oracle,
    :class:`repro.magic.backend.ScalarLaneArray`, keeps it).

    Every bit of a row belongs to a lane, so full-word invariants
    such as the strict-MAGIC init check are exactly per-lane checks, and
    a packed mask's ``bit_count`` is its cells over the batch.
    """

    def __init__(
        self,
        batch: int,
        rows: int,
        cols: int,
        device: Optional[DeviceModel] = None,
        strict_magic: bool = True,
        spare_rows: int = 0,
    ):
        if batch <= 0:
            raise ValueError(f"batch size must be positive, got {batch}")
        if rows <= 0 or cols <= 0:
            raise ValueError(f"crossbar dimensions must be positive, got {rows}x{cols}")
        if spare_rows < 0:
            raise ValueError(f"spare_rows must be non-negative, got {spare_rows}")
        self.batch = batch
        self.rows = rows
        self.cols = cols
        self.spare_rows = spare_rows
        self.device = device if device is not None else DeviceModel()
        self.strict_magic = strict_magic
        self.row_bits = batch * cols
        self._full = (1 << self.row_bits) - 1
        #: Column 0 of every lane; ``_repunit << col`` pins column *col*.
        self._repunit = _repunit(batch, cols)
        #: One packed integer per physical word line.
        self._state: list = [0] * (rows + spare_rows)
        #: Per-lane write-pulse counters, ``(phys_rows, cols)`` int64.
        self.writes = np.zeros((rows + spare_rows, cols), dtype=np.int64)
        #: Per-lane-identical energy (data-independent pulses).
        self._energy_const = 0.0
        #: Data-dependent energy: switched cells per coefficient.
        self._energy_counts: Dict[float, int] = {}
        self._faults: Dict[Tuple[int, int], str] = {}
        self._row_map = list(range(rows))

    @classmethod
    def from_scalar(
        cls, array: CrossbarArray, batch: int, row_map=None
    ) -> "WordPackedCrossbarArray":
        """Replicate a scalar array's current state into *batch* lanes.

        Write counters and energy start at zero — the batched array
        accounts only for what executes on it; faults and the spare-row
        remap table carry over (so replays after a remap land on the
        repaired word lines), unless *row_map* gives the logical ->
        physical word lines the lanes address instead.  A template at
        the all-ones steady state (where every stage replay leaves it)
        fills each packed row with ones in one step; any other state is
        spread row by row.
        """
        out = cls(
            batch,
            array.rows,
            array.cols,
            device=array.device,
            strict_magic=array.strict_magic,
            spare_rows=array.spare_rows,
        )
        if array.state.all():
            out.reset_to_ones()
        else:
            for phys in range(array.rows + array.spare_rows):
                out._state[phys] = _lane_spread(array.state[phys], batch)
        out._faults = dict(array._faults)
        out._row_map = list(array._row_map if row_map is None else row_map)
        out._apply_faults()
        return out

    # ------------------------------------------------------------------
    # Packing helpers
    # ------------------------------------------------------------------
    def _pack_word(self, bits: np.ndarray) -> int:
        """Packed row from a ``(batch, cols)`` per-lane word matrix."""
        flat = np.ascontiguousarray(bits, dtype=bool).reshape(-1)
        raw = np.packbits(flat, bitorder="little")
        return int.from_bytes(raw.tobytes(), "little")

    def _unpack_word(self, value: int) -> np.ndarray:
        """``(batch, cols)`` bool matrix of one packed row."""
        raw = np.frombuffer(
            value.to_bytes((self.row_bits + 7) // 8, "little"), dtype=np.uint8
        )
        bits = np.unpackbits(raw, bitorder="little")[: self.row_bits]
        return bits.reshape(self.batch, self.cols).astype(bool)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _add_energy_cells(self, coeff: float, cells: int) -> None:
        """Charge *coeff* femtojoules to each of *cells* switched cells."""
        counts = self._energy_counts
        counts[coeff] = counts.get(coeff, 0) + cells

    # ------------------------------------------------------------------
    @property
    def cells(self) -> int:
        """Logical memristors per lane."""
        return self.rows * self.cols

    @property
    def phys_rows(self) -> int:
        """Physical word lines, including spares."""
        return self.rows + self.spare_rows

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside 0..{self.rows - 1}")

    def _row(self, row: int) -> int:
        """Translate a logical row address to its physical word line."""
        self._check_row(row)
        return self._row_map[row]

    def physical_row(self, row: int) -> int:
        """Public logical->physical translation (see the scalar array)."""
        return self._row(row)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_fault(self, row: int, col: int, kind: str) -> None:
        """Pin cell (*row*, *col*) of every lane to a stuck-at fault."""
        phys = self._row(row)
        if not 0 <= col < self.cols:
            raise AddressError(f"col {col} outside 0..{self.cols - 1}")
        if kind not in _FAULT_KINDS:
            raise FaultInjectionError(f"unknown fault kind {kind!r}")
        self._faults[(phys, col)] = kind
        pin = self._repunit << col
        if kind == FAULT_STUCK_AT_1:
            self._state[phys] |= pin
        else:
            self._state[phys] &= ~pin

    @property
    def faults(self) -> Dict[Tuple[int, int], str]:
        """Read-only copy of the fault map (physical coordinates)."""
        return dict(self._faults)

    def _apply_faults(self) -> None:
        for (row, col), kind in self._faults.items():
            pin = self._repunit << col
            if kind == FAULT_STUCK_AT_1:
                self._state[row] |= pin
            else:
                self._state[row] &= ~pin

    def repin_faults(self) -> None:
        """Re-assert every pinned fault onto the state (public hook)."""
        self._apply_faults()

    def reset_to_ones(self) -> None:
        """Drive every cell (all lanes, spares included) to logic one.

        The MAGIC steady state every stage replay starts from; no
        energy or write pulses are charged — every pass ends in this
        state through its accounted closing INIT and scratch reset, so
        starting there is bookkeeping, not a modelled operation.  Re-pin
        faults after.
        """
        self._state[:] = [self._full] * len(self._state)

    # ------------------------------------------------------------------
    # Raw per-row views (fault hooks mutate state without accounting)
    # ------------------------------------------------------------------
    def unpack_row(self, row: int) -> np.ndarray:
        """Per-lane word of logical *row* as ``(batch, cols)`` bool.

        A detached copy — mutate it and :meth:`store_row` it back.  The
        fault-injection hooks use this pair to flip cells mid-program
        without charging energy or write pulses, exactly as they mutate
        a scalar array's state row in place.
        """
        return self._unpack_word(self._state[self._row(row)])

    def store_row(self, row: int, bits: np.ndarray) -> None:
        """Store a ``(batch, cols)`` word back without any accounting."""
        self._state[self._row(row)] = self._pack_word(bits)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def max_writes(self) -> int:
        """Per-lane maximum write count (matches the scalar metric)."""
        return int(self.writes.max())

    def total_writes(self) -> int:
        """Per-lane total write pulses."""
        return int(self.writes.sum())

    def total_energy_fj(self) -> float:
        """Energy of every lane together, in femtojoules."""
        counts = self._energy_counts
        switched = sum(coeff * cells for coeff, cells in counts.items())
        return float(switched + self._energy_const * self.batch)

    def snapshot(self, lane: int) -> np.ndarray:
        """Copy of one lane's logical bit state (rows x cols)."""
        out = np.zeros((self.rows, self.cols), dtype=bool)
        for row in range(self.rows):
            out[row] = self._unpack_word(self._state[self._row_map[row]])[lane]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WordPackedCrossbarArray({self.batch}x{self.rows}x{self.cols})"
