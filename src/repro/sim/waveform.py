"""Row-activity visualisation of MAGIC schedules.

Turns a MAGIC :class:`~repro.magic.program.Program` into a text
"waveform": one line per row of the crossbar, one column
per cycle, with a mark wherever the row was read (``r``), written
(``W``), initialised (``i``), or both read and written (``*``).  Useful
for inspecting stage schedules and for documentation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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

MARK_READ = "r"
MARK_WRITE = "W"
MARK_INIT = "i"
MARK_BOTH = "*"
MARK_IDLE = "."


def _activity(op: MicroOp) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(rows read, rows written) by one op."""
    if isinstance(op, Init):
        return (), op.rows
    if isinstance(op, Nor):
        return op.in_rows, (op.out_row,)
    if isinstance(op, Not):
        return (op.in_row,), (op.out_row,)
    if isinstance(op, Write):
        return (), (op.row,)
    if isinstance(op, Read):
        return (op.row,), ()
    if isinstance(op, Shift):
        return (op.src_row,), (op.dst_row,) + tuple(op.also_init)
    if isinstance(op, (ParallelNor, ParallelNot)):
        reads: List[int] = []
        writes: List[int] = []
        for g in op.gates:
            reads.extend(g.in_rows if isinstance(g, Nor) else (g.in_row,))
            writes.append(g.out_row)
        return tuple(dict.fromkeys(reads)), tuple(writes)
    return (), ()


def activity_grid(program: Program) -> Dict[int, List[str]]:
    """Per-row activity marks, one entry per elapsed cycle."""
    total = program.cycle_count
    rows = program.rows_touched()
    grid: Dict[int, List[str]] = {row: [MARK_IDLE] * total for row in rows}
    cycle = 0
    for op in program.ops:
        reads, writes = _activity(op)
        for tick in range(op.cycles):
            for row in reads:
                current = grid[row][cycle + tick]
                grid[row][cycle + tick] = (
                    MARK_BOTH if current in (MARK_WRITE, MARK_INIT) else MARK_READ
                )
            for row in writes:
                mark = MARK_INIT if isinstance(op, Init) else MARK_WRITE
                current = grid[row][cycle + tick]
                grid[row][cycle + tick] = (
                    MARK_BOTH if current == MARK_READ else mark
                )
        cycle += op.cycles
    return grid


def render(program: Program, max_cycles: int = 120) -> str:
    """Text waveform of *program* (truncated to *max_cycles* columns)."""
    grid = activity_grid(program)
    total = program.cycle_count
    shown = min(total, max_cycles)
    header = f"{program.label or 'program'}: {total} cc, rows {min(grid)}..{max(grid)}"
    lines = [header]
    ruler = "".join(
        "|" if c % 10 == 0 else " " for c in range(shown)
    )
    lines.append(f"{'':>7}{ruler}")
    for row in sorted(grid):
        marks = "".join(grid[row][:shown])
        lines.append(f"r{row:<3} | {marks}")
    if total > shown:
        lines.append(f"... {total - shown} more cycles")
    lines.append(
        f"legend: {MARK_READ}=read {MARK_WRITE}=write "
        f"{MARK_INIT}=init {MARK_BOTH}=read+write {MARK_IDLE}=idle"
    )
    return "\n".join(lines)


def utilization(program: Program) -> Dict[int, float]:
    """Fraction of cycles each row is active (read or written)."""
    grid = activity_grid(program)
    total = program.cycle_count
    if total == 0:
        return {row: 0.0 for row in grid}
    return {
        row: sum(mark != MARK_IDLE for mark in marks) / total
        for row, marks in grid.items()
    }
