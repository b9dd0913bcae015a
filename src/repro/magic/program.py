"""Program container and builder for MAGIC micro-op sequences.

A :class:`Program` is an immutable value: a tuple of micro-ops, a
label, and the static properties derived from them (cycle count, op
histogram).  MAGIC schedules are static (paper Sec. II-B), so a
program built once replays forever; each program also keeps its own
compiled form per array geometry (:meth:`Program.compiled`), which in
turn keeps its word lowering.  The :class:`ProgramBuilder` offers a
fluent API used by the arithmetic generators (Kogge-Stone adder, row
multiplier, stage schedules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.magic.ops import (
    ColumnRange,
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
from repro.sim.exceptions import ProgramError

if TYPE_CHECKING:
    from repro.magic.executor import CompiledProgram


@dataclass(frozen=True)
class Program:
    """An immutable sequence of micro-ops with static cost metadata.

    *ops* may be given as any iterable; it is stored as a tuple.
    Derived properties are computed on first access and kept.
    """

    ops: Tuple[MicroOp, ...] = ()
    label: str = ""
    #: ``(rows, cols)`` -> compiled form (see :meth:`compiled`).
    _compiled: Dict[Tuple[int, int], "CompiledProgram"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))

    def compiled(self, rows: int, cols: int) -> "CompiledProgram":
        """This program validated and lowered for a ``rows x cols``
        array: built on first use, then kept, so every executor of that
        geometry replays the one compiled form."""
        compiled = self._compiled.get((rows, cols))
        if compiled is None:
            from repro.magic.executor import CompiledProgram

            compiled = CompiledProgram(self, rows, cols)
            self._compiled[(rows, cols)] = compiled
        return compiled

    def is_compiled(self, rows: int, cols: int) -> bool:
        """Whether :meth:`compiled` already built the form for ``rows x cols``."""
        return (rows, cols) in self._compiled

    @cached_property
    def cycle_count(self) -> int:
        """Total cycles the program takes (static property of the op list)."""
        return sum(op.cycles for op in self.ops)

    @cached_property
    def _per_opcode(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Op count and cycle cost per opcode."""
        counts: Dict[str, int] = {}
        cycles: Dict[str, int] = {}
        for op in self.ops:
            counts[op.opcode] = counts.get(op.opcode, 0) + 1
            cycles[op.opcode] = cycles.get(op.opcode, 0) + op.cycles
        return counts, cycles

    def histogram(self) -> Dict[str, int]:
        """Op-count per opcode."""
        return dict(self._per_opcode[0])

    def cycles_by_opcode(self) -> Dict[str, int]:
        """Cycle cost per opcode — the clock categories one execution
        ticks.  Batched stage schedules replay a program across many
        lanes and advance their clock from this histogram once."""
        return dict(self._per_opcode[1])

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.ops)

    def rows_touched(self) -> Tuple[int, ...]:
        """Sorted set of every row referenced by any op (for layout checks)."""
        return self._rows_touched

    @cached_property
    def _rows_touched(self) -> Tuple[int, ...]:
        rows = set()
        for op in self.ops:
            if isinstance(op, Init):
                rows.update(op.rows)
            elif isinstance(op, Nor):
                rows.update(op.in_rows)
                rows.add(op.out_row)
            elif isinstance(op, Not):
                rows.add(op.in_row)
                rows.add(op.out_row)
            elif isinstance(op, (ParallelNor, ParallelNot)):
                for g in op.gates:
                    if isinstance(g, Nor):
                        rows.update(g.in_rows)
                    else:
                        rows.add(g.in_row)
                    rows.add(g.out_row)
            elif isinstance(op, (Write, Read)):
                rows.add(op.row)
            elif isinstance(op, Shift):
                rows.add(op.src_row)
                rows.add(op.dst_row)
                rows.update(op.also_init)
        return tuple(sorted(rows))


class ProgramBuilder:
    """Fluent builder for :class:`Program` objects.

    All methods return ``self`` so op sequences read like schedules:

    >>> prog = (ProgramBuilder("demo")
    ...         .init([3, 4])
    ...         .nor([0, 1], 3)
    ...         .not_([3], 4)
    ...         .build())
    """

    def __init__(self, label: str = ""):
        self._ops: List[MicroOp] = []
        self._label = label

    def init(self, rows: Iterable[int], cols: ColumnRange = None) -> "ProgramBuilder":
        self._ops.append(Init(rows=tuple(rows), cols=cols))
        return self

    def nor(
        self, in_rows: Sequence[int], out_row: int, cols: ColumnRange = None
    ) -> "ProgramBuilder":
        self._ops.append(Nor(in_rows=tuple(in_rows), out_row=out_row, cols=cols))
        return self

    def not_(self, in_row, out_row: int, cols: ColumnRange = None) -> "ProgramBuilder":
        if isinstance(in_row, (list, tuple)):
            if len(in_row) != 1:
                raise ProgramError("NOT takes exactly one input row")
            in_row = in_row[0]
        self._ops.append(Not(in_row=int(in_row), out_row=out_row, cols=cols))
        return self

    def write(
        self,
        row: int,
        name: str,
        col_offset: int = 0,
        width: Optional[int] = None,
    ) -> "ProgramBuilder":
        self._ops.append(Write(row=row, name=name, col_offset=col_offset, width=width))
        return self

    def read(
        self,
        row: int,
        name: str,
        col_offset: int = 0,
        width: Optional[int] = None,
    ) -> "ProgramBuilder":
        self._ops.append(Read(row=row, name=name, col_offset=col_offset, width=width))
        return self

    def shift(
        self,
        src_row: int,
        dst_row: int,
        offset: int,
        fill: int = 0,
        cols: ColumnRange = None,
        also_init: Iterable[int] = (),
    ) -> "ProgramBuilder":
        self._ops.append(
            Shift(
                src_row=src_row,
                dst_row=dst_row,
                offset=offset,
                fill=fill,
                cols=cols,
                also_init=tuple(also_init),
            )
        )
        return self

    def nop(self, count: int = 1) -> "ProgramBuilder":
        self._ops.append(Nop(count=count))
        return self

    def append(self, op: MicroOp) -> "ProgramBuilder":
        self._ops.append(op)
        return self

    def concat(self, program: Program) -> "ProgramBuilder":
        self._ops.extend(program.ops)
        return self

    def build(self) -> Program:
        return Program(ops=self._ops, label=self._label)
