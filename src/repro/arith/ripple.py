"""Bit-serial ripple-carry adder as real MAGIC programs.

The MAGIC schoolbook baseline [7] adds with a serial full adder: one
bit position per step, the carry rippling through a scratch cell.
This module generates that adder as an executable program using the
classic 9-NOR full adder:

    m1 = NOR(x, y)            m5 = NOR(m4, c)
    m2 = NOR(x, m1)           m6 = NOR(m4, m5)
    m3 = NOR(y, m1)           m7 = NOR(c, m5)
    m4 = NOR(m2, m3)          sum   = NOR(m6, m7)
                              carry = NOR(m1, m5)

Per bit position: 1 init + 9 NORs + a 2-cc periphery shift forwarding
the carry to the next column + 1 alignment cycle = **13 cc/bit**, the
constant behind the baseline's ``13 n^2`` multiplication latency.

It exists both as the substrate for [7]'s on-array functional model
and as the measured counterpoint to the Kogge-Stone adder: same
function, ``O(n)`` versus ``O(log n)`` latency, on the same simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Tuple

from repro.crossbar.array import CrossbarArray
from repro.magic.program import Program, ProgramBuilder
from repro.magic.stage import CrossbarStage
from repro.sim.exceptions import DesignError

if TYPE_CHECKING:
    from repro.magic.passes import OptimizationResult

#: Cycles per bit position (init + 9 NOR + 2-cc shift + 1 alignment).
CYCLES_PER_BIT = 13

#: Scratch rows: m1..m7 plus the carry-out staging cell.
SCRATCH_ROWS = 8


def latency_cc(width: int) -> int:
    """Serial addition latency: ``13 (n+1)`` cc (the +1 position emits
    the carry-out)."""
    if width < 1:
        raise DesignError("adder width must be at least 1 bit")
    return CYCLES_PER_BIT * (width + 1)


@dataclass(frozen=True)
class RippleLayout:
    """Row placement of one serial adder instance."""

    width: int
    x_row: int
    y_row: int
    out_row: int
    carry_row: int
    scratch_rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise DesignError("adder width must be at least 1 bit")
        if len(self.scratch_rows) != SCRATCH_ROWS:
            raise DesignError(
                f"ripple adder needs {SCRATCH_ROWS} scratch rows"
            )
        rows = {
            self.x_row, self.y_row, self.out_row, self.carry_row,
            *self.scratch_rows,
        }
        if len(rows) != 4 + SCRATCH_ROWS:
            raise DesignError("adder rows must be pairwise distinct")

    @property
    def columns(self) -> int:
        """Window: width operand bits + the carry-out column + slack."""
        return self.width + 2


class RippleAdder:
    """Program generator for the serial MAGIC adder."""

    def __init__(self, layout: RippleLayout):
        self.layout = layout
        #: Per-variant :class:`~repro.magic.passes.OptimizationResult`.
        self.optimizer_reports = {}

    def program(self, optimize: bool = False) -> Program:
        """The adder's MAGIC program.

        ``optimize=True`` runs it through the SIMD cycle packer
        (:mod:`repro.magic.passes`): the alignment NOPs drop and the
        per-bit INIT arming coalesces, preserving bit-exact sums.  The
        default reproduces the paper's serial schedule exactly.  Every
        adder on an equal layout gets the same program
        (:func:`ripple_program`).
        """
        program, report = ripple_program(self.layout, bool(optimize))
        if report is not None:
            self.optimizer_reports[True] = report
        return program

    def latency_cc(self) -> int:
        return latency_cc(self.layout.width)


def _generate(lay: RippleLayout) -> Program:
    """The serial schedule on layout *lay*: 13 cc per bit position."""
    m1, m2, m3, m4, m5, m6, m7, ctmp = lay.scratch_rows
    full = (0, lay.columns)
    builder = ProgramBuilder(label=f"ripple-add-{lay.width}b")
    for bit in range(lay.width + 1):
        col = (bit, bit + 1)
        builder.init(
            [m1, m2, m3, m4, m5, m6, m7, ctmp, lay.out_row], col
        )
        builder.nor([lay.x_row, lay.y_row], m1, col)
        builder.nor([lay.x_row, m1], m2, col)
        builder.nor([lay.y_row, m1], m3, col)
        builder.nor([m2, m3], m4, col)            # XNOR(x, y)
        builder.nor([m4, lay.carry_row], m5, col)
        builder.nor([m4, m5], m6, col)
        builder.nor([lay.carry_row, m5], m7, col)
        builder.nor([m6, m7], lay.out_row, col)   # x ^ y ^ c
        builder.nor([m1, m5], ctmp, col)          # maj(x, y, c)
        # Forward the carry one column to the right; columns at or
        # below `bit` in the carry row become stale, which is fine
        # because each carry bit is consumed before its column is
        # overwritten.
        builder.shift(ctmp, lay.carry_row, 1, fill=0, cols=full)
        builder.nop(1)                            # controller alignment
    return builder.build()


#: Keeps the 64 most recently used ripple programs.
@lru_cache(maxsize=64)
def ripple_program(
    layout: RippleLayout, optimize: bool
) -> Tuple[Program, Optional["OptimizationResult"]]:
    """The serial adder program on *layout* and, with *optimize*, the
    cycle packer's report on it (``None`` otherwise); memoised
    process-wide, like :func:`repro.arith.koggestone.adder_program`."""
    if not optimize:
        return _generate(layout), None
    from repro.magic.passes import optimize_program

    armed = frozenset(set(layout.scratch_rows) | {layout.out_row})
    result = optimize_program(
        ripple_program(layout, False)[0], initially_ones=armed
    )
    return result.program, result


#: Keeps the 64 most recently used standalone-addition programs.
@lru_cache(maxsize=64)
def unit_program(layout: RippleLayout) -> Program:
    """One standalone addition on *layout*: WRITE the operands ``x`` and
    ``y`` and the carry-in ``c``, run the serial adder, READ the
    ``width + 1``-bit ``sum`` (the slack column above the carry-out is
    not part of it)."""
    builder = ProgramBuilder(label=f"ripple-unit-{layout.width}b")
    for row, name in (
        (layout.x_row, "x"), (layout.y_row, "y"), (layout.carry_row, "c"),
    ):
        builder.write(row, name, width=layout.columns)
    builder.concat(ripple_program(layout, False)[0])
    builder.read(layout.out_row, "sum", width=layout.width + 1)
    return builder.build()


class RippleUnit(CrossbarStage):
    """One standalone serial adder on its own ``(4 + 8) x (width + 2)``
    crossbar; each addition replays :func:`unit_program` through
    :meth:`CrossbarStage.replay`.
    """

    def __init__(self, width: int):
        super().__init__(CrossbarArray(4 + SCRATCH_ROWS, width + 2))
        self.adder = RippleAdder(
            RippleLayout(
                width=width,
                x_row=0,
                y_row=1,
                out_row=2,
                carry_row=3,
                scratch_rows=tuple(range(4, 4 + SCRATCH_ROWS)),
            )
        )

    def run(self, x: int, y: int, carry_in: int = 0) -> int:
        """Write operands, run one serial pass, return ``x + y + cin``."""
        lay = self.adder.layout
        if min(x, y) < 0 or max(x, y) >> lay.width:
            raise DesignError(f"operands must fit in {lay.width} bits")
        if carry_in not in (0, 1):
            raise DesignError("carry-in must be 0 or 1")
        (stats,) = self.replay(
            unit_program(lay), [{"x": x, "y": y, "c": carry_in}]
        )
        return stats.results["sum"]
