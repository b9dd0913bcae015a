"""In-memory Kogge-Stone adder/subtractor (paper Sec. IV-B).

The adder operates on two operand rows inside a column window of
``width + 1`` bit lines and produces the ``width + 1``-bit sum (the
extra column naturally captures the carry out).  Its schedule matches
the paper's cycle budget exactly:

* **p/g stage — 8 cc**: eight NOR/NOT ops that compute propagate
  ``p = x XOR y`` and generate ``g = x AND y`` bit-parallel across the
  window (scratch rows arrive pre-initialised from the previous pass's
  reset, so no leading INIT cycle is needed).
* **prefix levels — 11 cc each**, ``ceil(log2 width)`` levels: two
  periphery shifts (2 cc each, carrying piggy-backed row inits) plus
  seven NOR/NOT ops evaluating the Kogge-Stone node
  ``(P, G) <- (P1 P2, G1 + P1 G2)``.
* **sum stage — 9 cc**: a 1-bit shift of the carries (2 cc), five
  NOR/NOT ops emulating the final XOR, and a 2 cc reset of the scratch
  region, leaving the array ready for the next operation.

Total: ``8 + 11*ceil(log2 n) + 9`` cc for an n-bit addition — the
paper's closed form.

**Subtraction** runs in the *same* cycle budget using the borrow
formulation: borrow-generate ``g = ~x AND y``, borrow-propagate
``p = XNOR(x, y)``, an unchanged prefix graph, and a final XNOR instead
of XOR.  No +1 carry injection is needed, which is how the paper's
postcomputation can count subtractions at the same cost as additions.

**Batching** (paper Sec. IV-E): two independent operations can share
one pass by placing both operand pairs in disjoint column ranges of the
same rows.  Zeroed gap columns give ``(p, g) = (0, 0)`` for addition
(carry killed) and ``(1, 0)`` for subtraction (a zero borrow forwarded),
so no cross-talk occurs in either mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arith.bitops import ceil_log2
from repro.crossbar.array import CrossbarArray
from repro.magic.backend import DEFAULT_BACKEND
from repro.magic.program import Program, ProgramBuilder
from repro.magic.stage import CrossbarStage, Placement
from repro.sim.exceptions import DesignError, StageSelfCheckError

if TYPE_CHECKING:
    from repro.magic.passes import OptimizationResult
    from repro.reliability.residue import ResidueChecker
    from repro.sim.clock import Clock

#: Scratch rows the adder needs, independent of width (paper Sec. IV-B).
SCRATCH_ROWS = 12

OP_ADD = "add"
OP_SUB = "sub"


def latency_cc(width: int) -> int:
    """Closed-form adder latency: ``8 + 11*ceil(log2 n) + 9`` cc."""
    if width < 1:
        raise DesignError("adder width must be at least 1 bit")
    return 8 + 11 * ceil_log2(width) + 9


def adder_result(op: str, x: int, y: int, cols: int) -> int:
    """Result of one ``add`` or ``sub`` pass over a *cols*-column window.

    The window rule: an operand may fill the whole window, the carry
    column included, when the result has no carry-out.  Each operand
    and an addition's sum must fit the window, and a subtraction needs
    ``y <= x``.  Anything else raises :class:`DesignError`.
    """
    if op == OP_ADD:
        result = x + y
        if x >= 0 and y >= 0 and not result >> cols:
            return result
    elif op == OP_SUB:
        result = x - y
        if result >= 0 and y >= 0 and not x >> cols:
            return result
    else:
        raise DesignError(f"unknown adder op {op!r}")
    if x < 0 or y < 0 or (x | y) >> cols:
        raise DesignError(
            f"operands must fit the {cols}-column adder window, "
            f"got {x} and {y}"
        )
    if op == OP_ADD:
        raise DesignError(
            f"sum of {x} and {y} overflows the {cols}-column adder window"
        )
    raise DesignError("subtraction requires x >= y (non-negative result)")


def writes_per_cell(width: int) -> int:
    """Paper's bound on writes to any scratch cell per addition."""
    return 2 * ceil_log2(max(width, 2))


@dataclass(frozen=True)
class KoggeStoneLayout:
    """Placement of one Kogge-Stone adder instance in a crossbar.

    Attributes
    ----------
    width:
        Operand width in bits; the window spans ``width + 1`` columns.
    col0:
        First column of the window.
    x_row, y_row:
        Rows holding the two operands (LSB at ``col0``).
    out_row:
        Row receiving the ``width + 1``-bit sum.
    scratch_rows:
        Exactly :data:`SCRATCH_ROWS` rows reserved for intermediates.
    """

    width: int
    col0: int
    x_row: int
    y_row: int
    out_row: int
    scratch_rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise DesignError("adder width must be at least 1 bit")
        if len(self.scratch_rows) != SCRATCH_ROWS:
            raise DesignError(
                f"Kogge-Stone needs exactly {SCRATCH_ROWS} scratch rows, "
                f"got {len(self.scratch_rows)}"
            )
        rows = {self.x_row, self.y_row, self.out_row, *self.scratch_rows}
        if len(rows) != 3 + SCRATCH_ROWS:
            raise DesignError("adder rows must be pairwise distinct")

    @property
    def window(self) -> Tuple[int, int]:
        """Half-open column range of the adder window."""
        return (self.col0, self.col0 + self.width + 1)

    @property
    def columns(self) -> int:
        return self.width + 1


class KoggeStoneAdder:
    """Program generator for one placed Kogge-Stone adder instance.

    The generated program contains only compute micro-ops; the WRITEs of
    the operands into ``x_row``/``y_row`` and the READ of the result
    wrap it in :func:`mega_program` (stage schedules account for those
    cycles separately, as the paper does).  :class:`AdderUnit` places
    one adder standalone and runs its passes.
    """

    def __init__(self, layout: KoggeStoneLayout):
        self.layout = layout
        #: Optimizer reports per op, filled when this instance requests
        #: an ``optimize=True`` program (pack-factor telemetry).
        self.optimizer_reports: dict = {}

    # ------------------------------------------------------------------
    def program(self, op: str = OP_ADD, optimize: bool = False) -> Program:
        """Return the compute program for ``add`` or ``sub``.

        With ``optimize=True`` the paper-faithful schedule is run
        through the SIMD cycle packer (:mod:`repro.magic.passes`):
        independent NOR/NOT gates on disjoint output rows fuse into
        single-cycle packs, alignment NOPs drop, and the scratch resets
        merge.  The optimized program is protocol-verified and remains
        bit-exact; the default reproduces the paper's cycle counts.

        Every adder on an equal layout gets the same program and
        optimizer report (:func:`adder_program`).
        """
        program, report = adder_program(self.layout, op, bool(optimize))
        if report is not None:
            self.optimizer_reports[op] = report
        return program

    def optimizer_report(self, op: str) -> "OptimizationResult":
        """Cycle-packer report of this adder's *op* program."""
        self.program(op, optimize=True)
        return self.optimizer_reports[op]

    @property
    def levels(self) -> int:
        """Number of prefix-graph levels: ``ceil(log2 width)``."""
        return ceil_log2(self.layout.width) if self.layout.width > 1 else 0


def _generate(lay: KoggeStoneLayout, op: str) -> Program:
    """The paper's schedule of *op* on layout *lay* (see the module
    docstring for its cycle budget)."""
    win = lay.window
    pool = list(lay.scratch_rows)
    builder = ProgramBuilder(label=f"koggestone-{op}-{lay.width}b")

    # ---------------- p/g stage: 8 cc --------------------------------
    # Scratch rows are already at logic one: the previous pass ends
    # with a full scratch reset (and the stage controller initialises
    # them once at power-up), so no leading INIT is needed here.
    t1, n2, n3, aux, aux2, xnr, p_row, g_row = pool[:8]
    if op == OP_ADD:
        # p = XOR(x, y) (XNOR + NOT); g = AND(x, y).  8 ops.
        builder.not_(lay.x_row, aux, win)           # ~x
        builder.not_(lay.y_row, aux2, win)          # ~y
        builder.nor([aux, aux2], g_row, win)        # x AND y
        builder.nor([lay.x_row, lay.y_row], t1, win)
        builder.nor([lay.x_row, t1], n2, win)       # ~x AND y
        builder.nor([lay.y_row, t1], n3, win)       # x AND ~y
        builder.nor([n2, n3], xnr, win)             # XNOR(x, y)
        builder.not_(xnr, p_row, win)               # XOR(x, y)
    else:
        # Borrow form: p = XNOR(x, y); g = ~x AND y, which falls out
        # of the XNOR computation for free (4 ops; the remaining
        # cycles are controller alignment so that subtraction fits
        # the same 8 cc budget the paper charges for additions).
        builder.nor([lay.x_row, lay.y_row], t1, win)
        builder.nor([lay.x_row, t1], g_row, win)    # ~x AND y
        builder.nor([lay.y_row, t1], n3, win)       # x AND ~y
        builder.nor([g_row, n3], p_row, win)        # XNOR(x, y)
        builder.nop(4)

    # ---------------- prefix levels: 11 cc each --------------------
    # The original bit-wise propagate row stays live until the sum
    # stage (s = p XOR carry); together with the running (P, G) pair
    # and the nine per-level temporaries this accounts for exactly
    # the 12 scratch rows the paper reserves.
    orig_p = p_row
    p_cur, g_cur = p_row, g_row
    for level in range(ceil_log2(lay.width)):
        distance = 1 << level
        free = [r for r in pool if r not in (orig_p, p_cur, g_cur)]
        ps, gs, ra, rb, rc, rd, re, rf, rg = free[:9]
        # Shift P and G towards the MSB; identity element (1, 0)
        # fills the vacated positions so low bits pass through.
        builder.shift(p_cur, ps, distance, fill=1, cols=win,
                      also_init=(ra, rb, rc, rd))
        builder.shift(g_cur, gs, distance, fill=0, cols=win,
                      also_init=(re, rf, rg))
        builder.not_(p_cur, ra, win)                # ~P1
        builder.not_(ps, rb, win)                   # ~P2
        builder.nor([ra, rb], rc, win)              # P = P1 AND P2
        builder.not_(gs, rd, win)                   # ~G2
        builder.nor([ra, rd], re, win)              # P1 AND G2
        builder.nor([g_cur, re], rf, win)
        builder.not_(rf, rg, win)                   # G = G1 OR (P1 AND G2)
        p_cur, g_cur = rc, rg

    # ---------------- sum stage: 2 + 5 + 2 = 9 cc ------------------
    free = [r for r in pool if r not in (orig_p, g_cur)]
    c_row, w1, w2, w3, w4 = free[:5]
    # Carries are the prefix generates shifted up by one; carry-in 0.
    builder.shift(g_cur, c_row, 1, fill=0, cols=win,
                  also_init=(w1, w2, w3, w4, lay.out_row))
    if op == OP_ADD:
        # s = XOR(p, c): shared-NOR XNOR then a final NOT (5 ops).
        builder.nor([orig_p, c_row], w1, win)
        builder.nor([orig_p, w1], w2, win)
        builder.nor([c_row, w1], w3, win)
        builder.nor([w2, w3], w4, win)              # XNOR(p, c)
        builder.not_(w4, lay.out_row, win)          # XOR(p, c)
    else:
        # s = XNOR(p, borrow): the difference bit is x^y^borrow and
        # p already holds XNOR(x, y).  4 ops + 1 alignment cycle.
        builder.nor([orig_p, c_row], w1, win)
        builder.nor([orig_p, w1], w2, win)
        builder.nor([c_row, w1], w3, win)
        builder.nor([w2, w3], lay.out_row, win)     # XNOR(p, c)
        builder.nop(1)
    # Reset the scratch region for the next operation (2 cc).
    builder.init(pool[:6], win)
    builder.init(pool[6:], win)
    return builder.build()


#: Keeps the 512 most recently used adder programs; the four bench
#: workloads touch 256 in one process.
@lru_cache(maxsize=512)
def adder_program(
    layout: KoggeStoneLayout, op: str, optimize: bool
) -> Tuple[Program, Optional["OptimizationResult"]]:
    """The compute program of *op* on *layout* and, with *optimize*,
    the cycle packer's report on it (``None`` otherwise).

    A pure function of its arguments, memoised process-wide: every
    adder on an equal layout shares one program, generated and packed
    once, so it also compiles once per array geometry.
    """
    if op not in (OP_ADD, OP_SUB):
        raise DesignError(f"unknown adder op {op!r}")
    if not optimize:
        return _generate(layout, op), None
    from repro.magic.passes import optimize_program

    base, _ = adder_program(layout, op, False)
    armed = frozenset(set(layout.scratch_rows) | {layout.out_row})
    result = optimize_program(base, initially_ones=armed)
    return result.program, result


class AdderUnit(CrossbarStage):
    """One standalone Kogge-Stone adder on its own crossbar, replayed.

    The paper's footprint: a ``(3 + 12) x (width + 1)`` array holding
    the operand rows x and y, the sum row and the 12 scratch rows
    (Sec. IV-B).  Each pass replays a one-pass :func:`mega_program`
    across one lane per operand pair (:meth:`CrossbarStage.replay`): it
    WRITEs x and y, runs the adder program and READs the sum, and the
    lanes' writes and energy fold back into :attr:`array`.  Lanes run in
    lock-step, so a caller advances its own clock by :meth:`pass_cc` per
    pass (the adder program's cycles; the WRITEs and the READ are the
    caller's periphery cycles, as in every stage schedule).
    """

    def __init__(
        self,
        width: int,
        device=None,
        spare_rows: int = 2,
        optimize: bool = False,
        backend: object = DEFAULT_BACKEND,
    ):
        super().__init__(
            CrossbarArray(
                3 + SCRATCH_ROWS,
                width + 1,
                device=device,
                spare_rows=spare_rows,
            ),
            backend=backend,
        )
        self.optimize = optimize
        self.adder = KoggeStoneAdder(
            KoggeStoneLayout(
                width=width,
                col0=0,
                x_row=0,
                y_row=1,
                out_row=2,
                scratch_rows=tuple(range(3, 3 + SCRATCH_ROWS)),
            )
        )
        # Power-up: establish the steady all-ones scratch/output state
        # the adder programs assume (each pass ends with a full reset).
        self.array.init_rows(self.adder.layout.scratch_rows)
        self.array.init_rows([self.adder.layout.out_row])

    def pass_cc(self, op: str = OP_ADD) -> int:
        """Cycles of one pass: the replayed program's cycle count (the
        paper's closed form unless the optimizer is on)."""
        return self.adder.program(op, optimize=self.optimize).cycle_count

    def run_pass(
        self, pairs: List[Tuple[int, int]], op: str = OP_ADD
    ) -> List[int]:
        """One SIMD pass over *pairs*; returns the sensed results.

        Every pair must pass :func:`adder_result`'s window rule over
        the ``width + 1``-column window; anything else raises
        :class:`DesignError` before any lane runs.
        """
        lay = self.adder.layout
        cols = lay.columns
        for x, y in pairs:
            adder_result(op, x, y, cols)
        program = mega_program(
            "adder", (), ((lay, op, ("x0", "y0")),), ("out0",), (), cols,
            self.optimize,
        )
        stats = self.replay(program, [{"x0": x, "y0": y} for x, y in pairs])
        return [lane.results["out0"] for lane in stats]


#: Keeps the 64 most recently used stage programs.
@lru_cache(maxsize=64)
def mega_program(
    unit: str,
    writes: Tuple[Tuple[int, str, int, int], ...],
    passes: Tuple[Tuple[KoggeStoneLayout, str, Tuple[str, ...]], ...],
    reads: Tuple[str, ...],
    closing: Tuple[int, ...],
    cols: int,
    optimize: bool,
) -> Program:
    """One stage unit's adder passes as one program, in logical rows.

    The program WRITEs *writes* (``(row, name, col_offset, width)``),
    then runs each of *passes*, ``(layout, op, operand names)``: it
    WRITEs the named ``x``/``y`` operands into the adder's operand rows
    (no names: the adder reads rows the program computed), runs the
    adder program and READs the sum under its name in *reads*.  Last,
    one INIT resets the *closing* rows.  Memoised process-wide, like
    :func:`adder_program`: every stage of an equal layout replays one
    program, which compiles once per array geometry.
    """
    builder = ProgramBuilder(label=f"{unit}-passes")
    for row, name, col_offset, width in writes:
        builder.write(row, name, col_offset=col_offset, width=width)
    for (layout, op, operands), read in zip(passes, reads):
        for row, name in zip((layout.x_row, layout.y_row), operands):
            builder.write(row, name, width=cols)
        builder.concat(adder_program(layout, op, optimize)[0])
        builder.read(layout.out_row, read, width=cols)
    if closing:
        builder.init(closing)
    return builder.build()


class LanePlan:
    """One SIMD lane of an adder stage, unrolled on the host.

    :attr:`values` binds the operands the stage program writes itself;
    :meth:`run` records the next pass as ``(name, op, x, y, result)``
    and returns the result, so every pass is planned from planned
    values.
    """

    __slots__ = ("values", "passes", "_schedule")

    def __init__(
        self,
        schedule: Sequence[Tuple[str, int]],
        values: Optional[Dict[str, int]] = None,
    ):
        #: ``(op, window columns)`` of every pass the lane must run.
        self._schedule = schedule
        self.values = values if values is not None else {}
        self.passes: List[Tuple[str, str, int, int, int]] = []

    def run(self, name: str, op: str, x: int, y: int) -> int:
        """Record pass *name* (``op`` of ``x`` and ``y``); return its result."""
        passes = self.passes
        expected, cols = self._schedule[len(passes)]
        if op != expected:
            raise AssertionError(f"pass {name} ({op}) drifted from the schedule")
        result = adder_result(op, x, y, cols)
        passes.append((name, op, x, y, result))
        return result


class AdderPassStage:
    """Base and one body of every MAGIC stage whose per-job work is a
    fixed list of Kogge-Stone adder passes (Karatsuba precompute and
    postcompute, Toom-3 evaluation and interpolation).

    A stage declares :meth:`unit_passes` (the ``(adder, op)`` passes
    one job runs on each unit it owns, in replay order),
    :attr:`overhead` (periphery cycles per clock category), and
    :meth:`_plan` (one job's :class:`LanePlan` lanes and result).
    :meth:`process_batch` plans every job on the host, replays each
    unit's one cached mega-program (in logical rows) once over every
    lane of the batch, both wear groups placed at their own rows by
    the replay, ticks the clock by the per-job histogram per group,
    and checks every sensed pass against the plan.  Latency, optimizer
    stats, area and wear derive from the same declarations, so none
    can drift from the replay.
    """

    #: Periphery cycles one job spends outside the adder passes, per
    #: clock category.
    overhead: Dict[str, int]
    #: Run adder programs through the SIMD cycle packer
    #: (:mod:`repro.magic.passes`).
    optimize: bool
    units: Tuple[CrossbarStage, ...]
    checker: "ResidueChecker"
    clock: "Clock"
    #: Wear-leveling controller of the stage's rows; ``None`` runs
    #: every job in one group.
    leveler = None
    wear_leveling = False
    #: Whether every pass WRITEs its operands ``x{i}``/``y{i}`` into the
    #: adder's operand rows; otherwise the adders read rows the program
    #: computed (precompute).
    stages_operands = True

    def unit_passes(
        self,
    ) -> List[Tuple[CrossbarStage, List[Tuple[KoggeStoneAdder, str]]]]:
        """``(unit, passes)`` per crossbar unit, in replay order (the
        adders laid out in logical rows)."""
        raise NotImplementedError

    def _plan(self, job) -> Tuple[List[LanePlan], object]:
        """One job's lanes and its result, planned on the host."""
        raise NotImplementedError

    def adder_passes(self) -> List[Tuple[KoggeStoneAdder, str]]:
        """Every ``(adder, op)`` pass one job runs, in replay order."""
        return [p for _, passes in self.unit_passes() for p in passes]

    @property
    def overhead_cc(self) -> int:
        """Periphery cycles one job spends outside the adder passes."""
        return sum(self.overhead.values())

    def latency_cc(self) -> int:
        """Per-job stage latency: the overhead plus the replayed adder
        programs' cycle counts (the paper's closed form unless the
        optimizer is on)."""
        return self._latency

    @cached_property
    def _latency(self) -> int:
        return sum(self._clock_histogram.values())

    # Fixed for the stage's lifetime (wear states move rows, not
    # cycles); derived once, since timing is read on every batch.
    @cached_property
    def _clock_histogram(self) -> Dict[str, int]:
        """Cycles one job ticks per clock category."""
        hist = dict(self.overhead)
        for adder, op in self.adder_passes():
            program = adder.program(op, optimize=self.optimize)
            for opcode, cost in program.cycles_by_opcode().items():
                hist[opcode] = hist.get(opcode, 0) + cost
        return hist

    @cached_property
    def _schedule(self) -> List[Tuple[str, int]]:
        """``(op, window columns)`` of every pass a lane plans."""
        return [
            (op, adder.layout.columns) for adder, op in self.adder_passes()
        ]

    def optimizer_stats(self) -> Dict[str, object]:
        """Aggregated cycle-packer report over the adder passes one job
        runs: before/after cycles, savings per pass, and the pack factor
        (micro-ops retired per issued cycle)."""
        from repro.magic.passes import summarize_reports

        return summarize_reports(
            [adder.optimizer_report(op) for adder, op in self.adder_passes()]
        )

    @property
    def area_cells(self) -> int:
        return sum(unit.array.cells for unit in self.units)

    def max_writes(self) -> int:
        return max(unit.array.max_writes() for unit in self.units)

    # ------------------------------------------------------------------
    # Program hooks: what the stage's own program writes and resets
    # ------------------------------------------------------------------
    def _input_writes(self) -> List[Tuple[int, str, int, int]]:
        """``(row, name, col_offset, width)`` of every operand the
        program WRITEs before its first pass (none by default)."""
        return []

    def _closing_rows(self) -> List[int]:
        """Rows the program INITs after its last pass (none by default)."""
        return []

    def _sense_name(self, index: int) -> str:
        """Name the program READs pass *index*'s result under."""
        return f"out{index}"

    def _physical(self, row: int) -> int:
        """Physical row of logical *row* in the current wear state (a
        row outside the leveler's regions never moves)."""
        leveler = self.leveler
        if leveler is not None and leveler.manages(row):
            return leveler.physical_row(row)
        return row

    @cached_property
    def _powered(self) -> set:
        return set()

    def _power_up(self, k: int, passes) -> None:
        """Once per unit and wear state: bring the current state's
        adder scratch and sum rows to logic one out-of-band (every pass
        then leaves them there)."""
        key = (k, self.leveler is not None and self.leveler.swapped)
        if key not in self._powered:
            array = self.units[k].array
            physical = self._physical
            array.init_rows(
                [physical(r) for r in passes[0][0].layout.scratch_rows]
            )
            array.init_rows(
                list(dict.fromkeys(
                    physical(adder.layout.out_row) for adder, _ in passes
                ))
            )
            self._powered.add(key)

    @cached_property
    def _mega_programs(self) -> Tuple[Program, ...]:
        """Each unit's passes as one replayable program in logical rows
        (looked up once per stage; the replay places it per wear group)."""
        programs = []
        first = 0
        for k, (unit, passes) in enumerate(self.unit_passes()):
            indices = range(first, first + len(passes))
            first += len(passes)
            programs.append(
                mega_program(
                    self.checker.stage if k == 0 else f"{self.checker.stage}.{k}",
                    tuple(self._input_writes()),
                    tuple(
                        (
                            adder.layout,
                            op,
                            (f"x{i}", f"y{i}") if self.stages_operands else (),
                        )
                        for i, (adder, op) in zip(indices, passes)
                    ),
                    tuple(self._sense_name(i) for i in indices),
                    tuple(self._closing_rows()),
                    unit.array.cols,
                    self.optimize,
                )
            )
        return tuple(programs)

    def _placements(self, plans) -> Iterator[Placement]:
        """``(lane indices, wear permutation)`` of each wear group of
        the batch, lanes in job order (see :meth:`CrossbarStage.replay`).

        Walks the leveler through the batch as *B* single-job batches
        would, one group per step, powering each group's rows up the
        first time its wear state is met."""
        starts = [0]
        for job_lanes, _ in plans:
            starts.append(starts[-1] + len(job_lanes))
        leveler = self.leveler
        if leveler is None:
            groups = [range(len(plans))]
        else:
            groups = leveler.job_groups(len(plans), self.wear_leveling)
        # A leveler moves the rows of its stage's one unit.
        rows = self.units[0].array.rows
        for group in groups:
            for k, (_, passes) in enumerate(self.unit_passes()):
                self._power_up(k, passes)
            yield (
                [i for j in group for i in range(starts[j], starts[j + 1])],
                None if leveler is None else leveler.row_permutation(rows),
            )

    # ------------------------------------------------------------------
    def process_batch(self, jobs) -> list:
        """Run B jobs through the stage; returns one result per job.

        Every unit replays the whole batch once.  Where placement
        changes the data (a pinned fault or a fault hook), each wear
        group runs and is checked before the next group is placed."""
        jobs = list(jobs)
        if not jobs:
            return []
        plans = [self._plan(job) for job in jobs]
        lanes = [lane for job_lanes, _ in plans for lane in job_lanes]
        placements = self._placements(plans)
        if any(unit.placement_matters for unit in self.units):
            for group, wear in placements:
                self._replay(lanes, group, [(range(len(group)), wear)])
        else:
            self._replay(lanes, range(len(lanes)), list(placements))
        return [result for _, result in plans]

    def _replay(
        self,
        lanes: List[LanePlan],
        positions: Sequence[int],
        placements: List[Placement],
    ) -> None:
        """Replay every unit over the lanes at batch *positions*, placed
        by *placements* (indices into *positions*); check each sensed
        pass, located at its lane's batch position, and tick the clock
        by the per-job histogram once per placement."""
        first = 0
        for program, (unit, passes) in zip(
            self._mega_programs, self.unit_passes()
        ):
            stop = first + len(passes)
            stats = unit.replay(
                program,
                [self._bindings(lanes[i], first, stop) for i in positions],
                placements,
            )
            reads = [(i, self._sense_name(i)) for i in range(first, stop)]
            for index, lane_stats in zip(positions, stats):
                sensed, planned = lane_stats.results, lanes[index].passes
                for i, read in reads:
                    self._check_pass(sensed[read], planned[i], index)
            first = stop
        for _ in placements:
            for category, cycles in self._clock_histogram.items():
                self.clock.tick(cycles, category=category)

    def _bindings(self, lane: LanePlan, first: int, stop: int) -> Dict[str, int]:
        """One lane's WRITE operands for the passes ``first..stop-1``."""
        if not self.stages_operands:
            return lane.values
        values = dict(lane.values)
        for i in range(first, stop):
            _, _, x, y, _ = lane.passes[i]
            values[f"x{i}"] = x
            values[f"y{i}"] = y
        return values

    def _check_pass(self, sensed: int, planned: tuple, lane: int) -> None:
        """Verify one sensed pass of *lane* against its planned
        ``(name, op, x, y, result)``: the in-band residue code first
        (from the operands' residues, what the periphery would check),
        the full-width differential against the plan second.  A
        failure is located at ``name[lane]``."""
        name, op, x, y, expected = planned
        checker = self.checker
        checker.check_adder(sensed, op, x, y, name, lane)
        if sensed != expected:
            raise StageSelfCheckError(
                f"{checker.stage} {op} produced {sensed}, expected {expected}",
                stage=checker.stage,
                check="differential",
                location=f"{name}[{lane}]",
            )
