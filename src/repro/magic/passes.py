"""Pass-manager-driven SIMD cycle-packing optimizer for MAGIC programs.

The executors charge one cycle per micro-op even when many NOR/NOT/INIT
ops are mutually independent — yet the substrate is row-parallel SIMD
(paper Sec. II-B): gates whose output word lines are disjoint and do
not overlap any concurrent operand row can legally share a cycle, the
same observation parallelism-aware technology mappers for memristive
crossbars exploit (CONTRA, arXiv:2009.00881; crossbar-constrained
mapping, arXiv:1809.08195).  This module turns that slack into cycles:

1. :func:`dependence_dag` — read/write dependence DAG over a program
   (RAW, WAR, WAW on rows, plus READ-name serialisation and NOP
   barriers), built from the same :func:`~repro.magic.optimize.effect_of`
   row model the liveness analysis uses;
2. :func:`pack_cycles` — a deterministic list scheduler over that DAG
   that packs ready same-opcode gates into
   :class:`~repro.magic.ops.ParallelNor` / :class:`ParallelNot` packs
   and merges ready INITs into one multi-row cycle;
3. :func:`reallocate_scratch` — liveness-driven linear-scan remapping
   of a scratch-row pool, shrinking the row footprint of generated
   programs;
4. :class:`PassManager` — runs a pass pipeline and re-verifies the
   result with :func:`~repro.magic.optimize.check_protocol`, so packing
   can never break the MAGIC init discipline, and refuses any pass that
   increases the cycle count.

Packing legality (one cycle, one pack): output rows pairwise distinct
and disjoint from every operand row of the pack.  Operand rows may be
shared between gates — input word lines are voltage-driven and fan out,
while each output word line is exclusively owned by one gate.  Ready
ops of a list scheduler are mutually independent by construction, and
emission order is a topological order of the DAG, so row dataflow is
preserved exactly; the property-based equivalence suite holds the
optimizer to bit-exact results on both executors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.magic.optimize import check_protocol, coalesce_inits, effect_of
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
from repro.sim.exceptions import ProgramError

__all__ = [
    "dependence_dag",
    "drop_nops",
    "pack_cycles",
    "reallocate_scratch",
    "PassStats",
    "OptimizationResult",
    "PassManager",
    "optimize_program",
    "summarize_reports",
]


# ----------------------------------------------------------------------
# Dependence DAG
# ----------------------------------------------------------------------
def dependence_dag(
    program: Program,
) -> Tuple[List[Set[int]], List[Set[int]]]:
    """Build the dependence DAG of *program*.

    Returns ``(preds, succs)``: for each op index, the set of earlier /
    later op indices it is ordered against.  Edges cover row dataflow
    (RAW, WAR, WAW — conservative across the whole row, like every
    static check in :mod:`repro.magic.optimize`), READ ops sharing a
    result name (the later read wins, so their order is semantic), and
    NOPs, which act as full barriers (they encode controller alignment
    the scheduler must not reorder across when asked to keep them).
    """
    ops = program.ops
    n = len(ops)
    preds: List[Set[int]] = [set() for _ in range(n)]
    last_writer: Dict[int, int] = {}
    readers_since: Dict[int, List[int]] = {}
    last_read_name: Dict[str, int] = {}
    barrier: Optional[int] = None
    for i, op in enumerate(ops):
        if isinstance(op, Nop):
            preds[i].update(range(i))
            barrier = i
            continue
        if barrier is not None:
            preds[i].add(barrier)
        eff = effect_of(op)
        for row in eff.reads:
            j = last_writer.get(row)
            if j is not None:
                preds[i].add(j)
        for row in eff.writes:
            j = last_writer.get(row)
            if j is not None:
                preds[i].add(j)
            preds[i].update(readers_since.get(row, ()))
        if isinstance(op, Read):
            j = last_read_name.get(op.name)
            if j is not None:
                preds[i].add(j)
            last_read_name[op.name] = i
        for row in eff.reads:
            readers_since.setdefault(row, []).append(i)
        for row in eff.writes:
            last_writer[row] = i
            readers_since[row] = []
        preds[i].discard(i)
    succs: List[Set[int]] = [set() for _ in range(n)]
    for i, pset in enumerate(preds):
        for j in pset:
            succs[j].add(i)
    return preds, succs


def drop_nops(program: Program) -> Program:
    """Remove controller-alignment NOPs (pure idle cycles)."""
    kept = [op for op in program.ops if not isinstance(op, Nop)]
    return Program(ops=kept, label=program.label)


# ----------------------------------------------------------------------
# Cycle packing (list scheduling)
# ----------------------------------------------------------------------
def _gate_reads(gate) -> Set[int]:
    return set(gate.in_rows) if isinstance(gate, Nor) else {gate.in_row}


def pack_cycles(
    program: Program,
    max_pack: Optional[int] = None,
) -> Program:
    """List-schedule *program*, packing independent same-opcode ops.

    Ready NOR (resp. NOT) gates whose output rows are pairwise distinct
    and disjoint from every operand row of the pack fuse into one
    :class:`ParallelNor` (:class:`ParallelNot`) issued in a single
    cycle; ready INITs with the same column window merge into one
    multi-row INIT.  Everything else is emitted singly.  The emission
    order is a topological order of :func:`dependence_dag`, ties broken
    by original index, so the result is deterministic and semantically
    identical to the input.

    *max_pack* caps gates per pack (``None`` = unlimited, the paper's
    row-parallel idealisation; real drivers may bound simultaneous
    output word lines).
    """
    ops = program.ops
    preds, succs = dependence_dag(program)
    indeg = [len(p) for p in preds]
    ready: Set[int] = {i for i, d in enumerate(indeg) if d == 0}
    out: List[MicroOp] = []
    scheduled = 0
    while ready:
        i = min(ready)
        op = ops[i]
        group = [i]
        if isinstance(op, (Nor, Not)) and op.out_row not in _gate_reads(op):
            kind = Nor if isinstance(op, Nor) else Not
            gates: List[MicroOp] = [op]
            outs = {op.out_row}
            reads = _gate_reads(op)
            for j in sorted(ready):
                if j == i or (max_pack is not None and len(gates) >= max_pack):
                    continue
                cand = ops[j]
                if not isinstance(cand, kind):
                    continue
                c_reads = _gate_reads(cand)
                if (
                    cand.out_row in outs
                    or cand.out_row in reads
                    or cand.out_row in c_reads
                    or c_reads & outs
                ):
                    continue
                gates.append(cand)
                outs.add(cand.out_row)
                reads |= c_reads
                group.append(j)
            if len(gates) > 1:
                pack_cls = ParallelNor if kind is Nor else ParallelNot
                out.append(pack_cls(gates=tuple(gates)))
            else:
                out.append(op)
        elif isinstance(op, Init):
            rows = list(op.rows)
            for j in sorted(ready):
                if j == i:
                    continue
                cand = ops[j]
                if isinstance(cand, Init) and cand.cols == op.cols:
                    rows.extend(cand.rows)
                    group.append(j)
            if len(group) > 1:
                out.append(Init(rows=tuple(dict.fromkeys(rows)), cols=op.cols))
            else:
                out.append(op)
        else:
            out.append(op)
        for member in group:
            ready.discard(member)
            scheduled += 1
            for succ in succs[member]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.add(succ)
    if scheduled != len(ops):  # pragma: no cover - scheduler invariant
        raise ProgramError(
            f"cycle packer scheduled {scheduled} of {len(ops)} ops "
            "(dependence cycle?)"
        )
    return Program(ops=out, label=program.label)


# ----------------------------------------------------------------------
# Scratch-row reallocation
# ----------------------------------------------------------------------
def _remap_rows(op: MicroOp, mapping: Dict[int, int]) -> MicroOp:
    """Rebuild *op* with every row reference sent through *mapping*."""

    def m(row: int) -> int:
        return mapping.get(row, row)

    if isinstance(op, Init):
        return Init(rows=tuple(m(r) for r in op.rows), cols=op.cols)
    if isinstance(op, Nor):
        return Nor(
            in_rows=tuple(m(r) for r in op.in_rows),
            out_row=m(op.out_row),
            cols=op.cols,
        )
    if isinstance(op, Not):
        return Not(in_row=m(op.in_row), out_row=m(op.out_row), cols=op.cols)
    if isinstance(op, ParallelNor):
        return ParallelNor(
            gates=tuple(_remap_rows(g, mapping) for g in op.gates)
        )
    if isinstance(op, ParallelNot):
        return ParallelNot(
            gates=tuple(_remap_rows(g, mapping) for g in op.gates)
        )
    if isinstance(op, Write):
        return Write(
            row=m(op.row),
            name=op.name,
            col_offset=op.col_offset,
            width=op.width,
        )
    if isinstance(op, Read):
        return Read(
            row=m(op.row),
            name=op.name,
            col_offset=op.col_offset,
            width=op.width,
        )
    if isinstance(op, Shift):
        return Shift(
            src_row=m(op.src_row),
            dst_row=m(op.dst_row),
            offset=op.offset,
            fill=op.fill,
            cols=op.cols,
            also_init=tuple(m(r) for r in op.also_init),
        )
    return op


def reallocate_scratch(
    program: Program, pool: Sequence[int]
) -> Tuple[Program, Dict[int, int]]:
    """Compact the program's use of *pool* rows by linear-scan renaming.

    Rows in *pool* are treated as interchangeable scratch: each row's
    lifetime (first to last reference) is computed and rows are
    reassigned greedily in pool order, so non-overlapping lifetimes
    share one physical row and the program's scratch footprint shrinks
    to the peak number of simultaneously-live intermediates.  Rows
    outside the pool are untouched.

    Correctness contract: the pool must be *state-uniform* when the
    program starts (the stage discipline — every pass leaves the whole
    scratch region at logic one), because a row read before its first
    write observes the initial state of its *new* position.  Returns
    the remapped program and the applied ``old row -> new row`` map.
    """
    pool = list(pool)
    pool_set = set(pool)
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    for index, op in enumerate(program.ops):
        eff = effect_of(op)
        for row in set(eff.reads) | set(eff.writes):
            if row in pool_set:
                first.setdefault(row, index)
                last[row] = index
    free = list(pool)
    active: List[Tuple[int, int]] = []  # (last_ref, old_row)
    mapping: Dict[int, int] = {}
    for old in sorted(first, key=first.get):
        begin = first[old]
        for end, done in list(active):
            if end < begin:
                active.remove((end, done))
                free.insert(0, mapping[done])
                free.sort(key=pool.index)
        mapping[old] = free.pop(0)
        active.append((last[old], old))
    remapped = [_remap_rows(op, mapping) for op in program.ops]
    return Program(ops=remapped, label=program.label), mapping


# ----------------------------------------------------------------------
# Pass manager
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PassStats:
    """Before/after accounting of one optimizer pass."""

    name: str
    ops_before: int
    ops_after: int
    cycles_before: int
    cycles_after: int

    @property
    def cycles_saved(self) -> int:
        return self.cycles_before - self.cycles_after


@dataclass(frozen=True)
class OptimizationResult:
    """Optimized program plus the full pass-by-pass report."""

    program: Program
    passes: Tuple[PassStats, ...]
    cycles_before: int
    cycles_after: int
    rows_before: int
    rows_after: int

    @property
    def cycles_saved(self) -> int:
        return self.cycles_before - self.cycles_after

    @property
    def pack_factor(self) -> float:
        """Average micro-ops retired per issued cycle after packing
        (1.0 = no packing; > 1 means SIMD cycles carry several gates)."""
        gates = 0
        for op in self.program.ops:
            gates += len(op.gates) if isinstance(op, (ParallelNor, ParallelNot)) else 1
        return gates / self.cycles_after if self.cycles_after else 1.0


def summarize_reports(
    reports: Sequence[OptimizationResult],
) -> Dict[str, object]:
    """Aggregate optimizer reports (e.g. one per stage program) into
    the pack-factor stats the service metrics snapshot exposes."""
    before = sum(r.cycles_before for r in reports)
    after = sum(r.cycles_after for r in reports)
    gates = 0
    for r in reports:
        for op in r.program.ops:
            gates += (
                len(op.gates)
                if isinstance(op, (ParallelNor, ParallelNot))
                else 1
            )
    by_pass: Dict[str, int] = {}
    for r in reports:
        for p in r.passes:
            by_pass[p.name] = by_pass.get(p.name, 0) + p.cycles_saved
    return {
        "enabled": True,
        "cycles_before": before,
        "cycles_after": after,
        "cycles_saved": before - after,
        # Raw numerator of the pack factor.  Fleet-wide aggregation
        # must sum ``gates`` and ``cycles_after`` across stages and
        # recompute the ratio — averaging or re-weighting the per-stage
        # ``pack_factor`` floats mis-weights stages and loses gates
        # whenever a stage reports the ``cycles_after == 0`` convention.
        "gates": gates,
        "pack_factor": gates / after if after else 1.0,
        "by_pass": by_pass,
    }


#: A pass: Program -> Program.
Pass = Callable[[Program], Program]


class PassManager:
    """Runs an ordered pass pipeline with per-pass verification.

    After every pass the manager re-checks the MAGIC init discipline
    (:func:`check_protocol` under *initially_ones*) — provided the
    input program satisfied it — and rejects any pass that increased
    the cycle count.  A failing pass raises :class:`ProgramError`
    rather than silently emitting a broken or slower program.
    """

    def __init__(
        self,
        passes: Optional[Sequence[Tuple[str, Pass]]] = None,
        initially_ones: FrozenSet[int] = frozenset(),
        scratch_pool: Optional[Sequence[int]] = None,
        keep_nops: bool = False,
        max_pack: Optional[int] = None,
    ):
        self.initially_ones = set(initially_ones)
        if scratch_pool is not None:
            self.initially_ones |= set(scratch_pool)
        if passes is None:
            stages: List[Tuple[str, Pass]] = []
            if not keep_nops:
                stages.append(("drop-nops", drop_nops))
            stages.append(("coalesce-inits", coalesce_inits))
            stages.append(
                ("pack-cycles", lambda p: pack_cycles(p, max_pack=max_pack))
            )
            if scratch_pool is not None:
                pool = list(scratch_pool)
                stages.append(
                    ("reallocate-scratch", lambda p: reallocate_scratch(p, pool)[0])
                )
            passes = stages
        self.passes = list(passes)

    def run(self, program: Program) -> OptimizationResult:
        baseline_ok = check_protocol(program, self.initially_ones).ok
        current = program
        stats: List[PassStats] = []
        for name, fn in self.passes:
            before_ops, before_cc = len(current.ops), current.cycle_count
            candidate = fn(current)
            if candidate.cycle_count > before_cc:
                raise ProgramError(
                    f"pass {name!r} increased cycles: "
                    f"{before_cc} -> {candidate.cycle_count}"
                )
            if baseline_ok:
                report = check_protocol(candidate, self.initially_ones)
                if not report.ok:
                    raise ProgramError(
                        f"pass {name!r} broke the MAGIC init discipline: "
                        f"{report.violations[:2]}"
                    )
            stats.append(
                PassStats(
                    name=name,
                    ops_before=before_ops,
                    ops_after=len(candidate.ops),
                    cycles_before=before_cc,
                    cycles_after=candidate.cycle_count,
                )
            )
            current = candidate
        current = Program(
            ops=current.ops,
            label=(program.label + "+opt") if program.label else "optimized",
        )
        return OptimizationResult(
            program=current,
            passes=tuple(stats),
            cycles_before=program.cycle_count,
            cycles_after=current.cycle_count,
            rows_before=len(program.rows_touched()),
            rows_after=len(current.rows_touched()),
        )


def optimize_program(
    program: Program,
    initially_ones: FrozenSet[int] = frozenset(),
    scratch_pool: Optional[Sequence[int]] = None,
    keep_nops: bool = False,
    max_pack: Optional[int] = None,
) -> OptimizationResult:
    """One-call default pipeline: drop NOPs, coalesce INITs, pack
    cycles (and compact *scratch_pool* rows when given), verified."""
    manager = PassManager(
        initially_ones=initially_ones,
        scratch_pool=scratch_pool,
        keep_nops=keep_nops,
        max_pack=max_pack,
    )
    return manager.run(program)
