"""Crossbar stage: one subarray whose passes replay as SIMD lanes.

Every MAGIC stage — the Karatsuba precompute and postcompute
subarrays, every standalone adder
(:class:`~repro.arith.koggestone.AdderUnit`,
:class:`~repro.arith.ripple.RippleUnit`) — runs a pass the same way.
The stage array is the template: it is cloned into one lane per job,
every lane starts at the all-ones MAGIC steady state, the compiled
program replays across all of them in lock-step, and the lanes'
writes, energy and the all-ones steady state fold back into the stage
array.  The program is the only way into the lanes: it WRITEs its
operands and READs its results, each a micro-op of the schedule
(paper Sec. II-B), so every write, sense and fault hook is accounted
in one place.  Each lane models one sequential reuse of the same
physical subarray, so the folded counters equal what running the jobs
one after another would leave.

The four adder stages (Karatsuba precompute and postcompute, Toom-3
evaluation and interpolation; :class:`~repro.arith.koggestone
.AdderPassStage`) replay one mega-program per unit per batch, every
pass of every job in one program, not one replay per pass; a
standalone :meth:`AdderUnit.run_pass
<repro.arith.koggestone.AdderUnit.run_pass>` replays a one-pass
mega-program.
Wear leveling (paper Sec. IV-B) is a periphery remap: it decides which
physical rows a job's pulses land on, not what the lanes compute, so
the programs are built in logical rows and :meth:`CrossbarStage.replay`
places each wear group's pulses when it folds them back.

The lane container and executor come from the stage's
:mod:`repro.magic.backend` (``word`` by default, ``scalar`` as the
bit-exact oracle); results and accounting are identical under both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.crossbar.array import CrossbarArray
from repro.magic.backend import DEFAULT_BACKEND, get_backend
from repro.magic.executor import MagicExecutor
from repro.magic.program import Program
from repro.sim.clock import Clock
from repro.sim.stats import RunStats

#: One wear group of a replay: the indices of its lanes and the wear
#: permutation of logical rows its jobs meet (``None``: unmoved).
Placement = Tuple[Sequence[int], Optional[Sequence[int]]]


class CrossbarStage:
    """A crossbar subarray, its anchor executor and its lane replay."""

    def __init__(
        self,
        array: CrossbarArray,
        backend: object = DEFAULT_BACKEND,
        clock: Optional[Clock] = None,
    ):
        self.array = array
        #: Batched execution strategy (see :mod:`repro.magic.backend`).
        #: Per-lane results and accounting are bit-identical across
        #: backends; defaults to the word-packed replay.
        self.backend = get_backend(backend)
        #: Anchor executor: resolves each replayed program to its
        #: compiled form (counting the lookups) and holds the
        #: transient-fault hook every lane executor inherits.
        self.executor = MagicExecutor(array, clock=clock)

    def replay(
        self,
        program: Program,
        bindings: Sequence[Dict[str, int]],
        placements: Optional[Sequence[Placement]] = None,
    ) -> List[RunStats]:
        """Clone the stage array into one lane per binding set, replay.

        Every lane starts at the all-ones steady state (the adder
        programs assume their scratch and sum rows at logic one) with
        the array's faults pinned; *program* WRITEs its operands from
        the lane's bindings and READs its results.  Returns the per-lane
        run stats, in *bindings* order, each lane's READs in its
        ``results``.  An empty *bindings* clones nothing and returns no
        stats.

        *placements* splits the lanes into wear groups, ``(lane
        indices, wear permutation)`` each; the permutation maps every
        logical row of the program to the row the group's jobs touch
        (``None``: unmoved) and is composed with the array's spare-row
        remap.  Placement moves write pulses, never data, so all lanes
        replay at once and each group's pulses fold back at its own
        rows.  A pinned stuck-at fault or a fault hook makes the data
        depend on placement: then each group replays under its own row
        map, in group order.
        """
        if not bindings:
            return []
        array = self.array
        remap = array._row_map
        if placements is None:
            placements = ((range(len(bindings)), None),)
        row_maps = [
            None if wear is None else [remap[row] for row in wear]
            for _, wear in placements
        ]
        if not self.placement_matters:
            stats, lanes = self._run(program, bindings)
            # Every lane pulsed the same logical cells; each group lands
            # them on its own rows.
            logical = lanes.writes[remap]
            for (group, _), rows in zip(placements, row_maps):
                array.writes[remap if rows is None else rows] += (
                    logical * len(group)
                )
            array.energy_fj += lanes.total_energy_fj()
        else:
            stats = [None] * len(bindings)
            for (group, _), rows in zip(placements, row_maps):
                group_stats, lanes = self._run(
                    program, [bindings[i] for i in group], rows
                )
                for i, lane_stats in zip(group, group_stats):
                    stats[i] = lane_stats
                array.writes += lanes.writes * len(group)
                array.energy_fj += lanes.total_energy_fj()
        array.state[:] = True
        return stats

    def _run(self, program, bindings, row_map=None):
        """One lock-step replay over fresh all-ones lanes addressing
        *row_map* (default: the array's own); returns ``(stats, lanes)``."""
        lanes = self.backend.make_array(self.array, len(bindings), row_map)
        lanes.reset_to_ones()
        lanes.repin_faults()
        executor = self.backend.make_executor(
            lanes, clock=Clock(), fault_hook=self.executor.fault_hook
        )
        return executor.execute(self.executor.compile(program), bindings), lanes

    @property
    def placement_matters(self) -> bool:
        """Whether the rows a lane lands on can change its data: a
        pinned stuck-at fault or an installed fault hook."""
        return self.executor.fault_hook is not None or bool(self.array.fault_count)

    # ------------------------------------------------------------------
    # Reliability hooks
    # ------------------------------------------------------------------
    @property
    def fault_hook(self):
        """Transient-fault injector driving this stage's lane replays."""
        return self.executor.fault_hook

    @fault_hook.setter
    def fault_hook(self, hook) -> None:
        self.executor.fault_hook = hook

    def diagnose_and_repair(self) -> List[int]:
        """Write-verify every logical row; remap the failures onto spares.

        Run after a self-check fired: the march test localises rows
        with permanent write failures (an empty result means the upset
        was transient — replaying without remap suffices).  The array
        is left at the all-ones steady state, ready for the replay.
        Raises :class:`~repro.sim.exceptions.SpareRowsExhaustedError`
        when more rows fail than spares remain.
        """
        faulty = self.array.find_faulty_rows()
        for row in faulty:
            self.array.remap_row(row)
        self.array.state[:] = True
        self.array.repin_faults()
        return faulty

    @property
    def units(self) -> Tuple["CrossbarStage", ...]:
        """Crossbar units this stage owns: its own subarray."""
        return (self,)
