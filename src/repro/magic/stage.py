"""Crossbar stage: one subarray whose passes replay as SIMD lanes.

Every MAGIC stage — the Karatsuba precompute and postcompute
subarrays, every standalone adder
(:class:`~repro.arith.koggestone.AdderUnit`,
:class:`~repro.arith.ripple.RippleUnit`) — runs a pass the same way.
The stage array is the template: it is cloned into one lane per job,
the caller seeds the lanes, the compiled program replays across all
of them in lock-step, and the lanes' writes, energy and the all-ones
steady state fold back into the stage array.  Each lane models
one sequential reuse of the same physical subarray, so the folded
counters equal what running the jobs one after another would leave.

The four adder stages (Karatsuba precompute and postcompute, Toom-3
evaluation and interpolation; :class:`~repro.arith.koggestone
.AdderPassStage`) replay one mega-program per unit and wear-state
group per batch, every pass of a job in one program, not one replay
per pass; a standalone :meth:`AdderUnit.run_pass
<repro.arith.koggestone.AdderUnit.run_pass>` replays one pass.

The lane container and executor come from the stage's
:mod:`repro.magic.backend` (``word`` by default, ``scalar`` as the
bit-exact oracle); results and accounting are identical under both.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crossbar.array import CrossbarArray
from repro.magic.backend import DEFAULT_BACKEND, get_backend
from repro.magic.executor import MagicExecutor
from repro.magic.program import Program
from repro.sim.clock import Clock
from repro.sim.stats import RunStats


def all_ones(lanes) -> None:
    """Seed lanes at the MAGIC steady state: every cell at logic one.

    Where every adder-stage replay starts: its adder programs assume
    their scratch and sum rows at logic one."""
    lanes.reset_to_ones()


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
        #: Anchor executor: owns the persistent compile cache (one
        #: compile per program for the stage's lifetime) and the
        #: transient-fault hook every lane executor inherits.
        self.executor = MagicExecutor(array, clock=clock)

    def replay(
        self,
        program: Program,
        bindings: Sequence[Dict[str, int]],
        seed: Callable[[object], None],
        sense: Optional[Callable[[object], object]] = None,
    ) -> Tuple[List[RunStats], object]:
        """Clone the stage array into one lane per binding set, replay.

        *seed* prepares the fresh lanes before the faults are re-pinned
        (the Karatsuba stages reset them to the all-ones steady state,
        the adder units write their operand rows); *sense* reads the
        lanes after the program, while the reads still charge the lane
        energy.  Returns the per-lane run stats and what *sense*
        returned (``None`` without it).  An empty *bindings* clones
        nothing and returns no stats; *sense* is not called.
        """
        if not bindings:
            return [], None
        lanes = self.backend.make_array(self.array, len(bindings))
        seed(lanes)
        lanes.repin_faults()
        executor = self.backend.make_executor(
            lanes, clock=Clock(), fault_hook=self.executor.fault_hook
        )
        stats = executor.execute(self.executor.compile(program), bindings)
        sensed = sense(lanes) if sense is not None else None
        # Every lane pulsed the same cells; energy is one batch total.
        self.array.writes += lanes.writes * len(bindings)
        self.array.energy_fj += lanes.total_energy_fj()
        self.array.state[:] = True
        return stats, sensed

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
