"""Karatsuba Multiplication Controller (paper Fig. 5, centre).

The controller owns the three stage subarrays, feeds input operands to
the precomputation stage, moves intermediate results across stage
boundaries, and stores the final product back to main memory.  It is
the only component that sees whole operands; each stage works purely on
named chunk values.

:class:`PipelineController` is that controller once, for every design
(Karatsuba here, Toom-3 and schoolbook in :mod:`repro.portfolio`):
a design supplies its three stages, its operand split and the hand-off
between stages; batch execution, timing, wear, energy and the
reliability hooks are shared.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.arith.bitops import split_chunks
from repro.karatsuba.multiply import MultiplicationStage
from repro.karatsuba.postcompute import PostcomputeStage
from repro.karatsuba.precompute import PrecomputeStage
from repro.magic.backend import DEFAULT_BACKEND
from repro.magic.stage import CrossbarStage
from repro.sim.exceptions import DesignError
from repro.telemetry import spans as _telemetry

#: Smallest multiplication the design supports (the L = 2 postcompute
#: batching layout needs n/4 >= 4).
MIN_BITS = 16


@contextmanager
def stage_span(tracer, name: str, stage, width: int, jobs: int):
    """One telemetry span per stage pass, timed on the stage clock.

    Carries the paper-facing accounting as attributes: operand width,
    SIMD job count, NOR cycles spent, and (for a stage that owns
    crossbar :attr:`units`) the energy all of its units consumed in
    the pass.  A no-op without *tracer*.
    """
    if tracer is None:
        yield
        return
    units = stage.units
    energy_before = _energy_fj(units) if units else None
    nor_before = stage.clock.by_category.get("nor", 0)
    with tracer.span(
        f"stage.{name}", clock=stage.clock, width=width, jobs=jobs
    ) as span:
        yield
        span.set(nor=stage.clock.by_category.get("nor", 0) - nor_before)
        if energy_before is not None:
            span.set(energy_fj=_energy_fj(units) - energy_before)


def _energy_fj(units: Sequence[CrossbarStage]) -> float:
    return float(sum(unit.array.energy_fj for unit in units))


@dataclass(frozen=True)
class JobRecord:
    """Result and per-stage cycle counts of one multiplication job."""

    a: int
    b: int
    product: int
    precompute_cycles: int
    multiply_cycles: int
    postcompute_cycles: int

    @property
    def total_cycles(self) -> int:
        """Unpipelined latency of this job."""
        return (
            self.precompute_cycles
            + self.multiply_cycles
            + self.postcompute_cycles
        )


class PipelineController:
    """The one controller surface of the three-slot multiplier designs.

    A design subclass declares its slots — :attr:`stage_attr_names`,
    the attributes holding the stage objects, slot for slot — and keeps
    only its constructor, its operand split (:meth:`_split`) and the
    result field each stage hands to the next (:attr:`handoff`).
    Every stage exposes its ``layout``, ``process_batch``,
    ``latency_cc()``, ``area_cells``, ``max_writes()``, ``checker``
    (``None`` when it checks nothing) and ``units``, the crossbar units
    it owns (none for the row-multiplier and periphery slots).  Energy, spares,
    fault hooks, repair, compile caches and optimizer stats all read
    those unit lists.
    """

    stage_attr_names: Tuple[str, str, str]
    #: Result field each stage passes on, slot for slot; the last
    #: stage's results carry ``product``.
    handoff: Tuple[str, str]

    def __init__(self, n_bits: int, optimize: bool, backend: object):
        self.n_bits = n_bits
        #: Run stage adder programs through the SIMD cycle packer
        #: (:mod:`repro.magic.passes`).  Off by default so the datapath
        #: reproduces the paper's closed-form stage latencies.
        self.optimize = optimize
        #: Batched execution strategy shared by the MAGIC stages (the
        #: row multipliers are closed-form and take no executor).  Any
        #: :mod:`repro.magic.backend` name; accounting is bit-identical
        #: across backends.
        self.backend = backend
        self.jobs = 0
        self._fault_hook = None

    @property
    def stages(self) -> Tuple[object, ...]:
        """The stage objects, slot for slot."""
        return tuple(vars(self)[name] for name in self.stage_attr_names)

    @property
    def stage_names(self) -> Tuple[str, ...]:
        """The pipeline-timing label of each slot, from its stage's
        :class:`~repro.karatsuba.cost.StageLayout`."""
        return tuple(stage.layout.name for stage in self.stages)

    def crossbar_units(self) -> List[Tuple[str, CrossbarStage]]:
        """``(label, unit)`` for every crossbar unit, stage by stage.

        A unit is labelled with its stage attribute; a stage's second
        and later units get an index suffix (``interpolate.1``).
        """
        return [
            (name if k == 0 else f"{name}.{k}", unit)
            for name, stage in zip(self.stage_attr_names, self.stages)
            for k, unit in enumerate(stage.units)
        ]

    # ------------------------------------------------------------------
    def _split(self, pairs: List[Tuple[int, int]]) -> list:
        """First-stage inputs of every operand pair."""
        raise NotImplementedError

    def _check_products(
        self, pairs: List[Tuple[int, int]], products: List[int]
    ) -> None:
        """End-to-end check of the assembled products (none by default)."""

    def _checked_pairs(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[Tuple[int, int]]:
        pairs = list(pairs)
        for a, b in pairs:
            if a < 0 or b < 0:
                raise DesignError("operands must be non-negative")
            if a >> self.n_bits or b >> self.n_bits:
                raise DesignError(f"operands must fit in {self.n_bits} bits")
        return pairs

    def run_job(self, a: int, b: int) -> JobRecord:
        """Multiply two *n_bits*-wide operands through all three stages."""
        return self.run_jobs_batch([(a, b)])[0]

    def run_jobs_batch(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[JobRecord]:
        """Multiply a batch of operand pairs through all three stages.

        Every stage executes its whole batch in SIMD fashion (one
        compiled pass per wear state) instead of job-by-job, which is
        where the pipeline's throughput comes from.  Products, per-job
        cycle counts, wear counters and energy are bit-identical to
        one single-job batch per pair; only the stage clocks differ,
        advancing once per lock-step pass rather than once per job.
        """
        pairs = self._checked_pairs(pairs)
        if not pairs:
            return []
        tracer = _telemetry.active()
        jobs, width = len(pairs), self.n_bits
        batch = self._split(pairs)
        results = []
        slots = zip(self.stage_names, self.stages)
        for slot, (name, stage) in enumerate(slots):
            if slot:
                field = self.handoff[slot - 1]
                batch = [getattr(r, field) for r in results[-1]]
            with stage_span(tracer, name, stage, width, jobs):
                results.append(stage.process_batch(batch))
        first, middle, last = results
        products = [r.product for r in last]
        self._check_products(pairs, products)
        self.jobs += jobs
        return [
            JobRecord(
                a=a,
                b=b,
                product=products[i],
                precompute_cycles=first[i].cycles,
                multiply_cycles=middle[i].cycles,
                postcompute_cycles=last[i].cycles,
            )
            for i, (a, b) in enumerate(pairs)
        ]

    # ------------------------------------------------------------------
    def stage_latencies(self) -> Tuple[int, ...]:
        """Static per-slot latencies in cc."""
        return tuple(stage.latency_cc() for stage in self.stages)

    @property
    def area_cells(self) -> int:
        """Total memory cells across the stages."""
        return sum(stage.area_cells for stage in self.stages)

    def max_writes(self) -> int:
        """Hottest-cell write count across all stages so far."""
        return max(stage.max_writes() for stage in self.stages)

    def total_energy_fj(self) -> float:
        """Accumulated array energy across the crossbar units, in fJ
        (the row multipliers model wear but not device energy)."""
        return _energy_fj([unit for _, unit in self.crossbar_units()])

    # ------------------------------------------------------------------
    # Reliability
    # ------------------------------------------------------------------
    @property
    def fault_hook(self):
        """Transient-fault injector shared by every crossbar unit."""
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(self, hook) -> None:
        self._fault_hook = hook
        for _, unit in self.crossbar_units():
            unit.fault_hook = hook

    def diagnose_and_repair(self) -> dict:
        """Write-verify and remap every crossbar unit.

        Returns ``{unit label: [remapped logical rows]}`` for the units
        that had failures (the multiplier rows are a numeric model).
        An empty mapping means the detected upset was transient and a
        plain replay suffices.
        """
        report = {}
        for label, unit in self.crossbar_units():
            remapped = unit.diagnose_and_repair()
            if remapped:
                report[label] = remapped
        return report

    def spare_rows_free(self) -> int:
        """Spare word lines still available across the crossbar units."""
        return sum(
            unit.array.spare_rows_free for _, unit in self.crossbar_units()
        )

    def optimizer_stats(self) -> dict:
        """Aggregated cycle-packer savings across the MAGIC stages.

        ``{"enabled": False}`` when the optimizer is off or no stage
        runs adder programs; otherwise one additive summary per stage
        (pack factor, cycles saved per pass).
        """
        magic = [
            (name, stage)
            for name, stage in zip(self.stage_attr_names, self.stages)
            if stage.units
        ]
        if not (self.optimize and magic):
            return {"enabled": False}
        stats: dict = {"enabled": True}
        for name, stage in magic:
            stats[name] = stage.optimizer_stats()
        return stats

    def residue_stats(self) -> List[dict]:
        """Per-stage residue-checker statistics."""
        return [
            stage.checker.stats()
            for stage in self.stages
            if stage.checker is not None
        ]


class KaratsubaController(PipelineController):
    """Drives one multiplication through the three-stage datapath.

    *depth* is the unroll depth L (the paper ships L = 2): every stage
    lays out its rows and passes from the depth-L unrolled plan.
    """

    stage_attr_names = ("precompute", "multiply_stage", "postcompute")
    handoff = ("chunk_sums", "products")

    def __init__(
        self,
        n_bits: int,
        depth: int = 2,
        wear_leveling: bool = True,
        device=None,
        spare_rows: int = 2,
        residue_bits: int = 8,
        optimize: bool = False,
        backend: object = DEFAULT_BACKEND,
    ):
        if n_bits < MIN_BITS or n_bits % 4:
            raise DesignError(
                f"operand width must be a multiple of 4 and >= {MIN_BITS}, "
                f"got {n_bits}"
            )
        super().__init__(n_bits, optimize, backend)
        self.depth = depth
        self.precompute = PrecomputeStage(
            n_bits,
            depth,
            wear_leveling=wear_leveling,
            device=device,
            spare_rows=spare_rows,
            residue_bits=residue_bits,
            optimize=optimize,
            backend=backend,
        )
        self.multiply_stage = MultiplicationStage(
            n_bits,
            depth,
            wear_leveling=wear_leveling,
            residue_bits=residue_bits,
        )
        self.postcompute = PostcomputeStage(
            n_bits,
            depth,
            wear_leveling=wear_leveling,
            device=device,
            spare_rows=spare_rows,
            residue_bits=residue_bits,
            optimize=optimize,
            backend=backend,
        )

    def _split(self, pairs):
        chunk_bits, chunks = self.n_bits >> self.depth, 1 << self.depth
        return [
            (split_chunks(a, chunk_bits, chunks),
             split_chunks(b, chunk_bits, chunks))
            for a, b in pairs
        ]


def depth_study(
    n_bits: int = 64, depths: Tuple[int, ...] = (1, 2, 3)
) -> Dict[int, JobRecord]:
    """One seeded multiplication per feasible depth through
    :class:`KaratsubaController` (a measured counterpart to Fig. 4's
    analytic sweep): ``{depth: job record}``."""
    rng = random.Random(0xF164)
    study: Dict[int, JobRecord] = {}
    for depth in depths:
        if n_bits % (1 << depth):
            continue
        controller = KaratsubaController(n_bits, depth)
        study[depth] = controller.run_job(
            rng.getrandbits(n_bits), rng.getrandbits(n_bits)
        )
    return study
