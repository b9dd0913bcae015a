"""Banked deployment of pipelined CIM multipliers.

The paper evaluates a single three-stage datapath; real FHE/ZKP
accelerators would tile many of them across a memory die (its intro
cites multi-gigabyte working sets).  This module models a *bank* of
identical pipelined multipliers fed from one job queue:

* functional path — every job still runs bit-exactly through a
  simulated datapath;
* timing path — jobs are assigned least-loaded-first (a balanced
  ceil/floor split on a homogeneous bank); each datapath accepts one
  job per bottleneck interval, so the bank's steady-state throughput is
  ``k * 1e6 / bottleneck_cc`` for ``k`` datapaths;
* cost path — area scales linearly; ATP is invariant in ``k`` (the
  useful figure is throughput per area, which banking preserves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.karatsuba.cost import DesignCost
from repro.karatsuba.pipeline import DEFAULT_BATCH_SIZE, KaratsubaPipeline
from repro.sim.exceptions import DesignError
from repro.telemetry import spans as _telemetry
from repro.telemetry.spans import NOOP_SPAN


@dataclass(frozen=True)
class BankTiming:
    """Static timing of a k-wide multiplier bank."""

    n_bits: int
    ways: int
    pipeline: DesignCost

    @property
    def throughput_per_mcc(self) -> float:
        return self.ways * self.pipeline.throughput_per_mcc

    @property
    def area_cells(self) -> int:
        return self.ways * self.pipeline.area_cells

    @property
    def atp(self) -> float:
        """Banking leaves the area-time product unchanged."""
        return self.area_cells / self.throughput_per_mcc

    def makespan_cc(self, jobs: int) -> int:
        """Cycles to drain *jobs* multiplications over the bank."""
        if jobs < 0:
            raise DesignError("job count must be non-negative")
        if jobs == 0:
            return 0
        per_way = -(-jobs // self.ways)     # ceiling division
        return self.pipeline.makespan_cc(per_way)


@dataclass(frozen=True)
class BankStreamResult:
    """Outcome of draining a job stream through the bank."""

    products: List[int]
    makespan_cc: int
    per_way_jobs: List[int]

    @property
    def achieved_throughput_per_mcc(self) -> float:
        if self.makespan_cc == 0:
            return 0.0
        return len(self.products) * 1e6 / self.makespan_cc


class MultiplierBank:
    """A bank of ``ways`` identical pipelined Karatsuba multipliers."""

    def __init__(self, n_bits: int, ways: int, wear_leveling: bool = True):
        if ways < 1:
            raise DesignError("a bank needs at least one way")
        self.n_bits = n_bits
        self.ways = ways
        self.pipelines = [
            KaratsubaPipeline(n_bits, wear_leveling=wear_leveling)
            for _ in range(ways)
        ]

    # ------------------------------------------------------------------
    def timing(self) -> BankTiming:
        return BankTiming(
            n_bits=self.n_bits,
            ways=self.ways,
            pipeline=self.pipelines[0].timing(),
        )

    def run_stream(
        self,
        operand_pairs: Iterable[Tuple[int, int]],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> BankStreamResult:
        """Drain a job stream over the ways; all products bit-exact.

        Jobs are assigned *least-loaded first*: each job goes to the
        way with the least queued work (ties break on the lowest way
        index), which for a homogeneous bank yields the balanced
        ceil/floor split — the distribution
        :meth:`BankTiming.makespan_cc` assumes, so the reported
        makespan always agrees with the static model.  Each way then
        drains its assignment through the batched SIMD path in chunks
        of *batch_size* jobs (see :meth:`KaratsubaPipeline.run_stream`).
        """
        pairs = list(operand_pairs)
        per_way = [0] * self.ways
        if not pairs:
            return BankStreamResult(
                products=[], makespan_cc=0, per_way_jobs=per_way
            )
        timing = self.pipelines[0].timing()
        # Least-loaded assignment.  Every job of a fixed-width bank
        # occupies its way for one bottleneck interval, so queued work
        # is proportional to the job count; tracking cycles (not
        # counts) keeps the policy correct if ways ever diverge.
        loads = [0] * self.ways
        assignments: List[List[int]] = [[] for _ in range(self.ways)]
        for index in range(len(pairs)):
            way = min(range(self.ways), key=lambda w: (loads[w], w))
            assignments[way].append(index)
            loads[way] += timing.bottleneck_cc
            per_way[way] += 1
        tracer = _telemetry.active()
        bank_span = (
            tracer.span(
                "bank.stream",
                width=self.n_bits,
                ways=self.ways,
                jobs=len(pairs),
            )
            if tracer is not None
            else NOOP_SPAN
        )
        with bank_span as span:
            products: List[int] = [0] * len(pairs)
            for way, indices in enumerate(assignments):
                if not indices:
                    continue
                way_span = (
                    tracer.span(f"way{way}", track=f"way{way}", jobs=len(indices))
                    if tracer is not None
                    else NOOP_SPAN
                )
                with way_span:
                    result = self.pipelines[way].run_stream(
                        [pairs[i] for i in indices], batch_size=batch_size
                    )
                for index, product in zip(indices, result.products):
                    products[index] = product
            # Ways run concurrently: the fullest way bounds completion.
            # Balanced assignment makes this identical to the static
            # BankTiming.makespan_cc(len(pairs)).
            makespan = timing.makespan_cc(max(per_way))
            span.set(makespan_cc=makespan)
        return BankStreamResult(
            products=products, makespan_cc=makespan, per_way_jobs=per_way
        )

    # ------------------------------------------------------------------
    def scaling_table(self, max_ways: int = 8) -> List[Tuple[int, float, int]]:
        """(ways, throughput, area) rows for a scaling study."""
        timing = self.pipelines[0].timing()
        return [
            (k, k * timing.throughput_per_mcc, k * timing.area_cells)
            for k in range(1, max_ways + 1)
        ]
