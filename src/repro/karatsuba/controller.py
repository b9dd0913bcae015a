"""Karatsuba Multiplication Controller (paper Fig. 5, centre).

The controller owns the three stage subarrays, feeds input operands to
the precomputation stage, moves intermediate results across stage
boundaries, and stores the final product back to main memory.  It is
the only component that sees whole operands; each stage works purely on
named chunk values.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.arith.bitops import split_chunks
from repro.karatsuba.multiply import MultiplicationStage
from repro.karatsuba.postcompute import PostcomputeStage
from repro.karatsuba.precompute import PrecomputeStage
from repro.magic.backend import DEFAULT_BACKEND
from repro.sim.exceptions import DesignError
from repro.telemetry import spans as _telemetry

#: Smallest multiplication the L = 2 design supports (the postcompute
#: batching layout needs n/4 >= 4).
MIN_BITS = 16


@contextmanager
def stage_span(tracer, name: str, stage, width: int, jobs: int):
    """One telemetry span per stage pass, timed on the stage clock.

    Carries the paper-facing accounting as attributes: operand width,
    SIMD job count, NOR cycles spent, and (for the crossbar stages) the
    array energy consumed by the pass.  Shared by every controller with
    the :class:`KaratsubaController` surface; a no-op without *tracer*.
    """
    if tracer is None:
        yield
        return
    array = getattr(stage, "array", None)
    energy_before = float(array.energy_fj) if array is not None else None
    nor_before = stage.clock.by_category.get("nor", 0)
    with tracer.span(
        f"stage.{name}", clock=stage.clock, width=width, jobs=jobs
    ) as span:
        yield
        span.set(nor=stage.clock.by_category.get("nor", 0) - nor_before)
        if energy_before is not None:
            span.set(energy_fj=float(array.energy_fj) - energy_before)


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


class KaratsubaController:
    """Drives one multiplication through the three-stage datapath."""

    def __init__(
        self,
        n_bits: int,
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
        self.n_bits = n_bits
        #: Run stage adder programs through the SIMD cycle packer
        #: (:mod:`repro.magic.passes`).  Off by default so the datapath
        #: reproduces the paper's closed-form stage latencies.
        self.optimize = optimize
        #: Batched execution strategy shared by both MAGIC stages (the
        #: multiply stage is closed-form and takes no executor).  Any
        #: :mod:`repro.magic.backend` name; accounting is bit-identical
        #: across backends.
        self.backend = backend
        self.precompute = PrecomputeStage(
            n_bits,
            wear_leveling=wear_leveling,
            device=device,
            spare_rows=spare_rows,
            residue_bits=residue_bits,
            optimize=optimize,
            backend=backend,
        )
        self.multiply_stage = MultiplicationStage(
            n_bits, wear_leveling=wear_leveling, residue_bits=residue_bits
        )
        self.postcompute = PostcomputeStage(
            n_bits,
            wear_leveling=wear_leveling,
            device=device,
            spare_rows=spare_rows,
            residue_bits=residue_bits,
            optimize=optimize,
            backend=backend,
        )
        self.jobs = 0

    # ------------------------------------------------------------------
    def run_job(self, a: int, b: int) -> JobRecord:
        """Multiply two *n_bits*-wide operands through all three stages."""
        return self.run_jobs_batch([(a, b)])[0]

    def run_jobs_batch(self, pairs: Iterable[Tuple[int, int]]) -> List[JobRecord]:
        """Multiply a batch of operand pairs through all three stages.

        Every stage executes its whole batch in SIMD fashion (one
        compiled pass per wear state) instead of job-by-job, which is
        where the pipeline's throughput comes from.  Products, per-job
        cycle counts, wear counters and energy are bit-identical to
        one single-job batch per pair; only the stage clocks differ,
        advancing once per lock-step pass rather than once per job.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        for a, b in pairs:
            if a < 0 or b < 0:
                raise DesignError("operands must be non-negative")
            if a >> self.n_bits or b >> self.n_bits:
                raise DesignError(f"operands must fit in {self.n_bits} bits")
        chunk_bits = self.n_bits // 4
        chunk_jobs = [
            (split_chunks(a, chunk_bits, 4), split_chunks(b, chunk_bits, 4))
            for a, b in pairs
        ]
        tracer = _telemetry.active()
        jobs, width = len(pairs), self.n_bits
        with stage_span(tracer, "precompute", self.precompute, width, jobs):
            pre = self.precompute.process_batch(chunk_jobs)
        with stage_span(tracer, "multiply", self.multiply_stage, width, jobs):
            mul = self.multiply_stage.process_batch([r.chunk_sums for r in pre])
        with stage_span(tracer, "postcompute", self.postcompute, width, jobs):
            post = self.postcompute.process_batch([r.products for r in mul])
        self.jobs += len(pairs)
        return [
            JobRecord(
                a=a,
                b=b,
                product=post[i].product,
                precompute_cycles=pre[i].cycles,
                multiply_cycles=mul[i].cycles,
                postcompute_cycles=post[i].cycles,
            )
            for i, (a, b) in enumerate(pairs)
        ]

    # ------------------------------------------------------------------
    def stage_latencies(self) -> Tuple[int, int, int]:
        """Static (precompute, multiply, postcompute) latencies in cc."""
        return (
            self.precompute.latency_cc(),
            self.multiply_stage.latency_cc(),
            self.postcompute.latency_cc(),
        )

    @property
    def area_cells(self) -> int:
        """Total memory cells across the three subarrays."""
        return (
            self.precompute.area_cells
            + self.multiply_stage.area_cells
            + self.postcompute.area_cells
        )

    def max_writes(self) -> int:
        """Hottest-cell write count across all subarrays so far."""
        return max(
            self.precompute.max_writes(),
            self.multiply_stage.max_writes(),
            self.postcompute.max_writes(),
        )

    def total_energy_fj(self) -> float:
        """Accumulated array energy across the crossbar stages, in fJ.

        Covers the precompute and postcompute subarrays (the row
        multipliers model wear but not device energy)."""
        return float(
            self.precompute.array.energy_fj + self.postcompute.array.energy_fj
        )

    # ------------------------------------------------------------------
    # Reliability
    # ------------------------------------------------------------------
    @property
    def fault_hook(self):
        """Transient-fault injector shared by the crossbar stages."""
        return self.precompute.fault_hook

    @fault_hook.setter
    def fault_hook(self, hook) -> None:
        self.precompute.fault_hook = hook
        self.postcompute.fault_hook = hook

    def diagnose_and_repair(self) -> dict:
        """Write-verify and remap every crossbar stage.

        Returns ``{stage: [remapped logical rows]}`` for the stages
        that own a crossbar (the multiplier rows are a numeric model).
        An empty mapping means the detected upset was transient and a
        plain replay suffices.
        """
        report = {}
        for name, stage in (
            ("precompute", self.precompute),
            ("postcompute", self.postcompute),
        ):
            remapped = stage.diagnose_and_repair()
            if remapped:
                report[name] = remapped
        return report

    def spare_rows_free(self) -> int:
        """Spare word lines still available across the crossbar stages."""
        return (
            self.precompute.array.spare_rows_free
            + self.postcompute.array.spare_rows_free
        )

    def optimizer_stats(self) -> dict:
        """Aggregated cycle-packer savings across the crossbar stages.

        ``{"enabled": False}`` when the optimizer is off; otherwise one
        additive summary per stage (pack factor, cycles saved per pass).
        """
        if not self.optimize:
            return {"enabled": False}
        return {
            "enabled": True,
            "precompute": self.precompute.optimizer_stats(),
            "postcompute": self.postcompute.optimizer_stats(),
        }

    def residue_stats(self) -> List[dict]:
        """Per-stage residue-checker statistics."""
        return [
            self.precompute.checker.stats(),
            self.multiply_stage.checker.stats(),
            self.postcompute.checker.stats(),
        ]
