"""Three-stage pipeline timing model (paper Sec. IV-A).

The design operates on three multiplications simultaneously: while job
i is in postcomputation, job i+1 multiplies and job i+2 precomputes.
Latency of one multiplication is the *sum* of stage latencies; steady
state throughput is set by the *maximum* stage latency:

    throughput = 10^6 / max(stage latency)   multiplications per Mcc.

:class:`KaratsubaPipeline` combines the functional controller with this
timing model and can replay an operand stream, reporting both the
bit-exact products and the pipelined makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.karatsuba.controller import JobRecord, KaratsubaController
from repro.magic.backend import DEFAULT_BACKEND
from repro.sim.exceptions import DesignError
from repro.telemetry import spans as _telemetry
from repro.telemetry.spans import NOOP_SPAN

#: Default operand sets per SIMD sweep of the batched executor.
DEFAULT_BATCH_SIZE = 32


@dataclass(frozen=True)
class PipelineTiming:
    """Static timing summary of the pipelined design."""

    n_bits: int
    stage_latencies: Tuple[int, int, int]
    #: Stage labels, slot for slot.  The Karatsuba datapath keeps the
    #: paper's names; portfolio designs (Toom-3, schoolbook) relabel
    #: their three slots without changing the timing algebra.
    stage_names: Tuple[str, str, str] = ("precompute", "multiply", "postcompute")

    @property
    def latency_cc(self) -> int:
        """Fill latency of one multiplication (sum of stages)."""
        return sum(self.stage_latencies)

    @property
    def bottleneck_cc(self) -> int:
        """Initiation interval: the slowest stage."""
        return max(self.stage_latencies)

    @property
    def bottleneck_stage(self) -> str:
        return self.stage_names[self.stage_latencies.index(self.bottleneck_cc)]

    @property
    def throughput_per_mcc(self) -> float:
        """Steady-state multiplications per 10^6 clock cycles."""
        return 1e6 / self.bottleneck_cc

    def makespan_cc(self, jobs: int) -> int:
        """Total cycles to finish *jobs* multiplications back-to-back."""
        if jobs < 0:
            raise DesignError("job count must be non-negative")
        if jobs == 0:
            return 0
        return self.latency_cc + (jobs - 1) * self.bottleneck_cc


@dataclass(frozen=True)
class StreamResult:
    """Outcome of replaying an operand stream through the pipeline."""

    products: List[int]
    makespan_cc: int
    timing: PipelineTiming

    @property
    def achieved_throughput_per_mcc(self) -> float:
        if self.makespan_cc == 0:
            return 0.0
        return len(self.products) * 1e6 / self.makespan_cc


class KaratsubaPipeline:
    """Functional + timing model of the pipelined CIM multiplier.

    The timing algebra, stream replay and telemetry are datapath-
    agnostic: subclasses (the :mod:`repro.portfolio` Toom-3 and
    schoolbook designs) swap :attr:`controller_factory` for another
    :class:`~repro.karatsuba.controller.PipelineController` and inherit
    everything else.
    """

    #: Controller class driving the three pipeline slots: a
    #: :class:`~repro.karatsuba.controller.PipelineController` subclass,
    #: which supplies job records, ``stage_names``/``stage_latencies``,
    #: the wear/energy/reliability accessors and ``crossbar_units()``
    #: over its stages' declared units.
    controller_factory = KaratsubaController

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
        self.controller = type(self).controller_factory(
            n_bits,
            wear_leveling=wear_leveling,
            device=device,
            spare_rows=spare_rows,
            residue_bits=residue_bits,
            optimize=optimize,
            backend=backend,
        )
        self.n_bits = n_bits
        self.backend = backend

    def timing(self) -> PipelineTiming:
        return PipelineTiming(
            n_bits=self.n_bits,
            stage_latencies=self.controller.stage_latencies(),
            stage_names=self.controller.stage_names,
        )

    def multiply(self, a: int, b: int) -> int:
        """Single bit-exact multiplication (unpipelined semantics)."""
        return self.controller.run_job(a, b).product

    def run_stream(
        self,
        operand_pairs: Iterable[Tuple[int, int]],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> StreamResult:
        """Replay a stream of multiplications.

        The stream executes in chunks of *batch_size* jobs, each run
        through the compiled-once SIMD replay (one pass per stage and
        wear state), which is how the simulator keeps up with the
        hardware's row-parallel execution.  Products, per-job cycles,
        wear and energy do not depend on *batch_size*; with
        ``backend="scalar"`` and ``batch_size=1`` the pipeline is the
        job-by-job scalar oracle.

        The reported makespan applies the pipeline model: one fill
        latency plus one bottleneck interval per extra job — valid
        because stages use disjoint subarrays and hand over results
        through the controller.
        """
        pairs = list(operand_pairs)
        tracer = _telemetry.active()
        stream_span = (
            tracer.span("pipeline.stream", width=self.n_bits, jobs=len(pairs))
            if tracer is not None
            else NOOP_SPAN
        )
        with stream_span as span:
            if batch_size < 1:
                raise DesignError("batch size must be at least 1")
            records: List[JobRecord] = []
            for begin in range(0, len(pairs), batch_size):
                records.extend(
                    self.controller.run_jobs_batch(
                        pairs[begin : begin + batch_size]
                    )
                )
            timing = self.timing()
            makespan = timing.makespan_cc(len(records))
            span.set(makespan_cc=makespan, bottleneck_cc=timing.bottleneck_cc)
        return StreamResult(
            products=[record.product for record in records],
            makespan_cc=makespan,
            timing=timing,
        )
