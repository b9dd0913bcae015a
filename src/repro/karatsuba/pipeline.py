"""Three-stage pipeline timing model (paper Sec. IV-A).

The design operates on three multiplications simultaneously: while job
i is in postcomputation, job i+1 multiplies and job i+2 precomputes.
Latency of one multiplication is the *sum* of stage latencies; steady
state throughput is set by the *maximum* stage latency:

    throughput = 10^6 / max(stage latency)   multiplications per Mcc.

:class:`KaratsubaPipeline` combines the functional controller with this
timing model (:class:`~repro.karatsuba.cost.DesignCost`) and can replay an operand stream, reporting both the
bit-exact products and the pipelined makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Tuple

from repro.karatsuba.controller import JobRecord, KaratsubaController
from repro.karatsuba.cost import DesignCost, StageCost
from repro.magic.backend import DEFAULT_BACKEND
from repro.sim.exceptions import DesignError
from repro.telemetry import spans as _telemetry
from repro.telemetry.spans import NOOP_SPAN

#: Default operand sets per SIMD sweep of the batched executor.
DEFAULT_BATCH_SIZE = 32


@dataclass(frozen=True)
class StreamResult:
    """Outcome of replaying an operand stream through the pipeline."""

    products: List[int]
    makespan_cc: int
    timing: DesignCost

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

    def timing(self) -> DesignCost:
        """Cost and timing of the built datapath: each stage's built
        area and latency (packed cycle counts under ``optimize=True``),
        which :func:`~repro.karatsuba.cost.design_cost` equals at
        ``optimize=False``."""
        return self._timing

    # Stage areas and latencies are fixed once built; read every batch.
    @cached_property
    def _timing(self) -> DesignCost:
        slots = zip(self.controller.stage_names, self.controller.stages)
        return DesignCost(
            n_bits=self.n_bits,
            stages=tuple(
                StageCost(name, stage.area_cells, stage.latency_cc())
                for name, stage in slots
            ),
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
