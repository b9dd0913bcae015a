"""The crypto workload engine: serve kind-tagged requests end-to-end.

:class:`CryptoWorkloadEngine` is the facade of the workload subsystem.
It owns a :class:`~repro.service.MultiplicationService` (or drives a
caller-supplied one), a :class:`~repro.workloads.context.ModulusContextCache`
of precomputed reduction constants, and the wave runners that turn
each request's reduction plan into batched CIM multiplications:

* :meth:`serve_modmul` / :meth:`serve_modexp` — one request at a time;
* :meth:`serve_cohort` — many modmul/modexp requests advanced in
  *shared* waves, so independent requests on the same width pack into
  the same SIMD batches (this is where crypto traffic earns
  the service's batching);
* :meth:`serve_msm` — the Pippenger orchestrator through the
  synchronous service;
* :meth:`serve_msm_async` — the same orchestrator through an
  :class:`~repro.frontend.AsyncShardedFrontend` (futures, shard
  supervision, chaos tolerance).

Both MSM entry points drive one ``workload.msm`` request body, a
generator on the wave loop of :mod:`repro.workloads.waves`; only the
runner differs.

Deadline admission scales the closed-form pipeline cost model by the
request's field-multiplication count: an infeasible deadline raises
:class:`~repro.service.DeadlineImpossibleError` before any work is
queued.  Every inner multiplication is stamped with the parent
request's ``kind`` and ``modulus_bits``, so the service's per-kind
counters and result provenance reflect workload traffic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.service import (
    DeadlineImpossibleError,
    MultiplicationService,
    ServiceConfig,
)
from repro.workloads.context import ModulusContext, ModulusContextCache
from repro.workloads.msm import MsmOrchestrator
from repro.workloads.requests import (
    KIND_MODEXP,
    KIND_MODMUL,
    KIND_MSM,
    ModExpRequest,
    ModMulRequest,
    ModMulResult,
    MsmRequest,
    MsmResult,
    WorkloadError,
    estimate_cost_cc,
)
from repro.workloads.waves import (
    FrontendWaveRunner,
    ServiceWaveRunner,
    TaskMeta,
    WavePlan,
)

#: Requests the value-returning paths accept.
ValueRequest = Union[ModMulRequest, ModExpRequest]
WorkloadRequest = Union[ModMulRequest, ModExpRequest, MsmRequest]


def _deadline_met(
    request: WorkloadRequest, start_cc: int, completion_cc: Optional[int]
) -> Optional[bool]:
    """The one deadline rule of every result: the deadline runs from
    the request's arrival, or from the instant serving began when it
    has none; a request that needed no CIM pass meets any deadline."""
    if request.deadline_cc is None:
        return None
    if completion_cc is None:
        return True
    base_cc = request.arrival_cc if request.arrival_cc is not None else start_cc
    return completion_cc - base_cc <= request.deadline_cc


class CryptoWorkloadEngine:
    """Crypto-workload serving facade over one multiplication service."""

    def __init__(
        self,
        service: Optional[MultiplicationService] = None,
        config: Optional[ServiceConfig] = None,
        context_capacity: int = 64,
    ):
        if service is not None and config is not None:
            raise WorkloadError("pass either a service or a config, not both")
        self.service = (
            service if service is not None else MultiplicationService(config)
        )
        self.telemetry = self.service.telemetry
        self.contexts = ModulusContextCache(context_capacity)
        self.runner = ServiceWaveRunner(self.service)
        self.orchestrator = MsmOrchestrator(contexts=self.contexts)

    # ------------------------------------------------------------------
    # Contexts and admission
    # ------------------------------------------------------------------
    def context_for(
        self, modulus: int, strategy: Optional[str] = None
    ) -> Tuple[ModulusContext, bool]:
        """Cached context for *modulus* plus whether it was a hit."""
        hits_before = self.contexts.stats.hits
        ctx = self.contexts.get(modulus, strategy=strategy)
        return ctx, self.contexts.stats.hits > hits_before

    def estimate_passes(self, request: WorkloadRequest) -> int:
        """Field-multiplication (CIM pass) count of one request."""
        if request.kind == KIND_MSM:
            return self.orchestrator.estimate_passes(request)
        ctx = self.contexts.get(request.modulus, strategy=request.strategy)
        if request.kind == KIND_MODEXP:
            return ctx.modexp_passes(request.exponent)
        return ctx.modmul_passes

    def estimate_cost_cc(self, request: WorkloadRequest) -> int:
        """Closed-form serving floor: the deadline-admission bound."""
        if request.kind == KIND_MSM:
            ctx = self.contexts.get(
                request.curve.p, strategy=request.strategy
            )
        else:
            ctx = self.contexts.get(
                request.modulus, strategy=request.strategy
            )
        return estimate_cost_cc(
            self.service, ctx.width, self.estimate_passes(request)
        )

    def _admit(self, request: WorkloadRequest) -> None:
        self.telemetry.counter(f"workload_requests_{request.kind}").inc()
        if request.deadline_cc is None:
            return
        estimate = self.estimate_cost_cc(request)
        if request.deadline_cc < estimate:
            self.telemetry.counter("workload_rejected_deadline").inc()
            raise DeadlineImpossibleError(
                f"{request.kind} deadline {request.deadline_cc} cc is below "
                f"the decomposition estimate {estimate} cc"
            )

    # ------------------------------------------------------------------
    # Value workloads (modmul / modexp)
    # ------------------------------------------------------------------
    def _plan_for(self, request: ValueRequest, ctx: ModulusContext):
        if request.kind == KIND_MODEXP:
            return ctx.modexp_plan(request.base, request.exponent)
        return ctx.modmul_plan(request.x, request.y)

    def serve_modmul(self, request: ModMulRequest) -> ModMulResult:
        """Serve one modular multiplication through the service."""
        return self.serve_cohort([request])[0]

    def serve_modexp(self, request: ModExpRequest) -> ModMulResult:
        """Serve one modular exponentiation through the service."""
        return self.serve_cohort([request])[0]

    def serve_cohort(
        self, requests: Sequence[ValueRequest]
    ) -> List[ModMulResult]:
        """Serve many value requests in shared waves.

        All requests' plans advance together, so independent requests
        at the same width share SIMD batches — the skewed-modulus
        traffic shape the service's caches and batching were built for.
        MSM requests are not accepted here (serve them via
        :meth:`serve_msm`, whose phases have their own structure).
        """
        if any(r.kind == KIND_MSM for r in requests):
            raise WorkloadError("serve_cohort does not accept MSM requests")
        tasks = []
        hits: List[bool] = []
        ctxs: List[ModulusContext] = []
        for request in requests:
            self._admit(request)
            ctx, hit = self.context_for(
                request.modulus, strategy=request.strategy
            )
            ctxs.append(ctx)
            hits.append(hit)
            tasks.append(
                (self._plan_for(request, ctx), TaskMeta.of(request, ctx))
            )
        arrivals = [r.arrival_cc for r in requests if r.arrival_cc is not None]
        if arrivals:
            self.runner.now_cc = max(self.runner.now_cc, max(arrivals))
        start_cc = self.runner.now_cc
        plan = WavePlan(tasks)
        with self.telemetry.span(
            "workload.cohort", begin_cc=start_cc, requests=len(requests)
        ) as span:
            stats = self.runner.run(plan)
            span.set(waves=stats.waves, jobs=stats.jobs)
        results: List[ModMulResult] = []
        for index, request in enumerate(requests):
            ctx = ctxs[index]
            completion_cc = plan.task_completion_cc[index]
            results.append(
                ModMulResult(
                    request_id=request.request_id,
                    kind=request.kind,
                    strategy=ctx.strategy,
                    width=ctx.width,
                    modulus_bits=ctx.modulus_bits,
                    multiplier_passes=plan.jobs_per_task[index],
                    waves=stats.waves,
                    context_hit=hits[index],
                    residue_checks=plan.jobs_per_task[index],
                    arrival_cc=request.arrival_cc,
                    completion_cc=completion_cc,
                    deadline_met=_deadline_met(
                        request, start_cc, completion_cc
                    ),
                    value=plan.results[index],
                )
            )
        return results

    # ------------------------------------------------------------------
    # MSM workloads
    # ------------------------------------------------------------------
    def serve_msm(self, request: MsmRequest) -> MsmResult:
        """Serve one MSM through the synchronous service."""
        return self.runner.drive(self._msm(request, self.runner))

    async def serve_msm_async(self, request: MsmRequest, frontend) -> MsmResult:
        """Serve one MSM through the async sharded front-end.

        The engine's context cache supplies the client-side constants;
        the shards keep their own compiled-program caches keyed by
        width and backend variant.  Journaled redispatch and chaos
        injection in the front-end are transparent here — every wave's
        futures resolve (or raise typed shard errors), and the residue
        self-checks re-verify each product end to end.
        """
        runner = FrontendWaveRunner(frontend)
        return await runner.drive(self._msm(request, runner))

    def _msm(self, request: MsmRequest, runner):
        """The ``workload.msm`` request body: a wave loop over *runner*
        that returns the :class:`MsmResult`."""
        self._admit(request)
        ctx, hit = self.context_for(request.curve.p, strategy=request.strategy)
        if request.arrival_cc is not None:
            runner.now_cc = max(runner.now_cc, request.arrival_cc)
        start_cc = runner.now_cc
        with runner.telemetry.span(
            "workload.msm",
            begin_cc=start_cc,
            request_id=request.request_id,
            points=len(request.points),
        ) as span:
            point, stats = yield from self.orchestrator.waves(request, runner)
            span.set(waves=stats.waves, jobs=stats.jobs)
        completion_cc = (
            stats.wave_completions_cc[-1] if stats.wave_completions_cc else None
        )
        return MsmResult(
            request_id=request.request_id,
            kind=KIND_MSM,
            strategy=ctx.strategy,
            width=ctx.width,
            modulus_bits=ctx.modulus_bits,
            multiplier_passes=stats.jobs,
            waves=stats.waves,
            context_hit=hit,
            residue_checks=stats.residue_checks,
            arrival_cc=request.arrival_cc,
            completion_cc=completion_cc,
            deadline_met=_deadline_met(request, start_cc, completion_cc),
            point=point,
            num_points=len(request.points),
            window_bits=self.orchestrator.window_bits_for(request),
        )

    # ------------------------------------------------------------------
    # Dispatch + reporting
    # ------------------------------------------------------------------
    def serve(self, request: WorkloadRequest):
        """Dispatch one request by kind (synchronous paths only)."""
        if request.kind == KIND_MSM:
            return self.serve_msm(request)
        if request.kind == KIND_MODEXP:
            return self.serve_modexp(request)
        if request.kind == KIND_MODMUL:
            return self.serve_modmul(request)
        raise WorkloadError(f"unknown request kind {request.kind!r}")

    def snapshot(self) -> Dict[str, object]:
        """Service snapshot plus an additive ``workloads`` section."""
        snap = self.service.snapshot()
        snap["workloads"] = {
            "contexts": self.contexts.stats.as_dict(),
            "context_hit_rate": self.contexts.stats.hit_rate,
            "cached_moduli": len(self.contexts),
            "now_cc": self.runner.now_cc,
        }
        return snap
