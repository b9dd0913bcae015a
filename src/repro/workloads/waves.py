"""Wave execution: dependent multiplication chains over the service.

A workload request decomposes into a *plan* — a generator yielding
``(a, b)`` multiplier jobs and receiving products (see
:mod:`repro.workloads.context`).  Plans are data-dependent chains, so
they cannot be submitted all at once; but *independent plans advance
together*.  A :class:`WavePlan` holds many plans and exposes the
frontier: in each **wave** it collects every plan's next job, the
runner submits them as one batch through the service or the sharded
front-end (same-width jobs share SIMD batches), and the
delivered products advance every plan to its next yield.

Delivery performs an end-to-end ABFT check per product: the
mod-(2^r − 1) residue of the served product must match the fold of the
operand residues (:mod:`repro.reliability.residue`).  This re-checks
the whole serving path — scheduler, shard transport, journal replay
under chaos — not just the crossbar stages, and raises
:class:`~repro.workloads.requests.WaveSelfCheckError` on mismatch.

The wave loop is written once, as a generator that does no I/O: it
yields each wave's frontier, receives the served results, opens one
``workload.wave`` span per wave, residue-checks the products and
advances a monotonic virtual clock from batch completion times.  Two
runners serve it: :class:`ServiceWaveRunner` synchronously against one
:class:`~repro.service.MultiplicationService`, and
:class:`FrontendWaveRunner` asynchronously through an
:class:`~repro.frontend.AsyncShardedFrontend` (futures API; survives
shard failover and chaos injection).  Each adds only a serve step and
a drive loop; MSM phases and requests compose onto the same loop with
``yield from``.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.reliability.residue import fold_mul, residue
from repro.workloads.requests import KIND_MODMUL, WaveSelfCheckError
from repro.workloads.context import Plan


@dataclass(frozen=True)
class TaskMeta:
    """Service-level provenance stamped on a plan's multiplications."""

    kind: str = KIND_MODMUL
    n_bits: int = 16
    modulus_bits: Optional[int] = None
    priority: int = 0

    @classmethod
    def of(cls, request, ctx) -> "TaskMeta":
        """Provenance of *request*'s multiplications at *ctx*'s width."""
        return cls(request.kind, ctx.width, ctx.modulus_bits, request.priority)


@dataclass
class WaveStats:
    """Execution accounting of one wave-plan run."""

    waves: int = 0
    jobs: int = 0
    residue_checks: int = 0
    cache_hits: int = 0
    #: Virtual completion instant of each wave, in clock cycles.
    wave_completions_cc: List[int] = field(default_factory=list)


class WavePlan:
    """A set of independent plans advanced wave-by-wave.

    Parameters
    ----------
    tasks:
        ``(plan, meta)`` pairs; each plan is a generator following the
        :data:`~repro.workloads.context.Plan` protocol.  Plans that
        return without yielding (e.g. identity-point shortcuts) are
        completed immediately at construction.
    """

    def __init__(self, tasks: List[Tuple[Plan, TaskMeta]]):
        self._plans: List[Plan] = []
        self._meta: List[TaskMeta] = []
        self.results: Dict[int, object] = {}
        #: index -> (a, b) job awaiting service this wave.
        self._awaiting: Dict[int, Tuple[int, int]] = {}
        #: index -> virtual completion of the plan's last job.
        self.task_completion_cc: Dict[int, Optional[int]] = {}
        self.jobs_per_task: Dict[int, int] = {}
        self.wave = 0
        self.jobs_submitted = 0
        self.residue_checks = 0
        for plan, meta in tasks:
            index = len(self._plans)
            self._plans.append(plan)
            self._meta.append(meta)
            self.jobs_per_task[index] = 0
            self.task_completion_cc[index] = None
            self._advance(index, None)

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def done(self) -> bool:
        return not self._awaiting

    def meta(self, index: int) -> TaskMeta:
        return self._meta[index]

    def pending_jobs(self) -> List[Tuple[int, int, int]]:
        """The current frontier: ``(index, a, b)`` per live plan."""
        return [(i, a, b) for i, (a, b) in sorted(self._awaiting.items())]

    def _advance(self, index: int, product: Optional[int]) -> None:
        plan = self._plans[index]
        try:
            if product is None:
                job = next(plan)
            else:
                job = plan.send(product)
        except StopIteration as stop:
            self._awaiting.pop(index, None)
            self.results[index] = stop.value
            return
        self._awaiting[index] = job
        self.jobs_per_task[index] += 1
        self.jobs_submitted += 1

    def deliver(
        self,
        products: Dict[int, int],
        completed_cc: Optional[int] = None,
    ) -> None:
        """Feed one wave's served products back into their plans.

        Every awaited plan must be answered; each product is
        residue-checked against the operands before it advances the
        plan.  *completed_cc* stamps the wave's completion instant on
        every answered plan (its value at plan exit is the plan's
        completion time).
        """
        missing = sorted(set(self._awaiting) - set(products))
        if missing:
            raise WaveSelfCheckError(
                f"wave {self.wave}: no product delivered for plans {missing}"
            )
        self.wave += 1
        for index, product in sorted(products.items()):
            if index not in self._awaiting:
                continue  # stale duplicate delivery
            a, b = self._awaiting[index]
            expected = fold_mul(residue(a), residue(b))
            if residue(product) != expected:
                raise WaveSelfCheckError(
                    f"wave {self.wave - 1}, plan {index}: residue "
                    f"mismatch on {a} * {b}: res(product)="
                    f"{residue(product)} != folded {expected}"
                )
            self.residue_checks += 1
            self.task_completion_cc[index] = completed_cc
            self._advance(index, product)


#: Yields each wave's ``(index, a, b, meta)`` jobs, receives the served
#: ``(index, result)`` pairs, returns the run's :class:`WaveStats`.
WaveLoop = Generator[List[Tuple[int, int, int, TaskMeta]], list, WaveStats]


class _WaveRunner:
    """The wave loop, written once over a virtual clock.

    :meth:`waves` does no I/O: it yields each wave's frontier and
    receives the results a subclass's ``serve`` step produced for it.
    Subclasses add that step and a ``drive`` loop that runs any
    generator built from :meth:`waves` (``yield from`` composes them
    into MSM phases and requests) to its return value.
    """

    def __init__(self, host, now_cc: int = 0):
        self._host = host
        self.now_cc = now_cc

    @property
    def telemetry(self):
        return self._host.telemetry

    def _submit(self, a: int, b: int, meta: TaskMeta):
        return self._host.submit(
            a,
            b,
            meta.n_bits,
            priority=meta.priority,
            arrival_cc=self.now_cc,
            kind=meta.kind,
            modulus_bits=meta.modulus_bits,
        )

    def waves(self, plan: WavePlan) -> WaveLoop:
        """Advance *plan* wave by wave; one ``workload.wave`` span each."""
        stats = WaveStats()
        while not plan.done:
            jobs = plan.pending_jobs()
            with self.telemetry.span(
                "workload.wave",
                begin_cc=self.now_cc,
                wave=plan.wave,
                jobs=len(jobs),
            ) as span:
                served = yield [
                    (index, a, b, plan.meta(index)) for index, a, b in jobs
                ]
                products: Dict[int, int] = {}
                completed_cc = self.now_cc
                for index, result in served:
                    products[index] = result.product
                    if result.cache_hit:
                        stats.cache_hits += 1
                    if result.completion_cc is not None:
                        completed_cc = max(completed_cc, result.completion_cc)
                span.set(completed_cc=completed_cc)
                span.finish(completed_cc)
            stats.waves += 1
            stats.jobs += len(jobs)
            stats.wave_completions_cc.append(completed_cc)
            # Strictly monotonic: a wave of pure cache hits completes
            # "instantly" but must not stall virtual time.
            self.now_cc = max(completed_cc, self.now_cc + 1)
            plan.deliver(products, completed_cc=completed_cc)
        stats.residue_checks = plan.residue_checks
        return stats

    def run(self, plan: WavePlan):
        """Serve *plan* to completion; returns its :class:`WaveStats`
        (awaitable on the front-end runner)."""
        return self.drive(self.waves(plan))


class ServiceWaveRunner(_WaveRunner):
    """Drive wave plans synchronously through one service instance.

    The runner owns its submissions: it assumes no other client drains
    the service between waves (the engine guarantees this by owning
    the service).  Each wave submits the frontier with the current
    virtual time as ``arrival_cc``, drains, and advances the clock to
    the latest batch completion — so successive waves see monotonic
    virtual time and deadline accounting composes with the service's.
    """

    def __init__(self, service, now_cc: int = 0):
        super().__init__(service, now_cc)
        self.service = service

    def serve(self, frontier) -> List[Tuple[int, object]]:
        """Submit one wave, drain, keep the results of its requests."""
        ids = {self._submit(a, b, m): i for i, a, b, m in frontier}
        return [
            (ids[result.request_id], result)
            for result in self.service.drain()
            if result.request_id in ids
        ]

    def drive(self, loop: Generator):
        """Run *loop* to its return value, serving each yielded wave.
        A failed serve step closes the loop, and so its open spans."""
        with closing(loop):
            try:
                frontier = next(loop)
                while True:
                    frontier = loop.send(self.serve(frontier))
            except StopIteration as stop:
                return stop.value


class FrontendWaveRunner(_WaveRunner):
    """Drive wave plans through the async sharded front-end.

    Each wave submits the frontier via the futures API, drains
    (multi-round, supervision-aware — journaled work survives chaos
    kills and redispatch), and awaits every future.  Typed shard
    errors propagate to the caller.
    """

    def __init__(self, frontend, now_cc: int = 0):
        super().__init__(frontend, now_cc)
        self.frontend = frontend

    async def serve(self, frontier) -> List[Tuple[int, object]]:
        """Submit one wave as futures, drain, await every future."""
        futures = [
            (index, await self._submit(a, b, meta))
            for index, a, b, meta in frontier
        ]
        await self.frontend.drain()
        return [(index, await future) for index, future in futures]

    async def drive(self, loop: Generator):
        """Run *loop* to its return value, serving each yielded wave.
        A failed serve step closes the loop, and so its open spans."""
        with closing(loop):
            try:
                frontier = next(loop)
                while True:
                    frontier = loop.send(await self.serve(frontier))
            except StopIteration as stop:
                return stop.value
