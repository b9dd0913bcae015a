"""`repro.service` — the batching multiplication service layer.

Turns the cycle-accurate simulator into a servable system.  Clients
submit individual multiplications; the service validates and queues
them (:mod:`~repro.service.scheduler`), groups same-shape requests
into SIMD batches, answers repeats from an operand cache
(:mod:`~repro.service.cache`), dispatches flushed batches onto the
least-loaded / least-worn bank way (:mod:`~repro.service.workers`,
:mod:`~repro.service.degrade`), recovers from in-band fault
detections through the remap → replay → quarantine escalation ladder
(with the pure-Python oracle available as an opt-in audit), and
exposes counters and histograms through its
:class:`~repro.telemetry.registry.TelemetryRegistry`.

>>> from repro.service import MultiplicationService, ServiceConfig
>>> svc = MultiplicationService(ServiceConfig(batch_size=4, ways_per_width=2))
>>> ids = [svc.submit(a, a + 1, 64) for a in range(8)]
>>> results = svc.drain()
>>> [r.product for r in results] == [a * (a + 1) for a in range(8)]
True
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crossbar.array import FAULT_STUCK_AT_1
from repro.crossbar.faults import StuckAtFault, inject
from repro.karatsuba import cost
from repro.karatsuba.pipeline import DEFAULT_BATCH_SIZE
from repro.portfolio.tuner import TuningTable
from repro.service.autoscale import AutoscalerConfig, ScaleEvent, WayAutoscaler
from repro.service.cache import OperandCache, ProgramCache
from repro.service.degrade import (
    DEFAULT_WRITE_BUDGET,
    DegradeController,
    EndurancePolicy,
    RecoveryReport,
)
from repro.service.requests import (
    AdmissionError,
    DeadlineImpossibleError,
    MulRequest,
    MulResult,
    NoHealthyWayError,
    QueueFullError,
    ServiceError,
)
from repro.service.scheduler import BinningScheduler, Flush
from repro.service.workers import BankDispatcher, DispatchReport, Way
from repro.telemetry.registry import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    TelemetryRegistry,
)

__all__ = [
    "AdmissionError",
    "AutoscalerConfig",
    "BankDispatcher",
    "BinningScheduler",
    "DeadlineImpossibleError",
    "DegradeController",
    "DispatchReport",
    "EndurancePolicy",
    "Flush",
    "MulRequest",
    "MulResult",
    "MultiplicationService",
    "NoHealthyWayError",
    "OperandCache",
    "ProgramCache",
    "QueueFullError",
    "RecoveryReport",
    "ScaleEvent",
    "ServiceConfig",
    "ServiceError",
    "TelemetryRegistry",
    "Way",
    "WayAutoscaler",
]


@functools.lru_cache(maxsize=None)
def _fixed_design_latency_cc(n_bits: int) -> int:
    """Closed-form latency of the fixed L=2 design at *n_bits* (a pure
    function of the width, so built once per width)."""
    return cost.design_cost(n_bits, 2).latency_cc


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable knobs of one :class:`MultiplicationService` instance."""

    #: Target SIMD occupancy per flushed batch.
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Admission-control bound on queued requests (backpressure).
    max_pending: int = 1024
    #: Under-full bins flush after this many logical ticks.
    max_wait_ticks: int = 64
    #: Bank ways instantiated per distinct operand width.
    ways_per_width: int = 2
    #: Entries in the repeated-operand product memo.
    operand_cache_size: int = 4096
    #: Entries in the warm-pipeline (compiled program) cache.
    program_cache_size: int = 16
    #: Per-cell write budget before a way retires (endurance).
    write_budget: int = DEFAULT_WRITE_BUDGET
    #: Batch replays allowed while recovering from faulty ways.
    max_retries: int = 3
    #: Forwarded to every pipeline (paper Sec. IV-B region swap).
    wear_leveling: bool = True
    #: Spare word lines per crossbar stage (detection-driven remap).
    spare_rows: int = 2
    #: Same-way replays allowed after an in-place repair.
    max_inplace_replays: int = 2
    #: Audit every product against the pure-Python oracle ``a * b``.
    #: Off by default: production detection is the in-band residue and
    #: differential self-checks of the Karatsuba stages.
    oracle_audit: bool = False
    #: Run stage adder programs through the SIMD cycle packer
    #: (:mod:`repro.magic.passes`) in every bank way.  On by default —
    #: the service is the deployment surface, so it takes the packed
    #: schedules; set ``False`` for the paper's closed-form latencies.
    optimize: bool = True
    #: Batched executor backend every bank-way pipeline runs on (one of
    #: :data:`repro.magic.BACKEND_NAMES`).  The service defaults to the
    #: word-packed fast path; per-lane products, cycle counts, write
    #: counters and energy are bit-identical across backends, so the
    #: choice only moves simulation wall-clock.
    backend: str = "word"
    #: Clock cycles per scheduler logical tick on the virtual timeline.
    #: Open-loop drivers stamp requests with ``arrival_cc``; the
    #: service maps those cycles to ticks at this granularity, so
    #: ``max_wait_ticks`` bounds bin residence at
    #: ``max_wait_ticks * tick_cc`` cycles.
    tick_cc: int = 256
    #: Reject requests whose ``deadline_cc`` is below the width's
    #: single-batch execution estimate (distinct
    #: :class:`DeadlineImpossibleError`), and tighten a bin's flush
    #: deadline so feasible deadlines are not eaten by bin residence.
    strict_deadlines: bool = True
    #: Queue-depth-driven way autoscaling (``None`` = fixed pools).
    autoscale: Optional[AutoscalerConfig] = None
    #: Route every width to its tuned design point (algorithm, unroll
    #: depth, optimizer flag, backend) instead of the paper's fixed
    #: Karatsuba L = 2.  Admission also relaxes to the portfolio floor
    #: (off-grid widths become servable through Toom-3 / schoolbook).
    portfolio: bool = False
    #: Routing table for portfolio mode: a path to a saved
    #: ``TUNE_portfolio.json`` (:meth:`repro.portfolio.TuningTable.save`)
    #: or an in-memory :class:`~repro.portfolio.TuningTable` (benches
    #: and tests sweep and inject directly).  ``None`` with
    #: ``portfolio=True`` uses a measurement-free table that routes
    #: every width through the closed-form cost prior.
    portfolio_table: Optional[object] = None


class MultiplicationService:
    """Facade wiring scheduler, caches, dispatch, degrade and metrics.

    Submission is synchronous-but-batched: :meth:`submit` enqueues (or
    answers from cache) and opportunistically executes any batch the
    submission made ready; :meth:`drain` force-flushes the rest and
    returns every result accumulated since the previous drain, in
    request order.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config if config is not None else ServiceConfig()
        #: Unified observability sink: metrics instruments plus span
        #: emission.
        self.telemetry = TelemetryRegistry()
        self.scheduler = BinningScheduler(
            batch_size=self.config.batch_size,
            max_pending=self.config.max_pending,
            max_wait_ticks=self.config.max_wait_ticks,
        )
        self.program_cache = ProgramCache(self.config.program_cache_size)
        self.operand_cache = OperandCache(self.config.operand_cache_size)
        #: Per-width design routing (portfolio mode only).  A saved
        #: tuning table resolves measured buckets exactly and falls
        #: back to the closed-form prior for unmeasured widths; with no
        #: table configured, every width goes through the prior.
        self.tuning_table: Optional[TuningTable] = None
        if self.config.portfolio:
            source = self.config.portfolio_table
            if isinstance(source, TuningTable):
                self.tuning_table = source
            elif source is not None:
                self.tuning_table = TuningTable.load(source)
            else:
                self.tuning_table = TuningTable(
                    config={
                        "optimize": self.config.optimize,
                        "backend": self.config.backend,
                    }
                )
        self.dispatcher = BankDispatcher(
            ways_per_width=self.config.ways_per_width,
            program_cache=self.program_cache,
            wear_leveling=self.config.wear_leveling,
            spare_rows=self.config.spare_rows,
            optimize=self.config.optimize,
            backend=self.config.backend,
            design_resolver=(
                self.tuning_table.resolve
                if self.tuning_table is not None
                else None
            ),
        )
        self.degrade = DegradeController(
            self.dispatcher,
            policy=EndurancePolicy(self.config.write_budget),
            max_retries=self.config.max_retries,
            max_inplace_replays=self.config.max_inplace_replays,
            oracle_audit=self.config.oracle_audit,
        )
        self.autoscaler: Optional[WayAutoscaler] = (
            WayAutoscaler(self.dispatcher, self.config.autoscale)
            if self.config.autoscale is not None
            else None
        )
        self._next_request_id = 0
        self._batch_counter = 0
        self._completed: List[MulResult] = []
        self._jobs_completed = 0
        #: Virtual now on the cycle timeline (open-loop drivers advance
        #: it; stays 0 under the legacy tick-per-submission clock).
        self._now_cc = 0
        #: Per-width completion instants of dispatched-but-unfinished
        #: jobs on the virtual timeline — the way-backlog half of the
        #: autoscaler's depth signal (bins alone cap at batch_size).
        self._inflight_cc: Dict[int, List[int]] = {}
        #: Cycles-saved already folded into the ``optimizer_cycles_saved``
        #: counter (stage programs build lazily, so savings only grow).
        self._optimizer_saved_reported = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        a: int,
        b: int,
        n_bits: int,
        priority: int = 0,
        deadline_cc: Optional[int] = None,
        arrival_cc: Optional[int] = None,
        kind: str = "mul",
        modulus_bits: Optional[int] = None,
    ) -> int:
        """Submit one multiplication; returns its request id.

        Raises :class:`AdmissionError` on invalid operands/width,
        :class:`QueueFullError` under backpressure, and
        :class:`DeadlineImpossibleError` for a deadline below the
        width's execution estimate (the request is not enqueued in any
        of these cases).
        """
        request = MulRequest(
            request_id=self._next_request_id,
            a=a,
            b=b,
            n_bits=n_bits,
            priority=priority,
            deadline_cc=deadline_cc,
            arrival_cc=arrival_cc,
            kind=kind,
            modulus_bits=modulus_bits,
            # Portfolio routing serves widths the fixed datapath cannot
            # (Toom-3 / schoolbook have no multiple-of-4 constraint).
            flexible_width=self.config.portfolio,
        )
        self.submit_request(request)
        return request.request_id

    # ------------------------------------------------------------------
    # Deadline admission
    # ------------------------------------------------------------------
    def min_latency_estimate_cc(self, n_bits: int) -> int:
        """Conservative one-batch execution estimate for a width.

        The paper's closed-form pipeline latency (``optimize=False``);
        the cycle packer only ever lowers it, so a deadline below this
        bound cannot be met even by an immediate flush.  Under
        portfolio routing the Karatsuba closed form is no longer a
        lower bound (schoolbook beats it at small widths), so the
        estimate comes from the tuning table's routed-design floor.
        """
        if self.tuning_table is not None:
            return self.tuning_table.latency_floor_cc(n_bits)
        return _fixed_design_latency_cc(n_bits)

    def _deadline_residence_ticks(self, request: MulRequest) -> Optional[int]:
        """Bin-residence bound (ticks) that keeps *request*'s deadline
        feasible, or ``None`` when the deadline imposes no constraint.

        Raises :class:`DeadlineImpossibleError` when even an immediate
        flush cannot meet the deadline — the distinct admission error
        clients can react to (vs. silently missing later).
        """
        if not self.config.strict_deadlines or request.deadline_cc is None:
            return None
        estimate = self.min_latency_estimate_cc(request.n_bits)
        slack_cc = request.deadline_cc - estimate
        if slack_cc < 0:
            self.telemetry.counter("requests_rejected_deadline").inc()
            raise DeadlineImpossibleError(
                f"deadline {request.deadline_cc} cc is below the "
                f"n={request.n_bits} execution estimate {estimate} cc"
            )
        residence = slack_cc // self.config.tick_cc
        if residence >= self.scheduler.max_wait_ticks:
            return None  # the regular age-out is already tight enough
        return residence

    def submit_request(self, request: MulRequest) -> None:
        """Submit a pre-built :class:`MulRequest` (id chosen by caller)."""
        self._next_request_id = max(self._next_request_id, request.request_id) + 1
        if request.arrival_cc is not None:
            # Virtual-time arrivals first advance the clock so bins
            # that aged out before this arrival flush ahead of it.
            self.advance_to_cc(request.arrival_cc)
        with self.telemetry.span(
            "service.admit",
            request_id=request.request_id,
            n_bits=request.n_bits,
        ) as span:
            cached = self.operand_cache.lookup(
                request.a, request.b, request.n_bits
            )
            self.telemetry.counter(f"requests_kind_{request.kind}").inc()
            if cached is not None:
                span.set(cache_hit=True)
                self.telemetry.counter("requests_submitted").inc()
                self.telemetry.counter("operand_cache_hits").inc()
                self._completed.append(
                    MulResult(
                        request_id=request.request_id,
                        product=cached,
                        n_bits=request.n_bits,
                        way="cache",
                        batch_id=-1,
                        batch_occupancy=1,
                        latency_cc=0,
                        cache_hit=True,
                        deadline_met=(
                            None if request.deadline_cc is None else True
                        ),
                        arrival_cc=request.arrival_cc,
                        completion_cc=request.arrival_cc,
                        kind=request.kind,
                        modulus_bits=request.modulus_bits,
                    )
                )
                return
            span.set(cache_hit=False)
            self.telemetry.counter("operand_cache_misses").inc()
            residence = self._deadline_residence_ticks(request)
            tick = (
                None
                if request.arrival_cc is None
                else request.arrival_cc // self.config.tick_cc
            )
            try:
                flushes = self.scheduler.submit(
                    request, tick=tick, max_residence_ticks=residence
                )
            except QueueFullError:
                self.telemetry.counter("requests_rejected").inc()
                self.telemetry.counter(
                    f"requests_rejected_priority_{request.priority}"
                ).inc()
                raise
            self.telemetry.counter("requests_submitted").inc()
            self.telemetry.histogram("queue_depth", COUNT_BUCKETS).observe(
                self.scheduler.pending_count
            )
        self._autoscale()
        self._execute_flushes(flushes)

    def pump(self, ticks: int = 1) -> None:
        """Advance logical time *ticks* ticks (age-out under-full bins).

        This is the idle-time clock: submissions advance the scheduler
        tick as arrivals, but a service with no new arrivals needs
        pumping so stragglers in under-full bins still flush once they
        age past ``max_wait_ticks``.
        """
        flushes = self.scheduler.pump(ticks)
        self._autoscale()
        self._execute_flushes(flushes)

    def advance_to_cc(self, now_cc: int) -> None:
        """Advance the virtual cycle clock to *now_cc* (monotonic).

        Ages bins at ``tick_cc`` granularity and flushes any that hit
        their age-out or deadline-tightened flush tick — the open-loop
        driver calls this between arrivals and after the last one, so
        an idle tail still completes without extra submissions.
        """
        if now_cc > self._now_cc:
            self._now_cc = now_cc
        flushes = self.scheduler.advance_to(now_cc // self.config.tick_cc)
        self._autoscale()
        self._execute_flushes(flushes)

    def take_completed(self) -> List[MulResult]:
        """Return (and clear) results completed so far, in request order.

        Unlike :meth:`drain` this forces nothing: under-full bins keep
        waiting.  The sharded front-end workers use it to stream
        results back as they happen.
        """
        completed = sorted(self._completed, key=lambda r: r.request_id)
        self._completed = []
        return completed

    def drain(self) -> List[MulResult]:
        """Flush everything pending and return results in request order.

        Returns every result accumulated since the last drain (cache
        hits included) and clears the internal completion buffer.
        """
        self._execute_flushes(self.scheduler.drain())
        return self.take_completed()

    def _autoscale(self) -> None:
        """One autoscaler observation at the current scheduler tick."""
        if self.autoscaler is None:
            return
        depths: Dict[int, int] = {}
        for (n_bits, _depth), count in self.scheduler.queue_depths().items():
            depths[n_bits] = depths.get(n_bits, 0) + count
        # Fold in virtual in-flight backlog: jobs dispatched to ways
        # whose completion lies past "now" are still queued work from
        # the client's perspective (bin depth alone caps at batch_size
        # because full bins flush immediately).
        for n_bits, completions in self._inflight_cc.items():
            live = [cc for cc in completions if cc > self._now_cc]
            self._inflight_cc[n_bits] = live
            if live:
                depths[n_bits] = depths.get(n_bits, 0) + len(live)
        for event in self.autoscaler.observe(self.scheduler.tick, depths):
            self.telemetry.counter(f"autoscale_{event.direction}_total").inc()
            self.telemetry.event(
                f"autoscale.{event.direction}",
                n_bits=event.n_bits,
                active_ways=event.active_ways,
                tick=event.tick,
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_flushes(self, flushes: List[Flush]) -> None:
        for flush in flushes:
            self._execute_flush(flush)

    def _execute_flush(self, flush: Flush) -> None:
        pairs = [(p.request.a, p.request.b) for p in flush.pending]
        batch_id = self._batch_counter
        self._batch_counter += 1
        with self.telemetry.span(
            "service.batch",
            batch_id=batch_id,
            n_bits=flush.n_bits,
            reason=flush.reason,
            occupancy=flush.occupancy,
            request_ids=list(flush.request_ids),
        ) as span:
            recovery = self.degrade.execute(
                flush.n_bits, pairs, request_ids=flush.request_ids
            )
            report = recovery.report
            span.set(
                way=report.way_id,
                makespan_cc=report.makespan_cc,
                retries=recovery.retries,
            )
        self._jobs_completed += len(pairs)

        # Virtual-timeline occupancy: the batch starts when the flush
        # happened (its due tick, but never before its last member
        # arrived) and its way is free, and completes one makespan
        # later.  Under the legacy clock (_now_cc stays 0) this
        # degrades to per-way cumulative busy time.
        arrivals = [
            p.request.arrival_cc
            for p in flush.pending
            if p.request.arrival_cc is not None
        ]
        if arrivals:
            flush_at_cc = max(flush.tick * self.config.tick_cc, max(arrivals))
        else:
            flush_at_cc = self._now_cc
        way = self.dispatcher.way_by_id(report.way_id)
        start_cc = flush_at_cc
        if way is not None:
            start_cc = max(start_cc, way.free_at_cc)
        completion_cc = start_cc + report.makespan_cc
        if way is not None:
            way.free_at_cc = completion_cc
        if arrivals and self.autoscaler is not None:
            self._inflight_cc.setdefault(flush.n_bits, []).extend(
                [completion_cc] * len(flush.pending)
            )

        self.telemetry.counter("batches_flushed").inc()
        self.telemetry.counter(f"flush_reason_{flush.reason}").inc()
        self.telemetry.counter("faults_detected").inc(recovery.detections)
        self.telemetry.counter("rows_remapped").inc(len(recovery.remapped_rows))
        self.telemetry.counter("inplace_replays").inc(recovery.inplace_replays)
        self.telemetry.counter("fault_retries").inc(recovery.retries)
        self.telemetry.counter("ways_retired").inc(
            len(recovery.faulty_ways) + len(recovery.retired_ways)
        )
        self.telemetry.histogram("batch_occupancy", COUNT_BUCKETS).observe(
            flush.occupancy
        )
        self.telemetry.histogram("batch_latency_cc", LATENCY_BUCKETS).observe(
            report.makespan_cc
        )

        for pending, product in zip(flush.pending, report.products):
            request = pending.request
            self.operand_cache.store(
                request.a, request.b, request.n_bits, product
            )
            if request.arrival_cc is not None:
                # Virtual timeline: the request's latency is queueing
                # wait plus execution, arrival to batch completion.
                observed_cc = completion_cc - request.arrival_cc
                self.telemetry.histogram(
                    "service_latency_cc", LATENCY_BUCKETS
                ).observe(observed_cc)
                deadline_met = (
                    None
                    if request.deadline_cc is None
                    else observed_cc <= request.deadline_cc
                )
            else:
                deadline_met = (
                    None
                    if request.deadline_cc is None
                    else report.makespan_cc <= request.deadline_cc
                )
            if deadline_met is not None:
                self.telemetry.counter(
                    "deadlines_met" if deadline_met else "deadlines_missed"
                ).inc()
            self._completed.append(
                MulResult(
                    request_id=request.request_id,
                    product=product,
                    n_bits=request.n_bits,
                    way=report.way_id,
                    batch_id=batch_id,
                    batch_occupancy=flush.occupancy,
                    latency_cc=report.makespan_cc,
                    queued_ticks=flush.tick - pending.enqueue_tick,
                    retries=recovery.retries,
                    faulty_ways=recovery.faulty_ways,
                    deadline_met=deadline_met,
                    arrival_cc=request.arrival_cc,
                    completion_cc=(
                        completion_cc
                        if request.arrival_cc is not None
                        else None
                    ),
                    kind=request.kind,
                    modulus_bits=request.modulus_bits,
                )
            )

    # ------------------------------------------------------------------
    # Fault-injection hook (tests, benches, chaos drills)
    # ------------------------------------------------------------------
    def inject_fault(
        self,
        n_bits: int,
        way_index: int = 0,
        stage: str = "precompute",
        row: int = 8,
        col: int = 0,
        kind: str = FAULT_STUCK_AT_1,
    ) -> str:
        """Pin a stuck-at cell in one way's stage subarray.

        Returns the way id so callers can assert on its recovery.  The
        default target (precompute result row 8, column 0) corrupts
        chunk sums: ``sa1`` trips the stage's residue self-check,
        ``sa0`` violates the MAGIC init precondition mid-program — both
        surface as exceptions the degrade controller climbs the
        escalation ladder on (remap the row to a spare and replay in
        place; quarantine only when spares run out).
        """
        way = self.dispatcher.pool(n_bits)[way_index]
        array = getattr(way.pipeline.controller, stage).array
        inject(array, [StuckAtFault(row=row, col=col, kind=kind)])
        return way.way_id

    def arm_fault_hook(self, n_bits: int, hook, way_index: int = 0) -> str:
        """Attach a transient-fault injector to one way's crossbars.

        *hook* follows the executor fault-hook protocol
        (:class:`~repro.crossbar.faults.TransientFaultInjector`);
        pass ``None`` to disarm.  Returns the way id.
        """
        way = self.dispatcher.pool(n_bits)[way_index]
        way.pipeline.controller.fault_hook = hook
        return way.way_id

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _compile_cache_totals(self) -> Dict[str, int]:
        totals = {"hits": 0, "misses": 0, "evictions": 0}
        for way in self.dispatcher.all_ways():
            controller = way.pipeline.controller
            stage_names = getattr(
                controller,
                "stage_attr_names",
                ("precompute", "multiply_stage", "postcompute"),
            )
            for stage_name in stage_names:
                executor = getattr(
                    getattr(controller, stage_name, None), "executor", None
                )
                if executor is None:
                    continue
                for key, value in executor.compile_cache_stats().as_dict().items():
                    totals[key] += value
        return totals

    def _optimizer_snapshot(self) -> Dict[str, object]:
        """Aggregated SIMD cycle-packer stats across every bank way.

        Additive section: ``{"enabled": bool}`` plus, when the packer is
        on, fleet-wide ``cycles_saved`` / ``pack_factor`` / ``by_pass``
        and the per-way breakdown.  Also folds newly observed savings
        into the ``optimizer_cycles_saved`` / ``optimizer_gates_packed``
        telemetry counters (stage programs build lazily, so the totals
        are monotone and the counters see each cycle saved once).
        """
        if not self.config.optimize:
            return {"enabled": False}
        per_way: Dict[str, Dict[str, object]] = {}
        totals = {"cycles_before": 0, "cycles_after": 0, "cycles_saved": 0}
        by_pass: Dict[str, int] = {}
        gates = 0
        for way in self.dispatcher.all_ways():
            stats = way.pipeline.controller.optimizer_stats()
            if not stats.get("enabled"):
                continue
            per_way[way.way_id] = stats
            # Stage keys are per-controller ("precompute"/"postcompute"
            # for Karatsuba, "evaluate"/"interpolate" for Toom-3), so
            # aggregate whatever per-stage dicts the controller reports.
            stage_dicts = [
                value
                for key, value in stats.items()
                if key != "enabled" and isinstance(value, dict)
            ]
            for stage_stats in stage_dicts:
                for key in totals:
                    totals[key] += stage_stats[key]
                # Sum the raw gate counts; reconstructing them from the
                # per-stage ratio (pack_factor * cycles_after) re-weights
                # each stage by its own denominator and drops every
                # stage that reports the cycles_after == 0 convention,
                # so the fleet ratio drifted from summed-gates /
                # summed-pack-cycles whenever stages were uneven.
                gates += stage_stats["gates"]
                for name, saved in stage_stats["by_pass"].items():
                    by_pass[name] = by_pass.get(name, 0) + saved
        after = totals["cycles_after"]
        fresh = totals["cycles_saved"] - self._optimizer_saved_reported
        if fresh > 0:
            self.telemetry.counter("optimizer_cycles_saved").inc(fresh)
            self._optimizer_saved_reported = totals["cycles_saved"]
        return {
            "enabled": True,
            "cycles_before": totals["cycles_before"],
            "cycles_after": after,
            "cycles_saved": totals["cycles_saved"],
            "gates": gates,
            "pack_factor": gates / after if after else 1.0,
            "by_pass": by_pass,
            "ways": per_way,
        }

    def _portfolio_snapshot(self) -> Dict[str, object]:
        """Design-routing state: the table behind the resolver and the
        design key actually serving each instantiated width pool."""
        if self.tuning_table is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "table": {
                "source": (
                    "in-memory"
                    if isinstance(self.config.portfolio_table, TuningTable)
                    else self.config.portfolio_table or "prior-only"
                ),
                "selections": self.tuning_table.selections(),
                **self.tuning_table.stats(),
            },
            "routes": {
                n_bits: self.dispatcher.design_for(n_bits).key()
                for n_bits in self.dispatcher.widths()
            },
        }

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict service state: metrics, caches, ways, endurance.

        Schema (see ``docs/architecture.md`` for field semantics)::

            {
              "counters": {...}, "histograms": {...},   # TelemetryRegistry
              "caches": {"operand": .., "program": .., "compile": ..},
              "service": {"jobs_completed", "makespan_cc",
                          "throughput_per_mcc", "pending"},
              "ways": {way_id: utilisation},
              "endurance": {way_id: {...}},
              "reliability": {way_id: {"healthy", "spare_rows_free",
                                       "remap", "residue"}},
              "optimizer": {"enabled", "cycles_saved", "pack_factor",
                            "by_pass", "ways"},      # additive keys
              "autoscaler": {"enabled", "min_ways", "max_ways",
                             "widths": {n: {"active_ways", "scale_ups",
                                            "scale_downs", ...}}},
              "portfolio": {"enabled", "table": {"source", "selections",
                            "buckets", "bucket_hits", "prior_hits"},
                            "routes": {n: design_key}},
            }
        """
        optimizer = self._optimizer_snapshot()
        snapshot = self.telemetry.snapshot()
        snapshot["caches"] = {
            "operand": self.operand_cache.stats.as_dict(),
            "program": self.program_cache.stats.as_dict(),
            "compile": self._compile_cache_totals(),
        }
        snapshot["service"] = {
            "jobs_completed": self._jobs_completed,
            "makespan_cc": self.dispatcher.makespan_cc(),
            "throughput_per_mcc": self.dispatcher.throughput_per_mcc(
                self._jobs_completed
            ),
            "pending": self.scheduler.pending_count,
            "now_cc": self._now_cc,
        }
        snapshot["ways"] = self.dispatcher.utilisation()
        snapshot["endurance"] = self.degrade.endurance_snapshot()
        snapshot["reliability"] = self.degrade.reliability_snapshot()
        snapshot["optimizer"] = optimizer
        snapshot["autoscaler"] = (
            self.autoscaler.snapshot()
            if self.autoscaler is not None
            else {"enabled": False}
        )
        snapshot["portfolio"] = self._portfolio_snapshot()
        return snapshot
