"""Asyncio admission layer, shard router, result router and supervisor.

:class:`AsyncShardedFrontend` is the serving face of the system: a
client coroutine awaits :meth:`submit` and receives an
:class:`asyncio.Future` that resolves to the request's
:class:`~repro.service.MulResult` (or raises the admission error the
owning shard reported).  Under the hood:

* **admission** — the frontend stamps a globally unique request id,
  opens a ``frontend.admit`` telemetry span, journals the request as
  in-flight, and routes it to its shard (round-robin by id, or
  width-affine — see :class:`~repro.frontend.config.FrontendConfig`)
  through the per-shard circuit breakers;
* **shards** — each shard is a full
  :class:`~repro.service.MultiplicationService` in a worker process
  (:class:`~repro.frontend.shards.ProcessShard`) or in-process
  (:class:`~repro.frontend.shards.InlineShard`);
* **result routing** — one router thread per worker pumps the shard's
  out-queue onto the event loop (``call_soon_threadsafe``), where
  futures resolve and per-shard counters tick.  Results carry
  ``request_id`` end-to-end, so completions match futures exactly;
* **supervision** — the router thread polls with a bounded
  ``out_queue.get(timeout=...)`` and dead-man-checks
  ``process.is_alive()`` on every expiry, probing quiet workers with
  heartbeat pings.  A soft ``fatal``, a hard kill (SIGKILL) or an
  unanswered heartbeat all land in the same supervisor path: mark the
  shard down (breaker open), respawn a fresh worker (crash-only
  restart, up to the restart budget), and redispatch the journaled
  in-flight requests to survivors or the respawn with a bounded retry
  budget and cycle-domain backoff.  A request that exhausts the
  budget fails its future with
  :class:`~repro.frontend.supervision.ShardFailedError` — every
  admitted future reaches a terminal state, never a silent hang, and
  :attr:`outstanding` must be zero after a drain.

The frontend is an async context manager::

    async with AsyncShardedFrontend(config) as fe:
        futures = [await fe.submit(a, b, 64) for a, b in pairs]
        results = await asyncio.gather(*futures)
"""

from __future__ import annotations

import asyncio
import dataclasses
import queue as queue_module
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.frontend.config import FrontendConfig
from repro.frontend.shards import (
    KNOWN_ERROR_NAMES,
    InlineShard,
    ProcessShard,
    rebuild_error,
)
from repro.frontend.supervision import CircuitBreaker, ShardFailedError
from repro.service import MulRequest, MulResult
from repro.telemetry.registry import TelemetryRegistry

__all__ = ["AsyncShardedFrontend"]

#: Snapshot stub merged for a shard that is down (its worker cannot
#: answer a ``snapshot`` command).  Keys mirror what the merge loop
#: reads from a live shard snapshot.
_DOWN_SNAPSHOT = {
    "counters": {},
    "service": {"jobs_completed": 0, "pending": 0, "makespan_cc": 0},
    "down": True,
}


class AsyncShardedFrontend:
    """Admission + shard fan-out + result routing + shard supervision."""

    def __init__(self, config: Optional[FrontendConfig] = None):
        self.config = config if config is not None else FrontendConfig()
        self.telemetry = TelemetryRegistry()
        self._shards: List[Any] = []
        self._threads: List[threading.Thread] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._futures: Dict[int, "asyncio.Future[MulResult]"] = {}
        self._next_request_id = 0
        self._next_shard = 0
        self._width_affinity: Dict[int, int] = {}
        self._drained_events: List[asyncio.Event] = []
        self._stopped_events: List[asyncio.Event] = []
        self._snapshot_futures: List[Optional[asyncio.Future]] = []
        self._fatal: Optional[str] = None
        self._started = False
        self._closing = False
        # --- supervision state -----------------------------------------
        #: In-flight journal: request_id -> the (possibly backoff-
        #: restamped) MulRequest currently dispatched, kept from
        #: admission to terminal state so work is replayable.
        self._journal: Dict[int, MulRequest] = {}
        #: request_id -> shard slot currently responsible for it.
        self._owner: Dict[int, int] = {}
        #: request_id -> redispatch attempts spent.
        self._retries: Dict[int, int] = {}
        self._breakers: List[CircuitBreaker] = []
        self._alive: List[bool] = []
        #: Incarnation counter per slot; control messages from a dead
        #: incarnation's router thread are ignored by generation.
        self._gen: List[int] = []
        self._restarts: List[int] = []
        #: Latest clock broadcast (cycle domain) — respawned shards
        #: are fast-forwarded to it, and breakers cool down on it.
        self._clock_cc = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _build_shard(self, index: int, chaos) -> Any:
        if self.config.inline:
            return InlineShard(index, self.config.service, chaos=chaos)
        return ProcessShard(
            index, self.config.service, self.config.start_method, chaos=chaos
        )

    def _spawn_router(self, shard: Any, gen: int) -> None:
        if not isinstance(shard, ProcessShard):
            return
        thread = threading.Thread(
            target=self._pump_out_queue,
            args=(shard, gen),
            daemon=True,
            name=f"repro-router-{shard.index}.{gen}",
        )
        thread.start()
        self._threads.append(thread)

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("frontend already started")
        self._loop = asyncio.get_running_loop()
        count = self.config.shards
        sup = self.config.supervision
        self._drained_events = [asyncio.Event() for _ in range(count)]
        self._stopped_events = [asyncio.Event() for _ in range(count)]
        self._snapshot_futures = [None] * count
        self._alive = [True] * count
        self._gen = [0] * count
        self._restarts = [0] * count
        self._breakers = [
            CircuitBreaker(
                failure_threshold=sup.breaker_failure_threshold,
                cooldown_cc=sup.breaker_cooldown_cc,
                on_transition=self._make_breaker_observer(index),
            )
            for index in range(count)
        ]
        for index in range(count):
            shard = self._build_shard(index, self.config.chaos)
            shard.start()
            self._shards.append(shard)
        for shard in self._shards:
            self._spawn_router(shard, 0)
        self._started = True

    async def close(self) -> None:
        """Stop every shard and join router threads (idempotent).

        A dead worker never acks ``stop``, so the wait is bounded by
        ``SupervisionConfig.stop_timeout_s`` and stragglers are reaped
        via :meth:`ProcessShard.join` (terminate → kill escalation plus
        queue teardown) instead of hanging the shutdown.
        """
        if not self._started:
            return
        self._closing = True
        for index, shard in enumerate(self._shards):
            if self._alive[index]:
                self._safe_send(index, ("stop",))
            else:
                self._stopped_events[index].set()
        timeout = self.config.supervision.stop_timeout_s
        for index, event in enumerate(self._stopped_events):
            try:
                await asyncio.wait_for(event.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                self.telemetry.counter("frontend_stop_timeouts").inc()
        for shard in self._shards:
            shard.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._started = False

    async def __aenter__(self) -> "AsyncShardedFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Futures admitted but not yet resolved (must be 0 after drain)."""
        return len(self._futures)

    @property
    def journal_size(self) -> int:
        """Journaled in-flight requests (replayable on shard death)."""
        return len(self._journal)

    def breaker_states(self) -> List[str]:
        """Current circuit-breaker state per shard slot."""
        return [b.state for b in self._breakers]

    def _eligible(self, index: int) -> bool:
        return self._alive[index] and self._breakers[index].allows(
            self._clock_cc
        )

    def shard_for(self, n_bits: int, request_id: int) -> int:
        """Deterministic request→shard routing (see config.routing),
        steered around shards whose breaker is open.

        Raises :class:`ShardFailedError` when no shard is eligible —
        a typed admission failure instead of queueing onto a corpse.
        """
        count = len(self._shards)
        if self.config.routing == "width":
            shard = self._width_affinity.get(n_bits)
            if shard is not None and self._eligible(shard):
                return shard
            if shard is not None:
                self.telemetry.counter("frontend_affinity_repins").inc()
            # First-seen (or repinned) widths round-robin over the
            # eligible shards, then stick.
            start = len(self._width_affinity) % count
            for offset in range(count):
                candidate = (start + offset) % count
                if self._eligible(candidate):
                    self._width_affinity[n_bits] = candidate
                    return candidate
            raise ShardFailedError("no healthy shard for admission")
        start = request_id % count
        for offset in range(count):
            candidate = (start + offset) % count
            if self._eligible(candidate):
                return candidate
        raise ShardFailedError("no healthy shard for admission")

    async def submit(
        self,
        a: int,
        b: int,
        n_bits: int,
        priority: int = 0,
        deadline_cc: Optional[int] = None,
        arrival_cc: Optional[int] = None,
        kind: str = "mul",
        modulus_bits: Optional[int] = None,
    ) -> "asyncio.Future[MulResult]":
        """Admit one multiplication; returns the future of its result.

        The future resolves to a :class:`~repro.service.MulResult` when
        the owning shard completes the batch, or raises the shard's
        admission error (:class:`~repro.service.QueueFullError` under
        backpressure, :class:`~repro.service.DeadlineImpossibleError`
        for infeasible deadlines) — or
        :class:`~repro.frontend.supervision.ShardFailedError` when the
        serving tier lost the shards needed to complete it.  Operand
        and width validation errors raise here, synchronously, before
        a future exists.
        """
        self._require_running()
        request_id = self._next_request_id
        self._next_request_id += 1
        # Validates operands/width eagerly (raises AdmissionError).
        request = MulRequest(
            request_id=request_id,
            a=a,
            b=b,
            n_bits=n_bits,
            priority=priority,
            deadline_cc=deadline_cc,
            arrival_cc=arrival_cc,
            kind=kind,
            modulus_bits=modulus_bits,
            flexible_width=self.config.service.portfolio,
        )
        if arrival_cc is not None and arrival_cc > self._clock_cc:
            self._clock_cc = arrival_cc
        shard_index = self.shard_for(n_bits, request_id)
        future: "asyncio.Future[MulResult]" = self._loop.create_future()
        self._futures[request_id] = future
        self._journal[request_id] = request
        self._owner[request_id] = shard_index
        with self.telemetry.span(
            "frontend.admit",
            begin_cc=self._clock_cc,
            request_id=request_id,
            n_bits=n_bits,
            shard=shard_index,
        ):
            self.telemetry.counter("frontend_requests").inc()
            self.telemetry.counter(f"frontend_shard_{shard_index}_requests").inc()
            self._safe_send(shard_index, ("submit", request))
        return future

    # ------------------------------------------------------------------
    # Time & control
    # ------------------------------------------------------------------
    def advance_to_cc(self, now_cc: int) -> None:
        """Broadcast a virtual-clock advance to every live shard.

        Open-loop drivers call this between arrivals so *all* shards
        age their bins on the shared timeline — a shard that received
        no recent arrivals still flushes its stragglers.
        """
        self._require_running()
        if now_cc > self._clock_cc:
            self._clock_cc = now_cc
        for index in range(len(self._shards)):
            if self._alive[index]:
                self._safe_send(index, ("advance", now_cc))

    def pump(self, ticks: int = 1) -> None:
        """Broadcast a legacy logical-tick advance to every live shard."""
        self._require_running()
        for index in range(len(self._shards)):
            if self._alive[index]:
                self._safe_send(index, ("pump", ticks))

    def kill_shard(self, index: int, reason: str = "killed by driver") -> None:
        """Hard-kill one shard worker (chaos drills, operator fencing).

        Process shards get a real SIGKILL — the router thread's
        dead-man poll detects the death and runs the supervisor path.
        Inline shards have no process to signal, so the supervisor is
        invoked directly with the same ``down`` semantics.
        """
        self._require_running()
        shard = self._shards[index]
        if not self._alive[index]:
            return
        shard.kill()
        if isinstance(shard, InlineShard):
            self._on_shard_down(index, reason)

    async def drain(self) -> List[MulResult]:
        """Force-flush every shard and await all outstanding futures.

        Returns the results of every future still pending when the
        drain began (admission errors excluded), in request order.
        Futures that already resolved earlier keep their results — this
        only gathers the stragglers.

        The drain is supervision-aware: a shard dying mid-drain sets
        its drained event from the supervisor (never a hang), its
        journaled requests are redispatched, and further drain rounds
        run until every pending future is terminal.  A round that
        makes no progress while journaled work remains treats those
        replies as lost and redispatches (bounded by the per-request
        retry budget), so even dropped completions terminate.
        """
        self._require_running()
        pending = {
            rid: fut for rid, fut in self._futures.items() if not fut.done()
        }
        sup = self.config.supervision
        max_rounds = 2 + len(self._shards) * (sup.retry_budget + 2)
        previous_done = -1
        for _round in range(max_rounds):
            live = [
                index
                for index in range(len(self._shards))
                if self._alive[index]
            ]
            for index in live:
                self._drained_events[index].clear()
            for index in live:
                self._safe_send(index, ("drain",))
            for index in live:
                await self._drained_events[index].wait()
            done = sum(1 for fut in pending.values() if fut.done())
            in_flight = [
                rid for rid in pending if rid in self._journal
            ]
            if done == len(pending) and not in_flight:
                break
            if done == previous_done and in_flight and sup.enabled:
                # No progress and journaled work remains: completions
                # were lost (dead shard drained elsewhere, dropped
                # replies).  Replay from the journal.
                for rid in in_flight:
                    self._redispatch(rid, "lost completion at drain")
            previous_done = done
        else:  # pragma: no cover - budget exhaustion backstop
            for rid, fut in pending.items():
                if not fut.done():
                    self._fail_request(
                        rid,
                        ShardFailedError(
                            f"request {rid} unresolved after "
                            f"{max_rounds} drain rounds"
                        ),
                    )
        self._raise_on_fatal()
        gathered = await asyncio.gather(
            *pending.values(), return_exceptions=True
        )
        results = [r for r in gathered if isinstance(r, MulResult)]
        return sorted(results, key=lambda r: r.request_id)

    async def snapshot(self) -> Dict[str, object]:
        """Aggregated service state across shards.

        Top level carries the merged counters plus frontend-side
        instruments and the ``supervision`` section (restarts,
        redispatches, journal size, per-shard breaker state); the full
        per-shard snapshots live under ``"shards"`` (down shards are
        stubbed with ``{"down": True}``).
        """
        self._require_running()
        futures = []
        for index in range(len(self._shards)):
            future = self._loop.create_future()
            self._snapshot_futures[index] = future
            futures.append(future)
            if self._alive[index]:
                self._safe_send(index, ("snapshot",))
            else:
                self._settle_snapshot(index, dict(_DOWN_SNAPSHOT))
        shard_snaps = await asyncio.gather(*futures)
        merged_counters: Dict[str, int] = dict(
            self.telemetry.snapshot()["counters"]
        )
        jobs = 0
        pending = 0
        makespan = 0
        scale_ups = 0
        scale_downs = 0
        for snap in shard_snaps:
            for name, value in snap["counters"].items():
                merged_counters[name] = merged_counters.get(name, 0) + value
            jobs += snap["service"]["jobs_completed"]
            pending += snap["service"]["pending"]
            makespan = max(makespan, snap["service"]["makespan_cc"])
            auto = snap.get("autoscaler", {})
            for width_state in auto.get("widths", {}).values():
                scale_ups += width_state["scale_ups"]
                scale_downs += width_state["scale_downs"]
        return {
            "counters": merged_counters,
            "service": {
                "jobs_completed": jobs,
                "pending": pending,
                "makespan_cc": makespan,
                "outstanding_futures": self.outstanding,
            },
            "autoscaler": {
                "scale_ups": scale_ups,
                "scale_downs": scale_downs,
            },
            "supervision": {
                "restarts": list(self._restarts),
                "alive": list(self._alive),
                "breakers": self.breaker_states(),
                "breaker_transitions": [
                    list(b.transitions) for b in self._breakers
                ],
                "journal": self.journal_size,
            },
            "shards": {
                snap_index: snap
                for snap_index, snap in enumerate(shard_snaps)
            },
        }

    # ------------------------------------------------------------------
    # Result routing & liveness monitoring
    # ------------------------------------------------------------------
    def _pump_out_queue(self, shard: ProcessShard, gen: int) -> None:
        """Router thread body: worker out-queue → event loop.

        The ``get`` is bounded, so a hard-killed worker cannot strand
        the thread: every expiry dead-man-checks ``is_alive()`` and,
        when the queue stays quiet past the heartbeat interval, probes
        the worker with a ``ping``.  Death or an unanswered ping past
        the hang timeout posts a synthetic ``("down", ...)`` to the
        supervisor and ends the thread.
        """
        sup = self.config.supervision
        poll_s = sup.poll_timeout_s if sup.enabled else 1.0
        last_activity = time.monotonic()
        ping_sent_at: Optional[float] = None
        ping_seq = 0
        while True:
            try:
                message = shard.out_queue.get(timeout=poll_s)
            except queue_module.Empty:
                if not sup.enabled:
                    continue
                if not shard.is_alive():
                    code = shard.process.exitcode
                    self._post(
                        ("down", shard.index, f"worker exit code {code}"),
                        gen,
                    )
                    return
                now = time.monotonic()
                if now - last_activity < sup.heartbeat_interval_s:
                    continue
                if ping_sent_at is None:
                    ping_seq += 1
                    try:
                        shard.send(("ping", ping_seq))
                    except Exception:  # pragma: no cover - queue closed
                        pass
                    ping_sent_at = now
                elif now - ping_sent_at >= sup.hang_timeout_s:
                    shard.kill()
                    self._post(
                        (
                            "down",
                            shard.index,
                            f"hung (heartbeat {ping_seq} unanswered for "
                            f"{sup.hang_timeout_s:.1f}s)",
                        ),
                        gen,
                    )
                    return
                continue
            except (OSError, ValueError):  # pragma: no cover - queue closed
                return
            last_activity = time.monotonic()
            ping_sent_at = None
            if message[0] == "pong":
                continue
            self._post(message, gen)
            if message[0] == "stopped":
                return

    def _post(self, message: Tuple, gen: int) -> None:
        try:
            self._loop.call_soon_threadsafe(self._handle_message, message, gen)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _dispatch(self, messages: List[Tuple]) -> None:
        """Handle inline-shard replies (process replies come via the
        router threads)."""
        for message in messages:
            self._handle_message(message)

    def _safe_send(self, index: int, message: Tuple) -> None:
        """Send to a shard, absorbing dead-worker queue errors."""
        try:
            self._dispatch(self._shards[index].send(message))
        except (OSError, ValueError):  # pragma: no cover - closed queue
            self.telemetry.counter("frontend_send_failures").inc()

    def _handle_message(self, message: Tuple, gen: Optional[int] = None) -> None:
        kind = message[0]
        shard_index = message[1]
        # Control messages from a dead incarnation's router are stale.
        if gen is not None and gen != self._gen[shard_index]:
            if kind not in ("results", "error"):
                return
        if kind == "results":
            for result in message[2]:
                self._resolve(result)
        elif kind == "error":
            _, _, request_id, name, text = message
            self._clear_inflight(request_id)
            future = self._futures.pop(request_id, None)
            self.telemetry.counter("frontend_admission_errors").inc()
            if name not in KNOWN_ERROR_NAMES:
                self.telemetry.counter("frontend_unknown_errors").inc()
            if name == "NoHealthyWayError":
                # The shard itself is sick, not the request: count it
                # against the breaker so traffic routes around it.
                self._breakers[shard_index].record_failure(self._clock_cc)
            if future is not None and not future.done():
                future.set_exception(rebuild_error(name, text))
        elif kind == "drained":
            self._drained_events[shard_index].set()
        elif kind == "snapshot":
            self._settle_snapshot(shard_index, message[2])
        elif kind == "stopped":
            self._stopped_events[shard_index].set()
        elif kind == "pong":
            pass  # inline shards are never pinged; process pongs are
            # consumed by the router thread.
        elif kind == "down":
            self._on_shard_down(shard_index, message[2])
        elif kind == "fatal":
            if self.config.supervision.enabled:
                self._on_shard_down(shard_index, f"fatal: {message[2]}")
            else:
                self._fatal = f"shard {shard_index}: {message[2]}"
                self._drained_events[shard_index].set()
        else:  # pragma: no cover - protocol misuse
            raise ValueError(f"unknown router message {kind!r}")

    def _settle_snapshot(self, index: int, snap: Dict) -> None:
        future = self._snapshot_futures[index]
        if future is not None and not future.done():
            future.set_result(snap)
        self._snapshot_futures[index] = None

    def _resolve(self, result: MulResult) -> None:
        owner = self._owner.get(result.request_id)
        self._clear_inflight(result.request_id)
        future = self._futures.pop(result.request_id, None)
        if future is None or future.done():
            # Duplicate or stale delivery (replayed-then-original after
            # a failover, duplicated reply): count it and drop it —
            # resolution is idempotent, never InvalidStateError.
            self.telemetry.counter("frontend_orphan_results").inc()
            return
        if owner is not None:
            self._breakers[owner].record_success()
        self.telemetry.counter("frontend_results_routed").inc()
        if result.cache_hit:
            self.telemetry.counter("frontend_cache_hits").inc()
        latency = result.service_latency_cc
        if latency is not None:
            self.telemetry.event(
                "frontend.complete",
                at_cc=self._clock_cc,
                request_id=result.request_id,
                latency_cc=latency,
                way=result.way,
            )
        future.set_result(result)

    # ------------------------------------------------------------------
    # Supervision: shard death, respawn, redispatch
    # ------------------------------------------------------------------
    def _make_breaker_observer(self, index: int):
        def observe(old: str, new: str) -> None:
            self.telemetry.counter("frontend_breaker_transitions").inc()
            self.telemetry.counter(
                f"frontend_breaker_{new.replace('-', '_')}"
            ).inc()
            self.telemetry.event(
                "frontend.breaker",
                at_cc=self._clock_cc,
                shard=index,
                old=old,
                new=new,
            )

        return observe

    def _on_shard_down(self, index: int, reason: str) -> None:
        """Supervisor entry point — soft fatal, hard kill or hang.

        Marks the shard down (breaker open), unblocks any drain or
        snapshot waiting on it, respawns a fresh worker within the
        restart budget, and redispatches the journaled in-flight
        requests the dead incarnation owned.
        """
        self._gen[index] += 1
        self.telemetry.counter("frontend_shard_deaths").inc()
        self.telemetry.event(
            "frontend.shard_down",
            at_cc=self._clock_cc,
            shard=index,
            reason=reason,
        )
        self._breakers[index].trip(self._clock_cc)
        self._drained_events[index].set()
        self._settle_snapshot(index, dict(_DOWN_SNAPSHOT))
        old = self._shards[index]
        old.join(timeout=1.0)  # reap the corpse, release its queues
        orphans = [
            rid for rid, owner in self._owner.items() if owner == index
        ]
        if self._closing:
            self._alive[index] = False
            self._stopped_events[index].set()
            for rid in orphans:
                self._fail_request(
                    rid,
                    ShardFailedError(
                        f"shard {index} died during shutdown ({reason})"
                    ),
                )
            return
        sup = self.config.supervision
        if sup.enabled and self._restarts[index] < sup.max_restarts:
            self._restarts[index] += 1
            self.telemetry.counter("frontend_shard_restarts").inc()
            # Crash-only restart: fresh worker, chaos-free, fast-
            # forwarded to the frontend clock so its latency
            # accounting joins the shared timeline.
            replacement = self._build_shard(index, None)
            replacement.start()
            self._shards[index] = replacement
            self._spawn_router(replacement, self._gen[index])
            self._alive[index] = True
            self._breakers[index].half_open()
            if self._clock_cc:
                self._safe_send(index, ("advance", self._clock_cc))
            self.telemetry.event(
                "frontend.shard_restart",
                at_cc=self._clock_cc,
                shard=index,
                restarts=self._restarts[index],
            )
        else:
            self._alive[index] = False
        for rid in orphans:
            self._redispatch(rid, reason)

    def _clear_inflight(self, request_id: int) -> None:
        self._journal.pop(request_id, None)
        self._owner.pop(request_id, None)
        self._retries.pop(request_id, None)

    def _fail_request(self, request_id: int, error: Exception) -> None:
        self._clear_inflight(request_id)
        future = self._futures.pop(request_id, None)
        if future is not None and not future.done():
            self.telemetry.counter("frontend_requests_failed").inc()
            future.set_exception(error)

    def _redispatch(self, request_id: int, reason: str) -> None:
        """Replay one journaled request after its shard failed it.

        Bounded by the retry budget; each attempt restamps the replay
        ``attempt * backoff_cc`` cycles past the frontend clock so
        redispatched floods do not synchronise, and targets whichever
        eligible shard the router picks (survivor or respawn).  Budget
        exhaustion fails the future with :class:`ShardFailedError` —
        the typed terminal state, never a hang.
        """
        request = self._journal.get(request_id)
        if request is None:
            return
        future = self._futures.get(request_id)
        if future is None or future.done():
            self._clear_inflight(request_id)
            return
        sup = self.config.supervision
        attempts = self._retries.get(request_id, 0) + 1
        if not sup.enabled or attempts > sup.retry_budget:
            self._fail_request(
                request_id,
                ShardFailedError(
                    f"request {request_id} failed after "
                    f"{attempts - 1} redispatch(es): {reason}"
                ),
            )
            return
        try:
            target = self.shard_for(request.n_bits, request_id)
        except ShardFailedError as error:
            self._fail_request(request_id, error)
            return
        self._retries[request_id] = attempts
        self._owner[request_id] = target
        replay = request
        if request.arrival_cc is not None:
            replay = dataclasses.replace(
                request,
                arrival_cc=max(request.arrival_cc, self._clock_cc)
                + sup.backoff_cc * attempts,
            )
        self._journal[request_id] = replay
        self.telemetry.counter("frontend_redispatches").inc()
        self.telemetry.event(
            "frontend.redispatch",
            at_cc=self._clock_cc,
            request_id=request_id,
            shard=target,
            attempt=attempts,
            reason=reason,
        )
        self._safe_send(target, ("submit", replay))

    # ------------------------------------------------------------------
    def _require_running(self) -> None:
        if not self._started:
            raise RuntimeError("frontend not started (use `async with`)")
        self._raise_on_fatal()

    def _raise_on_fatal(self) -> None:
        if self._fatal is not None:  # pragma: no cover - unsupervised crash
            raise RuntimeError(f"shard worker died: {self._fatal}")
