"""Admission control and batch-binning scheduler.

The service's throughput comes from feeding the batched word-packed
executor *full* SIMD batches, but clients submit one multiplication at
a time.  The scheduler closes that gap:

* **admission control** — requests are validated
  (:class:`~repro.service.requests.MulRequest` does the width/operand
  checks) and the total number of queued requests is bounded; past the
  bound :class:`~repro.service.requests.QueueFullError` signals
  backpressure to the caller instead of queueing unboundedly.
* **binning** — pending requests group into bins keyed by
  ``(n_bits, depth)``.  Only same-shape jobs can share one SIMD
  batch (every SIMD lane replays the same compiled program), which is
  exactly what the key encodes.
* **flush policy** — a bin flushes when it holds a full batch, or when
  it has aged past ``max_wait_ticks`` logical ticks (one tick per
  submission — the simulator has no wall clock, so submission count is
  the service's arrival process).  Within a flush, higher-priority
  requests drain first; ties keep FIFO order.

The scheduler never executes anything: it returns :class:`Flush`
work-items for the dispatch layer to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.karatsuba.pipeline import DEFAULT_BATCH_SIZE
from repro.service.requests import MulRequest, QueueFullError

#: Bin identity: only requests sharing both values may share a batch.
BinKey = Tuple[int, int]


@dataclass(frozen=True)
class Pending:
    """A queued request plus its arrival bookkeeping."""

    request: MulRequest
    enqueue_tick: int
    sequence: int
    #: Absolute tick by which this request's bin must flush so the
    #: request can still meet its deadline (``None`` = no constraint).
    #: Tighter than the bin's age-out when the admission layer derives
    #: it from ``deadline_cc`` minus the execution estimate.
    flush_by_tick: Optional[int] = None


@dataclass(frozen=True)
class Flush:
    """One batch of same-shape requests released for execution."""

    key: BinKey
    pending: Tuple[Pending, ...]
    #: Why the bin flushed: "full", "timeout", "deadline" or "drain".
    reason: str
    tick: int

    @property
    def n_bits(self) -> int:
        return self.key[0]

    @property
    def requests(self) -> List[MulRequest]:
        return [p.request for p in self.pending]

    @property
    def occupancy(self) -> int:
        return len(self.pending)

    @property
    def request_ids(self) -> Tuple[int, ...]:
        """Ids of the requests in this batch, in release order.

        Lets telemetry spans and degrade-ladder escalations name the
        exact client requests a batch carried."""
        return tuple(p.request.request_id for p in self.pending)


@dataclass
class _Bin:
    key: BinKey
    created_tick: int
    pending: List[Pending] = field(default_factory=list)


class BinningScheduler:
    """Groups requests into same-shape bins and releases full batches.

    Parameters
    ----------
    batch_size:
        Target SIMD occupancy; a bin flushes as soon as it reaches it.
    max_pending:
        Bound on the total queued requests across all bins
        (admission control / backpressure).
    max_wait_ticks:
        A bin older than this many logical ticks flushes even while
        under-full, bounding queueing latency for rare widths.
    """

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        max_pending: int = 1024,
        max_wait_ticks: int = 64,
    ):
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if max_pending < batch_size:
            raise ValueError("max_pending must be at least one batch")
        if max_wait_ticks < 1:
            raise ValueError("max_wait_ticks must be at least 1")
        self.batch_size = batch_size
        self.max_pending = max_pending
        self.max_wait_ticks = max_wait_ticks
        self.tick = 0
        self._bins: Dict[BinKey, _Bin] = {}
        self._sequence = 0
        self._pending_total = 0

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return self._pending_total

    def queue_depths(self) -> Dict[BinKey, int]:
        """Pending requests per bin (only non-empty bins appear)."""
        return {key: len(b.pending) for key, b in self._bins.items() if b.pending}

    # ------------------------------------------------------------------
    def submit(
        self,
        request: MulRequest,
        depth: int = 2,
        tick: Optional[int] = None,
        max_residence_ticks: Optional[int] = None,
    ) -> List[Flush]:
        """Queue *request* and return any flushes it triggered.

        Without an explicit *tick* each submission advances the logical
        clock by one — so a caller that only ever submits still gets
        timeout flushes without a separate pump loop.  Callers driving
        a virtual timeline (the async front-end) pass the absolute
        *tick* the request arrived at instead; the clock never moves
        backwards.

        *max_residence_ticks* bounds how long this request may sit in
        its bin (deadline-aware admission): the bin's flush deadline is
        tightened to ``now + max_residence_ticks`` when that is sooner
        than the regular ``max_wait_ticks`` age-out.
        """
        if self._pending_total >= self.max_pending:
            raise QueueFullError(
                f"scheduler queue full ({self.max_pending} pending); "
                "drain or widen max_pending"
            )
        if tick is None:
            self.tick += 1
        else:
            self.tick = max(self.tick, tick)
        key: BinKey = (request.n_bits, depth)
        bin_ = self._bins.get(key)
        if bin_ is None or not bin_.pending:
            bin_ = self._bins[key] = _Bin(key=key, created_tick=self.tick)
        self._sequence += 1
        flush_by = (
            None
            if max_residence_ticks is None
            else self.tick + max(0, max_residence_ticks)
        )
        bin_.pending.append(
            Pending(
                request=request,
                enqueue_tick=self.tick,
                sequence=self._sequence,
                flush_by_tick=flush_by,
            )
        )
        self._pending_total += 1
        return self._collect_ready()

    def pump(self, ticks: int = 1) -> List[Flush]:
        """Advance *ticks* ticks without submitting (idle-time age-out).

        This is how an idle service flushes aged bins: the logical
        clock otherwise only moves on submissions, so stragglers in
        under-full bins would wait forever for new arrivals.
        """
        if ticks < 1:
            raise ValueError("pump must advance at least one tick")
        self.tick += ticks
        return self._collect_ready()

    def advance_to(self, tick: int) -> List[Flush]:
        """Advance the clock to absolute *tick* (no-op when behind).

        The virtual-time entry point: the front-end maps a cycle
        timestamp to a tick and calls this before each arrival (and
        once after the last one) so aged bins flush on schedule even
        while no new requests land in them.  The clock steps through
        each intermediate flush deadline, so a large jump releases
        every straggler *at its own due tick* (``Flush.tick``), not
        bunched at the target — open-loop latency accounting depends
        on those timestamps.
        """
        flushes: List[Flush] = []
        while self.tick < tick:
            due = [
                self._flush_by(bin_)[0]
                for bin_ in self._bins.values()
                if bin_.pending
            ]
            next_due = min((d for d in due if d > self.tick), default=None)
            if next_due is None or next_due >= tick:
                break
            self.tick = next_due
            flushes.extend(self._collect_ready())
        if tick > self.tick:
            self.tick = tick
            flushes.extend(self._collect_ready())
        return flushes

    def drain(self) -> List[Flush]:
        """Flush every pending request regardless of age or occupancy."""
        flushes: List[Flush] = []
        for bin_ in list(self._bins.values()):
            while bin_.pending:
                flushes.append(self._flush_bin(bin_, "drain"))
        return flushes

    # ------------------------------------------------------------------
    def _flush_by(self, bin_: _Bin) -> Tuple[int, str]:
        """Absolute tick at which *bin_* must flush, and why.

        The regular age-out fires ``max_wait_ticks`` after the bin was
        (re)created; a deadline-constrained request may pull the flush
        earlier (reason ``"deadline"``).
        """
        age_out = bin_.created_tick + self.max_wait_ticks
        tightest = min(
            (
                p.flush_by_tick
                for p in bin_.pending
                if p.flush_by_tick is not None
            ),
            default=age_out,
        )
        if tightest < age_out:
            return tightest, "deadline"
        return age_out, "timeout"

    def _collect_ready(self) -> List[Flush]:
        flushes: List[Flush] = []
        for bin_ in list(self._bins.values()):
            while len(bin_.pending) >= self.batch_size:
                flushes.append(self._flush_bin(bin_, "full"))
            while bin_.pending:
                flush_by, reason = self._flush_by(bin_)
                if self.tick < flush_by:
                    break
                flushes.append(self._flush_bin(bin_, reason))
        return flushes

    def _flush_bin(self, bin_: _Bin, reason: str) -> Flush:
        ordered = sorted(
            bin_.pending, key=lambda p: (-p.request.priority, p.sequence)
        )
        released, kept = ordered[: self.batch_size], ordered[self.batch_size :]
        bin_.pending = sorted(kept, key=lambda p: p.sequence)
        if bin_.pending:
            # The leftover tail starts a fresh age window.
            bin_.created_tick = self.tick
        self._pending_total -= len(released)
        return Flush(
            key=bin_.key, pending=tuple(released), reason=reason, tick=self.tick
        )
