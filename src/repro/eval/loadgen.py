"""Open-loop load generation for the serving stack.

Closed-loop replay (``eval.workloads.replay``) answers "how fast can
the datapath chew a backlog"; this module answers the serving
question: under *open-loop* arrivals — requests arrive on their own
clock whether or not the system keeps up — what latency distribution,
goodput and deadline-miss rate does a host deliver, does every answer
come back right, and how much does sharding the banks across worker
processes buy?

One driver, :func:`run`, replays a load through any of the three
hosts — a :class:`~repro.service.MultiplicationService`, an
:class:`~repro.frontend.AsyncShardedFrontend` (optionally under a
chaos schedule, see :func:`chaos_scenario`) or a
:class:`~repro.workloads.CryptoWorkloadEngine` — and grades it in one
:class:`LoadReport`.  Every result is checked against the oracle of
its load item (``a * b``, ``x * y % m``, ``pow(x, e, m)`` or a naive
MSM).

Everything runs on the **virtual cycle clock**: arrivals are stamped
``arrival_cc``, the host computes ``completion_cc`` on the same
timeline, and latency percentiles/histograms are therefore exactly
reproducible for a given seed — independent of host speed, process
count, or result delivery order.  Wall-clock time is reported
separately and only informationally.

Arrival processes (all seeded, all integer-cycle schedules):

* ``poisson`` — memoryless arrivals at a constant mean gap;
* ``bursty`` — a 2-state Markov-modulated Poisson process (MMPP):
  quiet stretches punctuated by bursts an order of magnitude denser,
  the classic stress case for an autoscaler;
* ``diurnal`` — sinusoidally modulated rate (load "days") generated
  by thinning a peak-rate Poisson stream.

Operand mixes reuse the trace families of
:mod:`repro.eval.workloads` (``fhe`` 64-bit limbs, ``zkp`` 384-bit
field elements, ``mixed`` interleaved widths).
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.crypto.ec import TINY_CURVE, CimEllipticCurve
from repro.crypto.msm import naive_msm
from repro.eval.workloads import (
    TraceItem,
    fhe_limb_trace,
    mixed_trace,
    zkp_field_trace,
)
from repro.frontend import AsyncShardedFrontend, ChaosConfig, ShardFailedError
from repro.service import (
    DeadlineImpossibleError,
    MulRequest,
    MultiplicationService,
    QueueFullError,
    ServiceError,
)
from repro.sim.exceptions import DesignError
from repro.telemetry.registry import Histogram
from repro.workloads import (
    CryptoWorkloadEngine,
    ModExpRequest,
    ModMulRequest,
    MsmRequest,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "CHAOS_SCENARIOS",
    "DEFAULT_CRYPTO_MODULI",
    "MIXES",
    "LATENCY_BUCKETS_CC",
    "CryptoLoadItem",
    "LoadItem",
    "LoadReport",
    "Slo",
    "arrival_schedule",
    "build_crypto_load",
    "build_load",
    "chaos_scenario",
    "run",
    "zipf_weights",
]

ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")
MIXES = ("fhe", "zkp", "mixed")

#: Fixed latency histogram buckets (cycles).  Fixed edges make the
#: histogram bit-comparable across runs and shard counts.
LATENCY_BUCKETS_CC: Tuple[int, ...] = (
    1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000,
    128_000, 256_000, 512_000, 1_024_000,
)

_TRACES = {
    "fhe": fhe_limb_trace,
    "zkp": zkp_field_trace,
    "mixed": mixed_trace,
}


@dataclass(frozen=True)
class LoadItem:
    """One open-loop arrival: when it lands and what it multiplies."""

    arrival_cc: int
    item: TraceItem
    priority: int = 0
    deadline_cc: Optional[int] = None

    def check(self, result) -> bool:
        """Is *result* the right answer (``a * b``)?"""
        return result.product == self.item.a * self.item.b


@dataclass(frozen=True)
class Slo:
    """Service-level objective the report is judged against."""

    p99_cc: int = 64_000
    max_miss_rate: float = 0.05


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
def arrival_schedule(
    process: str,
    jobs: int,
    mean_gap_cc: int,
    seed: int,
    burst_gap_cc: Optional[int] = None,
    burst_dwell: int = 24,
    quiet_dwell: int = 96,
    diurnal_period_cc: int = 400_000,
    diurnal_amplitude: float = 0.8,
) -> List[int]:
    """Seeded arrival instants (cycles, non-decreasing, ``jobs`` long).

    ``mean_gap_cc`` is the quiet-state / long-run mean inter-arrival
    gap.  For ``bursty``, ``burst_gap_cc`` (default ``mean_gap_cc //
    8``) is the in-burst gap and the dwell parameters give the mean
    arrivals spent per state.  For ``diurnal``, the instantaneous rate
    swings by ``±diurnal_amplitude`` around the mean over each
    ``diurnal_period_cc``.
    """
    if jobs < 0:
        raise DesignError("job count must be non-negative")
    if mean_gap_cc <= 0:
        raise DesignError("mean inter-arrival gap must be positive")
    if process not in ARRIVAL_PROCESSES:
        raise DesignError(
            f"unknown arrival process {process!r} "
            f"(known: {ARRIVAL_PROCESSES})"
        )
    rng = random.Random(seed)
    schedule: List[int] = []
    now = 0
    if process == "poisson":
        for _ in range(jobs):
            now += max(1, round(rng.expovariate(1.0 / mean_gap_cc)))
            schedule.append(now)
    elif process == "bursty":
        gap_burst = burst_gap_cc if burst_gap_cc else max(1, mean_gap_cc // 8)
        in_burst = False
        remaining = 0
        for _ in range(jobs):
            if remaining <= 0:
                in_burst = not in_burst
                dwell = burst_dwell if in_burst else quiet_dwell
                remaining = max(1, round(rng.expovariate(1.0 / dwell)))
            gap = gap_burst if in_burst else mean_gap_cc
            now += max(1, round(rng.expovariate(1.0 / gap)))
            remaining -= 1
            schedule.append(now)
    else:  # diurnal — thin a peak-rate Poisson stream
        peak_rate = (1.0 + diurnal_amplitude) / mean_gap_cc
        while len(schedule) < jobs:
            now += max(1, round(rng.expovariate(peak_rate)))
            phase = 2.0 * math.pi * now / diurnal_period_cc
            rate = (1.0 + diurnal_amplitude * math.sin(phase)) / mean_gap_cc
            if rng.random() < rate / peak_rate:
                schedule.append(now)
    return schedule


def build_load(
    mix: str,
    process: str,
    jobs: int,
    mean_gap_cc: int,
    seed: int = 0x10AD,
    deadline_slack_cc: Optional[int] = None,
    high_priority_fraction: float = 0.0,
    **arrival_kwargs: object,
) -> List[LoadItem]:
    """Pair an operand mix with an arrival process into one load.

    Operand values come from the seeded trace families; arrival
    instants from :func:`arrival_schedule` (sub-seeded so mixes and
    processes vary independently).  ``deadline_slack_cc`` stamps each
    request with ``deadline_cc = slack`` (latency budget from arrival);
    ``high_priority_fraction`` promotes a seeded subset to priority 1.
    """
    if mix not in MIXES:
        raise DesignError(f"unknown mix {mix!r} (known: {MIXES})")
    trace = _TRACES[mix](jobs, seed=seed)
    arrivals = arrival_schedule(
        process, jobs, mean_gap_cc, seed=seed ^ 0x5EED, **arrival_kwargs
    )
    rng = random.Random(seed ^ 0xA11)
    load: List[LoadItem] = []
    for arrival, item in zip(arrivals, trace):
        priority = 1 if rng.random() < high_priority_fraction else 0
        load.append(
            LoadItem(
                arrival_cc=arrival,
                item=item,
                priority=priority,
                deadline_cc=deadline_slack_cc,
            )
        )
    return load




# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _percentile(sorted_values: Sequence[int], q: float) -> int:
    """Nearest-rank percentile (deterministic, integer-valued)."""
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one open-loop run through any host, in the cycle domain.

    Every offered request lands in exactly one bucket: ``completed``
    (a result came back; wrong answers are also counted in
    ``mismatched``), ``shed_by_priority`` (queue full),
    ``rejected_deadline`` (infeasible deadline), ``failed_typed`` (any
    other typed error on its result), ``rejected_at_submit`` (no
    healthy shard to admit it) or ``stranded`` (no outcome after the
    drain).  Host-specific numbers — shard deaths, redispatches,
    breaker states, autoscale events, the context hit rate — are read
    from ``snapshot``, the host's own final snapshot; ``results``
    keeps the completed results in request order.
    """

    offered: int
    completed: int
    shed_by_priority: Dict[int, int]
    rejected_deadline: int
    failed_typed: int
    rejected_at_submit: int
    stranded: int
    mismatched: int
    p50_cc: int
    p95_cc: int
    p99_cc: int
    mean_cc: float
    miss_rate: float
    horizon_cc: int
    goodput_per_mcc: float
    histogram: Tuple[int, ...]
    results: Tuple[object, ...] = field(default=(), repr=False)
    snapshot: Dict[str, object] = field(default_factory=dict, repr=False)
    wall_seconds: float = 0.0

    @property
    def shed(self) -> int:
        return sum(self.shed_by_priority.values())

    @property
    def terminal(self) -> int:
        """Requests that reached a terminal state."""
        return self.offered - self.stranded

    @property
    def clean(self) -> bool:
        """Did every request terminate, bit-exactly, with nothing stuck?

        For a front-end host this is the supervision contract: no
        future left outstanding, an empty journal and no breaker
        stuck open after the drain.
        """
        service = self.snapshot.get("service", {})
        supervision = self.snapshot.get("supervision", {})
        return (
            self.stranded == 0
            and self.mismatched == 0
            and service.get("outstanding_futures", 0) == 0
            and supervision.get("journal", 0) == 0
            and "open" not in supervision.get("breakers", ())
        )

    def counter(self, name: str) -> int:
        """One counter of the host's final snapshot (0 if never hit)."""
        return self.snapshot.get("counters", {}).get(name, 0)

    def meets(self, slo: Slo) -> bool:
        return self.p99_cc <= slo.p99_cc and self.miss_rate <= slo.max_miss_rate

    def as_dict(self) -> Dict[str, object]:
        """The cycle-domain fields (no wall time, results or snapshot)."""
        return {
            "offered": self.offered,
            "completed": self.completed,
            "shed_by_priority": {
                str(k): v for k, v in sorted(self.shed_by_priority.items())
            },
            "rejected_deadline": self.rejected_deadline,
            "failed_typed": self.failed_typed,
            "rejected_at_submit": self.rejected_at_submit,
            "stranded": self.stranded,
            "mismatched": self.mismatched,
            "p50_cc": self.p50_cc,
            "p95_cc": self.p95_cc,
            "p99_cc": self.p99_cc,
            "mean_cc": round(self.mean_cc, 2),
            "miss_rate": round(self.miss_rate, 4),
            "horizon_cc": self.horizon_cc,
            "goodput_per_mcc": round(self.goodput_per_mcc, 3),
            "histogram": list(self.histogram),
            "terminal": self.terminal,
            "clean": self.clean,
        }


def _make_report(
    load: Sequence[Union[LoadItem, "CryptoLoadItem"]],
    outcomes: List[object],
    at_submit: Set[int],
    snapshot: Dict[str, object],
    wall_seconds: float,
) -> LoadReport:
    """Grade per-request outcomes (result, typed error or ``None``)."""
    shed: Dict[int, int] = {}
    rejected_deadline = failed_typed = rejected_at_submit = 0
    stranded = mismatched = 0
    results = []
    for index, (entry, outcome) in enumerate(zip(load, outcomes)):
        if outcome is None:
            stranded += 1
        elif isinstance(outcome, QueueFullError):
            shed[entry.priority] = shed.get(entry.priority, 0) + 1
        elif isinstance(outcome, DeadlineImpossibleError):
            rejected_deadline += 1
        elif isinstance(outcome, ServiceError):
            if index in at_submit:
                rejected_at_submit += 1
            else:
                failed_typed += 1
        else:
            results.append(outcome)
            mismatched += not entry.check(outcome)
    latencies = sorted(
        r.service_latency_cc
        for r in results
        if r.service_latency_cc is not None
    )
    histogram = Histogram("latency_cc", LATENCY_BUCKETS_CC)
    for latency in latencies:
        histogram.observe(latency)
    misses = sum(1 for r in results if r.deadline_met is False)
    horizon = max((r.completion_cc or 0 for r in results), default=0)
    return LoadReport(
        offered=len(load),
        completed=len(results),
        shed_by_priority=shed,
        rejected_deadline=rejected_deadline,
        failed_typed=failed_typed,
        rejected_at_submit=rejected_at_submit,
        stranded=stranded,
        mismatched=mismatched,
        p50_cc=_percentile(latencies, 0.50),
        p95_cc=_percentile(latencies, 0.95),
        p99_cc=_percentile(latencies, 0.99),
        mean_cc=sum(latencies) / len(latencies) if latencies else 0.0,
        miss_rate=misses / len(results) if results else 0.0,
        horizon_cc=horizon,
        goodput_per_mcc=(
            (len(results) - misses) * 1e6 / horizon if horizon else 0.0
        ),
        histogram=tuple(histogram.bucket_counts),
        results=tuple(results),
        snapshot=snapshot,
        wall_seconds=wall_seconds,
    )


# ----------------------------------------------------------------------
# Hosts: "submit one item" and "collect results" per host kind
# ----------------------------------------------------------------------
_SETTLE_CC = 1_000_000  # clock advance past the last arrival at drain


class _Host:
    """Per-host adapter: the driver's only per-host code is "submit
    one item" and "collect results" into ``outcomes`` (one slot per
    load item, indexed by request id)."""

    def __init__(self, outcomes: List[object]):
        self.outcomes = outcomes

    async def __aenter__(self) -> "_Host":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        pass

    def _collect(self, results) -> None:
        for result in results:
            self.outcomes[result.request_id] = result


class _ServiceHost(_Host):
    """One synchronous single-process service: every request funnels
    through one instance, so batches of different widths serialise on
    its way pools (the baseline the sharded front-end is judged
    against)."""

    def __init__(self, service: MultiplicationService, outcomes: List[object]):
        super().__init__(outcomes)
        self.service = service

    async def submit(self, index: int, entry: LoadItem) -> None:
        self.service.submit_request(
            MulRequest(
                request_id=index,
                a=entry.item.a,
                b=entry.item.b,
                n_bits=entry.item.n_bits,
                priority=entry.priority,
                deadline_cc=entry.deadline_cc,
                arrival_cc=entry.arrival_cc,
                flexible_width=self.service.config.portfolio,
            )
        )
        self._collect(self.service.take_completed())

    async def collect(self, settle_cc: Optional[int]) -> None:
        if settle_cc is not None:
            self.service.advance_to_cc(settle_cc)
        self._collect(self.service.drain())

    async def snapshot(self) -> Dict[str, object]:
        return self.service.snapshot()


class _FrontendHost(_Host):
    """The async sharded front-end: the driver starts and closes it;
    ``sigkill_after`` hard-kills shard 0 right before that submit."""

    def __init__(
        self,
        frontend: AsyncShardedFrontend,
        outcomes: List[object],
        sigkill_after: Optional[int],
    ):
        super().__init__(outcomes)
        self.frontend = frontend
        self.sigkill_after = sigkill_after
        self.futures: List[Tuple[int, "asyncio.Future"]] = []

    async def __aenter__(self) -> "_FrontendHost":
        await self.frontend.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.frontend.close()

    async def submit(self, index: int, entry: LoadItem) -> None:
        if index == self.sigkill_after:
            self.frontend.kill_shard(
                0, reason=f"sigkill drill at submit {index}"
            )
        future = await self.frontend.submit(
            entry.item.a,
            entry.item.b,
            entry.item.n_bits,
            priority=entry.priority,
            deadline_cc=entry.deadline_cc,
            arrival_cc=entry.arrival_cc,
        )
        self.futures.append((index, future))

    async def collect(self, settle_cc: Optional[int]) -> None:
        if settle_cc is not None:
            self.frontend.advance_to_cc(settle_cc)
        await self.frontend.drain()
        for index, future in self.futures:
            if not future.done():  # pragma: no cover - contract violation
                future.cancel()  # stranded: its outcome stays None
                continue
            try:
                self.outcomes[index] = future.result()
            except ServiceError as error:
                self.outcomes[index] = error

    async def snapshot(self) -> Dict[str, object]:
        return await self.frontend.snapshot()


class _EngineHost(_Host):
    """The crypto workload engine: consecutive ``modmul``/``modexp``
    arrivals group into cohorts of up to ``cohort_size`` served in
    shared waves (same-width plans pack into the same SIMD batches);
    an ``msm`` arrival flushes the pending cohort and runs through the
    orchestrator."""

    def __init__(
        self,
        engine: CryptoWorkloadEngine,
        outcomes: List[object],
        cohort_size: int,
    ):
        super().__init__(outcomes)
        self.engine = engine
        self.cohort_size = cohort_size
        self.pending: List[object] = []

    def _flush(self) -> None:
        if not self.pending:
            return
        try:
            self._collect(self.engine.serve_cohort(self.pending))
        except DeadlineImpossibleError:
            # Re-serve one by one so a single infeasible deadline does
            # not reject its whole cohort.
            for request in self.pending:
                try:
                    self._collect(self.engine.serve_cohort([request]))
                except DeadlineImpossibleError as error:
                    self.outcomes[request.request_id] = error
        self.pending = []

    async def submit(self, index: int, entry: "CryptoLoadItem") -> None:
        common = dict(
            request_id=index,
            priority=entry.priority,
            deadline_cc=entry.deadline_cc,
            arrival_cc=entry.arrival_cc,
        )
        if entry.kind == "msm":
            self._flush()
            self.outcomes[index] = self.engine.serve_msm(
                MsmRequest(
                    scalars=entry.scalars,
                    points=entry.points,
                    curve=TINY_CURVE,
                    window_bits=2,
                    **common,
                )
            )
            return
        if entry.kind == "modexp":
            request = ModExpRequest(
                base=entry.x,
                exponent=entry.exponent,
                modulus=entry.modulus,
                **common,
            )
        else:
            request = ModMulRequest(
                x=entry.x, y=entry.y, modulus=entry.modulus, **common
            )
        self.pending.append(request)
        if len(self.pending) >= self.cohort_size:
            self._flush()

    async def collect(self, settle_cc: Optional[int]) -> None:
        self._flush()

    async def snapshot(self) -> Dict[str, object]:
        return self.engine.snapshot()


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def run(
    load: Sequence[Union[LoadItem, "CryptoLoadItem"]],
    host: Union[
        MultiplicationService, AsyncShardedFrontend, CryptoWorkloadEngine
    ],
    cohort_size: int = 8,
    sigkill_after: Optional[int] = None,
) -> LoadReport:
    """Replay *load* open-loop through *host* and grade the outcome.

    *host* is a :class:`~repro.service.MultiplicationService` or an
    (unstarted) :class:`~repro.frontend.AsyncShardedFrontend` for a
    :class:`LoadItem` load, or a
    :class:`~repro.workloads.CryptoWorkloadEngine` for a
    :class:`CryptoLoadItem` load.  The driver submits every item in
    arrival order, advances the clock past the last arrival, drains,
    checks every result against its item's oracle, and embeds the
    host's final ``snapshot()`` in the report.  ``cohort_size`` groups
    value requests on the engine; ``sigkill_after`` hard-kills
    front-end shard 0 right before that submit index (the ``sigkill``
    chaos drill).  Admission failures are counted, never raised.
    """
    return asyncio.run(_run(load, host, cohort_size, sigkill_after))


async def _run(load, host, cohort_size, sigkill_after) -> LoadReport:
    outcomes: List[object] = [None] * len(load)
    if isinstance(host, AsyncShardedFrontend):
        driver = _FrontendHost(host, outcomes, sigkill_after)
    elif isinstance(host, CryptoWorkloadEngine):
        driver = _EngineHost(host, outcomes, cohort_size)
    else:
        driver = _ServiceHost(host, outcomes)
    at_submit: Set[int] = set()
    started = time.perf_counter()
    async with driver:
        for index, entry in enumerate(load):
            try:
                await driver.submit(index, entry)
            except (
                QueueFullError, DeadlineImpossibleError, ShardFailedError
            ) as error:
                outcomes[index] = error
                at_submit.add(index)
        await driver.collect(
            load[-1].arrival_cc + _SETTLE_CC if load else None
        )
        snapshot = await driver.snapshot()
    wall = time.perf_counter() - started
    return _make_report(load, outcomes, at_submit, snapshot, wall)


# ----------------------------------------------------------------------
# Chaos scenarios
# ----------------------------------------------------------------------
#: Canonical chaos scenarios (see :func:`chaos_scenario`).  ``none`` is
#: the fault-free control; ``sigkill`` is an *external* hard kill of
#: shard 0 mid-batch (no injection schedule — :func:`run` calls
#: :meth:`~repro.frontend.AsyncShardedFrontend.kill_shard`).
CHAOS_SCENARIOS = (
    "none", "kill", "hang", "drop", "duplicate", "storm", "sigkill",
)


def chaos_scenario(
    name: str,
    shards: int,
    jobs: int,
    batch_size: int,
    seed: int = 0xC4A05,
) -> Tuple[Optional[ChaosConfig], Optional[int]]:
    """Build one canonical injection schedule.

    Returns ``(chaos_config, sigkill_after)``: the seeded
    :class:`~repro.frontend.ChaosConfig` for the frontend (``None`` for
    the control and the external-kill scenario) and, for ``sigkill``,
    the submit index before which :func:`run` hard-kills shard 0.

    Injection points are placed where they bite, assuming round-robin
    routing: ``kill``/``hang`` land mid-way through a shard's first
    batch (journaled work exists, none of it flushed), ``drop``/
    ``duplicate`` land exactly on the first full-batch flush (the
    command whose replies actually carry results).
    """
    if name not in CHAOS_SCENARIOS:
        raise DesignError(
            f"unknown chaos scenario {name!r} (known: {CHAOS_SCENARIOS})"
        )
    per_shard = max(1, jobs // shards)
    mid = min(per_shard - 1, max(1, batch_size // 2))
    flush = min(per_shard - 1, batch_size - 1)
    if name == "none":
        return None, None
    if name == "kill":
        return ChaosConfig(kill=((0, mid),), seed=seed), None
    if name == "hang":
        return ChaosConfig(hang=((shards - 1, mid),), seed=seed), None
    if name == "drop":
        return (
            ChaosConfig(
                drop_replies=tuple((s, flush) for s in range(shards)),
                seed=seed,
            ),
            None,
        )
    if name == "duplicate":
        return (
            ChaosConfig(
                duplicate_replies=tuple((s, flush) for s in range(shards)),
                seed=seed,
            ),
            None,
        )
    if name == "storm":
        return (
            ChaosConfig.seeded(
                seed, shards, per_shard, kills=1, drops=1, duplicates=1
            ),
            None,
        )
    return None, jobs // 2  # sigkill


# ----------------------------------------------------------------------
# Crypto traffic
# ----------------------------------------------------------------------
#: Default modulus pool: one small sparse prime (the tiny test-curve
#: field), one 16-bit sparse prime, one generic odd (Montgomery) and
#: one even (Barrett) modulus — all widths the CI can simulate fast,
#: covering every reduction strategy.
DEFAULT_CRYPTO_MODULI: Tuple[int, ...] = (97, 65521, 65195, 64854)

#: Default kind ratios of the crypto mix.
DEFAULT_KIND_MIX: Tuple[Tuple[str, float], ...] = (
    ("modmul", 0.7),
    ("modexp", 0.2),
    ("msm", 0.1),
)


def zipf_weights(count: int, s: float = 1.1) -> List[float]:
    """Zipf popularity weights ``1 / rank^s`` for *count* items.

    Crypto traffic is modulus-skewed: a handful of standardised field
    primes serve almost all requests.  Rank 0 is the most popular.
    """
    if count < 1:
        raise DesignError("need at least one item to weight")
    return [1.0 / (rank + 1) ** s for rank in range(count)]


@dataclass(frozen=True)
class CryptoLoadItem:
    """One open-loop crypto arrival: kind-tagged workload parameters."""

    arrival_cc: int
    kind: str
    modulus: int = 0
    x: int = 0
    y: int = 0
    exponent: int = 0
    scalars: Tuple[int, ...] = ()
    points: Tuple[object, ...] = ()
    priority: int = 0
    deadline_cc: Optional[int] = None

    def check(self, result) -> bool:
        """Is *result* the right answer, by the oracle of its kind?"""
        if self.kind == "msm":
            expected = naive_msm(
                CimEllipticCurve(TINY_CURVE), self.scalars, self.points
            )
            return result.point == expected
        if self.kind == "modexp":
            return result.value == pow(self.x, self.exponent, self.modulus)
        return result.value == self.x * self.y % self.modulus


def build_crypto_load(
    jobs: int,
    mean_gap_cc: int,
    process: str = "poisson",
    seed: int = 0xC49,
    moduli: Sequence[int] = DEFAULT_CRYPTO_MODULI,
    zipf_s: float = 1.1,
    kind_mix: Sequence[Tuple[str, float]] = DEFAULT_KIND_MIX,
    exponent_bits: int = 5,
    msm_points: int = 3,
    msm_scalar_bits: int = 3,
    deadline_slack_cc: Optional[int] = None,
) -> List[CryptoLoadItem]:
    """Seeded open-loop crypto traffic with Zipf modulus popularity.

    ``modmul``/``modexp`` items draw their modulus from *moduli* with
    Zipf(*zipf_s*) weights (listed order = popularity rank), then draw
    residues uniformly.  ``msm`` items are tiny Pippenger instances on
    the exhaustively-testable 97-point curve with ``msm_points`` terms
    and ``msm_scalar_bits``-bit scalars.
    """
    kinds = [kind for kind, _ in kind_mix]
    kind_weights = [weight for _, weight in kind_mix]
    modulus_weights = zipf_weights(len(moduli), zipf_s)
    arrivals = arrival_schedule(
        process, jobs, mean_gap_cc, seed=seed ^ 0x5EED
    )
    rng = random.Random(seed)
    # Host-speed point table: the generator's small multiples.
    host_curve = CimEllipticCurve(TINY_CURVE)
    point_table = [host_curve.generator()]
    for _ in range(max(msm_points, 8) - 1):
        point_table.append(
            host_curve.add(point_table[-1], host_curve.generator())
        )
    load: List[CryptoLoadItem] = []
    for arrival in arrivals:
        kind = rng.choices(kinds, weights=kind_weights)[0]
        if kind == "msm":
            load.append(
                CryptoLoadItem(
                    arrival_cc=arrival,
                    kind=kind,
                    modulus=TINY_CURVE.p,
                    scalars=tuple(
                        rng.randrange(1, 1 << msm_scalar_bits)
                        for _ in range(msm_points)
                    ),
                    points=tuple(rng.sample(point_table, msm_points)),
                    deadline_cc=deadline_slack_cc,
                )
            )
            continue
        modulus = rng.choices(moduli, weights=modulus_weights)[0]
        load.append(
            CryptoLoadItem(
                arrival_cc=arrival,
                kind=kind,
                modulus=modulus,
                x=rng.randrange(modulus),
                y=rng.randrange(modulus),
                exponent=rng.randrange(1, 1 << exponent_bits),
                deadline_cc=deadline_slack_cc,
            )
        )
    return load
