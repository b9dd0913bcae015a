"""Open-loop load generation for the serving front-end.

Closed-loop replay (``eval.workloads.replay``) answers "how fast can
the datapath chew a backlog"; this module answers the serving
question: under *open-loop* arrivals — requests arrive on their own
clock whether or not the system keeps up — what latency distribution,
goodput and deadline-miss rate does the multiplication service
deliver, and how much does sharding the banks across worker processes
buy?

Everything runs on the **virtual cycle clock**: arrivals are stamped
``arrival_cc``, the service computes ``completion_cc`` on the same
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

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.eval.workloads import (
    TraceItem,
    fhe_limb_trace,
    mixed_trace,
    zkp_field_trace,
)
from repro.service import (
    DeadlineImpossibleError,
    MulRequest,
    MulResult,
    MultiplicationService,
    QueueFullError,
    ServiceConfig,
)
from repro.sim.exceptions import DesignError

__all__ = [
    "ARRIVAL_PROCESSES",
    "CHAOS_SCENARIOS",
    "DEFAULT_CRYPTO_MODULI",
    "MIXES",
    "LATENCY_BUCKETS_CC",
    "ChaosReport",
    "CryptoLoadItem",
    "CryptoLoadReport",
    "LoadItem",
    "LoadReport",
    "Slo",
    "arrival_schedule",
    "build_crypto_load",
    "build_load",
    "chaos_scenario",
    "run_chaos",
    "run_crypto",
    "run_sharded",
    "run_sync",
    "render",
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
    """Outcome of one open-loop run, entirely in the cycle domain."""

    mix: str
    process: str
    offered: int
    completed: int
    shed_by_priority: Dict[int, int]
    rejected_deadline: int
    p50_cc: int
    p95_cc: int
    p99_cc: int
    mean_cc: float
    miss_rate: float
    horizon_cc: int
    goodput_per_mcc: float
    histogram: Tuple[int, ...] = field(default=())
    wall_seconds: float = 0.0

    @property
    def shed(self) -> int:
        return sum(self.shed_by_priority.values())

    def meets(self, slo: Slo) -> bool:
        return self.p99_cc <= slo.p99_cc and self.miss_rate <= slo.max_miss_rate

    def as_dict(self) -> Dict[str, object]:
        return {
            "mix": self.mix,
            "process": self.process,
            "offered": self.offered,
            "completed": self.completed,
            "shed_by_priority": {
                str(k): v for k, v in sorted(self.shed_by_priority.items())
            },
            "rejected_deadline": self.rejected_deadline,
            "p50_cc": self.p50_cc,
            "p95_cc": self.p95_cc,
            "p99_cc": self.p99_cc,
            "mean_cc": round(self.mean_cc, 2),
            "miss_rate": round(self.miss_rate, 4),
            "horizon_cc": self.horizon_cc,
            "goodput_per_mcc": round(self.goodput_per_mcc, 3),
            "histogram": list(self.histogram),
        }


def _make_report(
    mix: str,
    process: str,
    offered: int,
    results: List[MulResult],
    shed_by_priority: Dict[int, int],
    rejected_deadline: int,
    wall_seconds: float = 0.0,
) -> LoadReport:
    latencies = sorted(
        r.service_latency_cc
        for r in results
        if r.service_latency_cc is not None
    )
    misses = sum(1 for r in results if r.deadline_met is False)
    horizon = max((r.completion_cc or 0 for r in results), default=0)
    good = sum(1 for r in results if r.deadline_met is not False)
    counts = [0] * (len(LATENCY_BUCKETS_CC) + 1)
    for latency in latencies:
        for index, edge in enumerate(LATENCY_BUCKETS_CC):
            if latency <= edge:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
    return LoadReport(
        mix=mix,
        process=process,
        offered=offered,
        completed=len(results),
        shed_by_priority=dict(shed_by_priority),
        rejected_deadline=rejected_deadline,
        p50_cc=_percentile(latencies, 0.50),
        p95_cc=_percentile(latencies, 0.95),
        p99_cc=_percentile(latencies, 0.99),
        mean_cc=sum(latencies) / len(latencies) if latencies else 0.0,
        miss_rate=misses / len(results) if results else 0.0,
        horizon_cc=horizon,
        goodput_per_mcc=good * 1e6 / horizon if horizon else 0.0,
        histogram=tuple(counts),
        wall_seconds=wall_seconds,
    )


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
_SETTLE_CC = 1_000_000  # clock advance past the last arrival at drain


def run_sync(
    load: List[LoadItem],
    config: Optional[ServiceConfig] = None,
    mix: str = "?",
    process: str = "sync",
) -> Tuple[LoadReport, MultiplicationService]:
    """Open-loop run through one synchronous single-process service.

    The baseline the sharded frontend is judged against: every request
    funnels through a single service instance, so batches of different
    widths serialise on its way pools.
    """
    import time

    service = MultiplicationService(config if config else ServiceConfig())
    results: List[MulResult] = []
    shed: Dict[int, int] = {}
    rejected_deadline = 0
    started = time.perf_counter()
    for index, entry in enumerate(load):
        request = MulRequest(
            request_id=index,
            a=entry.item.a,
            b=entry.item.b,
            n_bits=entry.item.n_bits,
            priority=entry.priority,
            deadline_cc=entry.deadline_cc,
            arrival_cc=entry.arrival_cc,
            flexible_width=service.config.portfolio,
        )
        try:
            service.submit_request(request)
        except QueueFullError:
            shed[entry.priority] = shed.get(entry.priority, 0) + 1
        except DeadlineImpossibleError:
            rejected_deadline += 1
        results.extend(service.take_completed())
    if load:
        service.advance_to_cc(load[-1].arrival_cc + _SETTLE_CC)
    results.extend(service.drain())
    wall = time.perf_counter() - started
    report = _make_report(
        mix, process, len(load), results, shed, rejected_deadline, wall
    )
    return report, service


def run_sharded(
    load: List[LoadItem],
    frontend_config: "FrontendConfig",
    mix: str = "?",
    process: str = "sharded",
) -> Tuple[LoadReport, Dict[str, object]]:
    """Open-loop run through the async sharded frontend.

    Wraps the asyncio driver in ``asyncio.run`` for synchronous
    callers (benchmarks, CLI).  Returns the report plus the frontend's
    merged snapshot (autoscaler counters, per-shard state).
    """
    import asyncio

    return asyncio.run(_run_sharded(load, frontend_config, mix, process))


async def _run_sharded(
    load: List[LoadItem],
    frontend_config: "FrontendConfig",
    mix: str,
    process: str,
) -> Tuple[LoadReport, Dict[str, object]]:
    import asyncio
    import time

    from repro.frontend import AsyncShardedFrontend

    shed: Dict[int, int] = {}
    rejected_deadline = 0
    results: List[MulResult] = []
    started = time.perf_counter()
    async with AsyncShardedFrontend(frontend_config) as fe:
        futures = []
        for entry in load:
            future = await fe.submit(
                entry.item.a,
                entry.item.b,
                entry.item.n_bits,
                priority=entry.priority,
                deadline_cc=entry.deadline_cc,
                arrival_cc=entry.arrival_cc,
            )
            futures.append((entry, future))
        if load:
            fe.advance_to_cc(load[-1].arrival_cc + _SETTLE_CC)
        await fe.drain()
        for entry, future in futures:
            try:
                results.append(await future)
            except QueueFullError:
                shed[entry.priority] = shed.get(entry.priority, 0) + 1
            except DeadlineImpossibleError:
                rejected_deadline += 1
        snapshot = await fe.snapshot()
        outstanding = fe.outstanding
    wall = time.perf_counter() - started
    if outstanding:  # pragma: no cover - future-loss guard
        raise RuntimeError(f"{outstanding} futures left unresolved")
    report = _make_report(
        mix, process, len(load), results, shed, rejected_deadline, wall
    )
    return report, snapshot


# ----------------------------------------------------------------------
# Chaos campaign driver
# ----------------------------------------------------------------------
#: Canonical chaos scenarios (see :func:`chaos_scenario`).  ``none`` is
#: the fault-free control; ``sigkill`` is an *external* hard kill of
#: shard 0 mid-batch (no injection schedule — the driver calls
#: :meth:`~repro.frontend.AsyncShardedFrontend.kill_shard`).
CHAOS_SCENARIOS = (
    "none", "kill", "hang", "drop", "duplicate", "storm", "sigkill",
)


@dataclass(frozen=True)
class ChaosReport:
    """Terminal-state accounting for one chaos scenario run.

    The supervision contract under test: every *offered* request either
    resolves to a bit-exact product, fails its future with a typed
    error, or is rejected synchronously at admission — and nothing is
    left stranded (``stranded == 0``, ``outstanding_after == 0``,
    ``journal_after == 0``).
    """

    scenario: str
    offered: int
    admitted: int
    completed: int
    failed_typed: int
    rejected_at_submit: int
    stranded: int
    mismatched: int
    outstanding_after: int
    journal_after: int
    shard_deaths: int
    shard_restarts: int
    redispatches: int
    orphan_results: int
    breaker_transitions: int
    breakers: Tuple[str, ...]
    wall_seconds: float = 0.0

    @property
    def terminal(self) -> int:
        """Requests that reached a terminal state."""
        return self.completed + self.failed_typed + self.rejected_at_submit

    @property
    def clean(self) -> bool:
        """Did every request terminate, bit-exactly, with nothing stuck?"""
        return (
            self.terminal == self.offered
            and self.stranded == 0
            and self.mismatched == 0
            and self.outstanding_after == 0
            and self.journal_after == 0
            and "open" not in self.breakers
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed_typed": self.failed_typed,
            "rejected_at_submit": self.rejected_at_submit,
            "stranded": self.stranded,
            "mismatched": self.mismatched,
            "outstanding_after": self.outstanding_after,
            "journal_after": self.journal_after,
            "shard_deaths": self.shard_deaths,
            "shard_restarts": self.shard_restarts,
            "redispatches": self.redispatches,
            "orphan_results": self.orphan_results,
            "breaker_transitions": self.breaker_transitions,
            "breakers": list(self.breakers),
            "terminal": self.terminal,
            "clean": self.clean,
        }


def chaos_scenario(
    name: str,
    shards: int,
    jobs: int,
    batch_size: int,
    seed: int = 0xC4A05,
) -> Tuple[Optional["ChaosConfig"], Optional[int]]:
    """Build one canonical injection schedule.

    Returns ``(chaos_config, sigkill_after)``: the seeded
    :class:`~repro.frontend.ChaosConfig` for the frontend (``None`` for
    the control and the external-kill scenario) and, for ``sigkill``,
    the submit index before which the driver hard-kills shard 0.

    Injection points are placed where they bite, assuming round-robin
    routing: ``kill``/``hang`` land mid-way through a shard's first
    batch (journaled work exists, none of it flushed), ``drop``/
    ``duplicate`` land exactly on the first full-batch flush (the
    command whose replies actually carry results).
    """
    from repro.frontend import ChaosConfig

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


def run_chaos(
    load: List[LoadItem],
    frontend_config: "FrontendConfig",
    scenario: str = "kill",
    sigkill_after: Optional[int] = None,
) -> ChaosReport:
    """Drive one load through the frontend under a chaos scenario.

    The caller builds ``frontend_config`` with the scenario's
    :class:`~repro.frontend.ChaosConfig` already set (see
    :func:`chaos_scenario`); ``sigkill_after`` additionally hard-kills
    shard 0 right before that submit index.  Unlike
    :func:`run_sharded`, admission failures are expected here —
    ``ShardFailedError`` at submit is counted, not raised — and the
    report grades terminal-state coverage rather than latency.
    """
    import asyncio

    return asyncio.run(
        _run_chaos(load, frontend_config, scenario, sigkill_after)
    )


async def _run_chaos(
    load: List[LoadItem],
    frontend_config: "FrontendConfig",
    scenario: str,
    sigkill_after: Optional[int],
) -> ChaosReport:
    import asyncio
    import time

    from repro.frontend import AsyncShardedFrontend, ShardFailedError
    from repro.service import ServiceError

    rejected = 0
    completed = 0
    failed_typed = 0
    mismatched = 0
    futures: List[Tuple[LoadItem, "asyncio.Future"]] = []
    started = time.perf_counter()
    async with AsyncShardedFrontend(frontend_config) as fe:
        for index, entry in enumerate(load):
            if sigkill_after is not None and index == sigkill_after:
                fe.kill_shard(0, reason=f"{scenario} drill at submit {index}")
            try:
                future = await fe.submit(
                    entry.item.a,
                    entry.item.b,
                    entry.item.n_bits,
                    priority=entry.priority,
                    deadline_cc=entry.deadline_cc,
                    arrival_cc=entry.arrival_cc,
                )
            except ShardFailedError:
                rejected += 1
                continue
            futures.append((entry, future))
        if load:
            fe.advance_to_cc(load[-1].arrival_cc + _SETTLE_CC)
        await fe.drain()
        stranded = sum(1 for _, f in futures if not f.done())
        for _, future in futures:
            if not future.done():  # pragma: no cover - contract violation
                future.cancel()
        for entry, future in futures:
            try:
                result = await future
            except asyncio.CancelledError:  # pragma: no cover
                continue
            except ServiceError:
                failed_typed += 1
                continue
            completed += 1
            if result.product != entry.item.a * entry.item.b:
                mismatched += 1  # pragma: no cover - service is bit-exact
        snapshot = await fe.snapshot()
        outstanding = fe.outstanding
        journal_after = fe.journal_size
        breakers = tuple(fe.breaker_states())
    counters = snapshot["counters"]
    return ChaosReport(
        scenario=scenario,
        offered=len(load),
        admitted=len(futures),
        completed=completed,
        failed_typed=failed_typed,
        rejected_at_submit=rejected,
        stranded=stranded,
        mismatched=mismatched,
        outstanding_after=outstanding,
        journal_after=journal_after,
        shard_deaths=counters.get("frontend_shard_deaths", 0),
        shard_restarts=counters.get("frontend_shard_restarts", 0),
        redispatches=counters.get("frontend_redispatches", 0),
        orphan_results=counters.get("frontend_orphan_results", 0),
        breaker_transitions=counters.get("frontend_breaker_transitions", 0),
        breakers=breakers,
        wall_seconds=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# Crypto traffic mode
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
    curve: Optional[object] = None,
) -> List[CryptoLoadItem]:
    """Seeded open-loop crypto traffic with Zipf modulus popularity.

    ``modmul``/``modexp`` items draw their modulus from *moduli* with
    Zipf(*zipf_s*) weights (listed order = popularity rank), then draw
    residues uniformly.  ``msm`` items are tiny Pippenger instances on
    *curve* (the exhaustively-testable 97-point curve by default) with
    ``msm_points`` terms and ``msm_scalar_bits``-bit scalars.
    """
    from repro.crypto.ec import TINY_CURVE, CimEllipticCurve

    if curve is None:
        curve = TINY_CURVE
    kinds = [kind for kind, _ in kind_mix]
    kind_weights = [weight for _, weight in kind_mix]
    modulus_weights = zipf_weights(len(moduli), zipf_s)
    arrivals = arrival_schedule(
        process, jobs, mean_gap_cc, seed=seed ^ 0x5EED
    )
    rng = random.Random(seed)
    # Host-speed point table: the generator's small multiples.
    host_curve = CimEllipticCurve(curve)
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
                    modulus=curve.p,
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


@dataclass(frozen=True)
class CryptoLoadReport:
    """Outcome of one open-loop crypto run, in the cycle domain."""

    offered: int
    completed: int
    by_kind: Dict[str, int]
    rejected_deadline: int
    p50_cc: int
    p95_cc: int
    p99_cc: int
    mean_cc: float
    miss_rate: float
    horizon_cc: int
    context_hit_rate: float
    multiplier_passes: int
    waves: int
    residue_checks: int
    wall_seconds: float = 0.0

    def meets(self, slo: Slo) -> bool:
        return (
            self.p99_cc <= slo.p99_cc and self.miss_rate <= slo.max_miss_rate
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "by_kind": dict(sorted(self.by_kind.items())),
            "rejected_deadline": self.rejected_deadline,
            "p50_cc": self.p50_cc,
            "p95_cc": self.p95_cc,
            "p99_cc": self.p99_cc,
            "mean_cc": round(self.mean_cc, 2),
            "miss_rate": round(self.miss_rate, 4),
            "horizon_cc": self.horizon_cc,
            "context_hit_rate": round(self.context_hit_rate, 4),
            "multiplier_passes": self.multiplier_passes,
            "waves": self.waves,
            "residue_checks": self.residue_checks,
        }


def run_crypto(
    load: List[CryptoLoadItem],
    config: Optional[ServiceConfig] = None,
    cohort_size: int = 8,
    curve: Optional[object] = None,
    msm_window_bits: int = 2,
) -> Tuple[CryptoLoadReport, "CryptoWorkloadEngine"]:
    """Open-loop crypto run through one workload engine.

    Consecutive ``modmul``/``modexp`` arrivals group into cohorts of up
    to *cohort_size* served in shared waves (same-width plans pack into
    the same SIMD batches); ``msm`` arrivals flush the pending cohort
    and run through the orchestrator.  Latency percentiles, deadline
    misses and the context-cache hit rate all live on the virtual cycle
    clock, so the report is seed-deterministic.
    """
    import time

    from repro.crypto.ec import TINY_CURVE
    from repro.workloads import (
        CryptoWorkloadEngine,
        ModExpRequest,
        ModMulRequest,
        MsmRequest,
    )

    if curve is None:
        curve = TINY_CURVE
    engine = CryptoWorkloadEngine(config=config)
    results: List[object] = []
    rejected_deadline = 0
    by_kind: Dict[str, int] = {}
    started = time.perf_counter()

    pending: List[object] = []

    def flush_cohort() -> None:
        nonlocal rejected_deadline
        if not pending:
            return
        try:
            results.extend(engine.serve_cohort(list(pending)))
        except DeadlineImpossibleError:
            # Re-serve one by one so a single infeasible deadline does
            # not reject its whole cohort.
            for request in pending:
                try:
                    results.extend(engine.serve_cohort([request]))
                except DeadlineImpossibleError:
                    rejected_deadline += 1
        pending.clear()

    for index, entry in enumerate(load):
        by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
        if entry.kind == "msm":
            flush_cohort()
            request = MsmRequest(
                request_id=index,
                scalars=entry.scalars,
                points=entry.points,
                curve=curve,
                window_bits=msm_window_bits,
                priority=entry.priority,
                deadline_cc=entry.deadline_cc,
                arrival_cc=entry.arrival_cc,
            )
            try:
                results.append(engine.serve_msm(request))
            except DeadlineImpossibleError:
                rejected_deadline += 1
            continue
        if entry.kind == "modexp":
            pending.append(
                ModExpRequest(
                    request_id=index,
                    base=entry.x,
                    exponent=entry.exponent,
                    modulus=entry.modulus,
                    priority=entry.priority,
                    deadline_cc=entry.deadline_cc,
                    arrival_cc=entry.arrival_cc,
                )
            )
        else:
            pending.append(
                ModMulRequest(
                    request_id=index,
                    x=entry.x,
                    y=entry.y,
                    modulus=entry.modulus,
                    priority=entry.priority,
                    deadline_cc=entry.deadline_cc,
                    arrival_cc=entry.arrival_cc,
                )
            )
        if len(pending) >= cohort_size:
            flush_cohort()
    flush_cohort()
    wall = time.perf_counter() - started

    latencies = sorted(
        r.service_latency_cc
        for r in results
        if r.service_latency_cc is not None
    )
    misses = sum(1 for r in results if r.deadline_met is False)
    horizon = max((r.completion_cc or 0 for r in results), default=0)
    report = CryptoLoadReport(
        offered=len(load),
        completed=len(results),
        by_kind=by_kind,
        rejected_deadline=rejected_deadline,
        p50_cc=_percentile(latencies, 0.50),
        p95_cc=_percentile(latencies, 0.95),
        p99_cc=_percentile(latencies, 0.99),
        mean_cc=sum(latencies) / len(latencies) if latencies else 0.0,
        miss_rate=misses / len(results) if results else 0.0,
        horizon_cc=horizon,
        context_hit_rate=engine.contexts.stats.hit_rate,
        multiplier_passes=sum(r.multiplier_passes for r in results),
        waves=sum(r.waves for r in results),
        residue_checks=sum(r.residue_checks for r in results),
        wall_seconds=wall,
    )
    return report, engine


# ----------------------------------------------------------------------
def render(jobs: int = 96, mean_gap_cc: int = 900, seed: int = 0x10AD) -> str:
    """Latency/goodput table across mixes and arrival processes."""
    from repro.eval.report import format_table

    rows = []
    for mix in MIXES:
        for process in ARRIVAL_PROCESSES:
            load = build_load(mix, process, jobs, mean_gap_cc, seed=seed)
            report, _ = run_sync(load, mix=mix, process=process)
            rows.append(
                (
                    f"{mix}/{process}",
                    report.offered,
                    report.completed,
                    report.p50_cc,
                    report.p99_cc,
                    f"{report.miss_rate:.1%}",
                    round(report.goodput_per_mcc, 1),
                )
            )
    return format_table(
        ("load", "offered", "done", "p50 cc", "p99 cc", "miss", "good/Mcc"),
        rows,
        title="Open-loop load through the synchronous service",
    )
