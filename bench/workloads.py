"""The four benchmark workloads.

Every workload follows one life cycle, driven by ``run.py``:

* ``setup()`` — construction plus one warm-up batch per (design,
  width), so caches fill and lazy set-up finishes before timing;
* ``inputs()`` — the inputs of one *pass*; the system receives only
  these.  The schedule — arrival times, widths, request kinds, which
  requests repeat an earlier pair, exponents and MSM scalars — comes
  from fixed streams, and the seed picks the operand values.  Cycle
  counts do not depend on operand values, so every cycle-clock metric
  is the same for every seed, and so is the work per pass;
* ``run(inputs, timer)`` — serve one pass.  Only the ``with timer():``
  blocks count as host time, and each serving rung runs on a fresh
  system;
* ``score(inputs, raw)`` — the correctness gate, outside the timed
  phase: every result is checked against a Python oracle, and the
  cycle-clock outcome is summarised.

The system is driven only through public entry points:
``build_pipeline`` / ``KaratsubaPipeline.run_stream``,
``MultiplicationService.submit`` / ``advance_to_cc`` /
``take_completed`` / ``drain`` / ``snapshot``, the
``AsyncShardedFrontend`` async API, and
``CryptoWorkloadEngine.serve_cohort`` / ``serve_msm``.  Array energy is
read through ``dispatcher.all_ways()`` and ``controller.total_energy_fj()``.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

from repro.baselines.common import PAPER_TABLE1, TABLE1_SIZES
from repro.crypto.ec import TINY_CURVE, CimEllipticCurve
from repro.crypto.msm import naive_msm
from repro.crypto.params import BLS12_381_P, SECP256K1_P
from repro.frontend import AsyncShardedFrontend
from repro.frontend.config import FrontendConfig
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.portfolio.design import DesignPoint, build_pipeline
from repro.service import MultiplicationService, ServiceConfig, ServiceError
from repro.workloads import (
    CryptoWorkloadEngine,
    ModExpRequest,
    ModMulRequest,
    MsmRequest,
)

from bench.metrics import CRYPTO, PORTFOLIO, SHARDED, STREAM

ROOT = Path(__file__).resolve().parent.parent
TUNE_TABLE = ROOT / "TUNE_portfolio.json"

#: Clock advance past the last arrival before the final drain.
SETTLE_CC = 1_000_000
#: Lanes per service batch (every serving workload keeps the default).
BATCH_SIZE = ServiceConfig().batch_size

Timer = Callable[[], ContextManager[None]]


@dataclass
class RungResult:
    """Cycle-clock outcome of one rung (one fresh system), post-oracle."""

    #: One latency per offered request; ``inf`` when refused, failed
    #: or wrong, so shedding load can never improve a tail.
    latencies: List[float]
    late: int = 0
    #: Results compared against the oracle (right or wrong).
    checked: int = 0
    refused: int = 0
    failed: int = 0
    wrong: int = 0
    backlog_cc: float = 0.0
    #: Multiplications executed in batches and the batches' makespans.
    jobs: int = 0
    busy_cc: int = 0
    energy_fj: Optional[float] = None
    #: Raw per-layer counts from public snapshots (summed over rungs,
    #: except ``max_writes`` which takes the maximum).
    counts: Dict[str, float] = field(default_factory=dict)
    queue_wait_cc: List[int] = field(default_factory=list)
    exec_cc: List[int] = field(default_factory=list)
    #: ``"<algorithm>-<n>" -> (latency_cc, bottleneck_cc)``.
    timings: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def offered(self) -> int:
        return len(self.latencies)

    @property
    def errors(self) -> int:
        return self.refused + self.failed + self.wrong

    def fingerprint(self) -> tuple:
        """Every cycle-clock statistic of the rung, for the determinism
        check (energy excluded: it depends on the state an earlier pass
        left in a reused array)."""
        return (
            tuple(self.latencies), self.late, self.errors, self.backlog_cc,
            self.jobs, self.busy_cc,
        )


@dataclass
class PassResult:
    rungs: List[RungResult]
    #: Raw host seconds, and the same in reference-machine seconds (see
    #: ``calibrate``); ``run.py`` fills both in.
    host_s: float = 0.0
    reference_s: float = 0.0

    @property
    def ops(self) -> int:
        """Requests completed with a right result: multiplications in
        ``stream`` and ``serve-*``, crypto requests in ``crypto``."""
        return sum(r.offered - r.errors for r in self.rungs)

    @property
    def failed(self) -> int:
        return sum(r.errors for r in self.rungs)

    @property
    def checked(self) -> int:
        return sum(r.checked for r in self.rungs)

    @property
    def unanswered(self) -> int:
        return sum(r.refused + r.failed for r in self.rungs)

    @property
    def wrong(self) -> int:
        return sum(r.wrong for r in self.rungs)

    def fingerprint(self) -> tuple:
        return tuple(r.fingerprint() for r in self.rungs)


def merge_counts(into: Dict[str, float], counts: Dict[str, float]) -> None:
    for key, value in counts.items():
        if key == "max_writes":
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def _exact_mix(rng: random.Random, weighted, count: int) -> List:
    """*count* items in exact proportion to their weights (largest
    remainder), in seeded order: seeds vary the order and the operand
    values, never the composition, so the work per pass stays level."""
    weighted = list(weighted)
    total = sum(weight for _, weight in weighted)
    quotas = [count * weight / total for _, weight in weighted]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(
        range(len(quotas)), key=lambda i: counts[i] - quotas[i]
    )
    for index in by_remainder[: count - sum(counts)]:
        counts[index] += 1
    items = [item for (item, _), n in zip(weighted, counts) for _ in range(n)]
    rng.shuffle(items)
    return items


def _checked(rung: RungResult, right: bool) -> bool:
    """Count one oracle comparison on *rung*; a wrong result is counted
    as wrong (the caller ranks its latency as +inf)."""
    rung.checked += 1
    rung.wrong += not right
    return right


def _poisson(rng: random.Random, count: int, gap_cc: int) -> List[int]:
    now, out = 0, []
    for _ in range(count):
        now += max(1, round(rng.expovariate(1.0 / gap_cc)))
        out.append(now)
    return out


def _stage_nor_cycles(controller) -> int:
    names = getattr(
        controller, "stage_attr_names",
        ("precompute", "multiply_stage", "postcompute"),
    )
    total = 0
    for name in names:
        clock = getattr(getattr(controller, name, None), "clock", None)
        if clock is not None:
            total += clock.by_category.get("nor", 0)
    return total


def _service_counts(snap: Dict) -> Dict[str, float]:
    """Raw layer counts of one service snapshot."""
    counters = snap["counters"]
    hist = snap["histograms"]
    caches = snap["caches"]
    residue = [
        stage
        for way in snap["reliability"].values()
        for stage in way["residue"]
    ]
    counts = {
        "batches": counters.get("batches_flushed", 0),
        "occupancy_sum": hist.get("batch_occupancy", {}).get("sum", 0),
        "operand_hits": caches["operand"]["hits"],
        "operand_lookups": caches["operand"]["hits"] + caches["operand"]["misses"],
        "compile_hits": caches["compile"]["hits"],
        "compile_lookups": caches["compile"]["hits"] + caches["compile"]["misses"],
        "retries": counters.get("fault_retries", 0),
        "detections": counters.get("faults_detected", 0),
        "residue_checks": sum(stage["checks"] for stage in residue),
        "jobs": snap["service"]["jobs_completed"],
        "busy_cc": hist.get("batch_latency_cc", {}).get("sum", 0),
        "max_writes": max(
            (way["max_writes"] for way in snap["endurance"].values()),
            default=0,
        ),
    }
    for reason in ("full", "timeout", "deadline", "drain"):
        counts[f"flush_{reason}"] = counters.get(f"flush_reason_{reason}", 0)
    return counts


def _ways_energy_nor(service: MultiplicationService) -> Tuple[float, int, Dict]:
    """Array energy, NOR cycles and design timings over every way."""
    energy, nor, timings = 0.0, 0, {}
    for way in service.dispatcher.all_ways():
        controller = way.pipeline.controller
        energy += controller.total_energy_fj()
        nor += _stage_nor_cycles(controller)
        design = service.dispatcher.design_for(way.n_bits)
        timing = way.pipeline.timing()
        timings[f"{design.algorithm}-{way.n_bits}"] = (
            timing.latency_cc, timing.bottleneck_cc,
        )
    return energy, nor, timings


class Workload:
    """Shared shape of the four workloads (see the module docstring)."""

    name = ""
    #: Mean gaps of the open-loop ladder (empty for closed loops).
    ladder: Tuple[int, ...] = ()
    nominal = 0
    slo_cc = 0

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick

    def rng(self, *parts: object) -> random.Random:
        """Operand values: seeded."""
        return random.Random(":".join(map(str, (self.seed, self.name) + parts)))

    def schedule_rng(self, *parts: object) -> random.Random:
        """The schedule: the same for every seed."""
        return random.Random(":".join(map(str, ("schedule", self.name) + parts)))

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self):
        raise NotImplementedError

    def run(self, inputs, timer: Timer):
        raise NotImplementedError

    def score(self, inputs, raw) -> PassResult:
        raise NotImplementedError

    def extra_metrics(self) -> Dict[str, float]:
        """Workload-specific end-to-end metrics not derived from passes."""
        return {}


# ----------------------------------------------------------------------
# stream — closed loop, 1 client, no service code
# ----------------------------------------------------------------------
class Stream(Workload):
    """Back-to-back 64-lane ``run_stream`` batches through three designs.

    MAGIC replay and the row-multiplier stage do nearly all host work
    and no service code runs, so executor and datapath changes show at
    full strength here.
    """

    name = STREAM
    DESIGNS = (
        (256, DesignPoint("karatsuba", depth=2, optimize=True, backend="word")),
        (384, DesignPoint("karatsuba", depth=2, optimize=True, backend="word")),
        (270, DesignPoint("toom3", depth=1, optimize=True, backend="word")),
    )

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.lanes = 8 if quick else 64
        self.batches = 1 if quick else 4
        self.pipelines: Dict[str, KaratsubaPipeline] = {}

    def _batch(self, rng: random.Random, n_bits: int) -> List[Tuple[int, int]]:
        return [
            (rng.getrandbits(n_bits), rng.getrandbits(n_bits))
            for _ in range(self.lanes)
        ]

    def setup(self) -> None:
        for n_bits, design in self.DESIGNS:
            pipeline = build_pipeline(n_bits, design)
            pipeline.run_stream(
                self._batch(self.rng("warmup", n_bits), n_bits),
                batch_size=self.lanes,
            )
            self.pipelines[f"{design.algorithm}-{n_bits}"] = pipeline

    def inputs(self):
        rng = self.rng("pass")
        return [
            (f"{design.algorithm}-{n_bits}", self._batch(rng, n_bits))
            for _ in range(self.batches)
            for n_bits, design in self.DESIGNS
        ]

    def run(self, inputs, timer: Timer):
        raw = []
        for key, pairs in inputs:
            controller = self.pipelines[key].controller
            energy, nor = controller.total_energy_fj(), _stage_nor_cycles(controller)
            checks = self._residue(controller)
            with timer():
                result = self.pipelines[key].run_stream(pairs, batch_size=self.lanes)
            raw.append((
                key, result,
                controller.total_energy_fj() - energy,
                _stage_nor_cycles(controller) - nor,
                [now - then for now, then in zip(self._residue(controller), checks)],
            ))
        return raw

    @staticmethod
    def _residue(controller) -> Tuple[int, int]:
        stats = controller.residue_stats()
        return (
            sum(s["checks"] for s in stats),
            sum(s["mismatches"] for s in stats),
        )

    def score(self, inputs, raw) -> PassResult:
        rung = RungResult(latencies=[], energy_fj=0.0)
        for (key, pairs), (_, result, energy, nor, residue) in zip(inputs, raw):
            for (a, b), product in zip(pairs, result.products):
                right = _checked(rung, product == a * b)
                rung.latencies.append(result.makespan_cc if right else math.inf)
            rung.jobs += len(pairs)
            rung.busy_cc += result.makespan_cc
            rung.energy_fj += energy
            pipeline = self.pipelines[key]
            merge_counts(rung.counts, {
                "nor_cycles": nor,
                "residue_checks": residue[0],
                "detections": residue[1],
                f"route_{key.split('-')[0]}": len(pairs),
                "max_writes": pipeline.controller.max_writes(),
            })
            rung.timings[key] = (
                result.timing.latency_cc, result.timing.bottleneck_cc,
            )
        return PassResult(rungs=[rung])

    def extra_metrics(self) -> Dict[str, float]:
        """``paper_err``: the paper-exact pipeline against Table I."""
        worst = 0.0
        for n_bits in TABLE1_SIZES:
            model = KaratsubaPipeline(n_bits, optimize=False).timing()
            paper = PAPER_TABLE1["ours"][n_bits].throughput_per_mcc
            worst = max(worst, abs(model.throughput_per_mcc - paper) / paper)
        return {"paper_err": worst}


# ----------------------------------------------------------------------
# serve-portfolio / serve-sharded — open loop, Poisson arrivals
# ----------------------------------------------------------------------
class _Serving(Workload):
    """Open-loop ladder; each rung runs on a fresh system.

    A pass offers 1,000 requests at the nominal rung, which puts 10
    samples beyond p99, and 200 at each other rung: enough for the top
    rung's queue to push p99 past the SLO, few enough to keep a pass of
    ``serve-sharded`` near 12 s.
    """

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.requests = [
            (20 if quick else 1000) if index == self.nominal else (10 if quick else 200)
            for index in range(len(self.ladder))
        ]

    def operands(
        self, schedule: random.Random, values: random.Random, count: int
    ) -> List[Tuple[int, int, int]]:
        """``(a, b, n_bits)`` of *count* requests, in arrival order."""
        raise NotImplementedError

    def inputs(self):
        ladder = []
        for gap, count in zip(self.ladder, self.requests):
            schedule = self.schedule_rng(gap)
            arrivals = _poisson(schedule, count, gap)
            operands = self.operands(schedule, self.rng(gap), count)
            ladder.append((gap, [
                (arrival,) + item for arrival, item in zip(arrivals, operands)
            ]))
        return ladder

    def score_rung(self, items, outcomes: Dict[int, object]) -> RungResult:
        """Oracle check of one rung: ``outcomes`` maps item index to a
        ``MulResult`` or the ``ServiceError`` that refused it."""
        rung = RungResult(latencies=[])
        last_completion = 0
        for index, (_, a, b, _n) in enumerate(items):
            outcome = outcomes.get(index)
            if isinstance(outcome, ServiceError):
                rung.refused += 1
                rung.latencies.append(math.inf)
            elif outcome is None or outcome.completion_cc is None:
                rung.failed += 1
                rung.latencies.append(math.inf)
            elif not _checked(rung, outcome.product == a * b):
                rung.latencies.append(math.inf)
            else:
                latency = outcome.service_latency_cc
                rung.latencies.append(latency)
                rung.late += latency > self.slo_cc
                last_completion = max(last_completion, outcome.completion_cc)
                if not outcome.cache_hit:
                    rung.exec_cc.append(outcome.latency_cc)
                    rung.queue_wait_cc.append(latency - outcome.latency_cc)
        rung.backlog_cc = (
            last_completion - items[-1][0] if rung.errors == 0 else math.inf
        )
        return rung


class ServePortfolio(_Serving):
    """Sync service, ``portfolio=True``, the committed tuning table.

    Narrow widths and partial batches make per-request admission,
    caching and per-batch set-up the main host cost, with replay at low
    occupancy; the only workload serving schoolbook and off-grid Toom-3.
    """

    name = PORTFOLIO
    WIDTHS = (16, 32, 64, 90, 128, 270)
    REPEAT_SHARE = 0.10
    ladder = (2000, 1000, 700, 500)
    nominal = 1
    slo_cc = 32_000

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.config = ServiceConfig(portfolio=True, portfolio_table=str(TUNE_TABLE))

    def operands(self, schedule, values, count):
        widths = _exact_mix(schedule, [(n_bits, 1) for n_bits in self.WIDTHS], count)
        repeats = [False] + _exact_mix(
            schedule, ((True, self.REPEAT_SHARE), (False, 1 - self.REPEAT_SHARE)),
            count - 1,
        )
        out: List[Tuple[int, int, int]] = []
        for n_bits, repeat in zip(widths, repeats):
            out.append(
                out[schedule.randrange(len(out))] if repeat
                else (values.getrandbits(n_bits), values.getrandbits(n_bits), n_bits)
            )
        return out

    def setup(self) -> None:
        service = MultiplicationService(self.config)
        rng = self.rng("warmup")
        for n_bits in self.WIDTHS:
            for _ in range(self.config.batch_size):
                service.submit(rng.getrandbits(n_bits), rng.getrandbits(n_bits), n_bits)
            service.drain()

    def run(self, inputs, timer: Timer):
        raw = []
        for gap, items in inputs:
            outcomes: Dict[int, object] = {}
            index_of: Dict[int, int] = {}
            with timer():
                service = MultiplicationService(self.config)
            # One timed block per request, so the host is calibrated
            # inside a rung as well as between rungs.
            for index, (arrival, a, b, n_bits) in enumerate(items):
                with timer():
                    try:
                        index_of[service.submit(
                            a, b, n_bits, deadline_cc=self.slo_cc,
                            arrival_cc=arrival,
                        )] = index
                    except ServiceError as error:
                        outcomes[index] = error
                    for result in service.take_completed():
                        outcomes[index_of[result.request_id]] = result
            with timer():
                service.advance_to_cc(items[-1][0] + SETTLE_CC)
                for result in service.drain():
                    outcomes[index_of[result.request_id]] = result
            raw.append((outcomes, service.snapshot(), _ways_energy_nor(service)))
        return raw

    def score(self, inputs, raw) -> PassResult:
        rungs = []
        for (_, items), (outcomes, snap, (energy, nor, timings)) in zip(inputs, raw):
            rung = self.score_rung(items, outcomes)
            counts = _service_counts(snap)
            rung.jobs, rung.busy_cc = counts.pop("jobs"), counts.pop("busy_cc")
            rung.energy_fj = energy
            routes = snap["portfolio"]["routes"]
            for outcome in outcomes.values():
                if not isinstance(outcome, ServiceError) and not outcome.cache_hit:
                    algorithm = routes[outcome.n_bits].split(".")[0]
                    merge_counts(counts, {f"route_{algorithm}": 1})
            counts["nor_cycles"] = nor
            rung.counts, rung.timings = counts, timings
            rungs.append(rung)
        return PassResult(rungs=rungs)


class ServeSharded(_Serving):
    """``AsyncShardedFrontend`` with 2 inline shards, fixed Karatsuba L=2.

    The only workload with the front-end on the request path.  Process
    shards are left out: their host time depends on how the OS schedules
    the workers, and inline shards give identical cycle results.
    """

    name = SHARDED
    ladder = (1000, 500, 350, 250)
    nominal = 1
    slo_cc = 48_000
    TWIDDLE_SHARE = 0.25

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.config = FrontendConfig(shards=2, inline=True, service=ServiceConfig())

    def operands(self, schedule, values, count):
        widths = _exact_mix(schedule, [(n_bits, 1) for n_bits in (64, 256, 384)], count)
        twiddles = iter(_exact_mix(
            schedule, ((True, self.TWIDDLE_SHARE), (False, 1 - self.TWIDDLE_SHARE)),
            widths.count(64),
        ))
        out = []
        for n_bits in widths:
            if n_bits == 64:
                twiddle = next(twiddles)
                out.append((
                    values.getrandbits(64), values.getrandbits(16 if twiddle else 64), 64,
                ))
            else:
                bits = 381 if n_bits == 384 else 256
                out.append((values.getrandbits(bits), values.getrandbits(bits), n_bits))
        return out

    def setup(self) -> None:
        rng = self.rng("warmup")

        async def warm() -> None:
            async with AsyncShardedFrontend(self.config) as frontend:
                for n_bits in (64, 256, 384):
                    for _ in range(self.config.service.batch_size):
                        await frontend.submit(
                            rng.getrandbits(n_bits), rng.getrandbits(n_bits), n_bits
                        )
                await frontend.drain()

        asyncio.run(warm())

    async def _serve(self, items, timer: Timer):
        with timer():
            frontend = AsyncShardedFrontend(self.config)
            await frontend.start()
        futures = []
        # One timed block per request (see ServePortfolio.run); every
        # await is inside a block, so no front-end work runs outside one.
        for arrival, a, b, n_bits in items:
            with timer():
                frontend.advance_to_cc(arrival)
                futures.append(await frontend.submit(
                    a, b, n_bits, deadline_cc=self.slo_cc, arrival_cc=arrival,
                ))
        with timer():
            frontend.advance_to_cc(items[-1][0] + SETTLE_CC)
            await frontend.drain()
        outcomes = {
            index: future.exception() or future.result()
            for index, future in enumerate(futures)
        }
        snap = await frontend.snapshot()
        with timer():
            await frontend.close()
        return outcomes, snap

    def run(self, inputs, timer: Timer):
        return [asyncio.run(self._serve(items, timer)) for _, items in inputs]

    def score(self, inputs, raw) -> PassResult:
        rungs = []
        for (_, items), (outcomes, snap) in zip(inputs, raw):
            rung = self.score_rung(items, outcomes)
            counts: Dict[str, float] = {}
            for shard in snap["shards"].values():
                merge_counts(counts, _service_counts(shard))
            rung.jobs, rung.busy_cc = counts.pop("jobs"), counts.pop("busy_cc")
            counts["route_karatsuba"] = rung.jobs
            counts["redispatches"] = snap["counters"].get("frontend_redispatches", 0)
            counts["breaker_opens"] = sum(
                new == "open"
                for transitions in snap["supervision"]["breaker_transitions"]
                for _old, new in transitions
            )
            rung.counts = counts
            rungs.append(rung)
        return PassResult(rungs=rungs)


# ----------------------------------------------------------------------
# crypto — open loop, Poisson, kind-tagged requests
# ----------------------------------------------------------------------
class Crypto(Workload):
    """``CryptoWorkloadEngine``: modmul, modexp and MSM requests.

    Dependent reduction waves use the service as a chain of small
    batches; the context cache and wave planner run only here.
    """

    name = CRYPTO
    ladder = (60_000,)
    MODULI = (BLS12_381_P.modulus, (1 << 255) - 19, SECP256K1_P.modulus)
    ZIPF_S = 1.1
    KIND_MIX = (("modmul", 70), ("modexp", 20), ("msm", 10))
    COHORT = 8
    #: The service's default bin age-out (64 ticks x 256 cc).
    COHORT_AGE_CC = 16_384

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.requests = 10 if quick else 100
        self.curve = CimEllipticCurve(TINY_CURVE)
        self.points = [self.curve.generator()]
        for _ in range(7):
            self.points.append(self.curve.add(self.points[-1], self.curve.generator()))

    def inputs(self):
        schedule, values = self.schedule_rng(), self.rng("pass")
        kinds = _exact_mix(schedule, self.KIND_MIX, self.requests)
        zipf = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(self.MODULI))]
        moduli = iter(_exact_mix(
            schedule, zip(self.MODULI, zipf), sum(kind != "msm" for kind in kinds)
        ))
        requests = []
        arrivals = _poisson(schedule, len(kinds), self.ladder[0])
        for index, (kind, arrival) in enumerate(zip(kinds, arrivals)):
            if kind == "msm":
                # Scalars and points set the bucket work, so they are
                # part of the schedule.
                requests.append(MsmRequest(
                    request_id=index,
                    scalars=tuple(schedule.randrange(1, 8) for _ in range(3)),
                    points=tuple(schedule.sample(self.points, 3)),
                    curve=TINY_CURVE, window_bits=2, arrival_cc=arrival,
                ))
                continue
            modulus = next(moduli)
            if kind == "modexp":
                requests.append(ModExpRequest(
                    request_id=index, base=values.randrange(modulus),
                    exponent=schedule.randrange(16, 32), modulus=modulus,
                    arrival_cc=arrival,
                ))
            else:
                requests.append(ModMulRequest(
                    request_id=index, x=values.randrange(modulus),
                    y=values.randrange(modulus), modulus=modulus,
                    arrival_cc=arrival,
                ))
        return requests

    def setup(self) -> None:
        engine = CryptoWorkloadEngine(config=ServiceConfig())
        rng = self.rng("warmup")
        engine.serve_cohort([
            ModMulRequest(request_id=i, x=rng.randrange(m), y=rng.randrange(m), modulus=m)
            for i, m in enumerate(self.MODULI)
        ])
        engine.serve_msm(MsmRequest(
            request_id=len(self.MODULI), scalars=(3, 5, 7),
            points=tuple(self.points[:3]), curve=TINY_CURVE, window_bits=2,
        ))

    def run(self, inputs, timer: Timer):
        outcomes: Dict[int, object] = {}
        pending: List = []

        def serve(call, requests) -> None:
            try:
                with timer():
                    results = call()
            except ServiceError as error:
                results = [error] * len(requests)
            for request, result in zip(requests, results):
                outcomes[request.request_id] = result

        def flush() -> None:
            if pending:
                cohort = list(pending)
                pending.clear()
                serve(lambda: engine.serve_cohort(cohort), cohort)

        with timer():
            engine = CryptoWorkloadEngine(config=ServiceConfig())
        for request in inputs:
            if pending and request.arrival_cc - pending[0].arrival_cc >= self.COHORT_AGE_CC:
                flush()
            if request.kind == "msm":
                flush()
                serve(lambda: [engine.serve_msm(request)], [request])
                continue
            pending.append(request)
            if len(pending) >= self.COHORT:
                flush()
        flush()
        return outcomes, engine.snapshot(), _ways_energy_nor(engine.service)

    def _expected(self, request):
        if request.kind == "msm":
            return naive_msm(self.curve, request.scalars, request.points)
        if request.kind == "modexp":
            return pow(request.base, request.exponent, request.modulus)
        return request.x * request.y % request.modulus

    def score(self, inputs, raw) -> PassResult:
        outcomes, snap, (energy, nor, timings) = raw
        rung = RungResult(latencies=[], energy_fj=energy)
        last_completion = 0
        for request in inputs:
            result = outcomes.get(request.request_id)
            if isinstance(result, ServiceError):
                rung.refused += 1
                rung.latencies.append(math.inf)
                continue
            value = None
            if result is not None:
                value = result.point if request.kind == "msm" else result.value
            if result is None or (
                result.completion_cc is None and result.multiplier_passes
            ):
                rung.failed += 1
                rung.latencies.append(math.inf)
            elif not _checked(rung, value == self._expected(request)):
                rung.latencies.append(math.inf)
            else:
                # An MSM answered without any CIM pass completes on arrival.
                completion = result.completion_cc or request.arrival_cc
                rung.latencies.append(completion - request.arrival_cc)
                last_completion = max(last_completion, completion)
                merge_counts(rung.counts, {
                    "passes": result.multiplier_passes, "waves": result.waves,
                })
        rung.backlog_cc = last_completion - inputs[-1].arrival_cc
        counts = _service_counts(snap)
        rung.jobs, rung.busy_cc = counts.pop("jobs"), counts.pop("busy_cc")
        contexts = snap["workloads"]["contexts"]
        counts.update({
            "route_karatsuba": rung.jobs,
            "nor_cycles": nor,
            "context_hits": contexts["hits"],
            "context_lookups": contexts["hits"] + contexts["misses"],
        })
        merge_counts(rung.counts, counts)
        rung.timings = timings
        return PassResult(rungs=[rung])


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (Stream, ServePortfolio, ServeSharded, Crypto)
}


def make(name: str, seed: int, quick: bool) -> Workload:
    return WORKLOAD_CLASSES[name](seed, quick)
