"""Benchmark: the Sec. IV-F application layer.

Times modular multiplication through each reduction strategy on the
CIM datapath and derives the modmul cycle costs implied by the paper's
multiplier throughput — the FHE (64-bit) and ZKP (384-bit) workloads
that motivate the design.

The serving-floor section (``run_serving_bench``) grades the
``repro.workloads`` subsystem end to end and asserts the CI floors:

* open-loop crypto traffic completes with a modulus-context cache hit
  rate > 0 and a cycle-domain p99 within the SLO;
* one Pippenger MSM served through a 2-shard inline front-end with
  chaos injection (a shard kill plus duplicated replies) returns a
  point bit-identical to ``pippenger_msm`` and naive double-and-add,
  with per-wave telemetry spans present in a schema-valid exported
  trace.

Runs under pytest (``pytest benchmarks/bench_crypto.py``) and as a
script (``python benchmarks/bench_crypto.py``), which exits non-zero
when a floor is missed — the CI crypto smoke check.
"""

from __future__ import annotations

import asyncio
import sys

import pytest

try:
    from benchmarks.conftest import register_report
except ImportError:  # script mode, no harness on sys.path

    def register_report(name, table):
        pass

from repro.crypto import (
    GOLDILOCKS,
    BarrettReducer,
    ModularMultiplier,
    MontgomeryMultiplier,
    SparseReducer,
)
from repro.eval.report import format_table
from repro.karatsuba import cost

SMALL_PRIME = 65521


def test_montgomery_modmul(benchmark, rng):
    mont = MontgomeryMultiplier(SMALL_PRIME)
    x, y = rng.randrange(SMALL_PRIME), rng.randrange(SMALL_PRIME)
    result = benchmark(mont.modmul, x, y)
    assert result == (x * y) % SMALL_PRIME


def test_barrett_modmul(benchmark, rng):
    red = BarrettReducer(SMALL_PRIME)
    x, y = rng.randrange(SMALL_PRIME), rng.randrange(SMALL_PRIME)
    result = benchmark(red.modmul, x, y)
    assert result == (x * y) % SMALL_PRIME


def test_sparse_reduce_goldilocks(benchmark, rng):
    red = SparseReducer(GOLDILOCKS.modulus)
    x = rng.getrandbits(128)
    result = benchmark(red.reduce, x)
    assert result == x % GOLDILOCKS.modulus


def test_goldilocks_modmul_on_cim(benchmark, rng):
    """The paper's FHE scenario: 64-bit modular multiplication."""
    mm = ModularMultiplier(GOLDILOCKS.modulus)
    p = GOLDILOCKS.modulus
    x, y = rng.randrange(p), rng.randrange(p)
    result = benchmark(mm.modmul, x, y)
    assert result == (x * y) % p


def test_modmul_cycle_model(benchmark):
    """Cycle cost of one modular multiplication per strategy, derived
    from the pipeline's closed forms (Sec. IV-F building blocks)."""

    def table():
        rows = []
        for n in (64, 256, 384):
            dc = cost.design_cost(n, 2)
            mult_cc = dc.bottleneck_cc          # pipelined issue rate
            adder_cc = cost.adder_latency_cc(3 * n // 2)
            rows.append((n, "montgomery (3 mults)", 3 * mult_cc))
            rows.append((n, "barrett (3 mults)", 3 * mult_cc))
            rows.append((n, "sparse (1 mult + 2 adds)", mult_cc + 2 * adder_cc))
        return rows

    rows = benchmark(table)
    by_key = {(n, kind): cc for n, kind, cc in rows}
    # Sparse reduction is the cheapest path at every width.
    for n in (64, 256, 384):
        assert (
            by_key[(n, "sparse (1 mult + 2 adds)")]
            < by_key[(n, "montgomery (3 mults)")]
        )
    register_report(
        "crypto-cycles",
        format_table(
            ("n", "strategy", "cycles/modmul (pipelined)"),
            rows,
            title="Sec. IV-F - modular multiplication cycle model",
        ),
    )


@pytest.mark.parametrize(
    "strategy", ["sparse", "montgomery", "barrett"]
)
def test_strategy_comparison_small(benchmark, strategy, rng):
    p = (1 << 16) - 17
    mm = ModularMultiplier(p, strategy=strategy)
    x, y = rng.randrange(p), rng.randrange(p)
    result = benchmark(mm.modmul, x, y)
    assert result == (x * y) % p


# ----------------------------------------------------------------------
# Serving floors: the repro.workloads subsystem end to end
# ----------------------------------------------------------------------
#: Open-loop crypto traffic (seeded, virtual cycle domain).
SERVE_JOBS = 24
SERVE_GAP_CC = 20_000
SERVE_SEED = 0xC49

#: Floors checked by CI.
SLO_P99_CC = 200_000
MSM_SCALARS = (5, 6, 7, 7)


async def _msm_through_chaos_frontend():
    """One MsmRequest through a chaos-injected 2-shard front-end.

    Shard 0 is killed mid-run (supervision restarts it and redispatches
    its journal) and shard 1 duplicates one reply (the resolver must
    absorb the stale delivery); the residue self-checks re-verify every
    product across the disruption.  Tracing is enabled so the per-wave
    workload spans land in the exported trace.
    """
    from repro.crypto.ec import TINY_CURVE, CimEllipticCurve
    from repro.crypto.msm import naive_msm, pippenger_msm
    from repro.frontend import (
        AsyncShardedFrontend,
        ChaosConfig,
        FrontendConfig,
    )
    from repro.service import ServiceConfig
    from repro.telemetry import Tracer
    from repro.telemetry.export import to_trace_events, validate_trace
    from repro.telemetry.registry import TelemetryRegistry
    from repro.workloads import CryptoWorkloadEngine, MsmRequest

    host_curve = CimEllipticCurve(TINY_CURVE)
    g = host_curve.generator()
    points = [g]
    while len(points) < len(MSM_SCALARS):
        points.append(host_curve.add(points[-1], g))
    request = MsmRequest(
        request_id=77,
        scalars=MSM_SCALARS,
        points=tuple(points),
        curve=TINY_CURVE,
        window_bits=2,
    )
    config = FrontendConfig(
        shards=2,
        inline=True,
        service=ServiceConfig(batch_size=4),
        chaos=ChaosConfig(
            kill=((0, 6),), duplicate_replies=((1, 9),), seed=0xC9A5
        ),
    )
    frontend = AsyncShardedFrontend(config)
    # Pin a tracer to the front-end registry: the workload spans are
    # emitted on the event-loop thread, while inline shard threads keep
    # their own clocks out of this trace.
    tracer = Tracer(enabled=True)
    frontend.telemetry = TelemetryRegistry(tracer=tracer)
    await frontend.start()
    try:
        engine = CryptoWorkloadEngine()
        result = await engine.serve_msm_async(request, frontend)
        snapshot = await frontend.snapshot()
    finally:
        await frontend.close()
    expected = pippenger_msm(host_curve, MSM_SCALARS, points, window_bits=2)
    naive = naive_msm(host_curve, MSM_SCALARS, points)
    wave_spans = sum(
        1
        for root in tracer.roots
        for span in root.walk()
        if span.name == "workload.wave"
    )
    trace_events = validate_trace(to_trace_events(tracer))
    supervision = snapshot["supervision"]
    counters = snapshot["counters"]
    return {
        "result": result,
        "expected": expected,
        "naive": naive,
        "wave_spans": wave_spans,
        "trace_events": trace_events,
        "restarts": sum(supervision["restarts"]),
        "redispatches": counters.get("frontend_redispatches", 0),
    }


def run_serving_bench():
    from repro.eval import loadgen
    from repro.service import ServiceConfig
    from repro.workloads import CryptoWorkloadEngine

    load = loadgen.build_crypto_load(
        SERVE_JOBS, SERVE_GAP_CC, seed=SERVE_SEED
    )
    report = loadgen.run(
        load,
        CryptoWorkloadEngine(
            config=ServiceConfig(batch_size=8, ways_per_width=1)
        ),
    )
    hit_rate = report.snapshot["workloads"]["context_hit_rate"]
    passes = sum(r.multiplier_passes for r in report.results)
    checks = sum(r.residue_checks for r in report.results)
    msm = asyncio.run(_msm_through_chaos_frontend())
    rows = [
        (
            "crypto completed",
            f"{report.completed} / {report.offered}",
            "all",
        ),
        (
            "crypto p50 / p99",
            f"{report.p50_cc:,} / {report.p99_cc:,} cc",
            f"p99 <= {SLO_P99_CC:,}",
        ),
        (
            "context cache hit rate",
            f"{hit_rate:.1%}",
            "> 0",
        ),
        (
            "multiplier passes / residue checks",
            f"{passes:,} / {checks:,}",
            "equal",
        ),
        (
            "MSM point (chaos front-end)",
            f"({msm['result'].point.x}, {msm['result'].point.y})",
            "== pippenger == naive",
        ),
        (
            "MSM wave spans traced",
            f"{msm['wave_spans']} ({msm['trace_events']} trace events)",
            "> 0, schema-valid",
        ),
        (
            "shard restarts / redispatches",
            f"{msm['restarts']} / {msm['redispatches']}",
            "survived",
        ),
    ]
    table = format_table(
        ("metric", "value", "floor"),
        rows,
        title=(
            f"Crypto serving bench: {SERVE_JOBS} open-loop jobs + 1 MSM "
            f"through 2 chaos shards (virtual cycle domain)"
        ),
    )
    serving = {
        "report": report,
        "hit_rate": hit_rate,
        "passes": passes,
        "checks": checks,
    }
    return serving, msm, table


def test_crypto_serving_floors():
    serving, msm, table = run_serving_bench()
    report = serving["report"]
    register_report("crypto-serving", table)
    assert report.completed == report.offered, "crypto requests went missing"
    assert serving["hit_rate"] > 0, "modulus-context cache never hit"
    assert report.p99_cc <= SLO_P99_CC, (
        f"crypto p99 {report.p99_cc} cc exceeds SLO {SLO_P99_CC} cc"
    )
    assert serving["checks"] == serving["passes"], (
        "not every served product was residue-checked"
    )
    assert msm["result"].point == msm["expected"] == msm["naive"], (
        f"MSM point {msm['result'].point} diverged from reference "
        f"{msm['expected']} / {msm['naive']}"
    )
    assert msm["result"].context_hit is False  # cold cache, first modulus
    assert msm["wave_spans"] > 0, "no per-wave telemetry spans traced"
    assert msm["trace_events"] > 0


if __name__ == "__main__":
    serving, msm, table = run_serving_bench()
    report = serving["report"]
    print(table)
    failed = []
    if report.completed != report.offered:
        failed.append("crypto requests went missing")
    if serving["hit_rate"] <= 0:
        failed.append("context cache never hit")
    if report.p99_cc > SLO_P99_CC:
        failed.append(f"p99 {report.p99_cc} cc over SLO {SLO_P99_CC} cc")
    if not (msm["result"].point == msm["expected"] == msm["naive"]):
        failed.append("MSM point diverged from reference")
    if msm["wave_spans"] <= 0:
        failed.append("no wave spans traced")
    if failed:
        print("FAIL: " + "; ".join(failed))
        sys.exit(1)
    print(
        f"OK: p99 {report.p99_cc:,} cc, context hit rate "
        f"{serving['hit_rate']:.1%}, MSM bit-exact through "
        f"{msm['restarts']} restart(s) with {msm['wave_spans']} wave spans"
    )
