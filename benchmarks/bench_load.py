"""Benchmark: open-loop serving through the async sharded front-end.

The serving stack exists to keep tail latency bounded when requests
arrive on their own clock.  This bench drives one seeded saturating
Poisson load (64-bit FHE limbs at a mean gap well below the per-job
bottleneck) through (a) a synchronous single-process service and (b)
the async sharded front-end with four shards on the *same* per-shard
config, plus one bursty MMPP load through an autoscaled service, and
asserts the CI floors:

* cycle-domain speedup (sync completion horizon over sharded
  completion horizon) >= 2x at equal offered load;
* sharded p99 latency within the SLO;
* zero dropped futures (every admitted request resolves);
* every product bit-exact (``oracle_audit`` on in both paths);
* the autoscaler both raises and lowers ways under the bursty trace.

All comparisons happen on the virtual cycle clock, so the numbers are
seed-stable across machines; wall time is printed informationally
(process-shard wall-clock speedups need real cores).

Runs under pytest (``pytest benchmarks/bench_load.py``) and as a
script (``python benchmarks/bench_load.py``), which exits non-zero
when a floor is missed — the CI load smoke check.
"""

from __future__ import annotations

import sys

from repro.eval import loadgen
from repro.eval.report import format_table
from repro.frontend import AsyncShardedFrontend, FrontendConfig
from repro.service import AutoscalerConfig, MultiplicationService, ServiceConfig

#: Saturating Poisson load (single-way per-job bottleneck ~757 cc).
JOBS = 64
MEAN_GAP_CC = 100
SHARDS = 4
SEED = 0x10AD

#: Floors checked by CI.
MIN_SPEEDUP_X = 2.0
SLO_P99_CC = 24_000
MIN_SCALE_EVENTS = 1


def run_bench():
    service_config = ServiceConfig(
        batch_size=8, ways_per_width=1, oracle_audit=True
    )
    load = loadgen.build_load(
        "fhe", "poisson", JOBS, MEAN_GAP_CC, seed=SEED,
        deadline_slack_cc=16_000,
    )
    sync_report = loadgen.run(load, MultiplicationService(service_config))
    sharded_report = loadgen.run(
        load,
        AsyncShardedFrontend(
            FrontendConfig(shards=SHARDS, inline=True, service=service_config)
        ),
    )
    speedup = (
        sync_report.horizon_cc / sharded_report.horizon_cc
        if sharded_report.horizon_cc
        else 0.0
    )
    outstanding = sharded_report.snapshot["service"]["outstanding_futures"]
    resolved = sharded_report.completed + sharded_report.shed

    # Bursty MMPP through an autoscaled single service: the way pool
    # must both grow during bursts and shrink back in the lulls.
    burst_config = ServiceConfig(
        batch_size=8,
        ways_per_width=1,
        autoscale=AutoscalerConfig(
            min_ways=1, max_ways=4,
            high_depth=16, low_depth=8,
            up_ticks=2, down_ticks=10,
        ),
    )
    burst = loadgen.build_load(
        "fhe", "bursty", 400, 1600, seed=SEED ^ 0xB5, burst_gap_cc=60
    )
    burst_report = loadgen.run(burst, MultiplicationService(burst_config))
    ups = burst_report.counter("autoscale_up_total")
    downs = burst_report.counter("autoscale_down_total")

    rows = [
        ("sync p50 / p99", f"{sync_report.p50_cc:,} / {sync_report.p99_cc:,} cc", ""),
        (
            "sharded p50 / p99",
            f"{sharded_report.p50_cc:,} / {sharded_report.p99_cc:,} cc",
            f"p99 <= {SLO_P99_CC:,}",
        ),
        (
            "sync / sharded miss rate",
            f"{sync_report.miss_rate:.1%} / {sharded_report.miss_rate:.1%}",
            "",
        ),
        (
            "cycle-domain speedup",
            f"{speedup:.2f}x",
            f">= {MIN_SPEEDUP_X:.1f}x",
        ),
        (
            "futures resolved",
            f"{resolved} / {sharded_report.offered}",
            "all",
        ),
        (
            "autoscale up / down",
            f"{ups} / {downs}",
            f">= {MIN_SCALE_EVENTS} each",
        ),
        ("bursty p99", f"{burst_report.p99_cc:,} cc", ""),
        (
            "wall sync / sharded",
            f"{sync_report.wall_seconds:.2f}s / "
            f"{sharded_report.wall_seconds:.2f}s",
            "",
        ),
    ]
    table = format_table(
        ("metric", "value", "floor"),
        rows,
        title=(
            f"Load bench: {JOBS} fhe jobs, mean gap {MEAN_GAP_CC} cc, "
            f"{SHARDS} shards (virtual cycle domain)"
        ),
    )
    return (
        speedup,
        sharded_report,
        outstanding,
        resolved,
        ups,
        downs,
        table,
    )


def test_open_loop_sharded_serving():
    speedup, sharded, outstanding, resolved, ups, downs, table = run_bench()
    try:
        from benchmarks.conftest import register_report

        register_report("load", table)
    except ImportError:  # script mode, no harness
        pass
    assert speedup >= MIN_SPEEDUP_X, (
        f"cycle-domain speedup {speedup:.2f}x below floor {MIN_SPEEDUP_X}x"
    )
    assert sharded.p99_cc <= SLO_P99_CC, (
        f"sharded p99 {sharded.p99_cc} cc exceeds SLO {SLO_P99_CC} cc"
    )
    assert outstanding == 0, f"{outstanding} futures never resolved"
    assert resolved == sharded.offered, "admitted requests went missing"
    assert ups >= MIN_SCALE_EVENTS, "autoscaler never scaled up"
    assert downs >= MIN_SCALE_EVENTS, "autoscaler never scaled down"


if __name__ == "__main__":
    speedup, sharded, outstanding, resolved, ups, downs, table = run_bench()
    print(table)
    failed = []
    if speedup < MIN_SPEEDUP_X:
        failed.append(f"speedup {speedup:.2f}x below {MIN_SPEEDUP_X}x")
    if sharded.p99_cc > SLO_P99_CC:
        failed.append(f"p99 {sharded.p99_cc} cc over SLO {SLO_P99_CC} cc")
    if outstanding:
        failed.append(f"{outstanding} futures unresolved")
    if resolved != sharded.offered:
        failed.append("admitted requests went missing")
    if ups < MIN_SCALE_EVENTS or downs < MIN_SCALE_EVENTS:
        failed.append(f"autoscale events up={ups} down={downs}")
    if failed:
        print("FAIL: " + "; ".join(failed))
        sys.exit(1)
    print(
        f"OK: {speedup:.2f}x speedup, p99 {sharded.p99_cc:,} cc, "
        f"{ups} ups / {downs} downs, zero dropped futures"
    )
