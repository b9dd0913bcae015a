"""Perf-baseline snapshots and regression comparison.

A *baseline* is a committed JSON file (``BENCH_<name>.json`` at the
repository root) holding the deterministic benchmark metrics of a
named workload — latency in clock cycles, NOR cycles, array energy,
cache hit rate.  Because the simulator is cycle-accurate and every
collector seeds its RNG, the numbers are bit-stable across machines:
any drift is a real change in the modelled hardware, not noise.

``repro bench-compare`` re-collects the metrics and fails (non-zero
exit) when any metric regresses beyond the tolerance in its *bad*
direction; improvements are reported but never fail.  ``repro
bench-compare --record`` refreshes the seeds after an intentional
change.  This is the repo's perf trajectory: CI compares every build
against the committed seeds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

SCHEMA_VERSION = 1

#: Default allowed relative drift before a metric counts as regressed.
DEFAULT_TOLERANCE = 0.10

#: Direction in which a metric is allowed to move freely.
LOWER_IS_BETTER = "lower"
HIGHER_IS_BETTER = "higher"


@dataclass(frozen=True)
class Metric:
    """One benchmark measurement plus its good direction."""

    value: float
    direction: str = LOWER_IS_BETTER

    def __post_init__(self) -> None:
        if self.direction not in (LOWER_IS_BETTER, HIGHER_IS_BETTER):
            raise ValueError(f"unknown metric direction {self.direction!r}")


@dataclass(frozen=True)
class Delta:
    """Comparison of one metric against its baseline."""

    name: str
    baseline: float
    current: float
    direction: str

    @property
    def change(self) -> float:
        """Signed relative drift; positive means the value grew."""
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)

    def regressed(self, tolerance: float) -> bool:
        if self.direction == LOWER_IS_BETTER:
            return self.change > tolerance
        return self.change < -tolerance


@dataclass
class Comparison:
    """Outcome of comparing one workload against its baseline file."""

    name: str
    tolerance: float
    deltas: List[Delta] = field(default_factory=list)
    #: Metrics present in the baseline but absent from the current run.
    missing: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed(self.tolerance)]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def render(self) -> str:
        lines = [
            f"bench-compare {self.name!r} "
            f"(tolerance {self.tolerance:.0%}): "
            + ("OK" if self.ok else "REGRESSED")
        ]
        for delta in self.deltas:
            verdict = (
                "REGRESSION"
                if delta.regressed(self.tolerance)
                else "ok"
            )
            lines.append(
                f"  {delta.name:<24} {delta.baseline:>14,.1f} -> "
                f"{delta.current:>14,.1f}  {delta.change:+8.1%}  "
                f"[{delta.direction:>6} is better]  {verdict}"
            )
        for name in self.missing:
            lines.append(f"  {name:<24} missing from current run  REGRESSION")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def baseline_path(name: str, directory: str = ".") -> str:
    return os.path.join(directory, f"BENCH_{name}.json")


def record(name: str, metrics: Dict[str, Metric], directory: str = ".",
           meta: Optional[Dict[str, object]] = None) -> str:
    """Write the baseline file for *name*; returns its path."""
    path = baseline_path(name, directory)
    doc = {
        "name": name,
        "schema": SCHEMA_VERSION,
        "metrics": {
            key: {"value": metric.value, "direction": metric.direction}
            for key, metric in sorted(metrics.items())
        },
        "meta": meta or {},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load(name: str, directory: str = ".") -> Dict[str, Metric]:
    """Load the committed baseline for *name*.

    Raises :class:`FileNotFoundError` when no seed exists and
    :class:`ValueError` on a malformed or wrong-schema file.
    """
    path = baseline_path(name, directory)
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path} is not a schema-{SCHEMA_VERSION} baseline file"
        )
    metrics = {}
    for key, entry in doc.get("metrics", {}).items():
        metrics[key] = Metric(
            value=float(entry["value"]),
            direction=str(entry.get("direction", LOWER_IS_BETTER)),
        )
    if not metrics:
        raise ValueError(f"{path} holds no metrics")
    return metrics


def compare(
    name: str,
    current: Dict[str, Metric],
    baseline: Dict[str, Metric],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Comparison:
    """Compare *current* metrics against a loaded *baseline*."""
    comparison = Comparison(name=name, tolerance=tolerance)
    for key, base in sorted(baseline.items()):
        now = current.get(key)
        if now is None:
            comparison.missing.append(key)
            continue
        comparison.deltas.append(
            Delta(
                name=key,
                baseline=base.value,
                current=now.value,
                direction=base.direction,
            )
        )
    return comparison


# ----------------------------------------------------------------------
# Deterministic collectors (the seeded workloads CI tracks)
# ----------------------------------------------------------------------
def collect_pipeline_metrics(
    n_bits: int = 256, jobs: int = 4, seed: int = 0xBA5E
) -> Dict[str, Metric]:
    """Single-pipeline workload: static timing plus one executed batch.

    Runs with the SIMD cycle packer on (:mod:`repro.magic.passes`) —
    the perf trajectory tracks the optimized schedules, while the
    paper's closed forms stay the ``optimize=False`` oracle."""
    from repro.karatsuba.pipeline import KaratsubaPipeline

    pipeline = KaratsubaPipeline(n_bits, optimize=True)
    timing = pipeline.timing()
    rng = random.Random(seed)
    pairs = [
        (rng.getrandbits(n_bits), rng.getrandbits(n_bits))
        for _ in range(jobs)
    ]
    result = pipeline.run_stream(pairs, batch_size=jobs)
    controller = pipeline.controller
    nor_cycles = sum(
        stage.clock.by_category.get("nor", 0)
        for stage in (controller.precompute, controller.postcompute)
    )
    return {
        "latency_cc": Metric(timing.latency_cc, LOWER_IS_BETTER),
        "bottleneck_cc": Metric(timing.bottleneck_cc, LOWER_IS_BETTER),
        "makespan_cc": Metric(result.makespan_cc, LOWER_IS_BETTER),
        "nor_cycles": Metric(nor_cycles, LOWER_IS_BETTER),
        "energy_fj": Metric(controller.total_energy_fj(), LOWER_IS_BETTER),
    }


def collect_service_metrics(
    jobs: int = 48,
    widths: Tuple[int, ...] = (16, 32, 64),
    batch_size: int = 8,
    seed: int = 0x5E47,
) -> Dict[str, Metric]:
    """Mixed-width service stream: batching, caching, latency, energy."""
    from repro.service import MultiplicationService, ServiceConfig

    rng = random.Random(seed)
    service = MultiplicationService(
        ServiceConfig(batch_size=batch_size, ways_per_width=2, max_wait_ticks=32)
    )
    history: List[Tuple[int, int, int]] = []
    for index in range(jobs):
        n_bits = widths[index % len(widths)]
        if index >= jobs * 3 // 4 and index % 4 == 3 and history:
            a, b, n_bits = history[rng.randrange(len(history) // 2 or 1)]
        else:
            a = rng.getrandbits(n_bits)
            b = rng.getrandbits(n_bits)
            history.append((a, b, n_bits))
        service.submit(a, b, n_bits)
    service.drain()
    snap = service.snapshot()
    counters = snap["counters"]
    hits = counters.get("operand_cache_hits", 0)
    misses = counters.get("operand_cache_misses", 0)
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    nor_cycles = 0
    energy_fj = 0.0
    for way in service.dispatcher.all_ways():
        controller = way.pipeline.controller
        nor_cycles += sum(
            stage.clock.by_category.get("nor", 0)
            for stage in (controller.precompute, controller.postcompute)
        )
        energy_fj += controller.total_energy_fj()
    return {
        "makespan_cc": Metric(
            snap["service"]["makespan_cc"], LOWER_IS_BETTER
        ),
        "throughput_per_mcc": Metric(
            snap["service"]["throughput_per_mcc"], HIGHER_IS_BETTER
        ),
        "batch_occupancy_mean": Metric(
            snap["histograms"]["batch_occupancy"]["mean"], HIGHER_IS_BETTER
        ),
        "operand_cache_hit_rate": Metric(hit_rate, HIGHER_IS_BETTER),
        "nor_cycles": Metric(nor_cycles, LOWER_IS_BETTER),
        "energy_fj": Metric(energy_fj, LOWER_IS_BETTER),
    }


def collect_load_metrics(seed: int = 0x10AD) -> Dict[str, Metric]:
    """Open-loop serving workloads through the sharded front-end.

    For each operand mix, drives a saturating seeded Poisson load
    through (a) one synchronous single-process service and (b) the
    async sharded front-end with four inline shards on the *same*
    per-shard config, and records the cycle-domain speedup (sync
    completion horizon over sharded completion horizon), tail
    latencies and deadline-miss rate.  A bursty MMPP load exercises
    the way autoscaler and records its scale event counts.  Everything
    runs on the virtual cycle clock with inline shards, so the numbers
    are bit-stable across machines and process counts.
    """
    from repro.eval import loadgen
    from repro.frontend import AsyncShardedFrontend, FrontendConfig
    from repro.service import (
        AutoscalerConfig,
        MultiplicationService,
        ServiceConfig,
    )

    service_config = ServiceConfig(batch_size=8, ways_per_width=1)
    metrics: Dict[str, Metric] = {}
    # (mix, jobs, mean gap cc, deadline slack cc): gaps sit well below
    # the single-service per-job bottleneck, so the sync baseline is
    # saturated and sharding has headroom to help.
    cases = (
        ("fhe", 64, 100, 16_000),
        ("zkp", 32, 300, 48_000),
        ("mixed", 48, 200, 32_000),
    )
    for mix, jobs, gap_cc, slack_cc in cases:
        load = loadgen.build_load(
            mix, "poisson", jobs, gap_cc, seed=seed,
            deadline_slack_cc=slack_cc,
        )
        sync_report = loadgen.run(load, MultiplicationService(service_config))
        sharded_report = loadgen.run(
            load,
            AsyncShardedFrontend(
                FrontendConfig(shards=4, inline=True, service=service_config)
            ),
        )
        speedup = (
            sync_report.horizon_cc / sharded_report.horizon_cc
            if sharded_report.horizon_cc
            else 0.0
        )
        metrics[f"{mix}_speedup_x"] = Metric(speedup, HIGHER_IS_BETTER)
        metrics[f"{mix}_p50_cc"] = Metric(
            sharded_report.p50_cc, LOWER_IS_BETTER
        )
        metrics[f"{mix}_p99_cc"] = Metric(
            sharded_report.p99_cc, LOWER_IS_BETTER
        )
        metrics[f"{mix}_miss_rate"] = Metric(
            sharded_report.miss_rate, LOWER_IS_BETTER
        )
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
        "fhe", "bursty", 400, 1600, seed=seed ^ 0xB5, burst_gap_cc=60
    )
    burst_report = loadgen.run(burst, MultiplicationService(burst_config))
    metrics["bursty_p99_cc"] = Metric(burst_report.p99_cc, LOWER_IS_BETTER)
    metrics["autoscale_ups"] = Metric(
        burst_report.counter("autoscale_up_total"), HIGHER_IS_BETTER
    )
    metrics["autoscale_downs"] = Metric(
        burst_report.counter("autoscale_down_total"), HIGHER_IS_BETTER
    )
    return metrics


def collect_crypto_metrics(seed: int = 0xC49) -> Dict[str, Metric]:
    """Crypto workload traffic through the workload engine.

    Drives a seeded open-loop kind-mixed crypto load (Zipf-skewed
    modulus popularity over modmul/modexp plus tiny Pippenger MSM
    instances on the 97-point curve) through one
    :class:`~repro.workloads.CryptoWorkloadEngine` and records
    cycle-domain tails, the modulus-context cache hit rate and the
    decomposition's multiplier-pass count.  One standalone MSM records
    its pass and wave counts — the per-request serving cost of the
    paper's headline ZKP primitive.  Everything lives on the virtual
    cycle clock, so the numbers are bit-stable across machines.
    """
    from repro.crypto.ec import TINY_CURVE, CimEllipticCurve
    from repro.eval import loadgen
    from repro.service import ServiceConfig
    from repro.workloads import CryptoWorkloadEngine, MsmRequest

    load = loadgen.build_crypto_load(24, 20_000, seed=seed)
    report = loadgen.run(
        load,
        CryptoWorkloadEngine(
            config=ServiceConfig(batch_size=8, ways_per_width=1)
        ),
    )
    metrics: Dict[str, Metric] = {
        "crypto_completed": Metric(report.completed, HIGHER_IS_BETTER),
        "crypto_p50_cc": Metric(report.p50_cc, LOWER_IS_BETTER),
        "crypto_p99_cc": Metric(report.p99_cc, LOWER_IS_BETTER),
        "context_hit_rate": Metric(
            report.snapshot["workloads"]["context_hit_rate"],
            HIGHER_IS_BETTER,
        ),
        "multiplier_passes": Metric(
            sum(r.multiplier_passes for r in report.results),
            LOWER_IS_BETTER,
        ),
        "horizon_cc": Metric(report.horizon_cc, LOWER_IS_BETTER),
    }
    host_curve = CimEllipticCurve(TINY_CURVE)
    generator = host_curve.generator()
    points = (
        generator,
        host_curve.double(generator),
        host_curve.add(generator, host_curve.double(generator)),
    )
    engine = CryptoWorkloadEngine(config=ServiceConfig(batch_size=8))
    msm = engine.serve_msm(
        MsmRequest(
            request_id=0,
            scalars=(5, 3, 6),
            points=points,
            curve=TINY_CURVE,
            window_bits=2,
        )
    )
    metrics["msm_passes"] = Metric(msm.multiplier_passes, LOWER_IS_BETTER)
    metrics["msm_waves"] = Metric(msm.waves, LOWER_IS_BETTER)
    metrics["msm_completion_cc"] = Metric(
        msm.completion_cc or 0, LOWER_IS_BETTER
    )
    return metrics


def collect_portfolio_metrics(seed: int = 0x70F0) -> Dict[str, Metric]:
    """Tuned-portfolio serving versus the fixed Karatsuba L = 2 design.

    Runs a reduced tuner sweep, drives one seeded mixed-width load
    (bucket widths plus off-grid widths only the portfolio can admit)
    through a portfolio-routed service and through the fixed-design
    baseline, and records cycle-domain makespans, tail latency and the
    number of width buckets where a non-Karatsuba design won.  All on
    the virtual cycle clock — bit-stable across machines.
    """
    from repro.eval.workloads import width_mix_trace
    from repro.portfolio import sweep
    from repro.service import MultiplicationService, ServiceConfig

    widths = (16, 32, 64, 128)
    table = sweep(widths=widths, jobs=2, seed=seed)

    def run(tuning_table, trace_widths) -> Dict[str, int]:
        config = ServiceConfig(
            batch_size=8,
            ways_per_width=1,
            portfolio=tuning_table is not None,
            portfolio_table=tuning_table,
        )
        service = MultiplicationService(config)
        trace = width_mix_trace(64, trace_widths, seed=seed ^ 0x3A)
        for item in trace:
            service.submit(item.a, item.b, item.n_bits)
        results = service.drain()
        latencies = sorted(r.latency_cc for r in results)
        rank = -(-99 * len(latencies) // 100)  # nearest-rank ceil
        return {
            "makespan_cc": service.dispatcher.makespan_cc(),
            "p99_cc": latencies[max(rank - 1, 0)] if latencies else 0,
            "completed": len(results),
        }

    tuned = run(table, widths)
    baseline = run(None, widths)
    offgrid = run(table, (90, 270))
    non_karatsuba = sum(
        1
        for key in table.selections().values()
        if not key.startswith("karatsuba")
    )
    return {
        "tuned_makespan_cc": Metric(tuned["makespan_cc"], LOWER_IS_BETTER),
        "baseline_makespan_cc": Metric(
            baseline["makespan_cc"], LOWER_IS_BETTER
        ),
        "makespan_speedup_x": Metric(
            baseline["makespan_cc"] / tuned["makespan_cc"]
            if tuned["makespan_cc"]
            else 0.0,
            HIGHER_IS_BETTER,
        ),
        "tuned_p99_cc": Metric(tuned["p99_cc"], LOWER_IS_BETTER),
        "offgrid_completed": Metric(
            offgrid["completed"], HIGHER_IS_BETTER
        ),
        "non_karatsuba_buckets": Metric(non_karatsuba, HIGHER_IS_BETTER),
    }


#: Named deterministic workloads ``repro bench-compare`` knows about.
COLLECTORS: Dict[str, Callable[[], Dict[str, Metric]]] = {
    "pipeline": collect_pipeline_metrics,
    "service": collect_service_metrics,
    "load": collect_load_metrics,
    "crypto": collect_crypto_metrics,
    "portfolio": collect_portfolio_metrics,
}
