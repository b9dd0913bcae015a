"""Benchmark: per-stage claims of Sec. IV-C/D/E.

Regenerates each stage's area and latency closed forms (including the
1,980-cell precompute figure the paper quotes at n = 256), verifies the
simulated stages against them, and identifies the pipeline bottleneck
per width.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import register_report
from repro.arith.bitops import split_chunks
from repro.eval.report import format_table
from repro.karatsuba import cost
from repro.karatsuba.multiply import MultiplicationStage
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.karatsuba.postcompute import PostcomputeStage
from repro.karatsuba.precompute import PrecomputeStage
from repro.karatsuba.unroll import build_plan

SIZES = (64, 128, 256, 384)


def test_stage_cost_table(benchmark):
    def table():
        rows = []
        for n in SIZES:
            dc = cost.design_cost(n, 2)
            for stage in dc.stages:
                rows.append((n, stage.name, stage.area_cells, stage.latency_cc))
        return rows

    rows = benchmark(table)
    assert (256, "precompute", 1980, 949) in rows
    assert (64, "multiply", 1944, 345) in rows
    assert (384, "postcompute", 11520, 1415) in rows
    register_report(
        "stages",
        format_table(
            ("n", "stage", "area cells", "latency cc"),
            rows,
            title="Sec. IV - stage areas and latencies (closed forms)",
        ),
    )


def test_bottleneck_migration(benchmark):
    """Postcompute bounds throughput at small n; the multiplication
    stage takes over at larger n — visible in Table I's 'Our' rows."""

    def bottlenecks():
        return {
            n: KaratsubaPipeline(n).timing().bottleneck_stage for n in SIZES
        }

    result = benchmark(bottlenecks)
    assert result[64] == "postcompute"
    assert result[384] == "multiply"


@pytest.mark.parametrize("n", [64, 128])
def test_simulated_precompute(benchmark, n, rng):
    stage = PrecomputeStage(n)
    a, b = rng.getrandbits(n), rng.getrandbits(n)
    chunks = (split_chunks(a, n // 4, 4), split_chunks(b, n // 4, 4))
    result = benchmark(lambda: stage.process_batch([chunks])[0])
    assert result.cycles == cost.design_cost(n, 2).stages[0].latency_cc


@pytest.mark.parametrize("n", [64, 128])
def test_simulated_multiply_stage(benchmark, n, rng):
    stage = MultiplicationStage(n)
    plan = build_plan(n, 2)
    operands = plan.intermediate_values(rng.getrandbits(n), rng.getrandbits(n))
    result = benchmark(lambda: stage.process_batch([operands])[0])
    assert result.cycles == cost.design_cost(n, 2).stages[1].latency_cc


@pytest.mark.parametrize("n", [64, 128])
def test_simulated_postcompute(benchmark, n, rng):
    stage = PostcomputeStage(n)
    plan = build_plan(n, 2)
    a, b = rng.getrandbits(n), rng.getrandbits(n)
    values = plan.intermediate_values(a, b)
    products = {s.out: values[s.out] for s in plan.multiplications}
    result = benchmark(lambda: stage.process_batch([products])[0])
    assert result.product == a * b
    assert result.cycles == cost.design_cost(n, 2).stages[2].latency_cc


def test_pipeline_throughput_model(benchmark, rng):
    """Pipelined makespan: fill + (jobs-1) * bottleneck."""
    pipeline = KaratsubaPipeline(64)
    pairs = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(4)]
    result = benchmark.pedantic(
        pipeline.run_stream, args=(pairs,), rounds=1, iterations=1
    )
    timing = pipeline.timing()
    assert result.makespan_cc == timing.latency_cc + 3 * timing.bottleneck_cc
