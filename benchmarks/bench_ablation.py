"""Ablation benchmarks for the design choices DESIGN.md calls out.

Quantifies what each optimisation buys:

* three-stage pipelining (Sec. IV-A): throughput vs unpipelined;
* wear-leveling (Sec. IV-B): hot-cell writes with and without;
* postcompute batching + LSB trick (Sec. IV-E): 11 vs 13/14 passes and
  the 25% postcompute area saving;
* unrolling (Sec. III-C): uniform vs per-level adder provisioning.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import register_report
from repro.arith.bitops import ceil_log2
from repro.arith.koggestone import SCRATCH_ROWS
from repro.eval.report import format_table
from repro.karatsuba import cost
from repro.karatsuba.design import KaratsubaCimMultiplier
from repro.karatsuba.pipeline import KaratsubaPipeline


def test_pipelining_gain(benchmark):
    """Throughput gain of the 3-stage pipeline over one-at-a-time
    operation: sum(stages)/max(stages) per width."""

    def gains():
        out = {}
        for n in (64, 128, 256, 384):
            t = KaratsubaPipeline(n).timing()
            out[n] = t.latency_cc / t.bottleneck_cc
        return out

    result = benchmark(gains)
    rows = [(n, round(g, 2)) for n, g in sorted(result.items())]
    # A 3-stage pipeline buys between 1x and 3x; the design balances
    # stages towards ~2-3x.
    assert all(1.5 <= g <= 3.0 for g in result.values())
    register_report(
        "ablation-pipeline",
        format_table(("n", "throughput gain"), rows,
                     title="Ablation - 3-stage pipelining gain (sum/max)"),
    )


def test_wear_leveling_gain(benchmark, rng):
    """Hot-cell writes with wear-leveling off vs on (Sec. IV-B claims
    ~2x; the reproduction measures the full datapath)."""

    def measure():
        out = {}
        for leveling in (False, True):
            cim = KaratsubaCimMultiplier(64, wear_leveling=leveling)
            for _ in range(6):
                cim.multiply(rng.getrandbits(64), rng.getrandbits(64))
            out[leveling] = cim.pipeline.controller.max_writes()
        return out

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    gain = result[False] / result[True]
    assert gain > 1.4
    register_report(
        "ablation-wear",
        f"Ablation - wear-leveling: hot-cell writes {result[False]} -> "
        f"{result[True]} over 6 multiplications ({gain:.2f}x reduction; "
        "paper: ~2x)",
    )


def test_batching_pass_savings(benchmark):
    """Without batching, the postcompute needs 13 passes; the batched
    schedule the stage replays brings it to the paper's 11 (a 1.18x
    stage-latency saving)."""

    def passes():
        from repro.karatsuba.unroll import build_plan

        plan = build_plan(256, 2)
        batched = len(plan.postcompute_schedule(384))
        unbatched = 0
        for node in plan.combine_nodes[:-1]:
            unbatched += 2                      # t-add + subtract
            unbatched += 0 if node.appendable else 1
            unbatched += 1                      # final combine add
        unbatched += 3                          # top node
        return batched, unbatched

    batched, unbatched = benchmark(passes)
    assert batched == 11
    assert unbatched == 13
    register_report(
        "ablation-batching",
        f"Ablation - postcompute batching: {unbatched} -> {batched} adder "
        f"passes per multiplication",
    )


def test_lsb_trick_area_saving(benchmark):
    """Sec. IV-E: adding only the top 1.5n bits saves 25% of the
    postcompute area versus a 2n-bit adder."""

    def saving():
        out = {}
        for n in (64, 384):
            with_trick = (8 + SCRATCH_ROWS) * (3 * n // 2)
            without = (8 + SCRATCH_ROWS) * (2 * n)
            out[n] = 1 - with_trick / without
        return out

    result = benchmark(saving)
    assert all(abs(v - 0.25) < 1e-9 for v in result.values())


def test_uniform_adder_saving(benchmark):
    """Sec. III-C.1 design alternatives: dedicated adders per width
    (recursive) versus the single uniform instance (unrolled)."""

    def areas(n=256):
        # Recursive L=2 needs level-1 (n/2-bit) and level-2 (n/4+1-bit)
        # adder arrays; unrolled needs only the n/4+1-bit instance.
        def adder_cells(width):
            return (3 + SCRATCH_ROWS) * (width + 1)

        recursive = adder_cells(n // 2) + adder_cells(n // 4 + 1)
        unrolled = adder_cells(n // 4 + 1)
        return recursive, unrolled

    recursive, unrolled = benchmark(areas)
    assert recursive > 1.9 * unrolled
    register_report(
        "ablation-uniformity",
        f"Ablation - precompute adder provisioning at n=256: recursive "
        f"needs {recursive} cells of adders, unrolled {unrolled} "
        f"({recursive / unrolled:.1f}x saving)",
    )


@pytest.mark.parametrize("n", [64, 384])
def test_depth_sensitivity(benchmark, n):
    """ATP at L=2 vs the best alternative depth (the Fig. 4 margin)."""

    def margin():
        l2 = cost.design_cost(n, 2).atp
        alternatives = [
            cost.design_cost(n, d).atp for d in (1, 3, 4) if n % (1 << d) == 0
        ]
        return l2, min(alternatives)

    l2, best_alt = benchmark(margin)
    # Within the evaluated range L=2 is at worst ~2x off the per-size
    # optimum and at best clearly ahead.
    assert l2 / best_alt < 2.1
