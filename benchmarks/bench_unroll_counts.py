"""Benchmark: Sec. III-C / Fig. 2-3 structural claims.

Regenerates the operation counts of the unrolled Karatsuba tree
(9/27/81 multiplications; 10/38/130 precompute additions), the operand
width uniformity that motivates unrolling, and the 11-pass postcompute
schedule.
"""

from __future__ import annotations

from benchmarks.conftest import register_report
from repro.algorithms.karatsuba import KaratsubaTrace
from repro.eval import explore_report
from repro.eval.report import format_table
from repro.karatsuba import cost
from repro.karatsuba.unroll import build_plan


def test_operation_counts(benchmark):
    counts = benchmark(explore_report.karatsuba_counts)
    assert counts[2] == (9, 10)
    assert counts[3] == (27, 38)
    assert counts[4] == (81, 130)
    register_report(
        "unroll-counts",
        format_table(
            ("L", "multiplications", "precompute adds"),
            [(d, m, a) for d, (m, a) in sorted(counts.items())],
            title=(
                "Sec. III-C - unrolled Karatsuba operation counts "
                "(paper prints 140 adds at L=4; the construction yields 130)"
            ),
        ),
    )


def test_uniformity_argument(benchmark):
    """Recursive Karatsuba needs a different adder size per level;
    unrolled needs two adjacent sizes only (Fig. 2 vs Fig. 3)."""
    u = benchmark(explore_report.uniformity, 256, 2)
    assert u.recursive_distinct_sizes >= 2
    assert (u.unrolled_min_width, u.unrolled_max_width) == (64, 65)
    register_report(
        "uniformity",
        f"Sec. III-C uniformity (n=256, L=2): recursive adder widths "
        f"{list(u.recursive_widths)} vs unrolled 64..65-bit only",
    )


def test_recursive_tree_addition_widths(benchmark):
    """Deep recursion accumulates many distinct addition widths."""
    trace = KaratsubaTrace(512, 4)

    def run():
        trace.run((1 << 512) - 1, (1 << 511) + 12345)
        return trace.distinct_addition_widths()

    widths = benchmark(run)
    assert len(widths) >= 4


def test_postcompute_pass_schedule(benchmark):
    """The batched combine schedule: 3/11/23/39 passes for L=1..4."""

    def passes():
        return [
            len(cost.stage_layouts(512, L)[2].passes) for L in (1, 2, 3, 4)
        ]

    result = benchmark(passes)
    assert result[0] == 3
    assert result[1] == 11          # the paper's 11 additions/subtractions
    assert result == sorted(result)


def test_plan_construction_speed(benchmark):
    plan = benchmark(build_plan, 384, 2)
    assert plan.evaluate(3, 5) == 15
