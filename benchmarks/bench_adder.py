"""Benchmark: the Kogge-Stone adder's Sec. IV-B claims.

Validates the closed form ``8 + 11*ceil(log2 n) + 9`` against the
NOR-level simulation at every width class the design instantiates, the
constant 12-row scratch footprint, and the wear bound; times simulated
additions.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import register_report
from repro.arith.bitops import ceil_log2
from repro.arith.koggestone import SCRATCH_ROWS, AdderUnit, latency_cc
from repro.eval.report import format_table


#: Width classes used by the design: precompute (n/4+1) and
#: postcompute (1.5n-1) at the four paper sizes.
WIDTHS = [17, 33, 65, 97, 95, 191, 383, 575]


def test_latency_formula_vs_simulation(benchmark):
    """Program cycle counts equal the paper's closed form exactly."""

    def check_all():
        rows = []
        for width in WIDTHS:
            adder = AdderUnit(width).adder
            add_cc = adder.program("add").cycle_count
            sub_cc = adder.program("sub").cycle_count
            assert add_cc == sub_cc == latency_cc(width)
            rows.append((width, ceil_log2(width), add_cc))
        return rows

    rows = benchmark(check_all)
    register_report(
        "adder-latency",
        format_table(
            ("width", "levels", "latency cc = 8+11L+9"),
            rows,
            title="Sec. IV-B - Kogge-Stone adder latency (simulated == formula)",
        ),
    )


@pytest.mark.parametrize("width", [16, 64, 96])
def test_simulated_addition(benchmark, width, rng):
    unit = AdderUnit(width)
    x, y = rng.getrandbits(width), rng.getrandbits(width)
    result = benchmark(unit.run_pass, [(x, y)], "add")
    assert result == [x + y]


@pytest.mark.parametrize("width", [16, 96])
def test_simulated_subtraction(benchmark, width, rng):
    unit = AdderUnit(width)
    x, y = rng.getrandbits(width), rng.getrandbits(width)
    hi, lo = max(x, y), min(x, y)
    result = benchmark(unit.run_pass, [(hi, lo)], "sub")
    assert result == [hi - lo]


def test_constant_scratch_rows(benchmark):
    """The scratch region is 12 rows regardless of width (Sec. IV-B)."""

    def rows_needed():
        return [AdderUnit(w).array.rows - 3 for w in (8, 64, 575)]

    assert benchmark(rows_needed) == [SCRATCH_ROWS] * 3


def test_wear_bound(benchmark, rng):
    """Measured per-addition hot-cell wear stays within a small factor
    of the paper's 2*ceil(log2 n) bound."""
    width = 64
    unit = AdderUnit(width)
    unit.run_pass([(1, 1)])
    base = unit.array.max_writes()

    def run_ten():
        for _ in range(10):
            unit.run_pass([(rng.getrandbits(width), rng.getrandbits(width))])
        return unit.array.max_writes()

    final = benchmark.pedantic(run_ten, rounds=1, iterations=1)
    per_add = (final - base) / 10
    assert per_add <= 3 * (2 * ceil_log2(width))


def test_ripple_vs_koggestone(benchmark):
    """Sec. IV-B justification: the Kogge-Stone choice vs a serial
    MAGIC ripple adder, both measured on the simulator."""
    from repro.arith import ripple

    def table():
        rows = []
        for width in (16, 64, 96, 384):
            rows.append(
                (width, ripple.latency_cc(width), latency_cc(width),
                 round(ripple.latency_cc(width) / latency_cc(width), 1))
            )
        return rows

    rows = benchmark(table)
    assert all(r[1] > r[2] for r in rows)
    register_report(
        "adder-comparison",
        format_table(
            ("width", "ripple cc (13(n+1))", "kogge-stone cc", "speedup"),
            rows,
            title="Sec. IV-B - serial ripple vs Kogge-Stone (measured programs)",
        ),
    )


def test_simulated_ripple_addition(benchmark, rng):
    from repro.arith.ripple import RippleUnit

    unit = RippleUnit(16)
    x, y = rng.getrandbits(16), rng.getrandbits(16)
    result = benchmark(unit.run, x, y)
    assert result == x + y


def test_onarray_logic_families(benchmark):
    """All three stateful-logic families multiply on the array."""
    from repro.baselines.onarray import (
        imply_multiply_on_array,
        wallace_multiply_on_array,
    )

    def run_all():
        wallace, w_stats = wallace_multiply_on_array(13, 11, 4)
        imply, i_stats = imply_multiply_on_array(13, 11, 4)
        return wallace, imply, w_stats, i_stats

    wallace, imply, w_stats, i_stats = benchmark(run_all)
    assert wallace == imply == 143
    register_report(
        "logic-families",
        "On-array logic families (4-bit 13x11): MAGIC NOR (core design), "
        f"MAJORITY [{w_stats.maj_ops} MAJ ops], "
        f"IMPLY [{i_stats.imply_ops} pulses, {i_stats.false_ops} resets]",
    )
