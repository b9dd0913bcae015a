"""Tests for the MultPIM-style single-row multiplier (Sec. IV-D)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import rowmul
from repro.arith.rowmul import RowMultiplier, RowMultiplierSpec
from repro.karatsuba.multiply import MultiplicationStage
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError


class TestSpec:
    def test_area_is_12m(self):
        assert RowMultiplierSpec(18).cells == 216
        assert rowmul.area_cells(98) == 1176

    def test_latency_closed_form(self):
        # m = n/4+2 for the paper's stage: n=64 -> m=18 -> 345 cc.
        assert rowmul.latency_cc(18) == 18 * (5 + 14) + 3 == 345
        assert rowmul.latency_cc(34) == 34 * (6 + 14) + 3 == 683
        assert rowmul.latency_cc(66) == 66 * (7 + 14) + 3 == 1389
        assert rowmul.latency_cc(98) == 98 * (7 + 14) + 3 == 2061

    def test_multpim_scaled_throughputs(self):
        """Full-width rows reproduce [9]'s Table I throughput column."""
        for n, tput in ((64, 779), (128, 372), (256, 177)):
            assert round(1e6 / rowmul.latency_cc(n)) == tput

    def test_max_writes_is_4m(self):
        assert rowmul.max_writes_per_cell(64) == 256
        assert rowmul.max_writes_per_cell(384) == 1536

    def test_product_bits(self):
        assert RowMultiplierSpec(10).product_bits == 20

    def test_invalid_width(self):
        with pytest.raises(DesignError):
            RowMultiplierSpec(0)
        with pytest.raises(DesignError):
            rowmul.latency_cc(0)


class TestMultiplication:
    def test_small_products(self):
        mul = RowMultiplier(RowMultiplierSpec(4))
        assert mul.multiply(0, 0) == 0
        assert mul.multiply(15, 15) == 225
        assert mul.multiply(1, 9) == 9
        assert mul.multiply(8, 8) == 64

    def test_operand_range_enforced(self):
        mul = RowMultiplier(RowMultiplierSpec(4))
        with pytest.raises(DesignError):
            mul.multiply(16, 1)
        with pytest.raises(DesignError):
            mul.multiply(1, -1)

    def test_clock_charged_full_latency(self):
        spec = RowMultiplierSpec(8)
        mul = RowMultiplier(spec)
        clock = Clock()
        mul.multiply(3, 5, clock=clock)
        assert clock.cycles == spec.latency_cc

    def test_clock_optional(self):
        mul = RowMultiplier(RowMultiplierSpec(8))
        assert mul.multiply(3, 5) == 15

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**18 - 1), st.integers(0, 2**18 - 1))
    def test_product_property(self, a, b):
        mul = RowMultiplier(RowMultiplierSpec(18))
        assert mul.multiply(a, b) == a * b

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**66 - 1), st.integers(0, 2**66 - 1))
    def test_wide_product_property(self, a, b):
        """The widest row of the n=256 design (m = 66)."""
        mul = RowMultiplier(RowMultiplierSpec(66))
        assert mul.multiply(a, b) == a * b


class TestWear:
    def test_hot_cell_wear_per_multiplication(self):
        spec = RowMultiplierSpec(16)
        mul = RowMultiplier(spec)
        mul.multiply(0xFFFF, 0xFFFF)
        assert mul.max_writes() == spec.max_writes_per_cell

    def test_wear_accumulates_linearly(self):
        spec = RowMultiplierSpec(8)
        mul = RowMultiplier(spec)
        for _ in range(5):
            mul.multiply(255, 255)
        assert mul.max_writes() == 5 * spec.max_writes_per_cell

    def test_stats(self):
        spec = RowMultiplierSpec(8)
        mul = RowMultiplier(spec)
        mul.multiply(2, 3)
        mul.multiply(4, 5)
        stats = mul.stats()
        assert stats.cycles == 2 * spec.latency_cc
        assert stats.cell_writes > 0


class TestLaneParallelKernel:
    @pytest.mark.parametrize("width", (1, 2, 3, 4, 18, 66, 95, 98))
    @pytest.mark.parametrize("lanes", (1, 2, 7, 64, 65, 576))
    def test_products_match_integer_multiplication(self, width, lanes):
        rng = random.Random(width * 1000 + lanes)
        top = (1 << width) - 1
        pairs = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(lanes)]
        pairs[0] = (top, top)
        pairs[-1] = (top, rng.getrandbits(width))
        assert rowmul.carry_save_products(width, pairs) == [a * b for a, b in pairs]

    def test_no_pairs(self):
        assert rowmul.carry_save_products(8, []) == []

    @pytest.mark.parametrize("bad", ((1 << 8, 1), (3, -1)))
    def test_any_lane_out_of_range_rejected(self, bad):
        pairs = [(1, 2)] * 5
        pairs[3] = bad
        with pytest.raises(DesignError):
            rowmul.carry_save_products(8, pairs)


def _charge_one_by_one(cell_writes, width, passes, rotate):
    """Reference wear: one multiplication's increments, then the swap."""
    cells = cell_writes.reshape(width, rowmul.CELLS_PER_PARTITION)
    increments = {2: width, 3: width, 4: 4 * width, 5: 4 * width,
                  6: 2 * width, 7: 2 * width}
    for _ in range(passes):
        for col, count in increments.items():
            cells[:, col] += count
        if rotate:
            cells[:, [4, 5, 8, 9]] = cells[:, [8, 9, 4, 5]]


class TestChargePasses:
    @pytest.mark.parametrize("passes", range(6))
    @pytest.mark.parametrize("rotate", (False, True))
    def test_closed_form_equals_sequential_steps(self, passes, rotate):
        width = 6
        rng = np.random.default_rng(passes + 10 * rotate)
        start = rng.integers(0, 50, size=rowmul.area_cells(width))
        batched = RowMultiplier(RowMultiplierSpec(width))
        batched.cell_writes[:] = start
        batched.charge_passes(passes, rotate)
        expected = start.copy()
        _charge_one_by_one(expected, width, passes, rotate)
        assert np.array_equal(batched.cell_writes, expected)
        assert batched.multiplications == passes


class TestStageBatchValidation:
    def test_bad_lane_leaves_wear_untouched(self):
        stage = MultiplicationStage(64)
        rng = random.Random(0xBAD)
        names = {name for _, lhs, rhs in stage.steps for name in (lhs, rhs)}
        jobs = [
            {name: rng.getrandbits(stage.width) for name in names}
            for _ in range(4)
        ]
        stage.process_batch(jobs[:1])
        before = {out: row.cell_writes.copy() for out, row in stage.rows.items()}
        checks = stage.checker.stats()
        jobs[2][stage.steps[4][1]] = 1 << stage.width
        with pytest.raises(DesignError):
            stage.process_batch(jobs)
        for out, row in stage.rows.items():
            assert np.array_equal(row.cell_writes, before[out])
            assert row.multiplications == 1
        assert stage.passes == 1
        assert stage.checker.stats() == checks
