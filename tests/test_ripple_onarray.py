"""Tests for the MAGIC ripple adder and the on-array baseline models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import ripple
from repro.arith.koggestone import latency_cc as ks_latency
from repro.arith.ripple import RippleLayout, RippleUnit
from repro.baselines.onarray import (
    imply_add_on_array,
    imply_multiply_on_array,
    wallace_multiply_on_array,
)
from repro.sim.exceptions import DesignError


class TestRippleAdder:
    def test_simple_sums(self):
        unit = RippleUnit(8)
        assert unit.run(0, 0) == 0
        assert unit.run(255, 1) == 256      # full carry chain
        assert unit.run(170, 85) == 255

    def test_carry_in(self):
        unit = RippleUnit(8)
        assert unit.run(10, 20, carry_in=1) == 31
        assert unit.run(255, 255, carry_in=1) == 511
        with pytest.raises(DesignError):
            unit.run(1, 1, carry_in=2)

    def test_latency_linear(self):
        assert ripple.latency_cc(8) == 13 * 9
        assert ripple.latency_cc(16) == 13 * 17
        adder = RippleUnit(16).adder
        assert adder.program().cycle_count == ripple.latency_cc(16)

    def test_slower_than_koggestone_at_width(self):
        """The paper's point: serial O(n) vs Kogge-Stone O(log n)."""
        for width in (16, 64):
            assert ripple.latency_cc(width) > ks_latency(width)
        # ... but cheaper in rows: 12 vs 12+... comparable scratch, the
        # win is purely latency.
        assert ripple.SCRATCH_ROWS < 12

    def test_repeated_use(self, rng):
        unit = RippleUnit(10)
        for _ in range(15):
            x, y = rng.getrandbits(10), rng.getrandbits(10)
            assert unit.run(x, y) == x + y

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
    def test_addition_property(self, x, y):
        assert RippleUnit(12).run(x, y) == x + y

    def test_layout_validation(self):
        with pytest.raises(DesignError):
            RippleLayout(
                width=4, x_row=0, y_row=0, out_row=2, carry_row=3,
                scratch_rows=tuple(range(4, 12)),
            )
        with pytest.raises(DesignError):
            RippleLayout(
                width=4, x_row=0, y_row=1, out_row=2, carry_row=3,
                scratch_rows=(4, 5),
            )

    def test_operand_width_enforced(self):
        unit = RippleUnit(4)
        with pytest.raises(DesignError):
            unit.run(16, 0)


class TestWallaceOnArray:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_products_correct(self, n, rng):
        for _ in range(5):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            product, _ = wallace_multiply_on_array(a, b, n)
            assert product == a * b

    def test_exhaustive_3bit(self):
        for a in range(8):
            for b in range(8):
                product, _ = wallace_multiply_on_array(a, b, 3)
                assert product == a * b

    def test_layer_count_logarithmic(self):
        _, small = wallace_multiply_on_array(13, 11, 4)
        _, large = wallace_multiply_on_array(255, 255, 8)
        assert small.csa_layers == 2
        assert large.csa_layers == 4          # Wallace depth of 8 rows
        assert large.maj_ops > small.maj_ops

    def test_validation(self):
        with pytest.raises(DesignError):
            wallace_multiply_on_array(16, 1, 4)
        with pytest.raises(DesignError):
            wallace_multiply_on_array(-1, 1, 4)


class TestImplyOnArray:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_additions_correct(self, n, rng):
        for _ in range(5):
            x, y = rng.getrandbits(n), rng.getrandbits(n)
            total, _ = imply_add_on_array(x, y, n)
            assert total == x + y

    def test_exhaustive_3bit_addition(self):
        for x in range(8):
            for y in range(8):
                total, _ = imply_add_on_array(x, y, 3)
                assert total == x + y

    def test_gate_counts(self):
        """9 NANDs per bit position, 3 pulses per NAND."""
        _, stats = imply_add_on_array(5, 3, 4)
        positions = 5                          # n + 1 carry-out position
        assert stats.false_ops == 9 * positions
        assert stats.imply_ops == 18 * positions

    def test_multiplication_correct(self, rng):
        for n in (3, 5):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            product, _ = imply_multiply_on_array(a, b, n)
            assert product == a * b

    def test_multiplication_skips_zero_bits(self):
        _, sparse = imply_multiply_on_array(7, 1, 4)    # one set bit
        _, dense = imply_multiply_on_array(7, 15, 4)    # four set bits
        assert sparse.imply_ops < dense.imply_ops

    def test_validation(self):
        with pytest.raises(DesignError):
            imply_add_on_array(-1, 0, 4)
        with pytest.raises(DesignError):
            imply_multiply_on_array(16, 1, 4)

    def test_destructive_writes_dominate(self):
        """IMPLY's endurance liability: every gate resets a work cell."""
        _, stats = imply_add_on_array(15, 15, 4)
        assert stats.false_ops > 0
        assert stats.imply_ops == 2 * stats.false_ops
