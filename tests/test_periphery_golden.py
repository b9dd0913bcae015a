"""Tests for the periphery model, plus golden regression vectors and
exhaustive small-width checks pinning the simulator's behaviour."""

from __future__ import annotations

import pytest

from repro.arith.koggestone import AdderUnit
from repro.crossbar.periphery import (
    PeripheryEstimate,
    PeripheryModel,
    comparison,
    estimate,
)
from repro.karatsuba import cost, floorplan
from repro.karatsuba.design import KaratsubaCimMultiplier
from repro.sim.exceptions import DesignError


class TestPeripheryModel:
    def test_negative_costs_rejected(self):
        with pytest.raises(DesignError):
            PeripheryModel(sense_amp_per_col=-1)

    def test_estimate_components(self):
        plan = floorplan.ours(64)
        est = estimate(plan)
        assert est.cells == 4404
        assert est.drivers > 0 and est.sense_amps > 0
        assert est.total == pytest.approx(est.cells + est.periphery_total)

    def test_overhead_factor_reasonable_for_ours(self):
        for n in (64, 128, 256, 384):
            est = estimate(floorplan.ours(n))
            assert 2.0 < est.overhead_factor < 6.0

    def test_single_row_design_dominated_by_periphery(self):
        """[9]'s per-column sense amps cannot amortise over rows."""
        est = estimate(floorplan.multpim(384))
        assert est.overhead_factor > 20

    def test_correction_reverses_cells_only_ranking(self):
        ours = estimate(floorplan.ours(384))
        multpim = estimate(floorplan.multpim(384))
        assert ours.cells > multpim.cells            # cells-only: [9] smaller
        assert ours.total < multpim.total            # corrected: ours smaller

    def test_custom_model_scales(self):
        cheap = PeripheryModel(
            wordline_driver_per_row=0,
            sense_amp_per_col=0,
            write_driver_per_col=0,
            shifter_per_col=0,
            controller_block=0,
        )
        est = estimate(floorplan.ours(64), cheap)
        assert est.overhead_factor == pytest.approx(1.0)

    def test_comparison_render(self):
        text = comparison(384)
        assert "periphery-corrected" in text

    def test_zero_cells_edge(self):
        est = PeripheryEstimate(
            cells=0, drivers=0, sense_amps=0, write_drivers=0,
            shifters=0, controller=0,
        )
        assert est.overhead_factor == 0.0


#: Golden regression vectors: deterministic inputs with products and
#: timing pinned.  Any change to the simulated datapath's arithmetic or
#: scheduling shows up here before it shows up in the paper tables.
GOLDEN_VECTORS = {
    64: {
        "a": 0x9E3779B97F4A7C15,
        "b": 0xDEADBEEFCAFEF00D,
        "stage_latencies": (729, 345, 1052),
        "area": 4404,
    },
    128: {
        "a": 0x9E3779B97F4A7C15F39CC0605CEDC834,
        "b": 0xDEADBEEFCAFEF00D0123456789ABCDEF,
        "stage_latencies": (839, 683, 1173),
        "area": 8532,
    },
    256: {
        "a": (0x9E3779B97F4A7C15 << 192) | 0xFFFF_FFFF,
        "b": (1 << 255) | 0x1234_5678_9ABC_DEF0,
        "stage_latencies": (949, 1389, 1294),
        "area": 16788,
    },
}


class TestGoldenVectors:
    @pytest.mark.parametrize("n", sorted(GOLDEN_VECTORS))
    def test_product_and_timing_pinned(self, n):
        vector = GOLDEN_VECTORS[n]
        cim = KaratsubaCimMultiplier(n)
        assert cim.multiply(vector["a"], vector["b"]) == (
            vector["a"] * vector["b"]
        )
        assert cim.timing().stage_latencies == vector["stage_latencies"]
        assert cim.area_cells == vector["area"]

    def test_cost_model_pinned(self):
        """The Table I 'Our' closed forms, pinned to exact values."""
        assert cost.design_cost(384, 2).bottleneck_cc == 2061
        assert cost.design_cost(384, 2).latency_cc == 949 + 2061 + 1415
        assert cost.max_writes_per_cell(384) == 198


class TestExhaustiveSmallWidths:
    def test_adder_4bit_exhaustive(self):
        """All 256 operand pairs through the NOR-level 4-bit adder."""
        pairs = [(x, y) for x in range(16) for y in range(16)]
        assert AdderUnit(4).run_pass(pairs, "add") == [x + y for x, y in pairs]

    def test_subtractor_4bit_exhaustive(self):
        """All ordered pairs with x >= y through the borrow-form path."""
        pairs = [(x, y) for x in range(16) for y in range(x + 1)]
        assert AdderUnit(4).run_pass(pairs, "sub") == [x - y for x, y in pairs]

    def test_rowmul_4bit_exhaustive(self):
        from repro.arith.rowmul import RowMultiplier, RowMultiplierSpec

        mul = RowMultiplier(RowMultiplierSpec(4))
        for a in range(16):
            for b in range(16):
                assert mul.multiply(a, b) == a * b
