"""Tests for the controller, pipeline, and public design facade."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.karatsuba import cost
from repro.karatsuba.controller import KaratsubaController
from repro.karatsuba.design import KaratsubaCimMultiplier, supported_widths
from repro.karatsuba.cost import DesignCost, StageCost
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.sim.exceptions import DesignError
from tests.conftest import random_operand


class TestController:
    def test_job_record(self, rng):
        controller = KaratsubaController(64)
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        record = controller.run_job(a, b)
        assert record.product == a * b
        assert record.total_cycles == sum(controller.stage_latencies())

    def test_operand_validation(self):
        controller = KaratsubaController(64)
        with pytest.raises(DesignError):
            controller.run_job(1 << 64, 1)
        with pytest.raises(DesignError):
            controller.run_job(-1, 1)

    def test_width_validation(self):
        with pytest.raises(DesignError):
            KaratsubaController(12)
        with pytest.raises(DesignError):
            KaratsubaController(66)

    def test_stage_latencies_match_closed_forms(self):
        controller = KaratsubaController(128)
        assert controller.stage_latencies() == (
            cost.design_cost(128, 2).stage_latencies
        )

    def test_area_matches_closed_form(self):
        controller = KaratsubaController(256)
        assert controller.area_cells == cost.design_cost(256, 2).area_cells

    def test_max_writes_accumulates(self, rng):
        controller = KaratsubaController(64)
        controller.run_job(rng.getrandbits(64), rng.getrandbits(64))
        w1 = controller.max_writes()
        controller.run_job(rng.getrandbits(64), rng.getrandbits(64))
        assert controller.max_writes() > w1


def _timing(latencies) -> DesignCost:
    names = ("precompute", "multiply", "postcompute")
    return DesignCost(
        n_bits=64,
        stages=tuple(StageCost(n, 0, c) for n, c in zip(names, latencies)),
    )


class TestPipelineTiming:
    def test_throughput_is_bottleneck_reciprocal(self):
        timing = _timing((729, 345, 1052))
        assert timing.bottleneck_cc == 1052
        assert timing.bottleneck_stage == "postcompute"
        assert timing.throughput_per_mcc == pytest.approx(1e6 / 1052)

    def test_latency_is_sum(self):
        timing = _timing((10, 20, 30))
        assert timing.latency_cc == 60

    def test_makespan(self):
        timing = _timing((10, 20, 30))
        assert timing.makespan_cc(0) == 0
        assert timing.makespan_cc(1) == 60
        assert timing.makespan_cc(4) == 60 + 3 * 30

    def test_makespan_rejects_negative(self):
        timing = _timing((1, 2, 3))
        with pytest.raises(DesignError):
            timing.makespan_cc(-1)

    def test_bottleneck_stage_by_width(self):
        """Small n: postcompute dominates; large n: multiplication
        (consistent with Table I's throughput trend)."""
        assert KaratsubaPipeline(64).timing().bottleneck_stage == "postcompute"
        assert KaratsubaPipeline(384).timing().bottleneck_stage == "multiply"

    def test_stream_results_and_makespan(self, rng):
        pipeline = KaratsubaPipeline(64)
        pairs = [
            (rng.getrandbits(64), rng.getrandbits(64)) for _ in range(5)
        ]
        result = pipeline.run_stream(pairs)
        assert result.products == [a * b for a, b in pairs]
        timing = pipeline.timing()
        assert result.makespan_cc == timing.makespan_cc(5)
        # Steady-state throughput approached from below.
        assert result.achieved_throughput_per_mcc < timing.throughput_per_mcc


class TestDesignFacade:
    def test_multiply_small(self):
        mul = KaratsubaCimMultiplier(64)
        assert mul.multiply(0, 0) == 0
        assert mul.multiply(1, 1) == 1
        assert mul.multiply(0xDEADBEEF, 0xC0FFEE) == 0xDEADBEEF * 0xC0FFEE

    def test_multiply_full_width(self):
        mul = KaratsubaCimMultiplier(64)
        top = (1 << 64) - 1
        assert mul.multiply(top, top) == top * top

    def test_square(self):
        mul = KaratsubaCimMultiplier(64)
        assert mul.square(12345678901234567) == 12345678901234567**2

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_multiply_property_64(self, a, b):
        mul = KaratsubaCimMultiplier(64)
        assert mul.multiply(a, b) == a * b

    def test_metrics_match_table1(self):
        mul = KaratsubaCimMultiplier(64)
        m = mul.metrics()
        assert m.area_cells == 4404
        assert m.max_writes_per_cell == 81

    def test_measured_metrics_agree_with_closed_forms(self):
        mul = KaratsubaCimMultiplier(128)
        analytic = mul.metrics()
        measured = mul.measured_metrics()
        assert measured.area_cells == analytic.area_cells
        assert measured.latency_cc == analytic.latency_cc
        assert measured.throughput_per_mcc == pytest.approx(
            analytic.throughput_per_mcc
        )

    def test_endurance_reports(self, rng):
        mul = KaratsubaCimMultiplier(64)
        mul.multiply(rng.getrandbits(64), rng.getrandbits(64))
        reports = mul.endurance_reports()
        assert len(reports) == 2
        assert all(r.max_writes > 0 for r in reports)

    def test_lifetime_estimate(self):
        mul = KaratsubaCimMultiplier(64)
        # 1e10 endurance / 81 writes per multiplication.
        assert mul.lifetime_multiplications(10**10) == 10**10 // 81

    def test_supported_widths(self):
        widths = supported_widths(64)
        assert widths[0] == 16
        assert 64 in widths
        assert all(w % 4 == 0 for w in widths)
        with pytest.raises(DesignError):
            supported_widths(8)

    def test_wear_leveling_flag_plumbs_through(self, rng):
        levelled = KaratsubaCimMultiplier(64, wear_leveling=True)
        raw = KaratsubaCimMultiplier(64, wear_leveling=False)
        for _ in range(6):
            a, b = rng.getrandbits(64), rng.getrandbits(64)
            levelled.multiply(a, b)
            raw.multiply(a, b)
        assert (
            levelled.pipeline.controller.max_writes()
            < raw.pipeline.controller.max_writes()
        )

    def test_irregular_widths_work(self, rng):
        """Any multiple of 4 >= 16 is accepted, not just paper sizes."""
        for width in (20, 36, 100):
            mul = KaratsubaCimMultiplier(width)
            a = random_operand(rng, width)
            b = random_operand(rng, width)
            assert mul.multiply(a, b) == a * b
