"""Cross-validation: simulated components versus analytic cost models.

The evaluation harness trusts the closed forms; these property tests
pin them to the NOR-level simulation over *randomly sampled* widths,
not just the four paper sizes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import rowmul
from repro.arith.bitops import split_chunks
from repro.arith.koggestone import latency_cc as ks_latency
from repro.arith.koggestone import AdderUnit
from repro.arith.rowmul import RowMultiplier, RowMultiplierSpec
from repro.karatsuba import cost
from repro.karatsuba.multiply import MultiplicationStage
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.karatsuba.postcompute import PostcomputeStage
from repro.karatsuba.precompute import PrecomputeStage
from repro.karatsuba.unroll import build_plan

#: Random design widths beyond the paper's four (multiples of 4).
WIDTH_STRATEGY = st.integers(4, 40).map(lambda k: 4 * k)


class TestAdderCrossValidation:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 120), st.data())
    def test_program_cycles_and_results(self, width, data):
        unit = AdderUnit(width)
        assert unit.adder.program("add").cycle_count == ks_latency(width)
        assert unit.pass_cc("add") == ks_latency(width)
        x = data.draw(st.integers(0, (1 << width) - 1))
        y = data.draw(st.integers(0, (1 << width) - 1))
        assert unit.run_pass([(x, y)]) == [x + y]


class TestRowmulCrossValidation:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 80), st.data())
    def test_latency_formula_and_product(self, width, data):
        spec = RowMultiplierSpec(width)
        assert spec.latency_cc == rowmul.latency_cc(width)
        assert spec.cells == 12 * width
        a = data.draw(st.integers(0, (1 << width) - 1))
        b = data.draw(st.integers(0, (1 << width) - 1))
        assert RowMultiplier(spec).multiply(a, b) == a * b


class TestStageCrossValidation:
    @settings(max_examples=6, deadline=None)
    @given(WIDTH_STRATEGY, st.data())
    def test_precompute_stage_matches_model(self, n, data):
        stage = PrecomputeStage(n)
        a = data.draw(st.integers(0, (1 << n) - 1))
        b = data.draw(st.integers(0, (1 << n) - 1))
        result = stage.process_batch(
            [(split_chunks(a, n // 4, 4), split_chunks(b, n // 4, 4))]
        )[0]
        assert result.cycles == cost.design_cost(n, 2).stages[0].latency_cc
        assert stage.area_cells == cost.design_cost(n, 2).stages[0].area_cells

    @settings(max_examples=6, deadline=None)
    @given(WIDTH_STRATEGY, st.data())
    def test_postcompute_stage_matches_model(self, n, data):
        stage = PostcomputeStage(n)
        plan = build_plan(n, 2)
        a = data.draw(st.integers(0, (1 << n) - 1))
        b = data.draw(st.integers(0, (1 << n) - 1))
        values = plan.intermediate_values(a, b)
        products = {s.out: values[s.out] for s in plan.multiplications}
        result = stage.process_batch([products])[0]
        assert result.product == a * b
        assert result.cycles == cost.design_cost(n, 2).stages[2].latency_cc
        assert stage.area_cells == cost.design_cost(n, 2).stages[2].area_cells

    @settings(max_examples=10, deadline=None)
    @given(WIDTH_STRATEGY)
    def test_multiply_stage_matches_model(self, n):
        stage = MultiplicationStage(n)
        assert stage.latency_cc() == cost.design_cost(n, 2).stages[1].latency_cc
        assert stage.area_cells == cost.design_cost(n, 2).stages[1].area_cells


class TestPipelineCrossValidation:
    @settings(max_examples=8, deadline=None)
    @given(WIDTH_STRATEGY)
    def test_timing_matches_cost_model(self, n):
        timing = KaratsubaPipeline(n).timing()
        dc = cost.design_cost(n, 2)
        assert timing.stage_latencies == dc.stage_latencies
        assert timing.throughput_per_mcc == pytest.approx(
            dc.throughput_per_mcc
        )

    @settings(max_examples=4, deadline=None)
    @given(WIDTH_STRATEGY, st.data())
    def test_full_multiplication_random_widths(self, n, data):
        pipeline = KaratsubaPipeline(n)
        a = data.draw(st.integers(0, (1 << n) - 1))
        b = data.draw(st.integers(0, (1 << n) - 1))
        assert pipeline.multiply(a, b) == a * b


class TestPlanCrossValidation:
    @settings(max_examples=10, deadline=None)
    @given(WIDTH_STRATEGY)
    def test_postcompute_passes_always_eleven_at_l2(self, n):
        assert len(cost.stage_layouts(n, 2)[2].passes) == 11

    @settings(max_examples=10, deadline=None)
    @given(WIDTH_STRATEGY)
    def test_width_claims_hold_for_all_n(self, n):
        plan = build_plan(n, 2)
        assert plan.max_precompute_input_width == n // 4 + 1
        assert plan.max_mult_width == n // 4 + 2
        assert plan.max_product_width <= n // 2 + 4
