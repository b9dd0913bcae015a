"""Tests for the three pipeline stages (paper Sec. IV-C/D/E)."""

from __future__ import annotations

import pytest

from repro.arith.bitops import split_chunks
from repro.karatsuba import multiply as mult_stage
from repro.karatsuba import postcompute, precompute
from repro.karatsuba.multiply import MultiplicationStage
from repro.karatsuba.postcompute import PostcomputeStage
from repro.karatsuba.precompute import PrecomputeStage
from repro.karatsuba.unroll import build_plan
from repro.sim.exceptions import DesignError
from tests.conftest import random_operand


def _layout(stage, n):
    """The L = 2 layout of a stage module at width *n*."""
    return stage.layout(build_plan(n, 2))


class TestPrecomputeStage:
    def test_area_matches_paper(self):
        """Sec. IV-C: (8+10+12) x (n/4+2); 1,980 cells at n = 256."""
        assert _layout(precompute, 256).area_cells == 1980
        assert _layout(precompute, 64).area_cells == 30 * 18

    def test_latency_closed_form(self):
        """8 + 10*(17 + 11*ceil(log2(n/4+1))) + 1."""
        assert _layout(precompute, 64).latency_cc == 8 + 10 * (17 + 11 * 5) + 1
        assert _layout(precompute, 256).latency_cc == 8 + 10 * (17 + 11 * 7) + 1

    def test_invalid_width(self):
        with pytest.raises(DesignError):
            _layout(precompute, 63).latency_cc
        with pytest.raises(DesignError):
            PrecomputeStage(10)

    def test_chunk_sums_correct(self, rng):
        stage = PrecomputeStage(64)
        plan = build_plan(64, 2)
        for _ in range(3):
            a, b = rng.getrandbits(64), rng.getrandbits(64)
            result = stage.process_batch(
                [(split_chunks(a, 16, 4), split_chunks(b, 16, 4))]
            )[0]
            expected = plan.intermediate_values(a, b)
            for step in plan.precompute_adds:
                assert result.chunk_sums[step.out] == expected[step.out]

    def test_cycles_match_formula_every_pass(self, rng):
        stage = PrecomputeStage(64)
        for _ in range(4):
            a, b = rng.getrandbits(64), rng.getrandbits(64)
            result = stage.process_batch(
                [(split_chunks(a, 16, 4), split_chunks(b, 16, 4))]
            )[0]
            assert result.cycles == _layout(precompute, 64).latency_cc

    def test_chunk_count_validated(self):
        stage = PrecomputeStage(64)
        with pytest.raises(DesignError):
            stage.process_batch([([1, 2, 3], [4, 5, 6, 7])])

    def test_chunk_width_validated(self):
        stage = PrecomputeStage(64)
        with pytest.raises(DesignError):
            stage.process_batch([([1 << 16, 0, 0, 0], [0, 0, 0, 0])])

    def test_wear_leveling_halves_hot_cells(self, rng):
        def wear(leveling: bool) -> int:
            stage = PrecomputeStage(64, wear_leveling=leveling)
            for _ in range(10):
                a, b = rng.getrandbits(64), rng.getrandbits(64)
                stage.process_batch(
                    [(split_chunks(a, 16, 4), split_chunks(b, 16, 4))]
                )
            return stage.max_writes()

        unlevelled = wear(False)
        levelled = wear(True)
        assert levelled < 0.7 * unlevelled


class TestMultiplicationStage:
    def test_area_matches_paper(self):
        """Sec. IV-D: 9 x 12 x (n/4+2) cells."""
        assert _layout(mult_stage, 64).area_cells == 9 * 12 * 18
        assert _layout(mult_stage, 384).area_cells == 9 * 12 * 98

    def test_latency_closed_form(self):
        assert _layout(mult_stage, 64).latency_cc == 345
        assert _layout(mult_stage, 384).latency_cc == 2061

    def test_products_correct(self, rng):
        stage = MultiplicationStage(64)
        plan = build_plan(64, 2)
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        operands = plan.intermediate_values(a, b)
        result = stage.process_batch([operands])[0]
        for step in plan.multiplications:
            assert result.products[step.out] == operands[step.out]

    def test_stage_latency_is_single_row_latency(self, rng):
        """Nine rows run in lock-step: one row latency per pass."""
        stage = MultiplicationStage(64)
        plan = build_plan(64, 2)
        operands = plan.intermediate_values(1, 1)
        result = stage.process_batch([operands])[0]
        assert result.cycles == _layout(mult_stage, 64).latency_cc

    def test_missing_operand_rejected(self):
        stage = MultiplicationStage(64)
        with pytest.raises(DesignError):
            stage.process_batch([{"a0": 1}])

    def test_wear_leveling_halves_hot_cells(self):
        plan = build_plan(64, 2)
        operands = plan.intermediate_values((1 << 64) - 1, (1 << 64) - 1)

        def wear(leveling: bool) -> int:
            stage = MultiplicationStage(64, wear_leveling=leveling)
            for _ in range(8):
                stage.process_batch([operands])
            return stage.max_writes()

        assert wear(True) <= 0.6 * wear(False)


class TestPostcomputeStage:
    def test_area_matches_paper(self):
        """Sec. IV-E: (8+12) x 1.5n cells."""
        assert _layout(postcompute, 64).area_cells == 20 * 96
        assert _layout(postcompute, 384).area_cells == 20 * 576

    def test_latency_closed_form(self):
        """121*ceil(log2 1.5n) + 187 + 18."""
        assert _layout(postcompute, 64).latency_cc == 121 * 7 + 187 + 18
        assert _layout(postcompute, 384).latency_cc == 121 * 10 + 187 + 18

    def test_eleven_passes(self):
        """The stage replays the paper's 11 passes at every width."""
        for n in (16, 64, 256, 384):
            assert len(PostcomputeStage(n).adder_passes()) == 11

    def test_recombination_correct(self, rng):
        plan = build_plan(64, 2)
        stage = PostcomputeStage(64)
        for _ in range(3):
            a = random_operand(rng, 64)
            b = random_operand(rng, 64)
            values = plan.intermediate_values(a, b)
            products = {
                step.out: values[step.out] for step in plan.multiplications
            }
            result = stage.process_batch([products])[0]
            assert result.product == a * b
            assert result.cycles == _layout(postcompute, 64).latency_cc

    def test_missing_product_rejected(self):
        stage = PostcomputeStage(64)
        with pytest.raises(DesignError):
            stage.process_batch([{"c_ll": 1}])

    def test_minimum_width_enforced(self):
        with pytest.raises(DesignError):
            PostcomputeStage(12)

    def test_wear_leveling_reduces_hot_cells(self, rng):
        plan = build_plan(64, 2)

        def wear(leveling: bool) -> int:
            stage = PostcomputeStage(64, wear_leveling=leveling)
            for _ in range(6):
                a, b = rng.getrandbits(64), rng.getrandbits(64)
                values = plan.intermediate_values(a, b)
                stage.process_batch(
                    [{s.out: values[s.out] for s in plan.multiplications}]
                )
            return stage.max_writes()

        assert wear(True) < wear(False)
