"""Tests for the analytic cost model (Sec. IV closed forms + Fig. 4)."""

from __future__ import annotations

import pytest

from repro.karatsuba import cost
from repro.sim.exceptions import DesignError


class TestTable1OursColumn:
    """The 'Our' rows of Table I, cell-exact where the paper is exact."""

    @pytest.mark.parametrize(
        "n, area", [(64, 4404), (128, 8532), (256, 16788), (384, 25044)]
    )
    def test_area_cell_exact(self, n, area):
        assert cost.design_cost(n, 2).area_cells == area

    @pytest.mark.parametrize(
        "n, writes", [(64, 81), (128, 92), (256, 134), (384, 198)]
    )
    def test_max_writes_cell_exact(self, n, writes):
        assert cost.max_writes_per_cell(n) == writes

    @pytest.mark.parametrize(
        "n, paper_tput", [(64, 927), (128, 833), (256, 706), (384, 479)]
    )
    def test_throughput_within_tolerance(self, n, paper_tput):
        """Our formula-derived throughput is within 3% of the paper's
        column (residual constant overheads in the authors' simulator;
        see EXPERIMENTS.md)."""
        ours = cost.design_cost(n, 2).throughput_per_mcc
        assert abs(ours - paper_tput) / paper_tput < 0.03

    def test_precompute_area_note(self):
        """Sec. IV-C quotes 1,980 cells at n = 256."""
        assert cost.design_cost(256, 2).stages[0].area_cells == 1980


class TestStageFormulas:
    def test_adder_pass_latency(self):
        assert cost.adder_latency_cc(17) == 11 * 5 + 17
        assert cost.adder_latency_cc(96) == 11 * 7 + 17

    def test_precompute_latency(self):
        assert cost.design_cost(64, 2).stages[0].latency_cc == 729
        assert cost.design_cost(384, 2).stages[0].latency_cc == 949

    def test_multiply_latency(self):
        assert cost.design_cost(64, 2).stages[1].latency_cc == 345
        assert cost.design_cost(384, 2).stages[1].latency_cc == 2061

    def test_postcompute_latency(self):
        assert cost.design_cost(64, 2).stages[2].latency_cc == 1052
        assert cost.design_cost(384, 2).stages[2].latency_cc == 1415

    def test_validation(self):
        with pytest.raises(DesignError):
            cost.design_cost(100, 3)
        with pytest.raises(DesignError):
            cost.design_cost(64, 0)


def _postcompute_passes(n: int, depth: int) -> int:
    return len(cost.stage_layouts(n, depth)[2].passes)


class TestPostcomputePasses:
    def test_eleven_passes_at_l2(self):
        """The batched schedule's pass count (paper: 11 adds/subs)."""
        for n in (64, 128, 256, 384):
            assert _postcompute_passes(n, 2) == 11

    def test_three_passes_at_l1(self):
        assert _postcompute_passes(256, 1) == 3

    def test_passes_grow_with_depth(self):
        passes = [_postcompute_passes(512, L) for L in (1, 2, 3, 4)]
        assert passes == sorted(passes)


class TestFig4:
    def test_l2_optimal_at_crypto_sizes(self):
        """The paper's conclusion: L = 2 minimises ATP for the mid
        range of cryptographically relevant sizes."""
        for n in (256, 384, 512):
            assert cost.optimal_depth(n) == 2

    def test_crossover_structure(self):
        """ATP curves cross: shallow unrolling wins at small n, deeper
        at very large n — the shape Fig. 4 plots."""
        assert cost.optimal_depth(64) == 1
        assert cost.optimal_depth(1024) == 3

    def test_sweep_skips_infeasible_points(self):
        sweep = cost.atp_sweep(sizes=(64,), depths=(1, 2, 3, 4))
        # 64 % 16 == 0 so all depths are feasible here...
        assert 64 in sweep[4]
        sweep = cost.atp_sweep(sizes=(68,), depths=(3,))
        assert 68 not in sweep[3]

    def test_atp_positive_and_monotone_in_n(self):
        series = cost.atp_sweep(sizes=(64, 128, 256, 384), depths=(2,))[2]
        values = [series[n] for n in (64, 128, 256, 384)]
        assert all(v > 0 for v in values)
        assert values == sorted(values)

    def test_design_metrics_shape(self):
        m = cost.design_metrics(64, 2)
        assert m.name == "ours-L2"
        assert m.max_writes_per_cell == 81
        m3 = cost.design_metrics(64, 3)
        assert m3.max_writes_per_cell is None

    def test_no_feasible_depth_raises(self):
        with pytest.raises(DesignError):
            cost.optimal_depth(18, depths=(3, 4))


def test_design_cost_is_cached():
    """One record per design point: repeat calls cost a dict lookup."""
    assert cost.design_cost(256, 2) is cost.design_cost(256, 2)
