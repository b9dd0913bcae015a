"""Tests for the scaling analysis, floorplan model, and waveform tool."""

from __future__ import annotations

import pytest

from repro.arith.koggestone import AdderUnit
from repro.eval import scaling
from repro.karatsuba import floorplan
from repro.magic.program import ProgramBuilder
from repro.sim import waveform
from repro.sim.exceptions import DesignError


class TestScalingFits:
    def test_power_law_recovers_exact_exponent(self):
        sizes = [64, 128, 256, 512]
        fit = scaling.fit_power_law(
            sizes, [3 * n * n for n in sizes], "x", "area"
        )
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_fit_validation(self):
        with pytest.raises(DesignError):
            scaling.fit_power_law([2, 4], [1, 2], "x", "y")
        with pytest.raises(DesignError):
            scaling.fit_power_law([2, 4, 8], [1, -2, 3], "x", "y")

    def test_all_designs_match_paper_classes(self):
        """The Sec. II-C complexity table, recovered numerically."""
        expected = scaling.expected_classes()
        for fit in scaling.scaling_fits():
            assert fit.classify() == expected[(fit.design, fit.metric)], fit

    def test_quadratic_vs_subquadratic_separation(self):
        """The headline scaling claim: schoolbook time/area is
        quadratic, ours and [9] stay (near-)linear."""
        fits = {
            (f.design, f.metric): f.exponent for f in scaling.scaling_fits()
        }
        assert fits[("hajali2018", "latency")] > 1.9
        assert fits[("radakovits2020", "area")] > 1.9
        assert fits[("ours", "area")] < 1.1
        assert fits[("ours", "latency")] < 1.2
        assert fits[("leitersdorf2022", "latency")] < 1.2

    def test_fits_have_high_r_squared(self):
        for fit in scaling.scaling_fits():
            assert fit.r_squared > 0.98, fit

    def test_classify_buckets(self):
        mk = lambda e: scaling.ScalingFit("d", "m", e, 1.0)
        assert mk(0.1).classify() == "O(1)"
        assert mk(1.0).classify() == "O(n)"
        assert mk(1.15).classify() == "O(n log n)"
        assert mk(1.6).classify() == "O(n^1.58)"
        assert mk(2.0).classify() == "O(n^2)"

    def test_render(self):
        text = scaling.render()
        assert "O(n^2)" in text and "ours" in text


class TestFloorplan:
    def test_total_cells_match_cost_model(self):
        from repro.karatsuba import cost

        for n in (64, 128, 256, 384):
            plan = floorplan.ours(n)
            assert plan.total_cells == cost.design_cost(n, 2).area_cells

    def test_longest_line_is_multiplier_row(self):
        """Our longest line is the 12(n/4+2)-cell multiplier word line."""
        plan = floorplan.ours(384)
        assert plan.longest_word_line == 12 * (384 // 4 + 2) == 1176

    def test_ours_practical_at_all_paper_sizes(self):
        for n in (64, 128, 256, 384):
            assert floorplan.ours(n).practical()

    def test_multpim_impractical_at_384(self):
        """Sec. V: a 5,369-memristor bit line exceeds practical limits."""
        plan = floorplan.multpim(384)
        assert plan.longest_word_line == 5369
        assert not plan.practical()

    def test_multpim_practical_at_small_sizes(self):
        assert floorplan.multpim(64).practical()

    def test_row_length_ratio_matches_secv(self):
        ours = floorplan.ours(384).longest_line
        theirs = floorplan.multpim(384).longest_line
        assert 4.0 < theirs / ours < 5.0

    def test_wallace_dimensions(self):
        plan = floorplan.wallace(384)
        assert plan.total_cells >= 1_179_984
        assert plan.subarrays[0].rows > 500

    def test_comparison_render(self):
        text = floorplan.comparison(384)
        assert "NO" in text        # multpim flagged impractical
        assert "ours" in text

    def test_width_validation(self):
        with pytest.raises(DesignError):
            floorplan.ours(10)


class TestWaveform:
    def test_activity_grid_dimensions(self):
        prog = ProgramBuilder().init([0]).nor([0], 1).build()
        grid = waveform.activity_grid(prog)
        assert set(grid) == {0, 1}
        assert all(len(marks) == prog.cycle_count for marks in grid.values())

    def test_marks(self):
        prog = ProgramBuilder().init([1]).nor([0], 1).build()
        grid = waveform.activity_grid(prog)
        assert grid[1][0] == waveform.MARK_INIT
        assert grid[0][1] == waveform.MARK_READ
        assert grid[1][1] == waveform.MARK_WRITE

    def test_shift_spans_two_cycles(self):
        prog = ProgramBuilder().shift(0, 1, 1, also_init=(2,)).build()
        grid = waveform.activity_grid(prog)
        assert grid[0] == [waveform.MARK_READ] * 2
        assert grid[1] == [waveform.MARK_WRITE] * 2
        assert grid[2] == [waveform.MARK_WRITE] * 2

    def test_read_write_collision_marked(self):
        # A row read and written in the same cycle (e.g. in-place shift).
        prog = ProgramBuilder().shift(0, 0, 1).build()
        grid = waveform.activity_grid(prog)
        assert grid[0] == [waveform.MARK_BOTH] * 2

    def test_render_truncation(self):
        adder = AdderUnit(16).adder
        text = waveform.render(adder.program("add"), max_cycles=30)
        assert "more cycles" in text
        assert "legend" in text

    def test_utilization_bounds(self):
        adder = AdderUnit(8).adder
        util = waveform.utilization(adder.program("add"))
        assert all(0.0 <= u <= 1.0 for u in util.values())
        # Scratch rows are busier than operand rows.
        lay = adder.layout
        assert max(
            util[r] for r in lay.scratch_rows
        ) > util[lay.x_row]

    def test_empty_program(self):
        prog = ProgramBuilder().build()
        assert waveform.activity_grid(prog) == {}
