"""Tests for the CLI and the energy evaluation extension."""

from __future__ import annotations

import pytest

from repro.arith.koggestone import (
    SCRATCH_ROWS,
    KoggeStoneAdder,
    KoggeStoneLayout,
)
from repro.cli import build_parser, main
from repro.crossbar.device import DeviceModel
from repro.eval import energy
from repro.sim import waveform
from repro.sim.exceptions import DesignError


class TestEnergyModel:
    def test_measured_breakdown_positive(self):
        breakdown = energy.measure_ours(64, samples=1)
        assert set(breakdown) == {
            "precompute", "multiply", "postcompute", "total",
        }
        assert all(v > 0 for v in breakdown.values())
        assert breakdown["total"] == pytest.approx(
            breakdown["precompute"]
            + breakdown["multiply"]
            + breakdown["postcompute"]
        )

    def test_measurement_scales_with_width(self):
        small = energy.estimate_ours(64)
        large = energy.estimate_ours(128)
        assert large.energy_fj > small.energy_fj

    def test_sample_validation(self):
        with pytest.raises(DesignError):
            energy.measure_ours(64, samples=0)

    def test_baseline_estimates(self):
        rows = energy.estimate_baselines(64)
        assert {r.design for r in rows} == {
            "radakovits2020", "hajali2018", "lakshmi2022", "leitersdorf2022",
        }
        assert all(r.method == "modelled" for r in rows)
        assert all(r.energy_fj > 0 for r in rows)

    def test_comparison_table_has_ours(self):
        rows = energy.comparison_table(64)
        ours = [r for r in rows if r.design == "ours"]
        assert len(ours) == 1
        assert ours[0].method == "measured"

    def test_unit_properties(self):
        est = energy.EnergyEstimate("x", 64, 2_000_000.0, "modelled")
        assert est.energy_pj == pytest.approx(2000.0)
        assert est.energy_nj == pytest.approx(2.0)

    def test_edp_favors_ours_vs_serial_schoolbook(self):
        """The serial MAGIC schoolbook [7] loses the energy-delay
        product at crypto sizes despite lower raw switching energy."""
        ours = energy.estimate_ours(64)
        hajali = next(
            r for r in energy.estimate_baselines(64)
            if r.design == "hajali2018"
        )
        ours_edp = ours.energy_fj * energy.latency_of("ours", 64)
        hajali_edp = hajali.energy_fj * energy.latency_of("hajali2018", 64)
        assert hajali_edp > ours_edp

    def test_custom_device_scales_energy(self):
        cheap = DeviceModel(e_set_fj=10.0, e_reset_fj=5.0, e_read_fj=0.5)
        low = energy.estimate_ours(64, device=cheap)
        high = energy.estimate_ours(64)
        assert low.energy_fj < high.energy_fj

    def test_render_contains_all_designs(self):
        text = energy.render(64)
        for name in ("ours", "hajali2018", "lakshmi2022"):
            assert name in text


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for command in ("table1", "fig4", "explore", "energy",
                        "multiply", "metrics"):
            args = parser.parse_args(
                [command] + (["1", "2"] if command == "multiply" else [])
            )
            assert callable(args.func)

    def test_metrics_command(self, capsys):
        assert main(["metrics", "--bits", "64"]) == 0
        out = capsys.readouterr().out
        assert "4,404" in out
        assert "max writes/cell : 81" in out

    def test_multiply_command(self, capsys):
        assert main(["multiply", "0xff", "0x10", "--bits", "16"]) == 0
        out = capsys.readouterr().out
        assert "255 * 16 = 4080" in out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "leitersdorf2022" in out
        assert "916x" in out or "930" in out

    def test_fig4_command(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "L=2" in out and "chosen" in out

    def test_waveform_command(self, capsys):
        """The 8-bit add schedule on the paper's standalone placement:
        operands in rows 0/1, the sum in row 2, scratch rows 3..14."""
        layout = KoggeStoneLayout(
            width=8, col0=0, x_row=0, y_row=1, out_row=2,
            scratch_rows=tuple(range(3, 3 + SCRATCH_ROWS)),
        )
        program = KoggeStoneAdder(layout).program("add")
        assert main(["waveform", "--bits", "8"]) == 0
        out = capsys.readouterr().out
        assert out == waveform.render(program, max_cycles=100) + "\n"
        assert "legend" in out

    def test_explore_command(self, capsys):
        assert main(["explore", "--bits", "128"]) == 0
        out = capsys.readouterr().out
        assert "toom-5" in out
