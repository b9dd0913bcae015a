"""Tests for signed multiplication, the squarer cost model, and
additional MAGIC executor edge cases."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar import CrossbarArray
from repro.karatsuba import cost
from repro.karatsuba.design import KaratsubaCimMultiplier
from repro.magic import MagicExecutor, ProgramBuilder
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError


class TestSignedMultiplication:
    @pytest.fixture(scope="class")
    def cim(self) -> KaratsubaCimMultiplier:
        return KaratsubaCimMultiplier(32)

    @pytest.mark.parametrize(
        "a, b",
        [(5, 7), (-5, 7), (5, -7), (-5, -7), (0, -7), (-5, 0), (0, 0)],
    )
    def test_sign_combinations(self, cim, a, b):
        assert cim.multiply_signed(a, b) == a * b

    def test_negative_zero_not_produced(self, cim):
        result = cim.multiply_signed(-3, 0)
        assert result == 0 and not str(result).startswith("-")

    @settings(max_examples=8, deadline=None)
    @given(st.integers(-(2**32) + 1, 2**32 - 1),
           st.integers(-(2**32) + 1, 2**32 - 1))
    def test_signed_property(self, a, b):
        cim = KaratsubaCimMultiplier(32)
        assert cim.multiply_signed(a, b) == a * b

    def test_magnitude_width_enforced(self, cim):
        with pytest.raises(DesignError):
            cim.multiply_signed(-(1 << 32), 1)


class TestSquaringCostModel:
    def test_precompute_halved(self):
        for n in (64, 256, 384):
            sq = cost.squaring_cost(n).stages[0]
            full = cost.design_cost(n, 2).stages[0]
            assert sq.latency_cc < 0.55 * full.latency_cc
            assert sq.area_cells < full.area_cells

    def test_other_stages_unchanged(self):
        sq = cost.squaring_cost(128)
        full = cost.design_cost(128, 2)
        assert sq.stages[1:] == full.stages[1:]

    def test_squarer_atp_never_worse(self):
        for n in (64, 128, 256, 384):
            assert cost.squaring_cost(n).atp <= cost.design_cost(n, 2).atp

    def test_facade_exposure(self):
        cim = KaratsubaCimMultiplier(64)
        sq = cim.squaring_metrics()
        assert sq.area_cells < cim.metrics().area_cells

    def test_functional_square_unchanged(self):
        cim = KaratsubaCimMultiplier(64)
        assert cim.square(0xFFFF_FFFF) == 0xFFFF_FFFF**2


class TestExecutorEdgeCases:
    def test_shared_clock_across_programs(self):
        array = CrossbarArray(4, 4)
        clock = Clock()
        ex = MagicExecutor(array, clock=clock)
        prog = ProgramBuilder().init([2]).build()
        ex.execute(prog)
        ex.execute(prog)
        assert clock.cycles == 2
        assert clock.by_category["init"] == 2

    def test_results_are_per_run(self):
        array = CrossbarArray(2, 8)
        ex = MagicExecutor(array)
        first = ex.execute(
            ProgramBuilder().write(0, "x", width=8).read(0, "first", width=8).build(),
            bindings={"x": 7},
        )
        assert ex.results == {"first": 7}
        second = ex.execute(
            ProgramBuilder().write(1, "y", width=8).read(1, "second", width=8).build(),
            bindings={"y": 9},
        )
        # A previous run's READ results must not leak into the next run,
        # and each run's mapping rides along on its RunStats.
        assert ex.results == {"second": 9}
        assert first.results == {"first": 7}
        assert second.results == {"second": 9}

    def test_write_at_offset_preserves_rest(self):
        array = CrossbarArray(1, 8)
        ex = MagicExecutor(array)
        ex.execute(
            ProgramBuilder()
            .write(0, "lo", col_offset=0, width=4)
            .write(0, "hi", col_offset=4, width=4)
            .read(0, "all", width=8)
            .build(),
            bindings={"lo": 0xA, "hi": 0x5},
        )
        assert ex.results["all"] == 0x5A

    def test_write_value_exceeding_field_rejected(self):
        array = CrossbarArray(1, 8)
        ex = MagicExecutor(array)
        prog = ProgramBuilder().write(0, "x", width=4).build()
        with pytest.raises(ValueError):
            ex.execute(prog, bindings={"x": 16})

    def test_stats_energy_delta(self):
        array = CrossbarArray(4, 8)
        ex = MagicExecutor(array)
        prog = ProgramBuilder().init([1, 2]).build()
        stats1 = ex.execute(prog)
        stats2 = ex.execute(prog)
        assert stats1.energy_fj > 0
        # Second run re-sets already-set cells: same pulse count.
        assert stats2.energy_fj == pytest.approx(stats1.energy_fj)

    def test_full_row_shift_no_cols(self):
        array = CrossbarArray(2, 8)
        ex = MagicExecutor(array)
        ex.execute(
            ProgramBuilder()
            .write(0, "x", width=8)
            .shift(0, 1, 3, fill=1)
            .read(1, "out", width=8)
            .build(),
            bindings={"x": 0b0001_0001},
        )
        assert ex.results["out"] == 0b1000_1111

    def test_huge_shift_clears_row(self):
        array = CrossbarArray(2, 8)
        ex = MagicExecutor(array)
        ex.execute(
            ProgramBuilder()
            .write(0, "x", width=8)
            .shift(0, 1, 20, fill=0)
            .read(1, "out", width=8)
            .build(),
            bindings={"x": 0xFF},
        )
        assert ex.results["out"] == 0
