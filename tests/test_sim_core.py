"""Tests for the simulation core: clock, stats, exceptions."""

from __future__ import annotations

import pytest

from repro.sim import (
    Clock,
    DesignMetrics,
    RunStats,
    SimulationError,
)
from repro.sim.exceptions import (
    AddressError,
    CrossbarError,
    MagicProtocolError,
    ProgramError,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().cycles == 0

    def test_tick_advances_total(self):
        clock = Clock()
        clock.tick(5, category="nor")
        clock.tick(2, category="shift")
        assert clock.cycles == 7

    def test_tick_attributes_categories(self):
        clock = Clock()
        clock.tick(3, category="nor")
        clock.tick(4, category="nor")
        clock.tick(2, category="write")
        assert clock.by_category == {"nor": 7, "write": 2}

    def test_tick_returns_new_total(self):
        clock = Clock()
        assert clock.tick(3) == 3
        assert clock.tick(4) == 7

    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError):
            Clock().tick(-1)

    def test_zero_tick_allowed(self):
        clock = Clock()
        clock.tick(0, category="idle")
        assert clock.cycles == 0

    def test_snapshot_is_independent(self):
        clock = Clock()
        clock.tick(3, category="nor")
        snap = clock.snapshot()
        clock.tick(10, category="nor")
        assert snap.cycles == 3
        assert clock.delta_since(snap) == 10

    def test_reset(self):
        clock = Clock()
        clock.tick(9, category="x")
        clock.reset()
        assert clock.cycles == 0
        assert clock.by_category == {}


class TestRunStats:
    def test_merge_sums_counters(self):
        a = RunStats(cycles=10, nor_ops=3, cell_writes=5, energy_fj=1.5)
        b = RunStats(cycles=7, nor_ops=2, cell_writes=1, energy_fj=0.5)
        merged = a.merge(b)
        assert merged.cycles == 17
        assert merged.nor_ops == 5
        assert merged.cell_writes == 6
        assert merged.energy_fj == pytest.approx(2.0)

    def test_merge_combines_op_counts(self):
        a = RunStats(op_counts={"nor": 2, "init": 1})
        b = RunStats(op_counts={"nor": 3, "shift": 4})
        merged = a.merge(b)
        assert merged.op_counts == {"nor": 5, "init": 1, "shift": 4}

    def test_merge_does_not_mutate_inputs(self):
        a = RunStats(op_counts={"nor": 2})
        b = RunStats(op_counts={"nor": 3})
        a.merge(b)
        assert a.op_counts == {"nor": 2}
        assert b.op_counts == {"nor": 3}


class TestDesignMetrics:
    def test_atp_definition(self):
        m = DesignMetrics(
            name="x", n_bits=64, latency_cc=100,
            area_cells=5000, throughput_per_mcc=500.0,
        )
        assert m.atp == pytest.approx(10.0)

    def test_atp_requires_positive_throughput(self):
        m = DesignMetrics(
            name="x", n_bits=64, latency_cc=100,
            area_cells=5000, throughput_per_mcc=0.0,
        )
        with pytest.raises(ValueError):
            _ = m.atp

    def test_speedup_and_atp_improvement(self):
        fast = DesignMetrics("fast", 64, 100, 1000, 1000.0)
        slow = DesignMetrics("slow", 64, 100, 1000, 100.0)
        assert fast.speedup_over(slow) == pytest.approx(10.0)
        # Same area, 10x throughput -> 10x better ATP.
        assert fast.atp_improvement_over(slow) == pytest.approx(10.0)


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(AddressError, CrossbarError)
        assert issubclass(CrossbarError, SimulationError)
        assert issubclass(MagicProtocolError, SimulationError)
        assert issubclass(ProgramError, SimulationError)

    def test_catchable_as_base(self):
        with pytest.raises(SimulationError):
            raise AddressError("row out of range")
