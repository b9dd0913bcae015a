"""Tests for the queue-depth-driven way autoscaler."""

from __future__ import annotations

import pytest

from repro.eval import loadgen
from repro.service import (
    AutoscalerConfig,
    MultiplicationService,
    ServiceConfig,
    WayAutoscaler,
)
from repro.service.workers import BankDispatcher


def _autoscaler(**overrides):
    defaults = dict(
        min_ways=1, max_ways=3, high_depth=8, low_depth=2,
        up_ticks=2, down_ticks=3,
    )
    defaults.update(overrides)
    config = AutoscalerConfig(**defaults)
    dispatcher = BankDispatcher(ways_per_width=1)
    dispatcher.pool(64)  # instantiate the width
    return WayAutoscaler(dispatcher, config), dispatcher


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_ways=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_ways=4, max_ways=2)
        with pytest.raises(ValueError):
            AutoscalerConfig(high_depth=2, low_depth=2)
        with pytest.raises(ValueError):
            AutoscalerConfig(up_ticks=0)


class TestHysteresis:
    def test_scale_up_needs_sustained_depth(self):
        scaler, dispatcher = _autoscaler()
        # One high observation is not enough...
        assert scaler.observe(1, {64: 10}) == []
        # ...a dip resets the streak...
        assert scaler.observe(2, {64: 4}) == []
        assert scaler.observe(3, {64: 10}) == []
        # ...two consecutive highs fire.
        events = scaler.observe(4, {64: 10})
        assert [e.direction for e in events] == ["up"]
        assert dispatcher.active_count(64) == 2

    def test_scale_down_needs_sustained_idle(self):
        scaler, dispatcher = _autoscaler()
        for tick in range(4):
            scaler.observe(tick, {64: 20})
        assert dispatcher.active_count(64) == 3  # pinned at max_ways
        # Mid-band depths neither raise nor lower.
        for tick in range(4, 10):
            assert scaler.observe(tick, {64: 5}) == []
        # Three consecutive low observations park one way; the streak
        # resets after each action (hysteresis), so the next down needs
        # three more lows.
        assert scaler.observe(10, {64: 1}) == []
        assert scaler.observe(11, {64: 0}) == []
        events = scaler.observe(12, {64: 1})
        assert [e.direction for e in events] == ["down"]
        assert dispatcher.active_count(64) == 2
        assert scaler.observe(13, {64: 0}) == []

    def test_respects_min_and_max(self):
        scaler, dispatcher = _autoscaler(max_ways=2)
        for tick in range(50):
            scaler.observe(tick, {64: 99})
        assert dispatcher.active_count(64) == 2
        for tick in range(50, 120):
            scaler.observe(tick, {64: 0})
        assert dispatcher.active_count(64) == 1

    def test_parked_ways_stay_warm(self):
        scaler, dispatcher = _autoscaler()
        for tick in range(4):
            scaler.observe(tick, {64: 20})
        built = len(dispatcher.pool(64))
        assert built == 3
        for tick in range(4, 20):
            scaler.observe(tick, {64: 0})
        assert dispatcher.active_count(64) == 1
        # Parked, not destroyed: the pool keeps the warm pipelines.
        assert len(dispatcher.pool(64)) == built
        # The next burst reactivates instead of rebuilding.
        for tick in range(20, 24):
            scaler.observe(tick, {64: 20})
        assert dispatcher.active_count(64) > 1
        assert len(dispatcher.pool(64)) == built

    def test_idle_widths_observed_at_zero(self):
        scaler, dispatcher = _autoscaler()
        for tick in range(4):
            scaler.observe(tick, {64: 20})
        assert dispatcher.active_count(64) == 3
        # Depth maps that omit the width still age its down-streak.
        for tick in range(4, 8):
            scaler.observe(tick, {})
        assert dispatcher.active_count(64) < 3


class TestServiceIntegration:
    def test_bursty_load_scales_up_and_down(self):
        config = ServiceConfig(
            batch_size=8,
            ways_per_width=1,
            autoscale=AutoscalerConfig(
                min_ways=1, max_ways=4,
                high_depth=16, low_depth=8,
                up_ticks=2, down_ticks=10,
            ),
        )
        load = loadgen.build_load(
            "fhe", "bursty", 400, 1600, seed=11, burst_gap_cc=60
        )
        report = loadgen.run(load, MultiplicationService(config))
        assert report.completed == 400
        snap = report.snapshot
        counters = snap["counters"]
        assert counters["autoscale_up_total"] >= 1
        assert counters["autoscale_down_total"] >= 1
        state = snap["autoscaler"]["widths"][64]
        assert state["scale_ups"] == counters["autoscale_up_total"]
        assert state["scale_downs"] == counters["autoscale_down_total"]
        assert (
            config.autoscale.min_ways
            <= state["active_ways"]
            <= config.autoscale.max_ways
        )

    def test_snapshot_disabled_by_default(self):
        service = MultiplicationService(ServiceConfig(batch_size=2))
        assert service.snapshot()["autoscaler"] == {"enabled": False}

    def test_scaling_trace_is_deterministic(self):
        config = ServiceConfig(
            batch_size=8,
            ways_per_width=1,
            autoscale=AutoscalerConfig(
                min_ways=1, max_ways=4,
                high_depth=16, low_depth=8,
                up_ticks=2, down_ticks=10,
            ),
        )
        traces = []
        for _ in range(2):
            load = loadgen.build_load(
                "fhe", "bursty", 400, 1600, seed=11, burst_gap_cc=60
            )
            service = MultiplicationService(config)
            loadgen.run(load, service)
            traces.append(
                [
                    (e.tick, e.n_bits, e.direction, e.active_ways)
                    for e in service.autoscaler.events
                ]
            )
        assert traces[0] == traces[1]
        assert traces[0], "expected at least one scaling event"
