"""Tests for the open-loop load generator (`repro.eval.loadgen`)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.eval import loadgen
from repro.frontend import AsyncShardedFrontend, FrontendConfig
from repro.service import MultiplicationService, ServiceConfig
from repro.sim.exceptions import DesignError
from repro.workloads import CryptoWorkloadEngine

SMALL = ServiceConfig(batch_size=4, ways_per_width=1)


class TestArrivalSchedules:
    @pytest.mark.parametrize("process", loadgen.ARRIVAL_PROCESSES)
    def test_identical_seeds_identical_schedules(self, process):
        first = loadgen.arrival_schedule(process, 64, 500, seed=42)
        second = loadgen.arrival_schedule(process, 64, 500, seed=42)
        assert first == second
        assert len(first) == 64
        assert all(b >= a for a, b in zip(first, first[1:]))
        assert all(isinstance(t, int) and t > 0 for t in first)

    @pytest.mark.parametrize("process", loadgen.ARRIVAL_PROCESSES)
    def test_different_seeds_differ(self, process):
        first = loadgen.arrival_schedule(process, 64, 500, seed=1)
        second = loadgen.arrival_schedule(process, 64, 500, seed=2)
        assert first != second

    def test_bursty_has_dense_and_sparse_stretches(self):
        schedule = loadgen.arrival_schedule(
            "bursty", 300, 2000, seed=9, burst_gap_cc=50
        )
        gaps = sorted(b - a for a, b in zip(schedule, schedule[1:]))
        # The gap distribution must be bimodal: the short quartile far
        # below the long quartile.
        assert gaps[len(gaps) // 4] * 4 < gaps[3 * len(gaps) // 4]

    def test_validation(self):
        with pytest.raises(DesignError):
            loadgen.arrival_schedule("poisson", -1, 100, seed=0)
        with pytest.raises(DesignError):
            loadgen.arrival_schedule("poisson", 5, 0, seed=0)
        with pytest.raises(DesignError):
            loadgen.arrival_schedule("sawtooth", 5, 100, seed=0)
        with pytest.raises(DesignError):
            loadgen.build_load("tls", "poisson", 5, 100)

    def test_build_load_stamps_deadlines_and_priorities(self):
        load = loadgen.build_load(
            "fhe", "poisson", 40, 500, seed=1,
            deadline_slack_cc=9_000, high_priority_fraction=0.5,
        )
        assert all(item.deadline_cc == 9_000 for item in load)
        priorities = {item.priority for item in load}
        assert priorities == {0, 1}


class TestDeterminism:
    """Satellite: identical seeds -> identical latency histograms,
    whatever the shard hosting (single/multi process)."""

    def _load(self):
        return loadgen.build_load(
            "fhe", "poisson", 32, 300, seed=0xD7, deadline_slack_cc=20_000
        )

    def test_sync_run_repeats_bit_exact(self):
        first = loadgen.run(self._load(), MultiplicationService(SMALL))
        second = loadgen.run(self._load(), MultiplicationService(SMALL))
        assert first.as_dict() == second.as_dict()
        assert first.histogram == second.histogram

    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_sharded_inline_matches_process(self, shards):
        inline_report = loadgen.run(
            self._load(),
            AsyncShardedFrontend(
                FrontendConfig(shards=shards, inline=True, service=SMALL)
            ),
        )
        process_report = loadgen.run(
            self._load(),
            AsyncShardedFrontend(
                FrontendConfig(shards=shards, inline=False, service=SMALL)
            ),
        )
        assert inline_report.as_dict() == process_report.as_dict()
        assert inline_report.histogram == process_report.histogram

    def test_report_fields_consistent(self):
        report = loadgen.run(self._load(), MultiplicationService(SMALL))
        assert report.offered == 32
        assert report.completed + report.shed + report.rejected_deadline == 32
        assert sum(report.histogram) == report.completed
        assert report.p50_cc <= report.p95_cc <= report.p99_cc
        assert report.horizon_cc > 0
        assert report.meets(loadgen.Slo(p99_cc=10**9, max_miss_rate=1.0))
        assert not report.meets(loadgen.Slo(p99_cc=1, max_miss_rate=0.0))


class TestOverloadShedding:
    """Satellite: arrivals above capacity shed via the bounded queue
    with per-priority accounting — no unbounded growth, no lost
    futures."""

    def _overload(self, jobs=48):
        # Mixed widths spread arrivals over many under-full bins, so
        # total pending hits the admission bound before any single bin
        # reaches a full batch — genuine backpressure, not batching.
        return loadgen.build_load(
            "mixed", "poisson", jobs, 30, seed=0xBAD,
            high_priority_fraction=0.25,
        )

    def test_sync_overload_sheds_with_accounting(self):
        config = ServiceConfig(batch_size=8, ways_per_width=1, max_pending=8)
        service = MultiplicationService(config)
        report = loadgen.run(self._overload(), service)
        assert report.shed > 0, "expected backpressure above capacity"
        assert report.completed + report.shed == report.offered
        for priority, count in report.shed_by_priority.items():
            assert (
                report.counter(f"requests_rejected_priority_{priority}")
                == count
            )
        # The queue bound held the whole run: pending never passed it.
        assert service.scheduler.pending_count <= config.max_pending

    def test_sharded_overload_resolves_every_future(self):
        config = ServiceConfig(batch_size=8, ways_per_width=1, max_pending=8)
        report = loadgen.run(
            self._overload(),
            AsyncShardedFrontend(
                FrontendConfig(shards=2, inline=True, service=config)
            ),
        )
        assert report.shed > 0
        assert report.completed + report.shed == report.offered
        assert report.snapshot["service"]["outstanding_futures"] == 0
        merged = report.snapshot["counters"]
        shed_total = sum(
            count
            for name, count in merged.items()
            if name.startswith("requests_rejected_priority_")
        )
        assert shed_total == report.shed
        assert merged["frontend_admission_errors"] == report.shed

    def test_overload_shedding_is_deterministic(self):
        config = ServiceConfig(batch_size=8, ways_per_width=1, max_pending=8)
        first = loadgen.run(self._overload(), MultiplicationService(config))
        second = loadgen.run(self._overload(), MultiplicationService(config))
        assert first.shed_by_priority == second.shed_by_priority
        assert first.as_dict() == second.as_dict()


class TestOracle:
    """Every answer through every host is checked against the oracle
    of its load item: ``a * b`` for plain traffic, ``x * y % m``,
    ``pow(x, e, m)`` and a naive MSM for crypto traffic."""

    HOSTS = ("service", "frontend", "engine")

    def _case(self, host):
        """(load, host, (class, method, field) that yields results)."""
        if host == "engine":
            load = loadgen.build_crypto_load(12, 20_000)
            assert {e.kind for e in load} == {"modmul", "modexp", "msm"}
            return (
                load,
                CryptoWorkloadEngine(config=SMALL),
                (CryptoWorkloadEngine, "serve_cohort", "value"),
            )
        load = loadgen.build_load("fhe", "poisson", 12, 300, seed=0x0AC)
        served_by = (MultiplicationService, "take_completed", "product")
        if host == "service":
            return load, MultiplicationService(SMALL), served_by
        frontend = AsyncShardedFrontend(
            FrontendConfig(shards=2, inline=True, service=SMALL)
        )
        return load, frontend, served_by

    @pytest.mark.parametrize("host", HOSTS)
    def test_fault_free_run_has_no_mismatch(self, host):
        load, server, _ = self._case(host)
        report = loadgen.run(load, server)
        assert report.completed == report.offered == len(load)
        assert report.mismatched == 0
        assert report.clean

    @pytest.mark.parametrize("host", HOSTS)
    def test_one_corrupted_result_is_counted(self, host, monkeypatch):
        load, server, (cls, method, name) = self._case(host)
        original = getattr(cls, method)
        corrupted = []

        def corrupt_first(self, *args, **kwargs):
            results = original(self, *args, **kwargs)
            if results and not corrupted:
                first = results[0]
                results = [
                    dataclasses.replace(
                        first, **{name: getattr(first, name) + 1}
                    )
                ] + list(results[1:])
                corrupted.append(first.request_id)
            return results

        monkeypatch.setattr(cls, method, corrupt_first)
        report = loadgen.run(load, server)
        assert corrupted
        assert report.completed == report.offered
        assert report.mismatched == 1
        assert report.clean is False
