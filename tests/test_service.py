"""Tests for the `repro.service` multiplication service layer."""

from __future__ import annotations

import random

import pytest

from repro.crossbar.array import FAULT_STUCK_AT_0, FAULT_STUCK_AT_1
from repro.service import (
    AdmissionError,
    MulRequest,
    MultiplicationService,
    NoHealthyWayError,
    QueueFullError,
    ServiceConfig,
)
from repro.service.cache import LRUCache, OperandCache, ProgramCache
from repro.service.degrade import (
    DegradeController,
    EndurancePolicy,
    make_wear_aware_ranker,
)
from repro.telemetry.registry import Histogram, TelemetryRegistry
from repro.service.scheduler import BinningScheduler
from repro.service.workers import BankDispatcher

from tests.conftest import random_operand


def _request(rid, a, b, n_bits=64, priority=0, deadline_cc=None):
    return MulRequest(
        request_id=rid, a=a, b=b, n_bits=n_bits,
        priority=priority, deadline_cc=deadline_cc,
    )


class TestRequests:
    def test_width_validation(self):
        with pytest.raises(AdmissionError):
            _request(0, 1, 1, n_bits=12)
        with pytest.raises(AdmissionError):
            _request(0, 1, 1, n_bits=30)

    def test_operand_range_validation(self):
        with pytest.raises(AdmissionError):
            _request(0, -1, 1)
        with pytest.raises(AdmissionError):
            _request(0, 1 << 64, 1)

    def test_negative_deadline_rejected(self):
        with pytest.raises(AdmissionError):
            _request(0, 1, 1, deadline_cc=-5)


class TestScheduler:
    def test_full_bin_flushes(self):
        sched = BinningScheduler(batch_size=4, max_wait_ticks=100)
        flushes = []
        for i in range(4):
            flushes += sched.submit(_request(i, i, i + 1))
        assert len(flushes) == 1
        assert flushes[0].reason == "full"
        assert flushes[0].occupancy == 4
        assert sched.pending_count == 0

    def test_widths_bin_separately(self):
        sched = BinningScheduler(batch_size=2, max_wait_ticks=100)
        sched.submit(_request(0, 1, 1, n_bits=64))
        flushes = sched.submit(_request(1, 1, 1, n_bits=128))
        assert flushes == []
        assert sched.queue_depths() == {(64, 2): 1, (128, 2): 1}
        flushes = sched.submit(_request(2, 2, 2, n_bits=64))
        assert len(flushes) == 1
        assert flushes[0].n_bits == 64

    def test_timeout_flush(self):
        sched = BinningScheduler(batch_size=8, max_wait_ticks=3)
        sched.submit(_request(0, 1, 1))  # bin created at tick 1
        assert sched.submit(_request(1, 1, 1, n_bits=128)) == []
        assert sched.pump() == []  # tick 3: first bin aged 2 < 3
        flushes = sched.pump()  # tick 4: first bin ages out
        assert [f.reason for f in flushes] == ["timeout"]
        assert flushes[0].n_bits == 64

    def test_priority_order_within_flush(self):
        sched = BinningScheduler(batch_size=3, max_wait_ticks=100)
        sched.submit(_request(0, 1, 1, priority=0))
        sched.submit(_request(1, 1, 1, priority=5))
        flushes = sched.submit(_request(2, 1, 1, priority=5))
        ids = [p.request.request_id for p in flushes[0].pending]
        assert ids == [1, 2, 0]  # priority desc, FIFO among ties

    def test_backpressure(self):
        sched = BinningScheduler(batch_size=2, max_pending=2, max_wait_ticks=100)
        sched.submit(_request(0, 1, 1, n_bits=64))
        sched.submit(_request(1, 1, 1, n_bits=128))
        with pytest.raises(QueueFullError):
            sched.submit(_request(2, 1, 1, n_bits=256))

    def test_drain_flushes_everything(self):
        sched = BinningScheduler(batch_size=8, max_wait_ticks=100)
        for i, width in enumerate([64, 64, 128]):
            sched.submit(_request(i, 1, 1, n_bits=width))
        flushes = sched.drain()
        assert sched.pending_count == 0
        assert sorted(f.occupancy for f in flushes) == [1, 2]
        assert {f.reason for f in flushes} == {"drain"}


class TestCaches:
    def test_lru_eviction_and_stats(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: b is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 1

    def test_operand_cache_commutative(self):
        cache = OperandCache(8)
        cache.store(3, 5, 64, 15)
        assert cache.lookup(5, 3, 64) == 15
        assert cache.lookup(3, 5, 32) is None  # width is part of the key
        # The swapped-operand lookup counts as a hit: 1 hit / 2 lookups.
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_program_cache_keys_by_variant(self):
        cache = ProgramCache(4)
        first = cache.get_or_build(64, lambda: object(), variant="pipeline.0")
        again = cache.get_or_build(64, lambda: object(), variant="pipeline.0")
        other = cache.get_or_build(64, lambda: object(), variant="pipeline.1")
        assert first is again
        assert first is not other
        assert cache.stats.hits == 1


class TestMetrics:
    def test_histogram_buckets(self):
        hist = Histogram("h", bounds=(1, 4, 16))
        for value in (0, 1, 3, 20, 100):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"] == {"<=1": 2, "<=4": 1, "<=16": 0, "+inf": 2}
        assert snap["count"] == 5
        assert snap["max"] == 100

    def test_registry_snapshot_plain_dict(self):
        registry = TelemetryRegistry()
        registry.counter("a").inc(3)
        registry.histogram("h", (1, 2)).observe(1)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 3}
        assert snap["histograms"]["h"]["count"] == 1

    def test_counters_only_increase(self):
        with pytest.raises(ValueError):
            TelemetryRegistry().counter("a").inc(-1)

    def test_snapshot_schema_stable_with_kind_counters(self):
        """Per-kind workload counters are additive: they appear inside
        ``counters`` without changing the snapshot's top-level schema."""
        registry = TelemetryRegistry()
        registry.counter("requests_admitted").inc()
        registry.counter("requests_kind_modmul").inc(2)
        registry.counter("requests_kind_msm").inc()
        snap = registry.snapshot()
        assert set(snap) == {"counters", "histograms"}
        assert snap["counters"]["requests_kind_modmul"] == 2
        assert snap["counters"]["requests_kind_msm"] == 1


class TestProvenanceDefaults:
    """Plain traffic is untouched by the workload-kind provenance."""

    def test_request_defaults_to_plain_mul(self):
        request = _request(0, 3, 4)
        assert request.kind == "mul"
        assert request.modulus_bits is None

    def test_result_carries_kind_through_service(self):
        service = MultiplicationService(ServiceConfig(batch_size=2))
        plain_id = service.submit(6, 7, 64)
        tagged_id = service.submit(
            6, 7, 64, kind="modmul", modulus_bits=16
        )
        by_id = {r.request_id: r for r in service.drain()}
        plain, tagged = by_id[plain_id], by_id[tagged_id]
        assert plain.product == tagged.product == 42
        assert (plain.kind, plain.modulus_bits) == ("mul", None)
        assert (tagged.kind, tagged.modulus_bits) == ("modmul", 16)
        counters = service.snapshot()["counters"]
        assert counters["requests_kind_modmul"] == 1


class TestWorkers:
    def test_least_loaded_selection_rotates(self):
        dispatcher = BankDispatcher(ways_per_width=2)
        first = dispatcher.dispatch(64, [(3, 5)])
        second = dispatcher.dispatch(64, [(7, 9)])
        assert first.products == [15]
        assert second.products == [63]
        # The second batch must land on the idle way.
        assert first.way_id != second.way_id

    def test_makespan_is_busiest_way(self):
        dispatcher = BankDispatcher(ways_per_width=2)
        dispatcher.dispatch(64, [(1, 1)] * 4)
        dispatcher.dispatch(64, [(1, 1)] * 2)
        ways = {w.way_id: w.busy_cc for w in dispatcher.pool(64)}
        assert dispatcher.makespan_cc() == max(ways.values())

    def test_quarantine_excludes_and_evicts(self):
        dispatcher = BankDispatcher(ways_per_width=2)
        way = dispatcher.pool(64)[0]
        dispatcher.quarantine(way, "test")
        assert not way.healthy
        assert all(
            w.way_id != way.way_id for w in dispatcher.healthy_ways(64)
        )
        report = dispatcher.dispatch(64, [(2, 3)])
        assert report.way_id != way.way_id

    def test_no_healthy_way_raises(self):
        dispatcher = BankDispatcher(ways_per_width=1)
        dispatcher.quarantine(dispatcher.pool(64)[0], "test")
        with pytest.raises(NoHealthyWayError):
            dispatcher.dispatch(64, [(1, 1)])


class TestDegrade:
    def test_oracle_catches_corrupt_products(self):
        """With audit on, a lying way is quarantined and retried."""

        class LyingDispatcher(BankDispatcher):
            def run_on(self, way, pairs, request_ids=()):
                report = super().run_on(way, pairs, request_ids=request_ids)
                if way.way_id.endswith(".0"):
                    wrong = [p + 1 for p in report.products]
                    return type(report)(
                        way_id=report.way_id,
                        n_bits=report.n_bits,
                        products=wrong,
                        makespan_cc=report.makespan_cc,
                        timing=report.timing,
                    )
                return report

        dispatcher = LyingDispatcher(ways_per_width=2)
        controller = DegradeController(
            dispatcher, max_retries=2, oracle_audit=True
        )
        recovery = controller.execute(64, [(3, 5), (7, 7)])
        assert recovery.report.products == [15, 49]
        assert recovery.retries == 1
        assert recovery.detections == 1
        assert recovery.faulty_ways == ("w64.0",)
        assert dispatcher.pool(64)[0].retired_reason == "audit: corrupted product"

    def test_oracle_audit_off_by_default(self):
        """Without the opt-in audit, in-band checks are the detection
        path; a product corrupted outside the datapath goes unaudited
        (which is why the stages carry their own residue checks)."""

        class LyingDispatcher(BankDispatcher):
            def run_on(self, way, pairs, request_ids=()):
                report = super().run_on(way, pairs, request_ids=request_ids)
                wrong = [p + 1 for p in report.products]
                return type(report)(
                    way_id=report.way_id,
                    n_bits=report.n_bits,
                    products=wrong,
                    makespan_cc=report.makespan_cc,
                    timing=report.timing,
                )

        dispatcher = LyingDispatcher(ways_per_width=1)
        controller = DegradeController(dispatcher, max_retries=2)
        recovery = controller.execute(64, [(3, 5)])
        assert recovery.report.products == [16]
        assert recovery.detections == 0
        assert recovery.retries == 0

    def test_endurance_retirement_degrades_pool(self):
        dispatcher = BankDispatcher(ways_per_width=2)
        # Budget of 1 write: both ways exhaust after their first batch,
        # but the policy must keep the last healthy way in service.
        controller = DegradeController(
            dispatcher, policy=EndurancePolicy(write_budget=1)
        )
        controller.execute(64, [(3, 5)])
        controller.execute(64, [(5, 7)])
        healthy = dispatcher.healthy_ways(64)
        assert len(healthy) == 1
        retired = [w for w in dispatcher.pool(64) if not w.healthy]
        assert retired[0].retired_reason == "endurance budget exhausted"

    def test_wear_aware_ranker_prefers_less_worn(self):
        dispatcher = BankDispatcher(ways_per_width=2)
        policy = EndurancePolicy(write_budget=10**9)
        ranker = make_wear_aware_ranker(policy)
        a, b = dispatcher.pool(64)
        a.busy_cc = b.busy_cc = 0
        dispatcher.run_on(a, [(3, 5)])  # wear a
        a.busy_cc = 0  # equalise load: wear must break the tie
        assert min([a, b], key=ranker) is b

    @pytest.mark.parametrize("ways", (1, 2, 3))
    def test_wear_is_read_only_to_break_ties(self, ways, monkeypatch):
        """A flush reads a way's hottest cell
        (``PipelineController.max_writes``) in the ranker only for a way
        that ties another on ``busy_cc``, at most once, and at
        retirement once per healthy way it visits, none while one
        healthy way remains.  The chosen ways and the retirements equal
        the eager ranking's."""
        from repro.karatsuba.controller import PipelineController

        reads = []
        max_writes = PipelineController.max_writes

        def spy(controller):
            reads.append(controller)
            return max_writes(controller)

        def eager(way):
            return (way.busy_cc, max_writes(way.pipeline.controller), way.way_id)

        monkeypatch.setattr(PipelineController, "max_writes", spy)
        dispatcher = BankDispatcher(ways_per_width=ways)
        run_on = dispatcher.run_on

        def marked_run_on(way, pairs, request_ids=()):
            reads.append("batch")
            return run_on(way, pairs, request_ids=request_ids)

        dispatcher.run_on = marked_run_on
        # A budget the first batch on a way exhausts: retirement starts
        # once a second way has run.
        controller = DegradeController(
            dispatcher, policy=EndurancePolicy(write_budget=1)
        )
        rng = random.Random(ways)
        for flush in range(2 * ways + 2):
            healthy = dispatcher.healthy_ways(64)
            if flush == ways:
                for way in healthy:
                    way.busy_cc = 0  # a tie across every healthy way
            expected = min(healthy, key=eager)
            exhausted = {
                way.way_id for way in healthy
                if way is expected or max_writes(way.pipeline.controller)
            }
            # The eager retirement loop, and the ways it visits.
            retired, visited, left = [], 0, len(healthy)
            for way in healthy:
                if left <= 1:
                    break
                visited += 1
                if way.way_id in exhausted:
                    retired.append(way.way_id)
                    left -= 1
            busy = [way.busy_cc for way in healthy]
            tied = [
                way.pipeline.controller
                for way in healthy if busy.count(way.busy_cc) > 1
            ]
            del reads[:]
            recovery = controller.execute(
                64, [(rng.getrandbits(64), rng.getrandbits(64))]
            )
            assert recovery.report.way_id == expected.way_id
            assert recovery.retired_ways == tuple(retired)
            ranked = reads[: reads.index("batch")]
            assert len(set(map(id, ranked))) == len(ranked)
            assert all(any(c is t for t in tied) for c in ranked)
            if len(healthy) > 1 and len(set(busy)) == 1:
                assert len(ranked) == len(healthy)
            assert len(reads) - len(ranked) - 1 == visited


class TestServiceFacade:
    def test_cache_hit_short_circuits(self):
        service = MultiplicationService(
            ServiceConfig(batch_size=2, ways_per_width=1)
        )
        service.submit(3, 5, 64)
        service.submit(7, 9, 64)  # fills the batch, executes
        service.submit(5, 3, 64)  # commutative repeat -> cache
        results = service.drain()
        by_id = {r.request_id: r for r in results}
        assert by_id[2].cache_hit
        assert by_id[2].way == "cache"
        assert by_id[2].product == 15
        assert service.snapshot()["counters"]["operand_cache_hits"] == 1

    def test_rejected_requests_are_counted_not_queued(self):
        service = MultiplicationService(
            ServiceConfig(batch_size=2, max_pending=2, max_wait_ticks=1000)
        )
        service.submit(1, 1, 64)
        service.submit(1, 1, 128)
        with pytest.raises(QueueFullError):
            service.submit(1, 1, 256)
        snap = service.snapshot()
        assert snap["counters"]["requests_rejected"] == 1
        assert snap["service"]["pending"] == 2

    def test_deadline_accounting(self):
        service = MultiplicationService(
            ServiceConfig(batch_size=2, ways_per_width=1, tick_cc=100)
        )
        estimate = service.min_latency_estimate_cc(64)
        deadline = estimate + 1500
        # Six same-instant arrivals, one way: the first full batch
        # meets the (feasible) deadline, the queued batches behind it
        # complete too late — a genuine miss from way contention, not
        # from admission letting an impossible budget through.
        for value in range(6):
            service.submit(value + 3, 7, 64, deadline_cc=deadline, arrival_cc=0)
        results = service.drain()
        assert results[0].deadline_met is True
        assert results[1].deadline_met is True
        assert results[-1].deadline_met is False
        counters = service.snapshot()["counters"]
        assert counters["deadlines_met"] >= 2
        assert counters["deadlines_missed"] >= 2
        assert (
            counters["deadlines_met"] + counters["deadlines_missed"] == 6
        )

    def test_impossible_deadline_rejected_at_admission(self):
        from repro.service import DeadlineImpossibleError

        service = MultiplicationService(
            ServiceConfig(batch_size=1, ways_per_width=1)
        )
        with pytest.raises(DeadlineImpossibleError):
            service.submit(5, 7, 64, deadline_cc=1)
        counters = service.snapshot()["counters"]
        assert counters["requests_rejected_deadline"] == 1
        # Nothing was enqueued and nothing ever completes.
        assert service.snapshot()["service"]["pending"] == 0
        assert service.drain() == []

    def test_deadline_tightens_bin_flush(self):
        # A request whose slack is below max_wait_ticks must pull its
        # bin's flush forward instead of waiting the full age-out.
        service = MultiplicationService(
            ServiceConfig(
                batch_size=8, ways_per_width=1,
                max_wait_ticks=1000, tick_cc=100,
            )
        )
        estimate = service.min_latency_estimate_cc(64)
        service.submit(3, 5, 64, arrival_cc=0, deadline_cc=estimate + 500)
        # Advance well short of the 1000-tick age-out but past the
        # deadline-derived residence (500 cc = 5 ticks).
        service.advance_to_cc(10_000)
        results = service.take_completed()
        assert len(results) == 1
        assert results[0].deadline_met is True
        counters = service.snapshot()["counters"]
        assert counters.get("flush_reason_deadline", 0) == 1

    def test_priority_served_first_from_full_bin(self):
        service = MultiplicationService(
            ServiceConfig(batch_size=2, ways_per_width=1, max_wait_ticks=1000)
        )
        service.submit(2, 3, 64, priority=0)
        service.submit(4, 5, 64, priority=0)
        results = {r.request_id: r for r in service.drain()}
        assert results[0].product == 6
        assert results[1].product == 20


class TestSharedAdderPrograms:
    """A fresh service reuses the adder programs an earlier one packed."""

    @staticmethod
    def _serve(pairs):
        service = MultiplicationService()
        for a, b in pairs:
            service.submit(a, b, 256)
        results = service.drain()
        ways = service.dispatcher.all_ways()
        snapshot = service.snapshot()
        return {
            "products": [r.product for r in results],
            "latency_cc": [r.latency_cc for r in results],
            "energy_fj": sum(
                w.pipeline.controller.total_energy_fj() for w in ways
            ),
            "max_writes": max(w.max_writes() for w in ways),
            "optimizer": snapshot["optimizer"],
            "cycles_saved": snapshot["counters"]["optimizer_cycles_saved"],
        }

    def test_second_service_packs_nothing(self, rng, monkeypatch):
        import repro.magic.passes as passes_mod

        pairs = [
            (random_operand(rng, 256), random_operand(rng, 256))
            for _ in range(4)
        ]
        first = self._serve(pairs)
        calls = []
        optimize = passes_mod.optimize_program

        def counting(*args, **kwargs):
            calls.append(args)
            return optimize(*args, **kwargs)

        monkeypatch.setattr(passes_mod, "optimize_program", counting)
        second = self._serve(pairs)
        assert calls == []
        assert first["products"] == [a * b for a, b in pairs]
        assert second == first
        assert first["optimizer"]["enabled"] is True
        assert first["cycles_saved"] > 0


class TestServiceEndToEnd:
    """The ISSUE acceptance scenario: 200 mixed-width requests."""

    WIDTHS = (16, 32, 64)

    def test_mixed_width_stream_with_fault_recovery(self, rng):
        service = MultiplicationService(
            ServiceConfig(
                batch_size=8,
                ways_per_width=2,
                max_wait_ticks=32,
                max_pending=512,
            )
        )
        # One sa1 fault in a 64-bit way: silently corrupts chunk sums,
        # caught by the stage's residue self-check and repaired in
        # place — the defective row is remapped onto a spare word line
        # and the batch replays on the same way.
        faulted = service.inject_fault(
            64, way_index=0, kind=FAULT_STUCK_AT_1
        )

        expected = {}
        operands = {}
        for index in range(200):
            n_bits = self.WIDTHS[index % len(self.WIDTHS)]
            if index % 10 == 9 and operands:
                # Every tenth request repeats an earlier pair: the
                # operand cache must convert these into hits.
                a, b, n_bits = operands[rng.randrange(index // 2)]
            else:
                a = random_operand(rng, n_bits)
                b = random_operand(rng, n_bits)
            operands[index] = (a, b, n_bits)
            request_id = service.submit(a, b, n_bits)
            expected[request_id] = a * b

        results = service.drain()

        # Bit-exact against the pure-Python oracle, nothing dropped.
        assert len(results) == 200
        assert [r.request_id for r in results] == sorted(expected)
        for result in results:
            assert result.product == expected[result.request_id]

        snapshot = service.snapshot()
        # Batching actually happened (occupancy > 1 on average).
        occupancy = snapshot["histograms"]["batch_occupancy"]
        assert occupancy["mean"] > 1
        # Repeated operands hit the cache.
        assert snapshot["counters"]["operand_cache_hits"] > 0
        assert snapshot["caches"]["operand"]["hits"] > 0
        # The injected fault was detected in-band and repaired in
        # place: the defective row moved to a spare, the batch replayed
        # on the same way, and no healthy way was quarantined.
        assert snapshot["counters"]["faults_detected"] >= 1
        assert snapshot["counters"]["rows_remapped"] >= 1
        assert snapshot["counters"]["inplace_replays"] >= 1
        assert snapshot["counters"].get("fault_retries", 0) == 0
        faulted_way = next(
            w for w in service.dispatcher.pool(64) if w.way_id == faulted
        )
        assert faulted_way.healthy
        reliability = snapshot["reliability"][faulted]
        assert reliability["remap"].get("precompute")
        assert reliability["spare_rows_free"] < 2 * 2  # one spare spent
        # Program/compile caches saw real traffic.
        assert snapshot["caches"]["compile"]["hits"] > 0
        # Service-level throughput aggregates are consistent.
        assert snapshot["service"]["jobs_completed"] + snapshot[
            "counters"
        ]["operand_cache_hits"] == 200
        assert snapshot["service"]["makespan_cc"] > 0

    def test_scalar_oracle_equivalence_small_stream(self, rng):
        """Service products == direct pipeline products for one width."""
        from repro.karatsuba.pipeline import KaratsubaPipeline

        pairs = [
            (random_operand(rng, 32), random_operand(rng, 32))
            for _ in range(6)
        ]
        service = MultiplicationService(
            ServiceConfig(batch_size=4, ways_per_width=1)
        )
        for a, b in pairs:
            service.submit(a, b, 32)
        service_products = [r.product for r in service.drain()]
        direct = KaratsubaPipeline(32, backend="scalar").run_stream(
            pairs, batch_size=1
        )
        assert service_products == direct.products
