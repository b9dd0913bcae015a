"""Tests for shard supervision, failover and chaos injection.

Covers the `repro.frontend.supervision` primitives (circuit breaker,
chaos schedules, config validation), the supervisor's failover paths
(kill → respawn → journal redispatch, budget exhaustion → typed
``ShardFailedError``, drop-reply recovery at drain), shutdown
robustness with dead workers, and the ``loadgen.run`` chaos campaign
driver.  Process-mode scenarios (real SIGKILL, heartbeat-detected
hang) run with tightened liveness tunables so the suite stays fast.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.eval import loadgen
from repro.frontend import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AsyncShardedFrontend,
    ChaosConfig,
    CircuitBreaker,
    FrontendConfig,
    ShardFailedError,
    SupervisionConfig,
)
from repro.service import ServiceConfig, ServiceError
from repro.sim.exceptions import DesignError

SMALL = ServiceConfig(batch_size=4, ways_per_width=1, tick_cc=256)

#: Fast liveness tunables for process-mode failure detection tests.
FAST = SupervisionConfig(
    poll_timeout_s=0.02, heartbeat_interval_s=0.1, hang_timeout_s=1.0
)


def _jobs(count, seed=0xF0, n_bits=64):
    rng = random.Random(seed)
    return [
        (rng.getrandbits(n_bits) | 1, rng.getrandbits(n_bits) | 1, n_bits)
        for _ in range(count)
    ]


async def _run(config, jobs, gap_cc=300, kill_shard_at=None):
    """Drive jobs through a frontend, tolerating typed rejections."""
    async with AsyncShardedFrontend(config) as fe:
        futures, rejected, now = [], 0, 0
        for index, (a, b, n_bits) in enumerate(jobs):
            if kill_shard_at is not None and index == kill_shard_at:
                fe.kill_shard(0, reason="test drill")
            try:
                futures.append(await fe.submit(a, b, n_bits, arrival_cc=now))
            except ShardFailedError:
                rejected += 1
            now += gap_cc
        fe.advance_to_cc(now + 100_000)
        await fe.drain()
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        snapshot = await fe.snapshot()
        outstanding = fe.outstanding
        journal = fe.journal_size
    return outcomes, snapshot, outstanding, journal, rejected


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_cc=100)
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure(0)
        breaker.record_failure(0)
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure(0)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allows(50)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_cc=100)
        breaker.record_failure(0)
        breaker.record_success()
        breaker.record_failure(0)
        assert breaker.state == BREAKER_CLOSED

    def test_cooldown_admits_half_open_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_cc=100)
        breaker.record_failure(0)
        assert not breaker.allows(99)
        assert breaker.allows(100)  # cooldown elapsed -> probe
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.transitions == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_cc=10)
        breaker.trip(0)
        breaker.half_open()
        breaker.record_failure(5)
        assert breaker.state == BREAKER_OPEN

    def test_transition_observer(self):
        seen = []
        breaker = CircuitBreaker(on_transition=lambda o, n: seen.append((o, n)))
        breaker.trip(0)
        breaker.half_open()
        assert seen == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
        ]


class TestChaosConfig:
    def test_plan_precedence_kill_wins(self):
        chaos = ChaosConfig(
            kill=((0, 2),), drop_replies=((0, 2), (0, 5)), hang=((1, 2),)
        )
        assert chaos.plan_for(0) == {2: "kill", 5: "drop"}
        assert chaos.plan_for(1) == {2: "hang"}
        assert chaos.plan_for(7) == {}
        assert chaos.events == 4

    def test_seeded_is_reproducible_and_disjoint(self):
        a = ChaosConfig.seeded(7, shards=4, horizon=16, kills=2, drops=3)
        b = ChaosConfig.seeded(7, shards=4, horizon=16, kills=2, drops=3)
        assert a == b
        points = list(a.kill) + list(a.drop_replies)
        assert len(points) == len(set(points)) == 5
        assert ChaosConfig.seeded(8, 4, 16, kills=2, drops=3) != a

    def test_seeded_rejects_overfull_schedule(self):
        with pytest.raises(ValueError, match="do not fit"):
            ChaosConfig.seeded(0, shards=1, horizon=2, kills=3)


class TestSupervisionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisionConfig(poll_timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisionConfig(heartbeat_interval_s=2.0, hang_timeout_s=1.0)
        with pytest.raises(ValueError):
            SupervisionConfig(max_restarts=-1)
        with pytest.raises(ValueError):
            SupervisionConfig(breaker_failure_threshold=0)


class TestInlineFailover:
    def test_kill_respawn_completes_all_journaled_work(self):
        jobs = _jobs(8)
        config = FrontendConfig(
            shards=2,
            inline=True,
            service=SMALL,
            chaos=ChaosConfig(kill=((0, 2),)),
        )
        outcomes, snapshot, outstanding, journal, rejected = asyncio.run(
            _run(config, jobs)
        )
        assert outstanding == 0 and journal == 0 and rejected == 0
        products = {r.request_id: r.product for r in outcomes}
        assert len(products) == len(jobs)
        for rid, (a, b, _n) in enumerate(jobs):
            assert products[rid] == a * b
        counters = snapshot["counters"]
        assert counters["frontend_shard_deaths"] == 1
        assert counters["frontend_shard_restarts"] == 1
        assert counters["frontend_redispatches"] >= 1
        sup = snapshot["supervision"]
        assert sup["restarts"] == [1, 0]
        assert sup["alive"] == [True, True]

    def test_breaker_cycles_through_failover(self):
        config = FrontendConfig(
            shards=2,
            inline=True,
            service=SMALL,
            chaos=ChaosConfig(kill=((0, 1),)),
        )
        _o, snapshot, _out, _j, _rej = asyncio.run(_run(config, _jobs(8)))
        transitions = snapshot["supervision"]["breaker_transitions"][0]
        assert (BREAKER_CLOSED, BREAKER_OPEN) in transitions
        assert (BREAKER_OPEN, BREAKER_HALF_OPEN) in transitions
        assert (BREAKER_HALF_OPEN, BREAKER_CLOSED) in transitions
        assert snapshot["supervision"]["breakers"] == ["closed", "closed"]

    def test_budget_exhaustion_fails_typed_never_hangs(self):
        """Sole shard dies with no restart budget: journaled futures
        fail with ShardFailedError, later submits are rejected."""
        config = FrontendConfig(
            shards=1,
            inline=True,
            service=SMALL,
            supervision=SupervisionConfig(max_restarts=0, retry_budget=1),
            chaos=ChaosConfig(kill=((0, 2),)),
        )
        outcomes, snapshot, outstanding, journal, rejected = asyncio.run(
            _run(config, _jobs(4))
        )
        assert outstanding == 0 and journal == 0
        assert rejected == 1  # the post-death admission
        assert len(outcomes) == 3
        assert all(isinstance(o, ShardFailedError) for o in outcomes)
        assert snapshot["supervision"]["alive"] == [False]
        assert snapshot["counters"]["frontend_requests_failed"] == 3

    def test_shard_failed_error_is_a_service_error(self):
        assert issubclass(ShardFailedError, ServiceError)

    def test_dropped_replies_recovered_at_drain(self):
        jobs = _jobs(8)
        config = FrontendConfig(
            shards=2,
            inline=True,
            service=SMALL,
            # Seq 3 = 4th submit = full-batch flush on both shards.
            chaos=ChaosConfig(drop_replies=((0, 3), (1, 3))),
        )
        outcomes, snapshot, outstanding, journal, _rej = asyncio.run(
            _run(config, jobs)
        )
        assert outstanding == 0 and journal == 0
        products = {r.request_id: r.product for r in outcomes}
        for rid, (a, b, _n) in enumerate(jobs):
            assert products[rid] == a * b
        assert snapshot["counters"]["frontend_redispatches"] >= 8
        assert snapshot["counters"].get("frontend_shard_deaths", 0) == 0

    def test_kill_shard_drill_on_inline_host(self):
        jobs = _jobs(8)
        config = FrontendConfig(shards=2, inline=True, service=SMALL)
        outcomes, snapshot, outstanding, journal, rejected = asyncio.run(
            _run(config, jobs, kill_shard_at=4)
        )
        assert outstanding == 0 and journal == 0 and rejected == 0
        assert len(outcomes) == len(jobs)
        assert snapshot["counters"]["frontend_shard_deaths"] == 1
        assert snapshot["counters"]["frontend_shard_restarts"] == 1

    def test_supervision_disabled_fails_fast(self):
        """enabled=False restores unsupervised semantics: a shard
        death fails its journaled work immediately (no respawn)."""
        config = FrontendConfig(
            shards=2,
            inline=True,
            service=SMALL,
            supervision=SupervisionConfig(enabled=False),
            chaos=ChaosConfig(kill=((0, 1),)),
        )
        outcomes, snapshot, outstanding, _j, _rej = asyncio.run(
            _run(config, _jobs(8))
        )
        assert outstanding == 0
        assert snapshot["counters"].get("frontend_shard_restarts", 0) == 0
        assert any(isinstance(o, ShardFailedError) for o in outcomes)


class TestProcessFailover:
    def test_worker_kill_detected_by_dead_man_poll(self):
        jobs = _jobs(8)
        config = FrontendConfig(
            shards=2,
            inline=False,
            service=SMALL,
            supervision=FAST,
            chaos=ChaosConfig(kill=((0, 2),)),
        )
        outcomes, snapshot, outstanding, journal, _rej = asyncio.run(
            _run(config, jobs)
        )
        assert outstanding == 0 and journal == 0
        products = {r.request_id: r.product for r in outcomes}
        for rid, (a, b, _n) in enumerate(jobs):
            assert products[rid] == a * b
        assert snapshot["counters"]["frontend_shard_deaths"] == 1
        assert snapshot["counters"]["frontend_shard_restarts"] == 1

    def test_hung_worker_detected_by_heartbeat(self):
        jobs = _jobs(8)
        config = FrontendConfig(
            shards=2,
            inline=False,
            service=SMALL,
            supervision=FAST,
            chaos=ChaosConfig(hang=((1, 2),)),
        )
        outcomes, snapshot, outstanding, journal, _rej = asyncio.run(
            _run(config, jobs)
        )
        assert outstanding == 0 and journal == 0
        assert len(outcomes) == len(jobs)
        assert snapshot["counters"]["frontend_shard_deaths"] == 1
        assert snapshot["supervision"]["restarts"][1] == 1

    def test_external_sigkill_mid_batch(self):
        jobs = _jobs(8)
        config = FrontendConfig(
            shards=2, inline=False, service=SMALL, supervision=FAST
        )
        outcomes, snapshot, outstanding, journal, _rej = asyncio.run(
            _run(config, jobs, kill_shard_at=5)
        )
        assert outstanding == 0 and journal == 0
        products = {
            r.request_id: r.product
            for r in outcomes
            if not isinstance(r, Exception)
        }
        for rid, (a, b, _n) in enumerate(jobs):
            if rid in products:
                assert products[rid] == a * b
        assert len(products) == len(jobs)  # journaled work completed
        assert snapshot["counters"]["frontend_shard_deaths"] == 1

    def test_close_with_dead_shard_does_not_hang(self):
        """Satellite: close() must bound its wait for stop acks a dead
        worker will never send."""

        async def run():
            config = FrontendConfig(
                shards=2,
                inline=False,
                service=SMALL,
                supervision=SupervisionConfig(
                    poll_timeout_s=0.02,
                    heartbeat_interval_s=0.1,
                    hang_timeout_s=1.0,
                    max_restarts=0,
                    stop_timeout_s=1.0,
                ),
            )
            fe = AsyncShardedFrontend(config)
            await fe.start()
            future = await fe.submit(3, 5, 64, arrival_cc=0)
            fe._shards[0].process.kill()
            fe._shards[1].process.kill()
            await asyncio.wait_for(fe.close(), timeout=30.0)
            assert future.done()

        asyncio.run(run())


class TestRunChaos:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(DesignError, match="unknown chaos scenario"):
            loadgen.chaos_scenario("meteor", 2, 8, 4)

    def test_campaign_driver_reports_clean_kill(self):
        load = loadgen.build_load("fhe", "poisson", 16, 300, seed=0x10AD)
        chaos, sigkill_after = loadgen.chaos_scenario("kill", 2, 16, 4)
        report = loadgen.run(
            load,
            AsyncShardedFrontend(
                FrontendConfig(
                    shards=2, inline=True, service=SMALL, chaos=chaos
                )
            ),
            sigkill_after=sigkill_after,
        )
        assert report.clean
        assert report.completed == report.offered == 16
        assert report.counter("frontend_shard_deaths") == 1
        assert report.counter("frontend_shard_restarts") == 1
        assert report.terminal == report.offered
        payload = report.as_dict()
        assert payload["clean"] is True and payload["terminal"] == 16

    def test_control_scenario_is_fault_free(self):
        load = loadgen.build_load("fhe", "poisson", 8, 300, seed=0x10AD)
        chaos, sigkill_after = loadgen.chaos_scenario("none", 2, 8, 4)
        assert chaos is None and sigkill_after is None
        report = loadgen.run(
            load,
            AsyncShardedFrontend(
                FrontendConfig(shards=2, inline=True, service=SMALL)
            ),
        )
        assert report.clean and report.counter("frontend_shard_deaths") == 0
        assert report.counter("frontend_redispatches") == 0
        assert report.counter("frontend_orphan_results") == 0
