"""Tests of the ``repro.workloads`` crypto serving subsystem."""

from __future__ import annotations

import asyncio

import pytest

from repro.crypto import BarrettReducer, MontgomeryMultiplier
from repro.crypto.ec import TINY_CURVE, CimEllipticCurve
from repro.crypto.modmul import choose_strategy
from repro.crypto.msm import naive_msm, pippenger_msm
from repro.frontend import AsyncShardedFrontend, ChaosConfig, FrontendConfig
from repro.service import (
    AdmissionError,
    DeadlineImpossibleError,
    ServiceConfig,
)
from repro.telemetry import Tracer, tracing
from repro.telemetry.registry import TelemetryRegistry
from repro.workloads import (
    CryptoWorkloadEngine,
    ModExpRequest,
    ModMulRequest,
    ModulusContext,
    ModulusContextCache,
    MsmRequest,
    TaskMeta,
    WavePlan,
    WaveSelfCheckError,
    WorkloadError,
    estimate_cost_cc,
)

#: One modulus per reduction strategy (choose_strategy picks these).
SPARSE_M = 65521
MONTGOMERY_M = 65195
BARRETT_M = 64854


def _tiny_points(count):
    curve = CimEllipticCurve(TINY_CURVE)
    g = curve.generator()
    points = [g]
    while len(points) < count:
        points.append(curve.add(points[-1], g))
    return points


# ----------------------------------------------------------------------
# Modulus contexts
# ----------------------------------------------------------------------
class TestModulusContext:
    def test_strategy_selection_mirrors_choose_strategy(self):
        for modulus in (97, SPARSE_M, MONTGOMERY_M, BARRETT_M, 12289):
            assert ModulusContext(modulus).strategy == choose_strategy(
                modulus
            )

    def test_montgomery_constants_match_reference_engine(self):
        ctx = ModulusContext(MONTGOMERY_M)
        ref = MontgomeryMultiplier(MONTGOMERY_M)
        assert ctx.strategy == "montgomery"
        assert ctx.width == ref.r_bits
        assert ctx.m_prime == ref.m_prime
        assert ctx.r2_mod_m == ref.r2_mod_m

    def test_barrett_constants_match_reference_engine(self):
        ctx = ModulusContext(BARRETT_M)
        ref = BarrettReducer(BARRETT_M)
        assert ctx.strategy == "barrett"
        assert ctx.width == ref.width
        assert ctx.mu == ref.mu

    def test_montgomery_requires_odd_modulus(self):
        with pytest.raises(AdmissionError):
            ModulusContext(65196, strategy="montgomery")

    def test_modmul_plan_equivalence_host_driven(self):
        # Drive each plan with host products: the reduced value must
        # match plain modular arithmetic for every strategy.
        for modulus in (SPARSE_M, MONTGOMERY_M, BARRETT_M):
            ctx = ModulusContext(modulus)
            x, y = 31415, 27182
            plan = ctx.modmul_plan(x % modulus, y % modulus)
            job = next(plan)
            while True:
                try:
                    job = plan.send(job[0] * job[1])
                except StopIteration as stop:
                    assert stop.value == (x * y) % modulus, ctx.strategy
                    break

    def test_modexp_passes_is_exact(self):
        for modulus in (SPARSE_M, MONTGOMERY_M, BARRETT_M):
            ctx = ModulusContext(modulus)
            exponent = 0b10110
            plan = ctx.modexp_plan(7, exponent)
            jobs = 0
            job = next(plan)
            while True:
                jobs += 1
                try:
                    job = plan.send(job[0] * job[1])
                except StopIteration as stop:
                    assert stop.value == pow(7, exponent, modulus)
                    break
            assert jobs == ctx.modexp_passes(exponent), ctx.strategy

    def test_cache_hits_and_keying(self):
        cache = ModulusContextCache(capacity=2)
        first = cache.get(SPARSE_M)
        assert cache.get(SPARSE_M) is first
        assert cache.stats.hits == 1
        # An explicit strategy is a distinct cache entry.
        forced = cache.get(SPARSE_M, strategy="barrett")
        assert forced is not first
        assert forced.strategy == "barrett"
        cache.get(MONTGOMERY_M)  # evicts the LRU entry
        assert cache.stats.evictions == 1
        assert len(cache) == 2


# ----------------------------------------------------------------------
# Wave plans
# ----------------------------------------------------------------------
class TestWavePlan:
    def test_frontier_advances_and_results(self):
        ctx = ModulusContext(MONTGOMERY_M)
        tasks = [
            (ctx.modmul_plan(3, 5), TaskMeta(n_bits=ctx.width)),
            (ctx.modmul_plan(7, 11), TaskMeta(n_bits=ctx.width)),
        ]
        plan = WavePlan(tasks)
        waves = 0
        while not plan.done:
            jobs = plan.pending_jobs()
            assert jobs, "live plan with no frontier"
            products = {i: a * b for i, a, b in jobs}
            plan.deliver(products, completed_cc=100 * (waves + 1))
            waves += 1
        assert plan.results[0] == (3 * 5) % MONTGOMERY_M
        assert plan.results[1] == (7 * 11) % MONTGOMERY_M
        assert waves == ctx.modmul_passes  # both plans advance together
        assert plan.jobs_per_task[0] == ctx.modmul_passes
        assert plan.residue_checks == plan.jobs_submitted

    def test_tampered_product_raises_self_check(self):
        ctx = ModulusContext(SPARSE_M)
        plan = WavePlan([(ctx.modmul_plan(3, 5), TaskMeta())])
        (index, a, b) = plan.pending_jobs()[0]
        with pytest.raises(WaveSelfCheckError):
            plan.deliver({index: a * b + 1})

    def test_missing_delivery_raises(self):
        ctx = ModulusContext(SPARSE_M)
        plan = WavePlan([(ctx.modmul_plan(3, 5), TaskMeta())])
        with pytest.raises(WaveSelfCheckError):
            plan.deliver({})

    def test_plan_returning_without_yield_completes_at_priming(self):
        def immediate():
            return 42
            yield  # pragma: no cover - makes this a generator

        plan = WavePlan([(immediate(), TaskMeta())])
        assert plan.done
        assert plan.results[0] == 42


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class TestEngine:
    @pytest.mark.parametrize(
        "modulus", [SPARSE_M, MONTGOMERY_M, BARRETT_M]
    )
    def test_modmul_matches_pow(self, modulus):
        engine = CryptoWorkloadEngine(config=ServiceConfig(batch_size=4))
        result = engine.serve_modmul(
            ModMulRequest(request_id=1, x=12345, y=54321, modulus=modulus)
        )
        assert result.value == (12345 * 54321) % modulus
        assert result.kind == "modmul"
        assert result.strategy == choose_strategy(modulus)
        assert result.multiplier_passes == result.residue_checks > 0

    def test_modexp_matches_pow(self):
        engine = CryptoWorkloadEngine(config=ServiceConfig(batch_size=4))
        result = engine.serve_modexp(
            ModExpRequest(
                request_id=2, base=9, exponent=23, modulus=MONTGOMERY_M
            )
        )
        assert result.value == pow(9, 23, MONTGOMERY_M)
        assert result.kind == "modexp"

    def test_cohort_packs_same_width_and_hits_contexts(self):
        engine = CryptoWorkloadEngine(config=ServiceConfig(batch_size=8))
        requests = [
            ModMulRequest(request_id=i, x=100 + i, y=200 + i, modulus=SPARSE_M)
            for i in range(4)
        ]
        results = engine.serve_cohort(requests)
        for i, result in enumerate(results):
            assert result.value == ((100 + i) * (200 + i)) % SPARSE_M
        # One context miss, three hits.
        assert [r.context_hit for r in results] == [False, True, True, True]
        # Sparse modmul is one pass: the cohort packs into one wave.
        assert results[0].waves == 1

    def test_cohort_rejects_msm(self):
        engine = CryptoWorkloadEngine(config=ServiceConfig(batch_size=4))
        request = MsmRequest(
            request_id=3,
            scalars=(1,),
            points=tuple(_tiny_points(1)),
            curve=TINY_CURVE,
        )
        with pytest.raises(WorkloadError):
            engine.serve_cohort([request])

    def test_per_kind_counters_flow_through(self):
        engine = CryptoWorkloadEngine(config=ServiceConfig(batch_size=4))
        engine.serve_modmul(
            ModMulRequest(request_id=1, x=2, y=3, modulus=SPARSE_M)
        )
        engine.serve_modexp(
            ModExpRequest(request_id=2, base=2, exponent=5, modulus=SPARSE_M)
        )
        snap = engine.snapshot()
        counters = snap["counters"]
        assert counters["workload_requests_modmul"] == 1
        assert counters["workload_requests_modexp"] == 1
        # Inner multiplications are stamped with the parent kind.
        assert counters["requests_kind_modmul"] == 1
        assert counters["requests_kind_modexp"] > 1

    def test_deadline_admission_rejects_impossible(self):
        engine = CryptoWorkloadEngine(config=ServiceConfig(batch_size=4))
        request = ModMulRequest(
            request_id=1, x=2, y=3, modulus=SPARSE_M, deadline_cc=1
        )
        with pytest.raises(DeadlineImpossibleError):
            engine.serve_modmul(request)
        assert (
            engine.snapshot()["counters"]["workload_rejected_deadline"] == 1
        )

    def test_feasible_deadline_is_met_and_stamped(self):
        engine = CryptoWorkloadEngine(config=ServiceConfig(batch_size=4))
        ctx = engine.contexts.get(SPARSE_M)
        budget = 100 * estimate_cost_cc(
            engine.service, ctx.width, ctx.modmul_passes
        )
        result = engine.serve_modmul(
            ModMulRequest(
                request_id=1, x=2, y=3, modulus=SPARSE_M,
                arrival_cc=0, deadline_cc=budget,
            )
        )
        assert result.deadline_met is True
        assert result.completion_cc is not None

    def test_failed_serve_step_closes_open_spans(self):
        # The wave loop is a generator suspended inside its spans while
        # the runner serves a wave; a serve step that raises must still
        # close the wave and cohort spans.
        engine = CryptoWorkloadEngine()

        def fail(frontier):
            raise RuntimeError("serve failed")

        engine.runner.serve = fail
        with tracing() as tracer:
            with pytest.raises(RuntimeError):
                engine.serve_modmul(
                    ModMulRequest(request_id=1, x=2, y=3, modulus=SPARSE_M)
                )
            assert tracer.current() is None
        assert [s.name for s in tracer.walk()] == [
            "workload.cohort", "workload.wave"
        ]

    def test_snapshot_workloads_section(self):
        engine = CryptoWorkloadEngine(config=ServiceConfig(batch_size=4))
        engine.serve_modmul(
            ModMulRequest(request_id=1, x=2, y=3, modulus=SPARSE_M)
        )
        section = engine.snapshot()["workloads"]
        assert section["cached_moduli"] == 1
        assert section["contexts"]["misses"] >= 1
        assert section["now_cc"] > 0


# ----------------------------------------------------------------------
# MSM
# ----------------------------------------------------------------------
class TestMsm:
    def test_msm_matches_pippenger_and_naive(self):
        scalars = (5, 3, 6)
        points = _tiny_points(3)
        engine = CryptoWorkloadEngine(config=ServiceConfig(batch_size=8))
        result = engine.serve_msm(
            MsmRequest(
                request_id=1,
                scalars=scalars,
                points=tuple(points),
                curve=TINY_CURVE,
                window_bits=2,
            )
        )
        host_curve = CimEllipticCurve(TINY_CURVE)
        assert result.point == pippenger_msm(
            host_curve, scalars, points, window_bits=2
        )
        assert result.point == naive_msm(host_curve, scalars, points)
        assert result.kind == "msm"
        assert result.residue_checks == result.multiplier_passes > 0

    def test_parallel_chains_share_waves(self):
        # A non-identity doubling chain runs concurrently with a
        # multi-point bucket chain, so at least one wave carries more
        # than one multiplication: strictly fewer waves than jobs.
        # (The tiny curve's generator has order 5, so the scalars are
        # chosen to dodge the aG + (-a)G and result-is-identity
        # shortcuts that would serialise every chain.)
        scalars = (5, 6, 5)
        points = _tiny_points(3)
        engine = CryptoWorkloadEngine(config=ServiceConfig(batch_size=8))
        result = engine.serve_msm(
            MsmRequest(
                request_id=1,
                scalars=scalars,
                points=tuple(points),
                curve=TINY_CURVE,
                window_bits=2,
            )
        )
        host_curve = CimEllipticCurve(TINY_CURVE)
        assert result.point == naive_msm(host_curve, scalars, points)
        assert result.waves < result.multiplier_passes

    def test_msm_deadline_runs_from_serving_start(self):
        # One deadline rule for cohorts and MSMs: with no arrival the
        # deadline runs from the instant serving began, not from cycle
        # 0, and a request that needed no CIM pass meets it.
        engine = CryptoWorkloadEngine()
        engine.serve_cohort([
            ModMulRequest(
                request_id=0, x=2, y=3, modulus=SPARSE_M,
                arrival_cc=1_000_000,
            )
        ])
        start_cc = engine.runner.now_cc

        def msm(request_id, scalars, deadline_cc=None):
            return MsmRequest(
                request_id=request_id,
                scalars=scalars,
                points=tuple(_tiny_points(len(scalars))),
                curve=TINY_CURVE,
                window_bits=2,
                deadline_cc=deadline_cc,
            )

        deadline = engine.estimate_cost_cc(msm(1, (5, 6, 7)))
        result = engine.serve_msm(msm(1, (5, 6, 7), deadline))
        assert result.completion_cc > deadline
        assert result.completion_cc - start_cc <= deadline
        assert result.deadline_met is True
        (cohort,) = engine.serve_cohort([
            ModMulRequest(
                request_id=2, x=2, y=3, modulus=SPARSE_M,
                deadline_cc=deadline,
            )
        ])
        assert cohort.deadline_met is True
        idle = engine.serve_msm(msm(3, (0, 0), deadline))
        assert idle.completion_cc is None
        assert idle.deadline_met is True

    def test_msm_async_through_chaos_frontend(self):
        scalars = (5, 6, 7, 7)
        points = _tiny_points(4)
        request = MsmRequest(
            request_id=1,
            scalars=scalars,
            points=tuple(points),
            curve=TINY_CURVE,
            window_bits=2,
        )

        def workload_spans(tracer):
            return [
                span.name
                for root in tracer.roots
                for span in root.walk()
                if span.name.startswith("workload.")
            ]

        async def run():
            config = FrontendConfig(
                shards=2,
                inline=True,
                service=ServiceConfig(batch_size=4),
                chaos=ChaosConfig(
                    kill=((0, 6),), duplicate_replies=((1, 9),), seed=7
                ),
            )
            frontend = AsyncShardedFrontend(config)
            frontend.telemetry = TelemetryRegistry(tracer=async_tracer)
            await frontend.start()
            try:
                engine = CryptoWorkloadEngine()
                result = await engine.serve_msm_async(request, frontend)
                snapshot = await frontend.snapshot()
            finally:
                await frontend.close()
            return result, snapshot

        async_tracer = Tracer(enabled=True)
        result, snapshot = asyncio.run(run())
        host_curve = CimEllipticCurve(TINY_CURVE)
        assert result.point == naive_msm(host_curve, scalars, points)
        # The chaos kill really happened and supervision recovered.
        assert sum(snapshot["supervision"]["restarts"]) >= 1
        assert result.residue_checks == result.multiplier_passes
        # The sync service walks the same wave loop: same answer, same
        # waves and passes, same workload span sequence.
        with tracing() as sync_tracer:
            sync = CryptoWorkloadEngine(
                config=ServiceConfig(batch_size=4)
            ).serve_msm(request)
        assert sync.point == result.point
        assert sync.waves == result.waves
        assert sync.multiplier_passes == result.multiplier_passes
        assert sync.residue_checks == result.residue_checks
        assert workload_spans(sync_tracer) == workload_spans(async_tracer)
        assert "workload.wave" in workload_spans(sync_tracer)
