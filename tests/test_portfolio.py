"""Tests for the algorithm-portfolio subsystem (``repro.portfolio``).

Covers the design-point space and its cache-key guarantees, the Toom-3
and schoolbook datapaths against the exact-rational Toom-Cook oracle
and the Karatsuba pipeline (bit-for-bit, on every executor backend,
including under seeded transient faults), the tuner sweep and its
versioned table, and portfolio routing through the multiplication
service.
"""

from __future__ import annotations

import asyncio
import os
import random

import numpy as np
import pytest

from repro.algorithms.toomcook import INFINITY, ToomCook, inverse_cache_len
from repro.crossbar.faults import (
    TransientFaultInjector,
    TransientFaultModel,
    row_view,
)
from repro.eval import loadgen
from repro.eval.loadgen import LoadItem
from repro.eval.workloads import TraceItem
from repro.frontend import AsyncShardedFrontend, FrontendConfig
from repro import telemetry
from repro.karatsuba import cost as kcost
from repro.karatsuba.controller import KaratsubaController
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.portfolio import (
    BASELINE,
    DesignPoint,
    Measurement,
    SchoolbookPipeline,
    Toom3Pipeline,
    TuningTable,
    build_pipeline,
    candidate_designs,
    measure,
    select,
    sweep,
    validate_table_payload,
)
from repro.portfolio import toom3 as t3
from repro.service import (
    AdmissionError,
    DeadlineImpossibleError,
    MultiplicationService,
    ServiceConfig,
)
from repro.service.cache import ProgramCache
from repro.service.workers import BankDispatcher
from repro.magic.stage import CrossbarStage
from repro.sim.exceptions import DesignError, SimulationError, StageSelfCheckError
from repro.workloads import CryptoWorkloadEngine, ModMulRequest, estimate_cost_cc

ALL_BACKENDS = ("scalar", "word")

TOOM3_POINTS = [0, 1, 2, 4, INFINITY]


# ----------------------------------------------------------------------
# Design points
# ----------------------------------------------------------------------
class TestDesignPoint:
    def test_key_round_trips(self):
        for design in (
            DesignPoint("schoolbook", depth=0, optimize=False),
            DesignPoint("karatsuba", depth=2, optimize=True),
            DesignPoint("karatsuba", depth=3, optimize=False),
            DesignPoint("toom3", depth=1, optimize=True, backend="scalar"),
        ):
            assert DesignPoint.from_key(design.key()) == design

    def test_malformed_keys_rejected(self):
        for key in ("", "toom3", "toom3.1.opt.word", "toom3.L1.fast.word"):
            with pytest.raises(DesignError):
                DesignPoint.from_key(key)

    def test_backend_aliases_normalise_in_key(self):
        a = DesignPoint("toom3", depth=1, backend="word")
        b = DesignPoint("toom3", depth=1, backend="word-packed")
        assert a.key() == b.key()
        assert a == b

    def test_fixed_depths_enforced(self):
        with pytest.raises(DesignError):
            DesignPoint("schoolbook", depth=1)
        with pytest.raises(DesignError):
            DesignPoint("toom3", depth=2)
        with pytest.raises(DesignError):
            DesignPoint("karatsuba", depth=0)

    def test_feasibility_rules(self):
        kara = DesignPoint("karatsuba", depth=2)
        toom = DesignPoint("toom3", depth=1)
        book = DesignPoint("schoolbook", depth=0)
        assert kara.feasible(64) and not kara.feasible(90)
        assert not kara.feasible(12)
        assert toom.feasible(90) and toom.feasible(17)
        assert not toom.feasible(15)
        assert book.feasible(4) and not book.feasible(3)

    def test_only_depth2_karatsuba_servable(self):
        assert DesignPoint("karatsuba", depth=2).servable
        assert not DesignPoint("karatsuba", depth=1).servable
        assert not DesignPoint("karatsuba", depth=3).servable
        assert DesignPoint("toom3", depth=1).servable

    def test_build_pipeline_rejects_bad_points(self):
        with pytest.raises(DesignError):
            build_pipeline(64, DesignPoint("karatsuba", depth=3))
        with pytest.raises(DesignError):
            build_pipeline(90, DesignPoint("karatsuba", depth=2))

    def test_build_pipeline_classes(self):
        assert isinstance(
            build_pipeline(32, DesignPoint("schoolbook", depth=0)),
            SchoolbookPipeline,
        )
        assert isinstance(
            build_pipeline(32, DesignPoint("toom3", depth=1)), Toom3Pipeline
        )
        baseline = build_pipeline(32, BASELINE)
        assert type(baseline) is KaratsubaPipeline


# ----------------------------------------------------------------------
# Satellite (a): memoized Vandermonde inverse in the reference oracle
# ----------------------------------------------------------------------
class TestVandermondeMemo:
    def test_inverse_memoized_per_points(self):
        first = ToomCook(3, points=TOOM3_POINTS)
        cached = inverse_cache_len()
        second = ToomCook(3, points=TOOM3_POINTS)
        assert inverse_cache_len() == cached  # second build hit the memo
        assert second._inverse is first._inverse
        # A different point set gets its own memoised entry, not a
        # collision with ours (it may already be warm from other tests,
        # so only identity — not cache size — is asserted).
        other = ToomCook(3, points=[0, 1, -1, 2, INFINITY])
        assert other._inverse is not first._inverse
        again = ToomCook(3, points=[0, 1, -1, 2, INFINITY])
        assert again._inverse is other._inverse
        assert inverse_cache_len() >= cached

    def test_memoized_oracle_still_exact(self):
        oracle = ToomCook(3, points=TOOM3_POINTS)
        rng = random.Random(0x5EED)
        for n in (16, 90, 270):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            assert oracle.multiply(a, b, n) == a * b


# ----------------------------------------------------------------------
# Satellite (b): design points never alias a compiled-program cache slot
# ----------------------------------------------------------------------
class TestDesignCacheKeys:
    def _dispatcher(self, cache, design):
        return BankDispatcher(
            ways_per_width=1,
            program_cache=cache,
            design_resolver=lambda n_bits: design,
        )

    def test_two_designs_same_width_never_collide(self):
        cache = ProgramCache(8)
        kara = self._dispatcher(cache, DesignPoint("karatsuba", depth=2))
        toom = self._dispatcher(cache, DesignPoint("toom3", depth=1))
        way_k = kara.pool(64)[0]
        way_t = toom.pool(64)[0]
        assert kara._variant(64, 0) != toom._variant(64, 0)
        assert way_k.pipeline is not way_t.pipeline
        assert type(way_k.pipeline) is not type(way_t.pipeline)
        # Same design from a third dispatcher DOES hit the warm entry.
        again = self._dispatcher(cache, DesignPoint("karatsuba", depth=2))
        assert again.pool(64)[0].pipeline is way_k.pipeline

    def test_optimizer_flag_splits_the_key(self):
        cache = ProgramCache(8)
        packed = self._dispatcher(
            cache, DesignPoint("toom3", depth=1, optimize=True)
        )
        exact = self._dispatcher(
            cache, DesignPoint("toom3", depth=1, optimize=False)
        )
        assert packed._variant(64, 0) != exact._variant(64, 0)
        assert packed.pool(64)[0].pipeline is not exact.pool(64)[0].pipeline

    def test_variant_embeds_full_design_key(self):
        dispatcher = self._dispatcher(
            ProgramCache(4), DesignPoint("toom3", depth=1, backend="word")
        )
        assert "toom3.L1.opt.word" in dispatcher._variant(64, 0)

    def test_quarantine_discards_the_right_variant(self):
        cache = ProgramCache(8)
        dispatcher = self._dispatcher(cache, DesignPoint("toom3", depth=1))
        way = dispatcher.pool(32)[0]
        warm = way.pipeline
        dispatcher.quarantine(way, "test")
        dispatcher._pools.clear()
        rebuilt = dispatcher.pool(32)[0]
        assert rebuilt.pipeline is not warm  # cache entry was evicted


# ----------------------------------------------------------------------
# Satellite (c): Toom-3 == oracle == Karatsuba, on every backend
# ----------------------------------------------------------------------
class TestCrossAlgorithmParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_toom3_matches_oracle_and_karatsuba(self, backend):
        oracle = ToomCook(3, points=TOOM3_POINTS)
        rng = random.Random(hash(backend) & 0xFFFF)
        for n in (16, 64):
            toom = Toom3Pipeline(n, optimize=True, backend=backend)
            kara = KaratsubaPipeline(n, optimize=True, backend=backend)
            book = SchoolbookPipeline(n, backend=backend)
            for _ in range(3):
                a, b = rng.getrandbits(n), rng.getrandbits(n)
                reference = oracle.multiply(a, b, n)
                assert reference == a * b
                assert toom.multiply(a, b) == reference
                assert kara.multiply(a, b) == reference
                assert book.multiply(a, b) == reference

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_offgrid_widths_toom3_only(self, backend):
        """Widths the fixed datapath cannot serve (n % 4 != 0)."""
        oracle = ToomCook(3, points=TOOM3_POINTS)
        rng = random.Random(0x0FF6)
        for n in (17, 90):
            toom = Toom3Pipeline(n, optimize=False, backend=backend)
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            assert toom.multiply(a, b) == oracle.multiply(a, b, n) == a * b

    def test_batched_stream_matches_scalar_oracle(self):
        rng = random.Random(0xABCD)
        pairs = [
            (rng.getrandbits(96), rng.getrandbits(96)) for _ in range(8)
        ]
        result = Toom3Pipeline(96, optimize=True, backend="word").run_stream(
            pairs, batch_size=4
        )
        assert result.products == [a * b for a, b in pairs]

    @pytest.mark.parametrize("backend", ("word",))
    def test_under_seeded_transient_faults(self, backend):
        """Correct-or-detected: a seeded transient-fault hook either
        leaves the product bit-exact or trips an in-band self-check."""
        rng = random.Random(0xFA17)
        detections = 0
        for seed in range(4):
            pipe = Toom3Pipeline(64, optimize=False, backend=backend)
            hook = TransientFaultInjector(
                TransientFaultModel(nor_flip_prob=0.01), seed=seed
            )
            pipe.controller.fault_hook = hook
            assert pipe.controller.fault_hook is hook
            a, b = rng.getrandbits(64), rng.getrandbits(64)
            try:
                product = pipe.multiply(a, b)
            except SimulationError:
                detections += 1
                continue
            assert product == a * b
        assert detections > 0, "fault hook never struck a checked pass"


# ----------------------------------------------------------------------
# Stage latencies and pipeline surface
# ----------------------------------------------------------------------
class TestToom3Pipeline:
    def test_stage_latencies_match_closed_forms(self):
        """Each MAGIC stage sums its latency from its declared adder pass
        list: at ``optimize=False`` that is the paper's closed form, and
        one job ticks exactly the list's cycles, so the latency cannot
        drift from what the stage replays.  With the optimizer on, the
        packer stats cover the same list."""
        designs = [
            (t3.Toom3Controller, n, (1, "toom3"), optimize)
            for n in (16, 17, 32, 64, 90, 128, 270)
            for optimize in (False, True)
        ] + [
            (KaratsubaController, n, (2, "karatsuba"), optimize)
            for n in (16, 32, 64, 128, 256)
            for optimize in (False, True)
        ]
        for cls, n, point, optimize in designs:
            controller = cls(n, optimize=optimize)
            closed = kcost.design_cost(n, *point).stage_latencies
            latencies = controller.stage_latencies()
            if not optimize:
                assert latencies == closed, (cls.__name__, n)
            rng = random.Random(n)
            controller.run_job(rng.getrandbits(n), rng.getrandbits(n))
            for stage, latency, form in zip(controller.stages, latencies, closed):
                assert stage.clock.cycles == latency
                if not stage.units:
                    continue
                programs = [
                    adder.program(op, optimize=optimize)
                    for adder, op in stage.adder_passes()
                ]
                # Every adder pass ticks the clock opcode by opcode.
                nor = sum(p.cycles_by_opcode().get("nor", 0) for p in programs)
                assert stage.clock.by_category["nor"] == nor
                assert latency == stage.overhead_cc + sum(
                    p.cycle_count for p in programs
                )
                if optimize:
                    stats = stage.optimizer_stats()
                    assert stats["cycles_before"] == form - stage.overhead_cc
                    assert stats["cycles_after"] == latency - stage.overhead_cc

    def test_timing_uses_toom3_stage_names(self):
        timing = Toom3Pipeline(64).timing()
        assert timing.stage_names == ("evaluate", "pointwise", "interpolate")
        assert timing.bottleneck_stage in timing.stage_names

    def test_schoolbook_stage_names_and_trivial_stages(self):
        timing = SchoolbookPipeline(32).timing()
        assert timing.stage_names == ("operands", "multiply", "store")
        assert timing.bottleneck_stage == "multiply"

    def test_packed_toom3_is_faster_and_still_exact(self):
        exact = Toom3Pipeline(90, optimize=False)
        packed = Toom3Pipeline(90, optimize=True)
        assert sum(packed.timing().stage_latencies) < sum(
            exact.timing().stage_latencies
        )
        assert exact.multiply(3**40, 5**30) == packed.multiply(
            3**40, 5**30
        ) == 3**40 * 5**30

    def test_energy_and_wear_accounted(self):
        pipe = Toom3Pipeline(64, backend="word")
        pipe.run_stream([(2**63 - 1, 2**62 + 5)] * 4, batch_size=4)
        assert pipe.controller.total_energy_fj() > 0
        assert pipe.controller.max_writes() > 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_span_energy_covers_both_interpolation_adders(self, backend):
        """The traced stage spans account for every crossbar unit: their
        energies add up to the batch's controller energy, the wide
        recombination adder included."""
        pipe = Toom3Pipeline(64, backend=backend)
        controller = pipe.controller
        assert [label for label, _ in controller.crossbar_units()] == [
            "evaluate", "interpolate", "interpolate.1"
        ]
        assert controller.interpolate.units == (
            controller.interpolate.narrow, controller.interpolate.wide
        )
        before = controller.total_energy_fj()
        wide_before = controller.interpolate.wide.array.energy_fj
        rng = random.Random(0x64)
        pairs = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(2)]
        with telemetry.tracing() as tracer:
            pipe.run_stream(pairs, batch_size=2)
        spent = {
            span.name: span.attrs["energy_fj"]
            for span in tracer.walk()
            if span.name.startswith("stage.") and "energy_fj" in span.attrs
        }
        assert set(spent) == {"stage.evaluate", "stage.interpolate"}
        assert sum(spent.values()) == controller.total_energy_fj() - before
        wide = controller.interpolate.wide.array.energy_fj - wide_before
        assert wide > 0
        assert spent["stage.interpolate"] > wide


# ----------------------------------------------------------------------
# The adder-stage routine on Toom-3: one mega-program per unit
# ----------------------------------------------------------------------
class _CorruptOutRow:
    """Fault hook: after the *nth* gate into *out_row*, add a multiple
    of the residue modulus to lane 0 (set bit k + r, clear bit k), a
    corruption the residue code cannot see."""

    def __init__(self, out_row: int, nth: int, residue_bits: int):
        self.out_row = out_row
        self.nth = nth
        self.r = residue_bits
        self.gates = 0

    def on_nor(self, array, out_row, mask) -> None:
        if out_row != self.out_row:
            return
        if self.gates == self.nth:
            bits, commit = row_view(array, out_row)
            lane = bits[0]
            k = next(
                k for k in range(len(lane) - self.r)
                if lane[k] and not lane[k + self.r]
            )
            lane[k], lane[k + self.r] = False, True
            commit()
        self.gates += 1

    def on_write(self, array, row, mask, pre) -> None:
        pass

    def on_read(self, array, row) -> None:
        pass


class TestToom3AdderRoutine:
    def test_one_replay_per_unit_per_batch(self, monkeypatch):
        """A Toom-3 batch replays the evaluation adder once and each
        interpolation adder once, whatever its size."""
        replays = []
        original = CrossbarStage.replay

        def counting(unit, *args, **kwargs):
            replays.append(unit)
            return original(unit, *args, **kwargs)

        monkeypatch.setattr(CrossbarStage, "replay", counting)
        controller = t3.Toom3Controller(270)
        rng = random.Random(0x270)
        pairs = [(rng.getrandbits(270), rng.getrandbits(270)) for _ in range(5)]
        records = controller.run_jobs_batch(pairs)
        assert [r.product for r in records] == [a * b for a, b in pairs]
        interpolate = controller.interpolate
        assert replays == [
            controller.evaluate.unit, interpolate.narrow, interpolate.wide
        ]

    def test_residue_invisible_corruption_caught_at_its_pass(self):
        """A corruption that is a multiple of 2^r - 1 passes the residue
        check; the differential check against the host plan names the
        pass where it happened."""
        controller = t3.Toom3Controller(64)
        narrow = controller.interpolate.narrow
        narrow.fault_hook = _CorruptOutRow(
            narrow.adder.layout.out_row,
            3,  # m1, w1, m2, then m2b
            controller.interpolate.checker.residue_bits,
        )
        rng = random.Random(0xBAD)
        with pytest.raises(StageSelfCheckError) as excinfo:
            controller.run_jobs_batch(
                [(rng.getrandbits(64), rng.getrandbits(64))]
            )
        err = excinfo.value
        assert (err.stage, err.check, err.location) == (
            "interpolate", "differential", "m2b[0]"
        )
        assert controller.interpolate.checker.mismatches == 0

    @pytest.mark.parametrize("jobs", (1, 2, 3, 5, 8, 9))
    def test_word_lanes_match_scalar_oracle(self, jobs):
        """Toom-3 stages on the word backend equal the scalar oracle:
        products, energy, write counters and clocks by category."""
        rng = random.Random(jobs)
        pairs = [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(jobs)]
        controllers = [
            t3.Toom3Controller(32, backend=backend) for backend in ALL_BACKENDS
        ]
        products = [
            [r.product for r in c.run_jobs_batch(pairs)] for c in controllers
        ]
        assert products[0] == products[1] == [a * b for a, b in pairs]
        scalar, word = controllers
        assert scalar.total_energy_fj() == word.total_energy_fj()
        for (label, unit), (_, other) in zip(
            scalar.crossbar_units(), word.crossbar_units()
        ):
            assert np.array_equal(unit.array.writes, other.array.writes), label
        for stage, other in zip(scalar.stages, word.stages):
            assert stage.clock.by_category == other.clock.by_category


# ----------------------------------------------------------------------
# Tuner
# ----------------------------------------------------------------------
class TestTuner:
    def test_candidates_respect_feasibility(self):
        candidates = candidate_designs(90)
        keys = {d.key() for d in candidates}
        # 90 % 4 != 0: the servable Karatsuba datapath is infeasible;
        # any Karatsuba candidate left is a non-servable study point.
        assert not any(k.startswith("karatsuba.L2") for k in keys)
        assert all(
            d.servable or d.algorithm == "karatsuba" for d in candidates
        )
        assert any(k.startswith("toom3") for k in keys)
        keys64 = {d.key() for d in candidate_designs(64)}
        assert any(k.startswith("karatsuba.L2") for k in keys64)

    def test_measure_marks_study_points_as_prior(self):
        measured = measure(DesignPoint("toom3", depth=1), 32, jobs=2)
        assert measured.measured
        assert measured.latency_cc > 0
        study = measure(DesignPoint("karatsuba", depth=3), 32, jobs=2)
        assert not study.measured
        prior = kcost.design_cost(32, 3)
        assert study.latency_cc == prior.latency_cc
        assert study.area_cells == prior.area_cells

    def test_measure_rejects_an_infeasible_width(self):
        # 8 bits divide by 2, but Karatsuba needs n >= 16.
        with pytest.raises(DesignError):
            measure(DesignPoint("karatsuba", depth=1), 8)

    def test_select_never_picks_a_study_point(self):
        fast_study = Measurement(
            design=DesignPoint("karatsuba", depth=1),
            n_bits=64,
            latency_cc=1,
            bottleneck_cc=1,
            area_cells=1,
            energy_fj_per_job=0.0,
            measured=False,
        )
        servable = Measurement(
            design=DesignPoint("toom3", depth=1),
            n_bits=64,
            latency_cc=100,
            bottleneck_cc=50,
            area_cells=10,
            energy_fj_per_job=0.0,
            measured=True,
        )
        assert select([fast_study, servable]) == servable.design

    def test_sweep_round_trips_and_validates(self, tmp_path):
        table = sweep(widths=(16, 64), jobs=2)
        path = tmp_path / "tune.json"
        table.save(str(path))
        loaded = TuningTable.load(str(path))
        assert loaded.selections() == table.selections()
        assert validate_table_payload(loaded.to_json()) == []

    def test_validation_catches_tampering(self):
        table = sweep(widths=(16,), jobs=2)
        payload = table.to_json()
        # Point the selection at a candidate the rule would not pick.
        entry = payload["buckets"][0]
        losing = [
            c["design"]
            for c in entry["candidates"]
            if c["design"] != entry["selected"]
            and DesignPoint.from_key(c["design"]).servable
        ]
        entry["selected"] = losing[0]
        assert validate_table_payload(payload)

    def test_version_gate(self):
        with pytest.raises(DesignError):
            TuningTable.from_json({"version": "bogus/v9", "buckets": []})

    def test_resolve_and_floor(self):
        table = sweep(widths=(16,), jobs=2)
        assert table.resolve(16).servable  # bucket hit
        prior = table.resolve(48)  # unmeasured width -> prior
        assert prior.feasible(48)
        assert table.stats()["bucket_hits"] == 1
        assert table.stats()["prior_hits"] == 1
        assert table.latency_floor_cc(16) > 0
        # The floor never exceeds the fixed design's closed form.
        assert (
            table.latency_floor_cc(16)
            <= kcost.design_cost(16, 2).latency_cc
        )


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------
class TestPortfolioService:
    #: Committed tuner artifact at the repo root; measured buckets
    #: include the off-grid widths 90 and 270 (both toom3-routed).
    TABLE_PATH = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "..",
        "TUNE_portfolio.json",
    )

    def _service(self, **overrides):
        settings = {
            "batch_size": 4,
            "ways_per_width": 1,
            "portfolio": True,
            "portfolio_table": self.TABLE_PATH,
        }
        settings.update(overrides)
        return MultiplicationService(ServiceConfig(**settings))

    @pytest.mark.parametrize(
        "n_bits, modulus, floor_cc", [(16, 65521, 294), (32, 4294967291, 614)]
    )
    def test_workload_floor_prices_the_routed_design(
        self, n_bits, modulus, floor_cc
    ):
        """A crypto request's admission floor prices its passes on the
        design the table routes the width to (schoolbook at n = 16 and
        32), not on Karatsuba L = 2 (1,424 / 1,733 cc per pass)."""
        service = self._service()
        design = service.dispatcher.design_for(n_bits)
        assert design.algorithm == "schoolbook"
        routed = kcost.design_cost(n_bits, design.depth, design.algorithm)
        assert estimate_cost_cc(service, n_bits, 1) == floor_cc
        assert estimate_cost_cc(service, n_bits, 3) == (
            floor_cc + 2 * routed.bottleneck_cc
        )
        assert floor_cc < kcost.design_cost(n_bits, 2).latency_cc
        engine = CryptoWorkloadEngine(service=service)
        request = ModMulRequest(request_id=1, x=2, y=3, modulus=modulus)
        assert engine.contexts.get(modulus).width == n_bits
        assert engine.estimate_cost_cc(request) == estimate_cost_cc(
            service, n_bits, engine.estimate_passes(request)
        )

    def test_offgrid_width_served_exactly(self):
        service = self._service()
        rng = random.Random(0x90)
        expected = {}
        for _ in range(4):
            a, b = rng.getrandbits(90), rng.getrandbits(90)
            expected[service.submit(a, b, 90)] = a * b
        results = service.drain()
        assert {r.request_id: r.product for r in results} == expected
        routes = service.snapshot()["portfolio"]["routes"]
        assert routes[90].startswith("toom3")

    def test_strict_admission_without_portfolio(self):
        service = MultiplicationService(ServiceConfig(batch_size=4))
        with pytest.raises(AdmissionError):
            service.submit(1, 2, 90)
        assert service.snapshot()["portfolio"] == {"enabled": False}

    def test_portfolio_floor_still_rejects_tiny_widths(self):
        service = self._service()
        with pytest.raises(AdmissionError):
            service.submit(1, 2, 8)

    def test_deadline_admission_uses_routed_floor(self):
        """A deadline feasible under the tuned (schoolbook) route at 16
        bits must not be rejected by the Karatsuba closed form."""
        service = self._service(strict_deadlines=True)
        floor = service.min_latency_estimate_cc(16)
        karatsuba = kcost.design_cost(16, 2).latency_cc
        assert floor < karatsuba
        deadline = (floor + karatsuba) // 2
        service.submit(3, 5, 16, deadline_cc=deadline)  # admitted
        baseline = MultiplicationService(
            ServiceConfig(batch_size=4, strict_deadlines=True)
        )
        with pytest.raises(DeadlineImpossibleError):
            baseline.submit(3, 5, 16, deadline_cc=deadline)

    def test_snapshot_portfolio_section(self):
        service = self._service()
        service.submit(7, 9, 16)
        service.drain()
        section = service.snapshot()["portfolio"]
        assert section["enabled"]
        assert section["table"]["source"].endswith("TUNE_portfolio.json")
        assert section["table"]["selections"]
        assert section["table"]["bucket_hits"] >= 1
        assert 16 in section["routes"]

    def test_mixed_load_spans_three_algorithms(self):
        service = self._service()
        rng = random.Random(0x3A16)
        expected = {}
        for n in (16, 64, 90):
            for _ in range(4):
                a, b = rng.getrandbits(n), rng.getrandbits(n)
                expected[service.submit(a, b, n)] = a * b
        results = service.drain()
        assert {r.request_id: r.product for r in results} == expected
        routes = service.snapshot()["portfolio"]["routes"]
        algorithms = {key.split(".")[0] for key in routes.values()}
        assert algorithms == {"schoolbook", "karatsuba", "toom3"}

    def test_fault_recovery_on_toom3_way(self):
        """The degrade ladder's diagnosis path works on Toom-3 arrays.

        One way per width, so the faulted way serves the next batch."""
        service = self._service(ways_per_width=1, spare_rows=2)
        rng = random.Random(0xFA)
        a, b = rng.getrandbits(90), rng.getrandbits(90)
        service.submit(a, b, 90)
        service.drain()
        way_id = service.inject_fault(
            90, way_index=0, stage="evaluate", row=2, col=0
        )
        a2, b2 = rng.getrandbits(90), rng.getrandbits(90)
        service.submit(a2, b2, 90)
        results = service.drain()
        assert results[-1].product == a2 * b2
        snapshot = service.snapshot()
        assert snapshot["counters"]["faults_detected"] == 1
        assert set(snapshot["reliability"][way_id]["remap"]) == {"evaluate"}

    def test_snapshot_covers_toom3_wide_adder(self, fresh_programs):
        """The compile totals sum every crossbar unit's executor, and a
        stuck-at cell in Toom-3's wide recombination adder is repaired
        and reported under its own unit label."""
        service = self._service(spare_rows=2)
        rng = random.Random(0x1D)
        expected = {}
        for _ in range(4):
            a, b = rng.getrandbits(90), rng.getrandbits(90)
            expected[service.submit(a, b, 90)] = a * b
        service.drain()
        service.inject_fault(90, stage="interpolate.1", row=3, col=0, kind="sa0")
        for _ in range(4):
            a, b = rng.getrandbits(90), rng.getrandbits(90)
            expected[service.submit(a, b, 90)] = a * b
        results = service.drain()
        assert all(r.product == expected[r.request_id] for r in results)
        snapshot = service.snapshot()
        executors = []
        for way in service.dispatcher.all_ways():
            controller = way.pipeline.controller
            assert isinstance(controller, t3.Toom3Controller)
            executors += [
                controller.evaluate.unit.executor,
                controller.interpolate.narrow.executor,
                controller.interpolate.wide.executor,
            ]
        totals = {"hits": 0, "misses": 0}
        for executor in executors:
            stats = executor.compile_cache_stats()
            totals["hits"] += stats.hits
            totals["misses"] += stats.misses
        assert snapshot["caches"]["compile"] == totals
        # With fresh memos the first way compiles the wide adder's program.
        assert executors[2].compile_cache_stats().misses == 1
        (way_view,) = snapshot["reliability"].values()
        assert set(way_view["remap"]) == {"interpolate.1"}

    def test_offgrid_width_through_sharded_frontend(self):
        """Portfolio shards admit off-grid widths at the front-end too."""
        config = FrontendConfig(
            shards=2,
            inline=True,
            service=ServiceConfig(
                batch_size=4,
                ways_per_width=1,
                portfolio=True,
                portfolio_table=self.TABLE_PATH,
            ),
        )
        rng = random.Random(0x90F)
        pairs = [(rng.getrandbits(90), rng.getrandbits(90)) for _ in range(4)]

        async def run():
            async with AsyncShardedFrontend(config) as fe:
                futures = [await fe.submit(a, b, 90) for a, b in pairs]
                await fe.drain()
                return await asyncio.gather(*futures)

        results = asyncio.run(run())
        assert [r.product for r in results] == [a * b for a, b in pairs]

    def test_offgrid_width_through_sync_loadgen(self):
        rng = random.Random(0x90A)
        load = [
            LoadItem(
                arrival_cc=100 * i,
                item=TraceItem(90, rng.getrandbits(90), rng.getrandbits(90)),
            )
            for i in range(3)
        ]
        config = ServiceConfig(
            batch_size=4, portfolio=True, portfolio_table=self.TABLE_PATH
        )
        report = loadgen.run(load, MultiplicationService(config))
        assert report.completed == len(load)


# ----------------------------------------------------------------------
# Lock-step row multipliers: batched wear equals job-by-job wear
# ----------------------------------------------------------------------
class TestBatchedRowWear:
    @pytest.mark.parametrize("jobs", (4, 5))
    def test_toom3_pointwise_batch_matches_sequential(self, jobs):
        n = 90
        rng = random.Random(jobs)
        width = t3.pointwise_width(n)
        operands = [
            {name: rng.getrandbits(width)
             for _, lhs, rhs in t3.POINTWISE_STEPS for name in (lhs, rhs)}
            for _ in range(jobs)
        ]
        sequential = t3.PointwiseStage(n)
        batched = t3.PointwiseStage(n)
        seq = [sequential.process_batch([ops])[0] for ops in operands]
        bat = batched.process_batch(operands)
        assert [r.products for r in seq] == [r.products for r in bat] == [
            {out: ops[lhs] * ops[rhs] for out, lhs, rhs in t3.POINTWISE_STEPS}
            for ops in operands
        ]
        for out, row in sequential.rows.items():
            assert np.array_equal(row.cell_writes, batched.rows[out].cell_writes)
        assert sequential.max_writes() == batched.max_writes()
        assert sequential.checker.checks == batched.checker.checks == 5 * jobs

    @pytest.mark.parametrize("wear_leveling", (False, True))
    def test_schoolbook_batch_matches_sequential(self, wear_leveling):
        rng = random.Random(0x5B)
        pairs = [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(5)]
        sequential = SchoolbookPipeline(32, wear_leveling=wear_leveling)
        batched = SchoolbookPipeline(32, wear_leveling=wear_leveling)
        seq = [sequential.controller.run_job(a, b) for a, b in pairs]
        bat = batched.controller.run_jobs_batch(pairs)
        assert [r.product for r in seq] == [r.product for r in bat] == [
            a * b for a, b in pairs
        ]
        assert np.array_equal(
            sequential.controller.row.cell_writes,
            batched.controller.row.cell_writes,
        )
        assert (
            sequential.controller.max_writes() == batched.controller.max_writes()
        )
