"""Tests for the reliability subsystem (`repro.reliability`) and its
hooks: residue algebra, spare-row remapping, stage self-checks, the
degrade escalation ladder, and the fault campaign runner."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arith.bitops import split_chunks
from repro.crossbar.array import (
    FAULT_STUCK_AT_0,
    FAULT_STUCK_AT_1,
    CrossbarArray,
)
from repro.crossbar.faults import StuckAtFault, inject
from repro.karatsuba.precompute import PrecomputeStage
from repro.reliability import (
    CampaignConfig,
    ResidueChecker,
    fold_add,
    fold_mul,
    fold_shift,
    fold_sub,
    modulus,
    residue,
    run_campaign,
)
from repro.reliability.campaign import (
    SingleUpsetInjector,
    derive_seed,
    run_trial,
)
from repro.service.degrade import DegradeController
from repro.service.requests import NoHealthyWayError
from repro.service.workers import BankDispatcher
from repro.sim.exceptions import (
    SimulationError,
    SpareRowsExhaustedError,
    StageSelfCheckError,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------------
# Residue algebra
# ----------------------------------------------------------------------
class TestResidueAlgebra:
    def test_modulus_and_validation(self):
        assert modulus(8) == 255
        with pytest.raises(ValueError):
            modulus(1)

    @pytest.mark.parametrize("r", [2, 4, 8, 16])
    def test_fold_homomorphisms(self, r):
        rng = random.Random(r)
        for _ in range(50):
            a = rng.getrandbits(96)
            b = rng.getrandbits(96)
            ra, rb = residue(a, r), residue(b, r)
            assert fold_add(ra, rb, r) == residue(a + b, r)
            assert fold_mul(ra, rb, r) == residue(a * b, r)
            assert fold_sub(ra, rb, r) == residue(a - b, r)
            shift = rng.randrange(0, 64)
            assert fold_shift(ra, shift, r) == residue(a << shift, r)

    def test_single_bit_errors_always_detected(self):
        """2^i mod (2^r - 1) is never 0 — any one-bit flip changes the
        residue, which is the ABFT guarantee the stages rely on."""
        for bit in range(128):
            value = 0x5A5A5A5A5A5A5A5A5A5A
            corrupted = value ^ (1 << bit)
            assert residue(value, 8) != residue(corrupted, 8)


class TestResidueChecker:
    def test_check_sum_passes_and_propagates(self):
        checker = ResidueChecker("precompute")
        out = checker.check_adder(1234 + 5678, "add", 1234, 5678, "s1")
        assert out == checker.res(1234 + 5678)
        assert checker.checks == 1
        assert checker.mismatches == 0

    def test_check_product_mismatch_raises(self):
        checker = ResidueChecker("multiply", residue_bits=8)
        ra, rb = checker.res(100), checker.res(200)
        with pytest.raises(StageSelfCheckError) as excinfo:
            checker.check_product(100 * 200 + 1, ra, rb, "c_hh")
        err = excinfo.value
        assert err.stage == "multiply"
        assert err.check == "residue"
        assert err.location == "c_hh"
        assert checker.mismatches == 1

    def test_check_linear_subtraction(self):
        checker = ResidueChecker("postcompute")
        checker.check_adder(9000 - 400, "sub", 9000, 400, "pass-2")
        assert checker.stats()["checks"] == 1
        # A mismatch on a SIMD lane is located at ``location[lane]``.
        with pytest.raises(StageSelfCheckError) as excinfo:
            checker.check_adder(9000 - 401, "sub", 9000, 400, "pass-2", 3)
        assert excinfo.value.location == "pass-2[3]"
        assert checker.mismatches == 1


# ----------------------------------------------------------------------
# Spare rows / remap / write-verify
# ----------------------------------------------------------------------
class TestSpareRows:
    def test_remap_preserves_logical_addressing(self):
        array = CrossbarArray(4, 4, strict_magic=False, spare_rows=2)
        assert array.phys_rows == 6
        phys = array.remap_row(1)
        assert phys == 4
        assert array.remap_table() == {1: 4}
        assert array.spare_rows_free == 1
        # Logical row 1 now lives on physical row 4.
        assert array.physical_row(1) == 4
        assert array.snapshot().shape == (4, 4)

    def test_spares_exhausted_raises(self):
        array = CrossbarArray(4, 4, strict_magic=False, spare_rows=1)
        array.remap_row(0)
        with pytest.raises(SpareRowsExhaustedError):
            array.remap_row(2)

    def test_remap_strands_the_defect(self):
        array = CrossbarArray(4, 4, strict_magic=False, spare_rows=1)
        inject(array, [StuckAtFault(2, 1, FAULT_STUCK_AT_0)])
        assert not array.verify_row_writable(2)
        array.remap_row(2)
        # The defect stays on physical row 2; logical row 2 is clean.
        assert array.verify_row_writable(2)
        assert array.faults == {(2, 1): FAULT_STUCK_AT_0}

    @pytest.mark.parametrize("kind", [FAULT_STUCK_AT_0, FAULT_STUCK_AT_1])
    def test_write_verify_finds_both_polarities(self, kind):
        array = CrossbarArray(4, 4, strict_magic=False, spare_rows=1)
        inject(array, [StuckAtFault(3, 2, kind)])
        assert array.find_faulty_rows() == [3]

    def test_clean_array_diagnoses_clean(self):
        array = CrossbarArray(4, 4, strict_magic=False, spare_rows=1)
        assert array.find_faulty_rows() == []

    def test_peek_row_costs_no_energy(self):
        array = CrossbarArray(2, 4, strict_magic=False)
        array.init_rows([0])
        energy = array.energy_fj
        assert array.peek_row(0).all()
        assert array.energy_fj == energy


# ----------------------------------------------------------------------
# Stage-level detection and repair
# ----------------------------------------------------------------------
def _chunks(value: int, n_bits: int):
    return split_chunks(value, n_bits // 4, 4)


class TestStageSelfChecks:
    N = 16

    def test_sa1_detected_by_residue_check(self):
        stage = PrecomputeStage(self.N)
        inject(stage.array, [StuckAtFault(8, 0, FAULT_STUCK_AT_1)])
        with pytest.raises(StageSelfCheckError) as excinfo:
            stage.process_batch([(_chunks(0, self.N), _chunks(0, self.N))])
        assert excinfo.value.check == "residue"
        assert excinfo.value.stage == "precompute"

    def test_diagnose_and_repair_restores_bit_exactness(self):
        stage = PrecomputeStage(self.N)
        inject(stage.array, [StuckAtFault(8, 0, FAULT_STUCK_AT_1)])
        with pytest.raises(StageSelfCheckError):
            stage.process_batch([(_chunks(0, self.N), _chunks(0, self.N))])
        assert stage.diagnose_and_repair() == [8]
        rng = random.Random(1)
        a, b = rng.getrandbits(self.N), rng.getrandbits(self.N)
        job = (_chunks(a, self.N), _chunks(b, self.N))
        result = stage.process_batch([job])[0]
        reference = PrecomputeStage(self.N).process_batch([job])[0]
        assert result.chunk_sums == reference.chunk_sums

    def test_self_check_survives_python_O(self):
        """The stage self-checks must not be `assert` statements: they
        hold under ``python -O`` (satellite of the robustness PR)."""
        code = (
            "from repro.arith.bitops import split_chunks\n"
            "from repro.crossbar.faults import StuckAtFault, inject\n"
            "from repro.crossbar.array import FAULT_STUCK_AT_1\n"
            "from repro.karatsuba.precompute import PrecomputeStage\n"
            "from repro.sim.exceptions import StageSelfCheckError\n"
            "stage = PrecomputeStage(16)\n"
            "inject(stage.array, [StuckAtFault(8, 0, FAULT_STUCK_AT_1)])\n"
            "try:\n"
            "    stage.process_batch([(split_chunks(0, 4, 4), split_chunks(0, 4, 4))])\n"
            "except StageSelfCheckError as err:\n"
            "    print('DETECTED', err.check)\n"
            "else:\n"
            "    print('MISSED')\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "DETECTED residue" in proc.stdout

    def test_transient_injection_detected_at_pipeline_level(self):
        from repro.crossbar.faults import (
            TransientFaultInjector,
            TransientFaultModel,
        )
        from repro.karatsuba.controller import KaratsubaController

        controller = KaratsubaController(16)
        controller.fault_hook = TransientFaultInjector(
            TransientFaultModel(nor_flip_prob=0.2), seed=3
        )
        with pytest.raises(SimulationError):
            controller.run_job(0x1234, 0x5678)


# ----------------------------------------------------------------------
# Degrade escalation ladder
# ----------------------------------------------------------------------
class _AlwaysFailingDispatcher(BankDispatcher):
    """Every run detects a fault the ladder cannot repair in place."""

    def run_on(self, way, pairs, request_ids=()):
        raise StageSelfCheckError(
            "synthetic divergence", stage="precompute", check="residue"
        )


class _FailOnWayZero(BankDispatcher):
    """Way .0 persistently fails its self-check; way .1 is healthy."""

    def run_on(self, way, pairs, request_ids=()):
        if way.way_id.endswith(".0"):
            raise StageSelfCheckError(
                "synthetic divergence", stage="precompute", check="residue"
            )
        return super().run_on(way, pairs, request_ids=request_ids)


class TestEscalationLadder:
    def test_retry_budget_exhaustion_raises(self):
        dispatcher = _AlwaysFailingDispatcher(ways_per_width=2)
        controller = DegradeController(
            dispatcher, max_retries=1, max_inplace_replays=0
        )
        with pytest.raises(NoHealthyWayError):
            controller.execute(16, [(1, 2)])

    def test_inplace_budget_then_quarantine(self):
        dispatcher = _FailOnWayZero(ways_per_width=2)
        controller = DegradeController(
            dispatcher, max_retries=3, max_inplace_replays=2
        )
        recovery = controller.execute(16, [(3, 5)])
        assert recovery.report.products == [15]
        # Two same-way replays were tried before escalating.
        assert recovery.inplace_replays == 2
        assert recovery.faulty_ways == ("w16.0",)
        assert recovery.retries == 1
        assert recovery.detections == 3
        assert recovery.detection_checks == ("residue",) * 3
        way0 = dispatcher.pool(16)[0]
        assert not way0.healthy
        assert way0.retired_reason == "fault: residue self-check in precompute"

    def test_quarantine_metrics_reach_the_service(self):
        from repro.service import MultiplicationService, ServiceConfig

        service = MultiplicationService(
            ServiceConfig(batch_size=1, ways_per_width=2)
        )
        service.dispatcher.__class__ = _FailOnWayZero
        service.submit(3, 5, 16)
        results = service.drain()
        assert [r.product for r in results] == [15]
        counters = service.snapshot()["counters"]
        assert counters["faults_detected"] == 3
        assert counters["inplace_replays"] == 2
        assert counters["fault_retries"] == 1
        assert counters["ways_retired"] == 1

    def test_spare_exhaustion_escalates_to_quarantine(self):
        dispatcher = BankDispatcher(ways_per_width=2, spare_rows=0)
        controller = DegradeController(dispatcher, max_retries=3)
        way0 = dispatcher.pool(16)[0]
        inject(
            way0.pipeline.controller.precompute.array,
            [StuckAtFault(8, 0, FAULT_STUCK_AT_1)],
        )
        recovery = controller.execute(16, [(0, 0)])
        assert recovery.report.products == [0]
        # No spares: the permanent fault cannot be repaired in place.
        assert recovery.faulty_ways == ("w16.0",)
        assert recovery.remapped_rows == ()


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------
class TestCampaign:
    def test_derived_seeds_are_stable_and_distinct(self):
        assert derive_seed(0, 64, "sa1", 0) == derive_seed(0, 64, "sa1", 0)
        coords = [(0, 64, "sa1", 0), (0, 64, "sa1", 1), (0, 64, "sa0", 0),
                  (0, 256, "sa1", 0), (1, 64, "sa1", 0)]
        seeds = {derive_seed(*c) for c in coords}
        assert len(seeds) == len(coords)

    def test_single_upset_kind_validation(self):
        with pytest.raises(ValueError):
            SingleUpsetInjector("sa1", random.Random(0))

    def test_trial_is_deterministic(self):
        config = CampaignConfig(widths=(16,), trials=1, batch=2)
        first = run_trial(config, 16, "sa1", 0)
        second = run_trial(config, 16, "sa1", 0)
        assert first == second

    def test_small_campaign_no_sdc_full_detection(self):
        config = CampaignConfig(
            widths=(16,),
            kinds=("sa0", "sa1", "transient", "write-failure"),
            trials=2,
            batch=2,
        )
        report = run_campaign(config)
        assert len(report.trials) == 8
        counts = report.counts()
        assert counts["sdc"] == 0
        assert report.detection_rate == 1.0
        assert report.residue_coverage == 1.0
        # Single faults never consume a healthy way.
        assert all(t.quarantined_ways == 0 for t in report.trials)

    def test_report_overhead_meets_acceptance_bar(self):
        config = CampaignConfig(widths=(256,), kinds=("sa1",), trials=1)
        report = run_campaign(config)
        (over,) = report.overhead()
        assert over["n_bits"] == 256
        assert over["fraction"] < 0.10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(trials=0)
        with pytest.raises(ValueError):
            CampaignConfig(kinds=("meteor-strike",))
