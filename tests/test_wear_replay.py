"""One replay per stage batch: both wear-leveling groups share the lanes.

A Karatsuba adder stage alternates its jobs between two wear states
(:class:`~repro.crossbar.endurance.WearLevelingController`).  The state
only decides which physical rows a job's pulses land on, so
:meth:`~repro.arith.koggestone.AdderPassStage.process_batch` replays
each crossbar unit once over every lane and folds each group's writes
back at its own rows.  These tests pin that down against B single-job
batches on both backends, after a spare-row remap, and on the
per-group path that runs while a fault makes placement matter.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import telemetry
from repro.crossbar.faults import TransientFaultInjector, TransientFaultModel
from repro.karatsuba.controller import KaratsubaController
from repro.magic.backend import ScalarLaneExecutor
from repro.magic.executor import WordPackedMagicExecutor
from repro.sim.exceptions import StageSelfCheckError

N_BITS = 32
BACKENDS = ("word", "scalar")
EXECUTORS = {"word": WordPackedMagicExecutor, "scalar": ScalarLaneExecutor}


def _pairs(jobs, seed):
    rng = random.Random(seed)
    return [(rng.getrandbits(N_BITS), rng.getrandbits(N_BITS)) for _ in range(jobs)]


def _adder_stages(ctl):
    return (ctl.precompute, ctl.postcompute)


def _replays(ctl, pairs):
    """Run one batch; return its records and the ``magic.program``
    spans (one per executor replay) it recorded."""
    with telemetry.tracing() as tracer:
        records = ctl.run_jobs_batch(pairs)
    return records, [s for s in tracer.walk() if s.name == "magic.program"]


def _assert_same_state(batched, reference):
    for (name, unit), (_, ref) in zip(
        batched.crossbar_units(), reference.crossbar_units()
    ):
        assert np.array_equal(unit.array.writes, ref.array.writes), name
        assert unit.array.energy_fj == ref.array.energy_fj, name
    assert batched.total_energy_fj() == reference.total_energy_fj()
    for stage, ref in zip(_adder_stages(batched), _adder_stages(reference)):
        assert stage.leveler.swaps == ref.leveler.swaps
    assert np.array_equal(
        batched.multiply_stage.cell_writes, reference.multiply_stage.cell_writes
    )


def _assert_clock_ticks_per_group(stage, before, groups):
    """The stage clock ticked the per-job histogram once per group."""
    histogram = stage._clock_histogram
    assert stage.clock.cycles - before.cycles == groups * stage.latency_cc()
    for category, cycles in histogram.items():
        moved = stage.clock.by_category[category] - before.by_category.get(category, 0)
        assert moved == groups * cycles


def _run_against_singles(backend, jobs, odd_start, prepare=None):
    """One *jobs*-job batch against *jobs* single-job batches on a twin
    controller; both optionally start one job into the wear cycle."""
    batched = KaratsubaController(N_BITS, backend=backend)
    reference = KaratsubaController(N_BITS, backend=backend)
    for ctl in (batched, reference):
        if prepare is not None:
            prepare(ctl)
        if odd_start:
            ctl.run_jobs_batch(_pairs(1, 99))
    pairs = _pairs(jobs, jobs)
    clocks = [stage.clock.snapshot() for stage in _adder_stages(batched)]
    records, spans = _replays(batched, pairs)
    singles = [reference.run_jobs_batch([pair])[0] for pair in pairs]
    assert [r.product for r in records] == [a * b for a, b in pairs]
    assert [r.product for r in singles] == [r.product for r in records]
    _assert_same_state(batched, reference)
    for stage, before in zip(_adder_stages(batched), clocks):
        _assert_clock_ticks_per_group(stage, before, min(jobs, 2))
    return batched, spans


class TestOneReplayPerBatch:
    @pytest.mark.parametrize("odd_start", (False, True), ids=("even", "odd"))
    @pytest.mark.parametrize("jobs", (2, 3, 8, 65))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_equals_single_job_batches(self, backend, jobs, odd_start):
        ctl, spans = _run_against_singles(backend, jobs, odd_start)
        # Exactly one replay per MAGIC unit, every lane in it.
        assert len(spans) == len(ctl.crossbar_units())
        assert [s.attrs["lanes"] for s in spans] == [jobs] * len(spans)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_after_spare_row_remap(self, backend):
        """A row remapped onto a spare by diagnosis: the one replay runs
        under the remap, and each group's pulses land at the wear
        permutation composed with it."""

        def remap(ctl):
            stage = ctl.postcompute
            stage.array.inject_fault(3, 7, "sa0")
            assert stage.diagnose_and_repair() == [3]
            stage.array.clear_faults()  # the retired line is all that failed

        ctl, spans = _run_against_singles(backend, 5, True, remap)
        assert ctl.postcompute.array.remap_table() == {
            3: ctl.postcompute.array.rows
        }
        assert len(spans) == len(ctl.crossbar_units())


class TestPerGroupReplay:
    """A pinned stuck-at fault or a fault hook makes placement change
    the data: each wear group then replays under its own row map, and
    is checked, before the next group is placed."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pinned_fault_on_retired_row(self, backend):
        """The stuck-at cell stays pinned on the line diagnosis retired:
        per-group replays, same results as single-job batches."""

        def repair(ctl):
            stage = ctl.postcompute
            stage.array.inject_fault(3, 7, "sa1")
            assert stage.diagnose_and_repair() == [3]
            assert stage.placement_matters

        ctl, spans = _run_against_singles(backend, 4, False, repair)
        assert len(spans) == 3  # precompute once, postcompute per group
        post = [s for s in spans if s.attrs["label"].startswith("postcompute")]
        assert [s.attrs["lanes"] for s in post] == [2, 2]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_silent_hook_replays_per_group(self, backend):
        ctl = KaratsubaController(N_BITS, backend=backend)
        ctl.fault_hook = TransientFaultInjector(TransientFaultModel(), seed=0)
        records, spans = _replays(ctl, _pairs(5, 1))
        assert [r.product for r in records] == [a * b for a, b in _pairs(5, 1)]
        assert [s.attrs["lanes"] for s in spans] == [3, 2, 3, 2]

    # Seeded faults and their recorded outcomes, those of one replay
    # per wear group checked group by group: the failing check, its
    # pass and job, and the wear, energy and swaps the batch leaves (a
    # detection stops the batch at its group).
    @pytest.mark.parametrize(
        "backend, fault, seed, outcome, upsets, writes, swaps",
        [
            (
                backend, ("sa0", 6, 5), 6,
                ("postcompute", "residue", "pass-2[0]"), None,
                ((39480, 3095835.0), (136608, 10419394.0)), (4, 0),
            )
            for backend in BACKENDS
        ] + [
            (
                "word", TransientFaultModel(nor_flip_prob=2e-4), 0,
                ("precompute", "residue", "b32[2]"), (2, 0, 0),
                ((19740, 1557390.0), (0, 0.0)), (0, 0),
            ),
            (
                "scalar", TransientFaultModel(nor_flip_prob=2e-4), 0,
                ("precompute", "residue", "b20[0]"), (2, 0, 0),
                ((19740, 1557282.0), (0, 0.0)), (0, 0),
            ),
            (
                "word", TransientFaultModel(read_disturb_prob=1e-3), 0,
                ("precompute", "residue", "b3210[1]"), (0, 0, 1),
                ((39480, 3100196.0), (0, 0.0)), (1, 0),
            ),
            (
                "scalar", TransientFaultModel(read_disturb_prob=1e-3), 0,
                None, (0, 0, 4),
                ((39480, 3100074.0), (273216, 20801801.0)), (4, 4),
            ),
        ],
        ids=[
            "sa0-word", "sa0-scalar", "flip-word", "flip-scalar",
            "disturb-word", "disturb-scalar",
        ],
    )
    def test_seeded_faults_keep_their_outcomes(
        self, backend, fault, seed, outcome, upsets, writes, swaps
    ):
        ctl = KaratsubaController(N_BITS, backend=backend)
        injector = None
        if isinstance(fault, TransientFaultModel):
            injector = ctl.fault_hook = TransientFaultInjector(fault, seed=seed)
        else:
            kind, row, col = fault
            ctl.postcompute.array.inject_fault(row, col, kind)
        pairs = _pairs(4, seed)
        if outcome is None:
            records = ctl.run_jobs_batch(pairs)
            assert [r.product for r in records] == [a * b for a, b in pairs]
        else:
            with pytest.raises(StageSelfCheckError) as excinfo:
                ctl.run_jobs_batch(pairs)
            err = excinfo.value
            assert (err.stage, err.check, err.location) == outcome
        if upsets is not None:
            assert (
                injector.nor_flips, injector.write_failures, injector.read_disturbs
            ) == upsets
        assert tuple(
            (int(unit.array.writes.sum()), unit.array.energy_fj)
            for _, unit in ctl.crossbar_units()
        ) == writes
        assert tuple(s.leveler.swaps for s in _adder_stages(ctl)) == swaps


class TestFailureLocation:
    @pytest.mark.parametrize("per_group", (False, True), ids=("one-replay", "per-group"))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sensed_pass_of_job_3_is_located_at_3(
        self, backend, per_group, monkeypatch
    ):
        """A self-check failure names the lane's position in the batch,
        not its position within its wear group."""
        ctl = KaratsubaController(N_BITS, backend=backend)
        if per_group:
            ctl.fault_hook = TransientFaultInjector(TransientFaultModel(), seed=0)
        pairs = _pairs(4, 3)
        chunk_bits = ctl.precompute.plan.chunk_bits
        target = {
            "a0": pairs[3][0] & ((1 << chunk_bits) - 1),
            "b0": pairs[3][1] & ((1 << chunk_bits) - 1),
        }
        assert sum(
            (a & ((1 << chunk_bits) - 1), b & ((1 << chunk_bits) - 1))
            == (target["a0"], target["b0"])
            for a, b in pairs
        ) == 1
        executor = EXECUTORS[backend]
        execute = executor.execute

        def corrupt_job_3(self, program, bindings_list):
            stats = execute(self, program, bindings_list)
            for bindings, lane in zip(bindings_list, stats):
                if all(bindings.get(k) == v for k, v in target.items()):
                    for name in lane.results:
                        lane.results[name] ^= 1
            return stats

        monkeypatch.setattr(executor, "execute", corrupt_job_3)
        with pytest.raises(StageSelfCheckError) as excinfo:
            ctl.run_jobs_batch(pairs)
        err = excinfo.value
        assert err.stage == "precompute"
        assert err.location.endswith("[3]")
