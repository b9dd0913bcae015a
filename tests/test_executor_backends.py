"""ExecutorBackend protocol: the scalar and word-packed backends must
be interchangeable — per-lane results, cycle counts and write counters
bit-identical to the scalar oracle, and the batch's femtojoule total
equal to the oracle's lane sum — plus regression tests for the
correctness-fix batch that rode along with the backend split
(pack_ints edge cases, fleet pack-factor aggregation), and the one
program store (a memoised program carries its one compiled form).

Default device energies are integer-valued, so float equality is exact
and the comparisons below use ``==`` deliberately.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arith.koggestone import AdderUnit, latency_cc, mega_program
from repro.crossbar import CrossbarArray, WordPackedCrossbarArray
from repro.crossbar.faults import TransientFaultInjector, TransientFaultModel
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.karatsuba.postcompute import PostcomputeStage
from repro.magic import (
    BACKEND_NAMES,
    BACKENDS,
    ExecutorBackend,
    MagicExecutor,
    Program,
    ProgramBuilder,
    WordPackedBackend,
    get_backend,
    pack_ints,
    unpack_ints,
)
from repro.magic import executor as executor_mod
from repro.magic.ops import ParallelNor, ParallelNot
from repro.magic.passes import pack_cycles
from repro.portfolio.toom3 import Toom3Controller
from repro.sim.clock import Clock
from repro.sim.exceptions import MagicProtocolError, ProgramError
from repro.sim.stats import RunStats
from repro.telemetry import spans

from tests.test_batched_executor import (
    COLS,
    ROWS,
    _assert_oracle_parity,
    _one_lane_energies,
    _random_bindings,
    _random_program,
)

ALL_BACKENDS = list(BACKEND_NAMES)


# ----------------------------------------------------------------------
# Registry / protocol surface
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_canonical_names_resolve(self):
        for name in BACKEND_NAMES:
            backend = get_backend(name)
            assert isinstance(backend, ExecutorBackend)
            assert backend.name == name

    def test_aliases_resolve_to_same_instance(self):
        assert get_backend("word-packed") is get_backend("word")
        assert get_backend("WORD") is get_backend("word")

    def test_deleted_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            get_backend("bitplane")

    def test_instance_passthrough(self):
        backend = WordPackedBackend()
        assert get_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            get_backend("simd512")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError, match="backend must be"):
            get_backend(7)

    def test_registry_covers_canonical_names(self):
        assert set(BACKEND_NAMES) <= set(BACKENDS)


# ----------------------------------------------------------------------
# Randomized differential: every backend vs the per-lane scalar oracle
# ----------------------------------------------------------------------
def _scalar_oracle(program, bindings):
    runs = []
    for lane_bindings in bindings:
        array = CrossbarArray(ROWS, COLS)
        executor = MagicExecutor(array, clock=Clock())
        stats = executor.execute(program, lane_bindings)
        runs.append((stats, array))
    return runs


class TestBackendDifferential:
    # Batch sizes span one lane (the row is the plain word), a
    # non-power-of-two batch, 64 lanes and one lane past them, so the
    # word backend's narrow and wide lane-major rows are exercised.
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("seed,batch", [(0, 3), (1, 64), (2, 65), (3, 1)])
    def test_random_programs_bit_exact(self, backend, seed, batch):
        rng = random.Random(seed)
        program, writes = _random_program(rng)
        bindings = [
            {name: rng.randrange(2**width) for name, width in writes}
            for _ in range(batch)
        ]
        oracle = _scalar_oracle(program, bindings)

        resolved = get_backend(backend)
        template = CrossbarArray(ROWS, COLS)
        array = resolved.make_array(template, batch)
        executor = resolved.make_executor(array, clock=Clock())
        stats_list = executor.execute(program, bindings)

        for lane, (stats, lane_array) in enumerate(oracle):
            got = stats_list[lane]
            assert got.results == stats.results
            assert got.cycles == stats.cycles
            assert got.op_counts == stats.op_counts
            assert got.nor_ops == stats.nor_ops
            assert got.shift_ops == stats.shift_ops
            if backend == "word":
                # Per-lane energy is not kept: a reader fails loudly.
                assert math.isnan(got.energy_fj)
            else:
                assert got.energy_fj == stats.energy_fj
            assert np.array_equal(array.snapshot(lane), lane_array.snapshot())
        first = oracle[0][1]
        assert np.array_equal(array.writes, first.writes)
        assert array.max_writes() == first.max_writes()
        oracle_energy = [run.energy_fj for run, _ in oracle]
        assert array.total_energy_fj() == sum(oracle_energy)
        assert _one_lane_energies(program, bindings, backend) == oracle_energy

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_execute_batch_selects_backend(self, backend):
        array = CrossbarArray(2, 8)
        executor = MagicExecutor(array)
        program = (
            ProgramBuilder()
            .write(0, "x", width=8)
            .read(0, "out", width=8)
            .build()
        )
        resolved = get_backend(backend)
        lanes = resolved.make_executor(resolved.make_array(array, 2))
        stats = lanes.execute(
            executor.compile(program), [{"x": v} for v in (5, 250)]
        )
        assert [s.results["out"] for s in stats] == [5, 250]
        # The scalar template array stays untouched either way.
        assert array.max_writes() == 0


class TestWordPackedErrors:
    def test_strict_nor_violation_raises(self):
        backend = get_backend("word")
        array = backend.make_array(CrossbarArray(2, 4), 3)
        executor = backend.make_executor(array)
        program = ProgramBuilder().nor([0], 1).build()  # out row never init'd
        array.store_row(1, np.zeros((3, 4), dtype=bool))
        with pytest.raises(MagicProtocolError, match="not initialised"):
            executor.execute(program, [{}, {}, {}])

    def test_strict_masked_nor_violation_raises(self):
        backend = get_backend("word")
        array = backend.make_array(CrossbarArray(2, 4), 3)
        executor = backend.make_executor(array)
        # Column 3 of the output row is zero in the last lane only.
        word = np.ones((3, 4), dtype=bool)
        word[2, 3] = False
        array.store_row(1, word)
        program = ProgramBuilder().nor([0], 1, cols=(1, 4)).build()
        with pytest.raises(MagicProtocolError, match="not initialised"):
            executor.execute(program, [{}, {}, {}])
        # Outside the gate's window the zero is irrelevant.
        executor.execute(ProgramBuilder().nor([0], 1, cols=(0, 3)).build(), [{}] * 3)

    def test_lane_count_mismatch_raises(self):
        backend = get_backend("word")
        array = backend.make_array(CrossbarArray(2, 4), 3)
        executor = backend.make_executor(array)
        with pytest.raises(ProgramError, match="binding sets"):
            executor.execute(ProgramBuilder().nop().build(), [{}])

    def test_geometry_mismatch_raises(self):
        backend = get_backend("word")
        small = backend.make_executor(backend.make_array(CrossbarArray(2, 4), 1))
        compiled = small.compile(ProgramBuilder().nop().build())
        large = backend.make_executor(backend.make_array(CrossbarArray(4, 8), 1))
        with pytest.raises(ProgramError, match="compiled for"):
            large.execute(compiled, [{}])

    def test_invalid_program_rejected_at_compile(self):
        backend = get_backend("word")
        executor = backend.make_executor(backend.make_array(CrossbarArray(2, 8), 2))
        bad = ProgramBuilder().nor([0, 1], 5).build()
        with pytest.raises(ProgramError):
            executor.execute(bad, [{}, {}])

    def test_unbound_operand_raises(self):
        backend = get_backend("word")
        array = backend.make_array(CrossbarArray(2, 8), 2)
        executor = backend.make_executor(array)
        program = ProgramBuilder().write(0, "x", width=8).build()
        with pytest.raises(ProgramError, match="unbound operand"):
            executor.execute(program, [{"x": 1}, {}])

    def test_from_scalar_copies_faults(self):
        template = CrossbarArray(4, 4)
        template.inject_fault(1, 2, "sa0")
        array = WordPackedCrossbarArray.from_scalar(template, 5)
        assert array.faults == {(1, 2): "sa0"}
        for lane in range(5):
            assert not array.snapshot(lane)[1, 2]

    def test_one_lane_from_pinned_sa0_template_matches_scalar(self):
        """A stuck-at-0 cell keeps the template off the all-ones steady
        state, so a one-lane clone takes from_scalar's row-by-row path;
        the replay must still match the scalar oracle exactly."""
        template = CrossbarArray(ROWS, COLS)
        template.state[:] = True
        template.inject_fault(0, 5, "sa0")
        assert not template.state.all()
        program = _fault_program()
        bindings = [{"x": 0xB66D, "y": 0x0F0F}]  # x drives the sa0 cell
        outcomes = {}
        for name in ("word", "scalar"):
            backend = get_backend(name)
            array = backend.make_array(template, 1)
            stats = backend.make_executor(array).execute(program, bindings)
            outcomes[name] = (stats[0], array.snapshot(0), array.total_energy_fj())
        (word, word_state, word_energy), (oracle, oracle_state, oracle_energy) = (
            outcomes["word"], outcomes["scalar"]
        )
        assert word.results == oracle.results
        assert word_energy == oracle_energy
        assert np.array_equal(word_state, oracle_state)
        assert not word_state[0, 5]


# ----------------------------------------------------------------------
# Fault-hook injection parity (satellite: backend-parametrized suite)
# ----------------------------------------------------------------------
def _fault_program():
    """NOR/WRITE/READ/SHIFT mix so every hook callback fires."""
    builder = ProgramBuilder(label="faulty")
    builder.write(0, "x", width=COLS)
    builder.write(1, "y", width=COLS)
    for out in (2, 3):
        builder.init([out])
        builder.nor([0, 1], out)
    builder.shift(2, 4, 3, fill=0)
    builder.read(3, "n", width=COLS)
    builder.read(4, "s", width=COLS)
    return builder.build()


def _run_word(program, bindings, hook):
    backend = get_backend("word")
    array = backend.make_array(CrossbarArray(ROWS, COLS), len(bindings))
    executor = backend.make_executor(array, fault_hook=hook)
    return executor.execute(program, bindings), array


def _run_scalar_stepwise(program, bindings, hook):
    """The scalar oracle replayed one micro-op at a time across all
    lanes: each callback draws (cols,) per lane in lane order, which
    consumes the generator exactly as the word backend's single
    (batch, cols) draw per callback does."""
    backend = get_backend("scalar")
    array = backend.make_array(CrossbarArray(ROWS, COLS), len(bindings))
    executor = backend.make_executor(array, fault_hook=hook)
    stats = [RunStats() for _ in bindings]
    for op in program:
        step = executor.execute(Program([op], label=program.label), bindings)
        stats = [total.merge(lane) for total, lane in zip(stats, step)]
    return stats, array


def _assert_hook_parity(batch, prob):
    """Under one seed the word backend strikes the same cells as the
    stepwise scalar oracle."""
    model = TransientFaultModel(
        nor_flip_prob=prob, write_fail_prob=prob, read_disturb_prob=prob
    )
    program = _fault_program()
    rng = random.Random(21)
    bindings = [
        {"x": rng.randrange(2**COLS), "y": rng.randrange(2**COLS)}
        for _ in range(batch)
    ]
    outcomes = {}
    for name, run in (("word", _run_word), ("scalar", _run_scalar_stepwise)):
        hook = TransientFaultInjector(model, seed=77)
        stats, array = run(program, bindings, hook)
        outcomes[name] = {
            "results": [s.results for s in stats],
            "energy": array.total_energy_fj(),
            "state": [array.snapshot(lane) for lane in range(batch)],
            "nor_flips": hook.nor_flips,
            "write_failures": hook.write_failures,
            "read_disturbs": hook.read_disturbs,
        }
    word, oracle = outcomes["word"], outcomes["scalar"]
    assert word["nor_flips"] == oracle["nor_flips"] > 0
    assert word["write_failures"] == oracle["write_failures"]
    assert word["read_disturbs"] == oracle["read_disturbs"] > 0
    assert word["results"] == oracle["results"]
    assert word["energy"] == oracle["energy"]
    for lane in range(batch):
        assert np.array_equal(word["state"][lane], oracle["state"][lane])


class TestFaultHookParity:
    # 9 and 65 lanes sit one past a power of two.
    @pytest.mark.parametrize("batch", [9, 65])
    def test_word_matches_scalar_oracle_under_same_seed(self, batch):
        _assert_hook_parity(batch=batch, prob=0.05)

    # One lane takes identity packing; two lanes are the narrowest
    # packed batch.  At prob=0.05 a lane
    # this narrow draws no read disturb, so these run at 0.15.
    @pytest.mark.parametrize("batch", [1, 2])
    def test_narrow_batches_match_scalar_oracle(self, batch):
        _assert_hook_parity(batch=batch, prob=0.15)

    def test_hook_meets_padding_lane(self):
        """Three lanes pack into rows of exactly ``3 * COLS`` bits, with
        no padding lane: every row the hooks unpack and re-store holds
        the three lanes' words side by side, and a strike in one lane
        must not leak into its neighbours."""
        array = WordPackedCrossbarArray(3, ROWS, COLS)
        assert array.row_bits == 3 * COLS
        assert array._full == (1 << (3 * COLS)) - 1
        _assert_hook_parity(batch=3, prob=0.15)

    def test_hooks_compose_with_pinned_faults_on_word(self):
        """Transient strikes re-pin permanent faults (layer composition)."""
        model = TransientFaultModel(nor_flip_prob=1.0)
        hook = TransientFaultInjector(model, seed=3)
        template = CrossbarArray(ROWS, COLS)
        template.inject_fault(2, 5, "sa1")
        backend = get_backend("word")
        array = backend.make_array(template, 4)
        executor = backend.make_executor(array, fault_hook=hook)
        program = (
            ProgramBuilder().write(0, "x", width=COLS).init([2]).nor([0], 2)
        ).build()
        executor.execute(program, [{"x": 0}] * 4)
        assert hook.nor_flips > 0
        for lane in range(4):
            assert array.snapshot(lane)[2, 5]  # sa1 survives the flips


# ----------------------------------------------------------------------
# Telemetry span parity: one lock-step span on the shared clock
# ----------------------------------------------------------------------
class TestTelemetrySpanParity:
    def _spans_for(self, name):
        backend = get_backend(name)
        program, writes = _random_program(random.Random(5), ops=12)
        bindings = [
            {w: random.Random(6).randrange(2**width) for w, width in writes}
            for _ in range(3)
        ]
        clock = Clock()
        clock.tick(1000)
        with spans.tracing() as tracer:
            array = backend.make_array(CrossbarArray(ROWS, COLS), 3)
            executor = backend.make_executor(array, clock=clock)
            executor.execute(program, bindings)
        return tracer.roots

    def test_word_span_matches_scalar(self):
        word = self._spans_for("word")
        oracle = self._spans_for("scalar")
        assert len(word) == len(oracle) == 1
        w, s = word[0], oracle[0]
        assert w.name == s.name == "magic.program"
        assert (w.begin_cc, w.end_cc) == (s.begin_cc, s.end_cc)
        assert w.begin_cc == 1000 < w.end_cc
        assert w.attrs == s.attrs
        assert w.attrs["lanes"] == 3
        assert w.attrs["ops"] > 0


# ----------------------------------------------------------------------
# One program store: memoised programs carry their one compiled form
# ----------------------------------------------------------------------
def _tiny_program(label="tiny", row=0):
    return (
        ProgramBuilder(label=label)
        .write(row, "x", width=COLS)
        .init([2])
        .nor([row], 2, cols=(1, 9))
        .read(2, "out", width=COLS)
        .build()
    )


def _compile_counts(controller):
    """Summed compile hits and misses over *controller*'s crossbars."""
    hits = misses = 0
    for _, unit in controller.crossbar_units():
        stats = unit.executor.compile_cache_stats()
        hits += stats.hits
        misses += stats.misses
    return hits, misses


class TestSharedCompileCache:
    def test_fresh_stages_share_one_compiled_program(self, fresh_programs):
        """Equal stages hold the same mega-program objects, so only the
        first stage's replay compiles: the second one's counts a hit."""
        first, second = PostcomputeStage(256), PostcomputeStage(256)
        program = first._mega_programs[0]
        assert second._mega_programs[0] is program
        compiled = first.executor.compile(program)
        assert second.executor.compile(program) is compiled
        assert first.executor.compile_cache_stats().as_dict() == {
            "hits": 0, "misses": 1, "evictions": 0,
        }
        assert second.executor.compile_cache_stats().as_dict() == {
            "hits": 1, "misses": 0, "evictions": 0,
        }

        a, b = Toom3Controller(270), Toom3Controller(270)
        for stage_a, stage_b in ((a.evaluate, b.evaluate),
                                 (a.interpolate, b.interpolate)):
            assert len(stage_a._mega_programs) == len(stage_a.units)
            assert all(
                pa is pb for pa, pb in zip(
                    stage_a._mega_programs, stage_b._mega_programs
                )
            )
        rng = random.Random(270)
        pairs = [(rng.getrandbits(270), rng.getrandbits(270))]
        for controller in (a, b):
            (record,) = controller.run_jobs_batch(pairs)
            assert record.product == pairs[0][0] * pairs[0][1]
        hits_a, misses_a = _compile_counts(a)
        assert misses_a == 3  # evaluate, interpolate and interpolate.1
        assert _compile_counts(b) == (hits_a + misses_a, 0)

    def test_lru_stays_within_bound(self, fresh_programs):
        """The stage-program memo keeps its 64 most recent programs; an
        evicted one is rebuilt as a new, equal, uncompiled program."""
        bound = mega_program.cache_info().maxsize
        assert bound == 64
        first = mega_program("unit0", (), (), (), (), 8, False)
        for index in range(1, bound + 5):
            mega_program(f"unit{index}", (), (), (), (), 8, False)
            assert mega_program.cache_info().currsize <= bound
        assert mega_program.cache_info().currsize == bound
        MagicExecutor(CrossbarArray(ROWS, COLS)).compile(first)
        again = mega_program("unit0", (), (), (), (), 8, False)
        assert again is not first
        assert again == first
        assert not again.is_compiled(ROWS, COLS)

    def test_equal_programs_compile_separately(self):
        """The compiled form lives on the program object: an equal
        program built elsewhere compiles its own."""
        executor = MagicExecutor(CrossbarArray(ROWS, COLS))
        program = _tiny_program()
        compiled = executor.compile(program)
        assert executor.compile(program) is compiled
        other = _tiny_program()
        assert other == program
        assert executor.compile(other) is not compiled
        assert executor.compile_cache_stats().as_dict() == {
            "hits": 1, "misses": 2, "evictions": 0,
        }
        # Another geometry is another compiled form of the same program.
        wide = MagicExecutor(CrossbarArray(ROWS, COLS + 1)).compile(program)
        assert wide is not compiled
        assert (wide.rows, wide.cols) == (ROWS, COLS + 1)

    def test_strides_share_stride_free_lowering(self):
        """Replay plans of one program hang off its one lowering: a plan
        is cached by identity per (batch, row map, strict), plans at
        other batch sizes share its lane-free entries (full-width gates,
        whole-row INITs, READs) by identity, and equal masks are one
        integer."""
        program = (
            ProgramBuilder(label="strides")
            .write(0, "x", width=COLS)
            .init([2, 3, 4])
            .nor([0], 2)
            .nor([0], 3, cols=(1, 9))
            .nor([0], 4, cols=(1, 9))
            .read(2, "out", width=COLS)
            .build()
        )
        word = get_backend("word")
        compiled = MagicExecutor(CrossbarArray(ROWS, COLS)).compile(program)
        lowered = {}
        for batch in (1, 4, 64):
            array = word.make_array(CrossbarArray(ROWS, COLS), batch)
            executor = word.make_executor(array)
            executor.execute(compiled, [{"x": 5}] * batch)
            lowered[array.batch] = compiled.word
        one, four, wide = lowered[1], lowered[4], lowered[64]
        assert one is four is wide
        assert one._writes_deltas is four._writes_deltas
        identity = tuple(range(ROWS))
        assert set(one._plans) == {(lanes, identity, True) for lanes in lowered}
        plan1, plan4 = one.plan(1, identity, True), one.plan(4, identity, True)
        assert plan1 is one.plan(1, identity, True)
        write, init, full_nor, masked_nor, twin, read = plan1
        assert full_nor[0] == executor_mod._NOR1
        assert masked_nor[0] == twin[0] == executor_mod._GATE
        assert plan4[1] is init and plan4[2] is full_nor and plan4[5] is read
        assert plan4[3] is not masked_nor
        mask = masked_nor[5]
        assert mask == sum(1 << col for col in range(1, 9))
        assert twin[5] is mask
        # Another row map or strictness is another plan, rows resolved.
        swapped = (1, 0) + identity[2:]
        assert one.plan(1, swapped, True)[2][1:3] == (1, 2)
        lax = one.plan(1, identity, False)
        assert lax[2][0] == executor_mod._GATE and lax[2][4] == 2


# ----------------------------------------------------------------------
# Physical-row replay plans: remaps, packed gangs, strict raises
# ----------------------------------------------------------------------
#: The one lane :data:`MIDWAY_ENERGY_FJ` was measured with.
MIDWAY_BINDINGS = ({"x": 0xB66D, "y": 0x0F0F, "z": 0x7FFF},)


def _strict_violation_midway(bindings=MIDWAY_BINDINGS):
    """Lanes whose NOR output row (logical 5, remapped onto spare word
    line 8) holds WRITE data halfway through the program: returns the
    strict check's message and the energy total it leaves behind."""
    template = CrossbarArray(ROWS, COLS, spare_rows=1)
    template.state[:] = True
    if template.remap_row(5) != ROWS:
        raise RuntimeError("expected logical row 5 on spare line 8")
    program = (
        ProgramBuilder(label="midway")
        .write(0, "x", width=COLS)
        .write(1, "y", width=COLS)
        .init([2])
        .nor([0, 1], 2)
        .init([3])
        .nor([2], 3)
        .shift(2, 4, 3, fill=0)
        .write(5, "z", width=COLS)
        .nor([0], 5)
        .read(3, "never", width=COLS)
        .build()
    )
    backend = get_backend("word")
    array = backend.make_array(template, len(bindings))
    executor = backend.make_executor(array)
    try:
        executor.execute(program, list(bindings))
    except MagicProtocolError as err:
        return str(err), array.total_energy_fj()
    raise RuntimeError("strict NOR check did not fire")


#: Switching energy counted before the strict raise in
#: :func:`_strict_violation_midway` (the two WRITEs, the SHIFT and the
#: RESETs of the two NORs; the data-independent part is never charged).
MIDWAY_ENERGY_FJ = 2866.0


class TestReplayPlans:
    @pytest.mark.parametrize("optimize", [False, True], ids=["paper", "packed"])
    def test_repeated_pass_shares_plan_entries(self, optimize):
        """A mega-program that concatenates one adder program twice
        lowers each repeated op once: both passes' compiled steps and
        plan entries are the same objects, and the replay still equals
        the scalar oracle."""
        unit = AdderUnit(16)
        lay = unit.adder.layout
        adder = unit.adder.program("add", optimize=optimize)
        builder = ProgramBuilder(label="repeated-pass")
        for i in range(2):
            builder.write(lay.x_row, f"x{i}").write(lay.y_row, f"y{i}")
            builder.concat(adder).read(lay.out_row, f"out{i}")
        compiled = unit.executor.compile(builder.build())
        m = len(adder.ops)
        steps = compiled.steps
        assert all(a is b for a, b in zip(steps[2:2 + m], steps[m + 5:]))

        rng = random.Random(0x5EED + optimize)
        bindings = [
            {name: rng.getrandbits(16) for name in ("x0", "y0", "x1", "y1")}
            for _ in range(3)
        ]
        results, energy = [], []
        for name in ("scalar", "word"):
            backend = get_backend(name)
            lanes = backend.make_array(unit.array, len(bindings))
            lanes.reset_to_ones()
            stats = backend.make_executor(lanes).execute(compiled, bindings)
            results.append([s.results for s in stats])
            energy.append(lanes.total_energy_fj())
        assert results[0] == results[1] == [
            {"out0": b["x0"] + b["y0"], "out1": b["x1"] + b["y1"]}
            for b in bindings
        ]
        assert energy[0] == energy[1]

        (plan,) = compiled.word._plans.values()
        n = (len(plan) - 6) // 2  # two WRITEs and a READ per pass
        assert len(plan) == 2 * n + 6
        assert all(a is b for a, b in zip(plan[2:2 + n], plan[n + 5:]))

    @pytest.mark.parametrize("batch", [1, 3, 64])
    def test_plan_rebound_after_remap(self, batch):
        """A remap changes the row map, so the next replay takes a new
        plan: a stale one would keep driving the old physical row."""
        rng = random.Random(40 + batch)
        program, writes = _random_program(rng, ops=60)
        bindings = _random_bindings(rng, writes, batch)
        # Every word line, spares included, starts all ones, so a remap
        # changes where the program runs but not what it computes.
        template = CrossbarArray(ROWS, COLS, spare_rows=2)
        template.state[:] = True
        compiled = MagicExecutor(template).compile(program)
        word = get_backend("word")
        row = None
        for remapped in (False, True):
            if remapped:
                assert template.remap_row(row) >= ROWS
            array = word.make_array(template, batch)
            stats = word.make_executor(array).execute(compiled, bindings)
            oracle_energy = 0.0
            for lane, lane_bindings in enumerate(bindings):
                oracle = CrossbarArray(ROWS, COLS, spare_rows=2)
                oracle.state[:] = True
                if remapped:
                    oracle.remap_row(row)
                expected = MagicExecutor(oracle).execute(program, lane_bindings)
                assert stats[lane].results == expected.results
                assert np.array_equal(array.snapshot(lane), oracle.snapshot())
                assert np.array_equal(array.writes, oracle.writes)
                oracle_energy += expected.energy_fj
                # The lane alone, at one lane, through the same plan cache.
                one = word.make_array(template, 1)
                word.make_executor(one).execute(compiled, [lane_bindings])
                assert one.total_energy_fj() == expected.energy_fj
            assert array.total_energy_fj() == oracle_energy
            if row is None:
                # Remap a gate output the replay leaves off all ones: a
                # stale plan never drives the spare, which stays all ones.
                final = oracle.snapshot()
                row = next(
                    op.out_row
                    for op in program
                    if op.opcode == "nor" and not final[op.out_row].all()
                )

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 64, 65])
    def test_packed_gangs_match_oracle(self, batch, strict):
        """pack_cycles fuses independent gates into gangs, which a plan
        flattens into one step per gate."""
        rng = random.Random(70 + batch + strict)
        # About half the random programs hold independent gates; take
        # the first of this seed's stream that packs at least one gang.
        for _ in range(20):
            program, writes = _random_program(rng, ops=80, init_outputs=strict)
            packed = pack_cycles(program)
            gangs = [op for op in packed if isinstance(op, (ParallelNor, ParallelNot))]
            if gangs:
                break
        assert gangs
        _assert_oracle_parity(
            packed, _random_bindings(rng, writes, batch), "word", strict
        )

    def test_strict_violation_midway_one_lane(self):
        message, energy = _strict_violation_midway()
        # The logical row, not the spare word line behind it.
        assert message.startswith("NOR output row 5 not initialised")
        assert energy == MIDWAY_ENERGY_FJ

    def test_strict_violation_midway_three_lanes(self):
        """Three lanes raise at the same gate: the gates before it stay
        counted, so the total is the sum of each lane replayed alone at
        one lane."""
        bindings = (
            *MIDWAY_BINDINGS,
            {"x": 0x1234, "y": 0xFFF0, "z": 0x00FF},
            {"x": 0xFFFF, "y": 0x8001, "z": 0xFFFE},
        )
        message, total = _strict_violation_midway(bindings)
        assert message.startswith("NOR output row 5 not initialised")
        alone = [_strict_violation_midway((lane,)) for lane in bindings]
        assert [m for m, _ in alone] == [message] * 3
        assert alone[0][1] == MIDWAY_ENERGY_FJ
        assert total == sum(energy for _, energy in alone)

    def test_strict_violation_survives_python_O(self):
        code = (
            "from tests.test_executor_backends import _strict_violation_midway\n"
            "print(*_strict_violation_midway(), sep='|')\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)])
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        message, energy = proc.stdout.strip().split("|")
        assert message.startswith("NOR output row 5 not initialised")
        assert float(energy) == MIDWAY_ENERGY_FJ


# ----------------------------------------------------------------------
# Lane counts of every shape: the word array's one energy total is the
# oracle's lane sum
# ----------------------------------------------------------------------
#: Powers of two from 1 to 64 lanes, and batches on either side of them.
PADDING_LANE_COUNTS = [1, 2, 3, 5, 8, 9, 63, 64, 65, 130]

#: Distinct operand sets the lanes of a mega-program batch cycle through
#: (a prime, so the last real lane is a different one at each count).
MEGA_POOL = 7


@pytest.fixture(scope="module")
def mega_programs():
    """The n = 256 precompute and postcompute mega-programs, a pool of
    random operand sets, and each set's scalar-oracle results and energy."""
    from repro.karatsuba.precompute import PrecomputeStage

    rng = random.Random(0x9AD)
    scalar = get_backend("scalar")
    out = []
    for stage in (PrecomputeStage(256), PostcomputeStage(256)):
        compiled = stage.executor.compile(stage._mega_programs[0])
        pool = [
            {name: rng.getrandbits(width) for name, width in compiled.write_specs}
            for _ in range(MEGA_POOL)
        ]
        lanes = scalar.make_array(stage.array, MEGA_POOL)
        lanes.reset_to_ones()
        stats = scalar.make_executor(lanes).execute(compiled, pool)
        oracle = [(s.results, e) for s, e in zip(stats, lanes.energy_fj)]
        out.append((stage, compiled, pool, oracle))
    return out


class TestPaddingLaneEnergy:
    @pytest.mark.parametrize("batch", PADDING_LANE_COUNTS)
    def test_mega_programs_total_equals_oracle_lane_sum(self, mega_programs, batch):
        word = get_backend("word")
        for stage, compiled, pool, oracle in mega_programs:
            picks = [lane % MEGA_POOL for lane in range(batch)]
            array = word.make_array(stage.array, batch)
            array.reset_to_ones()
            assert array.strict_magic
            stats = word.make_executor(array).execute(
                compiled, [pool[pick] for pick in picks]
            )
            assert [s.results for s in stats] == [oracle[p][0] for p in picks]
            assert array.total_energy_fj() == sum(oracle[p][1] for p in picks)


# ----------------------------------------------------------------------
# Satellite 3: pack_ints / unpack_ints edge cases and properties
# ----------------------------------------------------------------------
class TestPackingEdgeCases:
    def test_empty_batch_width_zero(self):
        packed = pack_ints([], 0)
        assert packed.shape == (0, 0)
        assert unpack_ints(packed) == []

    def test_width_zero_roundtrip(self):
        packed = pack_ints([0, 0, 0], 0)
        assert packed.shape == (3, 0)
        assert unpack_ints(packed) == [0, 0, 0]

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pack_ints([1], -1)

    def test_validation_precedes_empty_early_return(self):
        # Regression: the old early return for width == 0 skipped value
        # validation, silently accepting unstorable values.
        with pytest.raises(ValueError):
            pack_ints([-1], 0)
        with pytest.raises(ValueError):
            pack_ints([1], 0)
        with pytest.raises(ValueError):
            pack_ints([0, 3], 0)

    def test_roundtrip_property_across_widths(self):
        rng = random.Random(13)
        for width in [0, 1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 128, 255, 256]:
            for batch in (0, 1, 5):
                values = [rng.randrange(2**width) if width else 0
                          for _ in range(batch)]
                packed = pack_ints(values, width)
                assert packed.shape == (batch, width)
                assert packed.dtype == np.bool_
                assert unpack_ints(packed) == values

    def test_one_lane_field_is_the_value(self):
        """At one lane pack_lanes / unpack_lanes are the identity, but
        still validate like pack_ints and demand exactly one value."""
        pack, unpack = executor_mod.pack_lanes, executor_mod.unpack_lanes
        assert pack([0xB66D], 16, 1) == 0xB66D
        assert pack(iter([7]), 3, 1) == 7
        assert unpack(0xB66D, 16, 1, 1) == [0xB66D]
        with pytest.raises(ValueError, match="only non-negative"):
            pack([-1], 16, 1)
        with pytest.raises(ValueError, match="does not fit in 16 bits"):
            pack([1 << 16], 16, 1)
        for values in ([], [1, 2]):
            with pytest.raises(ValueError):
                pack(values, 16, 1)

    def test_boundary_values_roundtrip(self):
        for width in (1, 8, 64, 256):
            values = [0, 1, 2**width - 1, 2 ** (width - 1)]
            assert unpack_ints(pack_ints(values, width)) == values


# ----------------------------------------------------------------------
# Stage / pipeline / adder plumbing across backends
# ----------------------------------------------------------------------
class TestPipelineBackends:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_pipeline_backend_bit_identical(self, backend):
        rng = random.Random(31)
        pairs = [(rng.randrange(2**16), rng.randrange(2**16)) for _ in range(6)]
        reference = KaratsubaPipeline(16, backend="scalar")
        candidate = KaratsubaPipeline(16, backend=backend)
        ref = reference.run_stream(pairs, batch_size=3)
        got = candidate.run_stream(pairs, batch_size=3)
        assert got.products == ref.products == [a * b for a, b in pairs]
        assert got.makespan_cc == ref.makespan_cc
        ref_ctl, got_ctl = reference.controller, candidate.controller
        assert got_ctl.total_energy_fj() == ref_ctl.total_energy_fj()
        assert got_ctl.max_writes() == ref_ctl.max_writes()
        assert np.array_equal(
            got_ctl.precompute.array.writes, ref_ctl.precompute.array.writes
        )
        assert np.array_equal(
            got_ctl.postcompute.array.writes, ref_ctl.postcompute.array.writes
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_run_batch_adder_backend(self, backend):
        """A batched adder pass charges its array what one-lane passes
        over the same pairs charge: writes and energy, not zero."""
        rng = random.Random(17)
        pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(5)]
        unit = AdderUnit(8, backend=backend)
        writes, energy = unit.array.writes.copy(), unit.array.energy_fj
        assert unit.run_pass(pairs) == [x + y for x, y in pairs]
        assert unit.pass_cc("add") == latency_cc(8)

        single = AdderUnit(8, backend=backend)
        lane_writes = single.array.writes.copy()
        lane_energy = []
        for pair in pairs:
            before = single.array.energy_fj
            single.run_pass([pair])
            lane_energy.append(single.array.energy_fj - before)
            if len(lane_energy) == 1:
                lane_writes = single.array.writes - lane_writes
        assert lane_writes.sum() > 0 and min(lane_energy) > 0
        assert np.array_equal(
            unit.array.writes - writes, len(pairs) * lane_writes
        )
        assert unit.array.energy_fj - energy == sum(lane_energy)

    def test_unknown_stage_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            KaratsubaPipeline(16, backend="gpu")


# ----------------------------------------------------------------------
# Satellite 2: fleet-wide pack-factor aggregation
# ----------------------------------------------------------------------
class TestServicePackFactor:
    def test_fleet_ratio_is_summed_gates_over_summed_cycles(self):
        from repro.service import MultiplicationService, ServiceConfig

        svc = MultiplicationService(
            ServiceConfig(batch_size=2, ways_per_width=2)
        )
        # Two widths with different stage programs keep the per-stage
        # pack factors uneven, which the old reconstruction
        # (sum of pack_factor * cycles_after) mis-weighted.
        for a in range(4):
            svc.submit(a + 2, a + 9, 16)
            svc.submit(a + 3, a + 7, 32)
        svc.drain()
        opt = svc.snapshot()["optimizer"]
        assert opt["enabled"] is True

        gates = 0
        after = 0
        stage_factors = set()
        for stats in opt["ways"].values():
            for stage_stats in (stats["precompute"], stats["postcompute"]):
                assert isinstance(stage_stats["gates"], int)
                gates += stage_stats["gates"]
                after += stage_stats["cycles_after"]
                stage_factors.add(round(stage_stats["pack_factor"], 9))
        assert len(stage_factors) > 1  # genuinely uneven stages
        assert opt["gates"] == gates
        assert opt["pack_factor"] == gates / after
        assert opt["pack_factor"] > 1.0

    def test_summarize_reports_exposes_raw_gates(self):
        from repro.magic.passes import optimize_program, summarize_reports

        program = (
            ProgramBuilder()
            .init([2, 3])
            .nor([0, 1], 2)
            .nor([4, 5], 3)
            .build()
        )
        result = optimize_program(program)
        summary = summarize_reports([result, result])
        assert summary["gates"] == 2 * sum(
            1 if not hasattr(op, "gates") else len(op.gates)
            for op in result.program.ops
        )
        assert summary["pack_factor"] == (
            summary["gates"] / summary["cycles_after"]
        )


# ----------------------------------------------------------------------
# Service on the word backend (default-on deployment surface)
# ----------------------------------------------------------------------
class TestServiceBackendConfig:
    def test_default_backend_is_word(self):
        from repro.service import ServiceConfig

        assert ServiceConfig().backend == "word"

    def test_backend_in_pipeline_cache_variant(self):
        from repro.service.workers import BankDispatcher

        word = BankDispatcher(backend="word")
        scalar = BankDispatcher(backend="scalar")
        assert word._variant(64, 0) != scalar._variant(64, 0)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_service_products_match_under_any_backend(self, backend):
        from repro.service import MultiplicationService, ServiceConfig

        svc = MultiplicationService(
            ServiceConfig(batch_size=3, ways_per_width=1, backend=backend)
        )
        rng = random.Random(backend)
        jobs = [
            (rng.randrange(2**16), rng.randrange(2**16)) for _ in range(5)
        ]
        for a, b in jobs:
            svc.submit(a, b, 16)
        results = svc.drain()
        assert [r.product for r in results] == [a * b for a, b in jobs]
