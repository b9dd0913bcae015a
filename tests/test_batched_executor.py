"""Batched executor: differential tests against the scalar oracle,
plus regression tests for the energy-accounting fixes.

The batched engine's contract is bit-exactness: running a compiled
program over B lanes must produce, per lane, the same results, cycle
counts, op counts and cell writes as running the scalar executor once
per lane, and the batch's one femtojoule total must equal the sum of
the scalar lanes.  The default device energies are integer-valued, so
float equality is exact and the comparisons below use ``==``
deliberately.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.arith.koggestone import AdderUnit, latency_cc
from repro.crossbar import CrossbarArray, DeviceModel
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.magic import (
    BACKEND_NAMES,
    MagicExecutor,
    ProgramBuilder,
    bits_to_int,
    int_to_bits,
    get_backend,
    pack_ints,
    unpack_ints,
)
from repro.magic.stage import CrossbarStage
from repro.sim.clock import Clock
from repro.sim.exceptions import ProgramError
from repro.sim.stats import RunStats

DEVICE = DeviceModel()


# ----------------------------------------------------------------------
# Vectorised packing
# ----------------------------------------------------------------------
class TestPacking:
    def test_int_to_bits_roundtrip(self):
        rng = random.Random(3)
        for width in (1, 7, 8, 9, 64, 130):
            for _ in range(20):
                value = rng.randrange(2**width)
                assert bits_to_int(int_to_bits(value, width)) == value

    def test_int_to_bits_rejects_bad_values(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 8)
        with pytest.raises(ValueError):
            int_to_bits(256, 8)

    def test_pack_ints_matches_scalar(self):
        rng = random.Random(4)
        values = [rng.randrange(2**37) for _ in range(9)]
        packed = pack_ints(values, 37)
        assert packed.shape == (9, 37)
        for row, value in zip(packed, values):
            assert np.array_equal(row, int_to_bits(value, 37))
        assert unpack_ints(packed) == values

    def test_pack_ints_rejects_overflow(self):
        with pytest.raises(ValueError):
            pack_ints([3, 4], 2)
        with pytest.raises(ValueError):
            pack_ints([-1], 2)

    def test_empty_edges(self):
        assert pack_ints([], 8).shape == (0, 8)
        assert unpack_ints(np.zeros((3, 0), dtype=bool)) == [0, 0, 0]


# ----------------------------------------------------------------------
# Energy-accounting regression tests (satellite fixes)
# ----------------------------------------------------------------------
class TestEnergyAccountingFixes:
    def test_maj_rows_charges_switching_cells_only(self):
        array = CrossbarArray(4, 4, strict_magic=False)
        array.state[0] = [1, 1, 1, 1]
        array.state[1] = [1, 1, 0, 0]
        array.state[2] = [1, 0, 1, 0]
        array.state[3] = [1, 1, 1, 1]
        before = array.energy_fj
        array.maj_rows([0, 1, 2], 3)
        # majority = 1110: only the last cell switches (1 -> 0, a reset).
        assert list(array.state[3]) == [True, True, True, False]
        assert array.energy_fj - before == DEVICE.e_reset_fj
        # The write pulse still reaches every masked cell.
        assert list(array.writes[3]) == [1, 1, 1, 1]

    def test_init_rows_duplicate_rows_counted_once(self):
        array = CrossbarArray(2, 4)
        before = array.energy_fj
        array.init_rows([0, 0, 1])
        # One pulse and one set per cell of the two distinct rows.
        assert list(array.writes[0]) == [1, 1, 1, 1]
        assert list(array.writes[1]) == [1, 1, 1, 1]
        assert array.energy_fj - before == 8 * DEVICE.e_set_fj

    def test_read_row_masked_energy(self):
        array = CrossbarArray(1, 8)
        mask = np.zeros(8, dtype=bool)
        mask[:2] = True
        before = array.energy_fj
        array.read_row(0, mask)
        assert array.energy_fj - before == 2 * DEVICE.e_read_fj

    def test_shift_charges_window_columns_only(self):
        array = CrossbarArray(2, 16)
        array.state[0] = True
        executor = MagicExecutor(array)
        program = ProgramBuilder().shift(0, 1, 1, fill=0, cols=(0, 4)).build()
        before = array.energy_fj
        executor.execute(program)
        # Sense 4 window cells, then write [0,1,1,1] back: one reset pulse
        # and three sets.  The twelve columns outside the window are idle.
        expected = 4 * DEVICE.e_read_fj + DEVICE.e_reset_fj + 3 * DEVICE.e_set_fj
        assert array.energy_fj - before == expected
        assert list(array.state[1, :4]) == [False, True, True, True]
        assert int(array.writes[1, 4:].sum()) == 0


# ----------------------------------------------------------------------
# RunStats results plumbing
# ----------------------------------------------------------------------
class TestRunStatsResults:
    def test_merge_combines_results(self):
        merged = RunStats(results={"a": 1}).merge(RunStats(results={"b": 2}))
        assert merged.results == {"a": 1, "b": 2}

    def test_merge_last_wins_on_collision(self):
        merged = RunStats(results={"a": 1}).merge(RunStats(results={"a": 9}))
        assert merged.results == {"a": 9}


# ----------------------------------------------------------------------
# Randomized differential: batched executor vs scalar oracle
# ----------------------------------------------------------------------
ROWS, COLS = 8, 16


def _random_window(rng):
    if rng.random() < 0.4:
        return None
    start = rng.randrange(COLS - 1)
    stop = rng.randrange(start + 1, COLS + 1)
    return (start, stop)


def _random_program(rng, ops=40, init_outputs=True):
    """A protocol-valid random program plus its write (name, width) list.

    With ``init_outputs=False`` half the NOR/NOT gates skip initialising
    their output row — only valid on ``strict_magic=False`` arrays,
    where it exercises the non-strict write-back.
    """
    builder = ProgramBuilder(label="fuzz")
    writes = []
    reads = 0
    for index in range(ops):
        kind = rng.choice(
            ["init", "nor", "not", "write", "read", "shift", "nop", "write"]
        )
        window = _random_window(rng)
        if kind == "init":
            count = rng.randrange(1, 4)
            builder.init([rng.randrange(ROWS) for _ in range(count)], window)
        elif kind in ("nor", "not"):
            out = rng.randrange(ROWS)
            candidates = [r for r in range(ROWS) if r != out]
            if init_outputs or rng.random() < 0.5:
                builder.init([out], window)
            if kind == "nor":
                ins = rng.sample(candidates, rng.randrange(1, 4))
                builder.nor(ins, out, window)
            else:
                builder.not_(rng.choice(candidates), out, window)
        elif kind == "write":
            offset = rng.randrange(COLS)
            width = rng.randrange(1, COLS - offset + 1)
            name = f"w{index}"
            writes.append((name, width))
            builder.write(rng.randrange(ROWS), name, col_offset=offset, width=width)
        elif kind == "read":
            offset = rng.randrange(COLS)
            width = rng.randrange(1, COLS - offset + 1)
            builder.read(rng.randrange(ROWS), f"r{reads}", col_offset=offset, width=width)
            reads += 1
        elif kind == "shift":
            window = window or (0, COLS)
            span = window[1] - window[0]
            builder.shift(
                rng.randrange(ROWS),
                rng.randrange(ROWS),
                rng.randrange(-span, span + 1),
                fill=rng.randrange(2),
                cols=window,
                also_init=tuple(
                    rng.sample(range(ROWS), rng.randrange(0, 3))
                ),
            )
        else:
            builder.nop(rng.randrange(1, 4))
    # Guarantee at least one result to compare.
    builder.read(rng.randrange(ROWS), "final", width=COLS)
    return builder.build(), writes


def _one_lane_energies(program, bindings, backend, strict=True):
    """Energy total of each lane replayed alone, at one lane, on
    *backend*: per-lane energy coverage for a backend that reports one
    total per batch."""
    resolved = get_backend(backend)
    energies = []
    for lane_bindings in bindings:
        template = CrossbarArray(ROWS, COLS, strict_magic=strict)
        array = resolved.make_array(template, 1)
        resolved.make_executor(array).execute(program, [lane_bindings])
        energies.append(array.total_energy_fj())
    return energies


def _assert_oracle_parity(program, bindings, backend, strict=True):
    """Run *program* per lane on the scalar oracle and once batched on
    *backend*; every lane must match bit for bit, the batch's energy
    total must equal the oracle's lane sum, and each lane replayed
    alone must charge what its oracle lane charged."""
    scalar_runs = []
    for lane_bindings in bindings:
        array = CrossbarArray(ROWS, COLS, strict_magic=strict)
        executor = MagicExecutor(array, clock=Clock())
        stats = executor.execute(program, lane_bindings)
        scalar_runs.append((stats, array))

    resolved = get_backend(backend)
    template = CrossbarArray(ROWS, COLS, strict_magic=strict)
    batched_array = resolved.make_array(template, len(bindings))
    batched = resolved.make_executor(batched_array, clock=Clock())
    batched_stats = batched.execute(program, bindings)

    for lane, (stats, array) in enumerate(scalar_runs):
        got = batched_stats[lane]
        assert got.results == stats.results
        assert got.cycles == stats.cycles
        assert got.op_counts == stats.op_counts
        assert got.nor_ops == stats.nor_ops
        assert got.shift_ops == stats.shift_ops
        assert np.array_equal(batched_array.snapshot(lane), array.snapshot())
        assert np.array_equal(batched_array.writes, array.writes)
    oracle_energy = [stats.energy_fj for stats, _ in scalar_runs]
    assert batched_array.total_energy_fj() == sum(oracle_energy)
    assert _one_lane_energies(program, bindings, backend, strict) == oracle_energy


def _random_bindings(rng, writes, batch):
    return [
        {name: rng.randrange(2**width) for name, width in writes}
        for _ in range(batch)
    ]


class TestBatchedDifferential:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs_bit_exact(self, seed, backend):
        rng = random.Random(seed)
        program, writes = _random_program(rng)
        batch = rng.randrange(1, 6)
        _assert_oracle_parity(program, _random_bindings(rng, writes, batch), backend)

    # Batches on and around every power of two from 1 to 128 lanes:
    # lane boundaries meet windowed and negative-offset shifts, on
    # strict and non-strict arrays (the latter with uninitialised NOR
    # outputs).
    @pytest.mark.parametrize("backend", ["word"])
    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
    @pytest.mark.parametrize(
        "batch", [1, 2, 3, 5, 8, 9, 31, 33, 63, 64, 65, 130]
    )
    def test_random_programs_wide_batches_bit_exact(self, batch, strict, backend):
        rng = random.Random(1000 + batch + strict)
        program, writes = _random_program(rng, ops=60, init_outputs=strict)
        _assert_oracle_parity(
            program, _random_bindings(rng, writes, batch), backend, strict
        )

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
    def test_long_program_deep_energy_counter_bit_exact(self, strict):
        """A random prefix, then 1,100 NOTs of a near-all-ones row: a
        cell's event count passes 2**10; energy must stay exact."""
        rng = random.Random(77 + strict)
        prefix, writes = _random_program(rng, ops=200, init_outputs=strict)
        builder = ProgramBuilder(label="deep").concat(prefix)
        builder.write(0, "dense", width=COLS)
        for _ in range(1100):
            builder.init([1]).not_(0, 1)
        builder.read(1, "deep", width=COLS)
        program = builder.build()
        events = sum(
            op.opcode in ("nor", "not", "write", "shift") for op in program
        )
        assert events >= 1024
        bindings = _random_bindings(rng, writes, 3)
        for lane, lane_bindings in enumerate(bindings):
            lane_bindings["dense"] = (2**COLS - 1) ^ (1 << lane)
        _assert_oracle_parity(program, bindings, "word", strict)

    def test_simd_clock_advances_once_per_batch(self):
        adder = AdderUnit(8).adder
        lay = adder.layout
        program = (
            ProgramBuilder()
            .init(list(lay.scratch_rows) + [lay.out_row])
            .write(lay.x_row, "x", width=8)
            .write(lay.y_row, "y", width=8)
            .concat(adder.program("add"))
            .read(lay.out_row, "out", width=9)
            .build()
        )
        bindings = [{"x": 11 * i, "y": 7 * i} for i in range(4)]
        word = get_backend("word")
        clock = Clock()
        executor = word.make_executor(
            word.make_array(CrossbarArray(15, 9), len(bindings)), clock=clock
        )
        stats = executor.execute(program, bindings)
        # All lanes run in lock-step: shared clock advances one pass.
        assert clock.cycles == stats[0].cycles
        for lane, stat in enumerate(stats):
            assert stat.results["out"] == 18 * lane

    def test_execute_batch_leaves_scalar_array_untouched(self):
        array = CrossbarArray(2, 8)
        word = get_backend("word")
        program = ProgramBuilder().write(0, "x", width=8).build()
        snapshot = array.state.copy()
        lanes = word.make_executor(word.make_array(array, 2))
        lanes.execute(program, [{"x": 255}, {"x": 1}])
        assert np.array_equal(array.state, snapshot)
        assert array.max_writes() == 0

    def test_compile_cache_replays_program_identity(self):
        stage = CrossbarStage(CrossbarArray(2, 8))
        program = ProgramBuilder().write(0, "x", width=8).build()
        stage.replay(program, [{"x": 1}])
        compiled_first = program.compiled(2, 8)
        stage.replay(program, [{"x": 2}, {"x": 3}])
        assert stage.executor.compile(program) is compiled_first
        assert stage.executor.compile_cache_stats().as_dict() == {
            "hits": 2, "misses": 1, "evictions": 0,
        }

    def test_unbound_operand_raises(self):
        word = get_backend("word")
        lanes = word.make_executor(word.make_array(CrossbarArray(2, 8), 2))
        program = ProgramBuilder().write(0, "x", width=8).build()
        with pytest.raises(ProgramError, match="unbound operand"):
            lanes.execute(program, [{"x": 1}, {}])

    def test_lane_count_mismatch_raises(self):
        backend = get_backend("word")
        batched = backend.make_executor(backend.make_array(CrossbarArray(2, 8), 3))
        program = ProgramBuilder().nop().build()
        with pytest.raises(ProgramError, match="binding sets"):
            batched.execute(program, [{}])

    def test_geometry_mismatch_raises(self):
        backend = get_backend("word")
        small = backend.make_executor(backend.make_array(CrossbarArray(2, 8), 1))
        compiled = small.compile(ProgramBuilder().nop().build())
        large = backend.make_executor(backend.make_array(CrossbarArray(4, 16), 1))
        with pytest.raises(ProgramError, match="compiled for"):
            large.execute(compiled, [{}])


# ----------------------------------------------------------------------
# Batched Kogge-Stone unit
# ----------------------------------------------------------------------
class TestRunBatchAdder:
    def test_run_batch_matches_scalar_runs(self):
        rng = random.Random(11)
        pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(6)]
        unit = AdderUnit(8)
        results = unit.run_pass(pairs)
        oracle = AdderUnit(8, backend="scalar")
        assert results == [oracle.run_pass([pair])[0] for pair in pairs]
        assert results == [x + y for x, y in pairs]
        assert unit.pass_cc() == latency_cc(8)

    def test_run_batch_subtraction(self):
        pairs = [(200, 13), (55, 55), (9, 0)]
        results = AdderUnit(8).run_pass(pairs, "sub")
        assert results == [x - y for x, y in pairs]


# ----------------------------------------------------------------------
# Full-pipeline differential: one batch vs single-job batches vs oracle
# ----------------------------------------------------------------------
def _run_differential(n_bits, jobs, batch_size, wear_leveling=True, seed=0):
    """One *jobs*-wide batch (in chunks of *batch_size*) must match one
    single-job batch per pair and the scalar oracle job by job."""
    rng = random.Random(seed)
    pairs = [
        (rng.randrange(2**n_bits), rng.randrange(2**n_bits)) for _ in range(jobs)
    ]
    singles = KaratsubaPipeline(n_bits, wear_leveling=wear_leveling)
    batched = KaratsubaPipeline(n_bits, wear_leveling=wear_leveling)
    oracle = KaratsubaPipeline(
        n_bits, wear_leveling=wear_leveling, backend="scalar"
    )
    single_records = [singles.controller.run_job(a, b) for a, b in pairs]
    bat_records = []
    for begin in range(0, jobs, batch_size):
        bat_records.extend(
            batched.controller.run_jobs_batch(pairs[begin : begin + batch_size])
        )
    oracle_records = [oracle.controller.run_job(a, b) for a, b in pairs]

    for pair, one, bat, ref in zip(
        pairs, single_records, bat_records, oracle_records
    ):
        assert one.product == bat.product == ref.product == pair[0] * pair[1]
        for rec in (one, bat):
            assert rec.precompute_cycles == ref.precompute_cycles
            assert rec.multiply_cycles == ref.multiply_cycles
            assert rec.postcompute_cycles == ref.postcompute_cycles

    ref_ctl = oracle.controller
    for ctl in (singles.controller, batched.controller):
        assert ctl.max_writes() == ref_ctl.max_writes()
        assert ctl.total_energy_fj() == ref_ctl.total_energy_fj()
        assert np.array_equal(
            ctl.precompute.array.writes, ref_ctl.precompute.array.writes
        )
        assert np.array_equal(
            ctl.postcompute.array.writes, ref_ctl.postcompute.array.writes
        )
        for name, row in ctl.multiply_stage.rows.items():
            assert np.array_equal(
                row.cell_writes, ref_ctl.multiply_stage.rows[name].cell_writes
            )
        assert (
            ctl.precompute.leveler.swapped == ref_ctl.precompute.leveler.swapped
        )
        assert (
            ctl.postcompute.leveler.swapped
            == ref_ctl.postcompute.leveler.swapped
        )
    # Single-job batches advance the stage clocks once per job, exactly
    # as the job-by-job oracle does.
    for stage in ("precompute", "postcompute"):
        assert (
            getattr(singles.controller, stage).clock.by_category
            == getattr(ref_ctl, stage).clock.by_category
        )


class TestKaratsubaDifferential:
    def test_n16_odd_batch(self):
        _run_differential(16, jobs=5, batch_size=5, seed=1)

    def test_n16_without_wear_leveling(self):
        _run_differential(16, jobs=4, batch_size=4, wear_leveling=False, seed=2)

    def test_n32_batch(self):
        _run_differential(32, jobs=6, batch_size=6, seed=3)

    def test_single_job_batch(self):
        _run_differential(16, jobs=1, batch_size=1, seed=4)

    def test_run_stream_batched_equals_sequential(self):
        rng = random.Random(9)
        pairs = [(rng.randrange(2**16), rng.randrange(2**16)) for _ in range(7)]
        sequential = KaratsubaPipeline(16, backend="scalar").run_stream(
            pairs, batch_size=1
        )
        batched = KaratsubaPipeline(16).run_stream(pairs, batch_size=3)
        assert sequential.products == batched.products
        assert sequential.makespan_cc == batched.makespan_cc
        assert batched.products == [a * b for a, b in pairs]

    def test_batched_wear_state_round_trip(self):
        """Leveling parity after a batch equals sequential parity."""
        pipeline = KaratsubaPipeline(16)
        pipeline.controller.run_jobs_batch([(3, 5), (7, 9), (11, 13)])
        assert pipeline.controller.precompute.leveler.swapped is True
        pipeline.controller.run_jobs_batch([(2, 4)])
        assert pipeline.controller.precompute.leveler.swapped is False
