"""Adder stages plan, bind and check whole lane-major rows.

The four adder stages (Karatsuba precompute and postcompute, Toom-3
evaluation and interpolation) plan a batch once on lane-major rows
(:class:`~repro.arith.koggestone.RowPlan`), bind the planned rows as the
replay's WRITE operands and compare each sensed READ row with its
planned row.  These tests pin that down:

* the row arithmetic equals the per-lane arithmetic, including which
  lane breaks the window rule first;
* a B-job batch equals B single-job batches on both backends, through
  every controller's stage hand-offs (Karatsuba at depths 1-3, Toom-3,
  the schoolbook row);
* a corrupted lane raises the first failure of the per-lane check loop
  (unit, then lane, then pass; residue before differential) with the
  same checker counts;
* a window-rule violation in one lane raises before any lane runs;
* ``execute`` binds a :class:`~repro.magic.executor.LaneRows` as it
  binds per-lane dicts, and rejects rows that do not fit.
"""

from __future__ import annotations

import random
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.arith.bitops import split_chunks
from repro.arith.koggestone import (
    OP_ADD,
    OP_SUB,
    RowPlan,
    adder_result,
    adder_rows,
)
from repro.crossbar.array import CrossbarArray
from repro.karatsuba.controller import KaratsubaController
from repro.magic.backend import get_backend
from repro.magic.executor import (
    LaneRows,
    WordPackedMagicExecutor,
    pack_row,
    split_row,
)
from repro.magic.program import ProgramBuilder
from repro.magic.stage import CrossbarStage
from repro.portfolio.schoolbook import SchoolbookController
from repro.portfolio.toom3 import Toom3Controller
from repro.sim.exceptions import DesignError, ProgramError, StageSelfCheckError

DESIGNS = {
    "karatsuba-16": (KaratsubaController, 16),
    "karatsuba-64": (KaratsubaController, 64),
    "karatsuba-256": (KaratsubaController, 256),
    "toom3-32": (Toom3Controller, 32),
    "toom3-270": (Toom3Controller, 270),
}
#: The designs a batch is checked against single-job batches on: the
#: above, the other Karatsuba depths and the schoolbook row, so every
#: stage hand-off of every controller is covered.
BATCH_DESIGNS = {
    **DESIGNS,
    "karatsuba-64-L1": (partial(KaratsubaController, depth=1), 64),
    "karatsuba-64-L3": (partial(KaratsubaController, depth=3), 64),
    "schoolbook-32": (SchoolbookController, 32),
}
LANES = (1, 2, 3, 8, 9, 64, 65)
#: The scalar oracle replays lane by lane; it runs the narrow batches.
SCALAR_LANES = 9


def _controller(design, **kwargs):
    cls, n_bits = BATCH_DESIGNS[design]
    return cls(n_bits, **kwargs)


def _adder_stages(ctl):
    return [stage for stage in ctl.stages if stage.units]


def _operands(n_bits, lanes):
    value = st.integers(min_value=0, max_value=(1 << n_bits) - 1)
    return st.lists(st.tuples(value, value), min_size=lanes, max_size=lanes)


# ----------------------------------------------------------------------
# Row arithmetic
# ----------------------------------------------------------------------
class TestRowArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from((OP_ADD, OP_SUB)),
        st.integers(min_value=1, max_value=40),
        st.data(),
    )
    def test_adder_rows_is_adder_result_per_lane(self, op, cols, data):
        """A lane-wise add or subtract equals adder_result lane by lane;
        the first lane that breaks the window rule raises its error."""
        lanes = data.draw(st.integers(min_value=1, max_value=9))
        value = st.integers(min_value=0, max_value=(1 << cols) - 1)
        xs = data.draw(st.lists(value, min_size=lanes, max_size=lanes))
        ys = data.draw(st.lists(value, min_size=lanes, max_size=lanes))
        expected, error = [], None
        for x, y in zip(xs, ys):
            try:
                expected.append(adder_result(op, x, y, cols))
            except DesignError as err:
                error = str(err)
                break
        x_row, y_row = pack_row(xs, cols), pack_row(ys, cols)
        if error is None:
            row = adder_rows(op, x_row, y_row, cols, lanes)
            assert split_row(row, lanes, cols) == expected
        else:
            with pytest.raises(DesignError) as excinfo:
                adder_rows(op, x_row, y_row, cols, lanes)
            assert str(excinfo.value) == error

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.data())
    def test_shifts_masks_and_restride_stay_in_their_lane(self, cols, data):
        lanes = data.draw(st.integers(min_value=1, max_value=9))
        k = data.draw(st.integers(min_value=0, max_value=cols - 1))
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << cols) - 1),
                min_size=lanes,
                max_size=lanes,
            )
        )
        plan = RowPlan([], lanes)
        row = plan.pack(values, cols)
        assert plan.split(plan.shr(row, k, cols), cols) == [v >> k for v in values]
        assert plan.split(plan.low(row, cols - k, cols), cols) == [
            v & ((1 << cols - k) - 1) for v in values
        ]
        assert plan.split(plan.restride(row, cols, cols + 3), cols + 3) == values
        assert plan.split(plan.const(k, cols), cols) == [k] * lanes
        if all(v >> cols - k == 0 for v in values):
            assert plan.split(plan.shl(row, k, cols), cols) == [v << k for v in values]
        else:
            with pytest.raises(DesignError):
                plan.shl(row, k, cols)


# ----------------------------------------------------------------------
# A batch equals single-job batches
# ----------------------------------------------------------------------
def _state(ctl):
    """Everything a batch leaves behind: writes and energy per unit,
    the row stage's wear, wear-leveler swaps and checker counts."""
    return (
        [(name, unit.array.writes.copy(), unit.array.energy_fj)
         for name, unit in ctl.crossbar_units()],
        ctl.total_energy_fj(),
        ctl.stages[1].wear.image.copy(),
        [getattr(stage, "leveler", None) and stage.leveler.swaps
         for stage in ctl.stages],
        ctl.residue_stats(),
    )


def _clocks(ctl):
    """Every stage clock's cycles per category, and the controller's
    own clock for a design that keeps one (the schoolbook row)."""
    clocks = [stage.clock for stage in ctl.stages if hasattr(stage, "clock")]
    return [
        clock.by_category
        for clock in clocks + [getattr(ctl, "clock", None)]
        if clock is not None
    ]


def _assert_same_state(left, right):
    units, energy, wear, swaps, checks = left
    ref_units, ref_energy, ref_wear, ref_swaps, ref_checks = right
    for (name, writes, unit_energy), (_, ref_writes, ref_energy_fj) in zip(
        units, ref_units
    ):
        assert np.array_equal(writes, ref_writes), name
        assert unit_energy == ref_energy_fj, name
    assert energy == ref_energy
    assert np.array_equal(wear, ref_wear)
    assert swaps == ref_swaps
    assert checks == ref_checks


class TestBatchEqualsSingles:
    @pytest.mark.parametrize("wear_leveling", (True, False), ids=("wl", "no-wl"))
    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("design", sorted(BATCH_DESIGNS))
    def test_batch_equals_single_job_batches(self, design, lanes, wear_leveling):
        """On the word backend, products, per-unit writes, energy,
        checker counts and per-job cycles of one batch equal those of
        one single-job batch per job, and each adder stage's clock ticks
        its per-job histogram once per wear group; up to
        :data:`SCALAR_LANES` lanes the scalar oracle's batch leaves the
        same state, clocks included (the backends' single-job batches
        are bit-identical, ``tests/test_batched_executor.py``)."""
        n_bits = BATCH_DESIGNS[design][1]

        @settings(
            max_examples=1,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        )
        @given(_operands(n_bits, lanes))
        def check(pairs):
            # Hypothesis opens with all-zero operands; spend the replays
            # on operands that carry.
            assume(any(a or b for a, b in pairs))
            batched = _controller(design, wear_leveling=wear_leveling)
            singles = _controller(design, wear_leveling=wear_leveling)
            clocks = [s.clock.snapshot() for s in _adder_stages(batched)]
            records = batched.run_jobs_batch(pairs)
            reference = [singles.run_jobs_batch([pair])[0] for pair in pairs]
            assert [r.product for r in records] == [a * b for a, b in pairs]
            assert records == reference
            _assert_same_state(_state(batched), _state(singles))
            for stage, before in zip(_adder_stages(batched), clocks):
                leveled = getattr(stage, "leveler", None) and wear_leveling
                groups = min(lanes, 2) if leveled else 1
                for category, cycles in stage._clock_histogram.items():
                    moved = stage.clock.by_category[category]
                    moved -= before.by_category.get(category, 0)
                    assert moved == groups * cycles
            if lanes <= SCALAR_LANES:
                oracle = _controller(
                    design, wear_leveling=wear_leveling, backend="scalar"
                )
                assert oracle.run_jobs_batch(pairs) == records
                _assert_same_state(_state(oracle), _state(batched))
                assert _clocks(oracle) == _clocks(batched)

        check()


# ----------------------------------------------------------------------
# A corrupted lane raises the per-lane loop's first failure
# ----------------------------------------------------------------------
def _stage_units(stage):
    """``(program label, lane-major read names)`` per unit, in replay
    order."""
    units, first = [], 0
    for k, (_, passes) in enumerate(stage.unit_passes()):
        stop = first + len(passes)
        unit = stage.checker.stage if k == 0 else f"{stage.checker.stage}.{k}"
        units.append((f"{unit}-passes", stage._sense_names[first:stop]))
        first = stop
    return units


def _corrupt(value, kind, cols, modulus):
    """*value* changed so the residue check sees it (``residue``) or
    only the differential check does (a multiple of the modulus)."""
    if kind == "residue":
        return value ^ 1
    return value - modulus if value >= modulus else value + modulus


@pytest.mark.parametrize("kind", ("residue", "differential"))
@pytest.mark.parametrize("stage_index", (0, 2), ids=("first", "last"))
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_corrupted_lanes_raise_the_first_lane_loop_failure(
    design, stage_index, kind, monkeypatch
):
    """Two lanes of a 64-job batch sensed wrong on the stage's last
    unit: the later pass of the lower lane fails first (lanes before
    passes), with the error kind, ``name[lane]`` location and checker
    counts of the per-lane loop: every check of the earlier units and
    lanes, and this lane's checks up to the failing one."""
    ctl = _controller(design)
    stage = ctl.stages[stage_index]
    lanes = 64 * stage.lanes_per_job
    units = _stage_units(stage)
    label, reads = units[-1]
    early, late = 20, 45
    # (lane, pass within the unit): the lower lane fails on its last pass.
    targets = [(late, 0), (early, len(reads) - 1)]
    checker = stage.checker
    if kind == "differential" and stage.units[-1].array.cols <= checker.residue_bits:
        pytest.skip("no residue-invisible change fits the lane")
    execute = WordPackedMagicExecutor.execute

    def corrupting(self, program, bindings):
        runs = execute(self, program, bindings)
        if program.label == label:
            sensed = runs.results
            for lane, index in targets:
                shift = lane * sensed.cols
                value = sensed.split(reads[index])[lane]
                new = _corrupt(value, kind, sensed.cols, checker.modulus)
                assert new >> sensed.cols == 0
                sensed.rows[reads[index]] += (new - value) << shift
        return runs

    monkeypatch.setattr(WordPackedMagicExecutor, "execute", corrupting)
    rng = random.Random(design)
    n_bits = DESIGNS[design][1]
    pairs = [(rng.getrandbits(n_bits), rng.getrandbits(n_bits)) for _ in range(64)]
    before = dict(checker.stats())
    with pytest.raises(StageSelfCheckError) as excinfo:
        ctl.run_jobs_batch(pairs)
    err = excinfo.value
    # The last unit's last pass is the stage's last.
    name = _plan_of(stage).passes[-1][0]
    assert (err.stage, err.check, err.location) == (
        checker.stage, kind, f"{name}[{early}]"
    )
    earlier = sum(len(r) for _, r in units[:-1])
    assert checker.checks - before["checks"] == (
        lanes * earlier + early * len(reads) + len(reads)
    )
    assert checker.mismatches - before["mismatches"] == (kind == "residue")


def _plan_of(stage):
    """The plan of a one-job batch of zero operands on *stage*."""
    if stage.checker.stage == "precompute":
        chunks = stage.plan.num_chunks
        return stage._plan([([0] * chunks, [0] * chunks)])[0]
    if stage.checker.stage == "evaluate":
        return stage._plan([([0] * 3, [0] * 3)])[0]
    if stage.checker.stage == "postcompute":
        return stage._plan([{name: 0 for name, _ in stage._slot_widths}])[0]
    return stage._plan([{key: 0 for key in ("v0", "v1", "v2", "v4", "vinf")}])[0]


# ----------------------------------------------------------------------
# A window-rule violation raises before any lane runs
# ----------------------------------------------------------------------
def _stage_inputs(design, pairs):
    """Each stage's batch input for *pairs*, one input per job (the
    first stage's chunk lists, the others' value maps), from a twin
    controller."""
    ctl = _controller(design)
    first = ctl.stages[0]
    if first.checker.stage == "precompute":
        chunk_bits, chunks = first.plan.chunk_bits, first.plan.num_chunks
    else:
        chunk_bits, chunks = first.cb, 3
    inputs = [[
        tuple(split_chunks(value, chunk_bits, chunks) for value in pair)
        for pair in pairs
    ]]
    batch = inputs[0]
    for stage in ctl.stages[:2]:
        batch = stage.process_batch(batch)
        inputs.append(list(LaneRows(batch.rows, batch.lanes, batch.cols)))
    return inputs


def _break_window(stage, job):
    """*job* changed so one of its lanes breaks the window rule (a chunk
    too wide for the first stage, a difference that would go negative
    for the last)."""
    name = stage.checker.stage
    if name in ("precompute", "evaluate"):
        a_chunks, b_chunks = job
        width = stage.plan.chunk_bits if name == "precompute" else stage.cb
        return ([1 << width, *a_chunks[1:]], b_chunks)
    job = dict(job)
    if name == "postcompute":
        # c_mm - (c_ml + c_mh) runs alone in its pass.
        (node,) = [node for node in stage.plan.combine_nodes if node.path == "m"]
        job[node.mid] = 0
    else:
        job["v1"] = 0
    return job


@pytest.mark.parametrize("stage_index", (0, 2), ids=("first", "last"))
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_window_violation_in_one_lane_raises_before_any_lane_runs(
    design, stage_index, monkeypatch
):
    rng = random.Random(design)
    n_bits = DESIGNS[design][1]
    pairs = [(rng.getrandbits(n_bits) | 1, rng.getrandbits(n_bits) | 1)
             for _ in range(64)]
    jobs = _stage_inputs(design, pairs)[stage_index]
    ctl = _controller(design)
    stage = ctl.stages[stage_index]
    jobs[37] = _break_window(stage, jobs[37])
    replays = []
    monkeypatch.setattr(
        CrossbarStage, "replay", lambda *args, **kwargs: replays.append(args)
    )
    before = _state(ctl)
    clock = stage.clock.snapshot()
    with pytest.raises(DesignError):
        stage.process_batch(jobs)
    assert replays == []
    _assert_same_state(_state(ctl), before)
    assert stage.clock.snapshot() == clock


# ----------------------------------------------------------------------
# The bindings/results contract of execute
# ----------------------------------------------------------------------
class TestLaneRowsBindings:
    COLS = 8

    def _program(self):
        return (
            ProgramBuilder(label="lane-rows")
            .write(0, "x", col_offset=2, width=4)
            .write(1, "y")
            .read(0, "field", col_offset=2, width=4)
            .read(0, "row")
            .read(1, "y")
            .build()
        )

    def _runs(self, backend, bindings, lanes):
        resolved = get_backend(backend)
        array = resolved.make_array(CrossbarArray(2, self.COLS), lanes)
        array.reset_to_ones()
        return resolved.make_executor(array).execute(self._program(), bindings)

    @pytest.mark.parametrize("backend", ("word", "scalar"))
    @pytest.mark.parametrize("lanes", (1, 3, 9))
    def test_rows_bind_as_dicts_do(self, backend, lanes):
        """A LaneRows binds what the per-lane dicts bind; the READs come
        back as lane-major rows and as each lane's results."""
        rng = random.Random(lanes)
        lane_values = [
            {"x": rng.getrandbits(4), "y": rng.getrandbits(self.COLS)}
            for _ in range(lanes)
        ]
        rows = {
            name: pack_row([v[name] for v in lane_values], self.COLS)
            for name in ("x", "y")
        }
        bound = LaneRows(rows, lanes, self.COLS)
        assert list(bound) == lane_values
        packed = self._runs(backend, bound, lanes)
        listed = self._runs(backend, lane_values, lanes)
        assert len(packed) == lanes
        assert packed.results.rows == listed.results.rows
        expected = [
            {"field": v["x"], "row": (v["x"] << 2) | 0b11000011, "y": v["y"]}
            for v in lane_values
        ]
        assert [run.results for run in packed] == expected
        assert packed[lanes - 1].results == expected[-1]
        assert packed.results.split("field") == [v["x"] for v in lane_values]

    @pytest.mark.parametrize("backend", ("word", "scalar"))
    def test_bad_rows_are_rejected(self, backend):
        y = pack_row([1, 2, 3], self.COLS)
        wide = pack_row([1, 16, 3], self.COLS)  # lane 1 overflows 4 bits
        with pytest.raises(ValueError, match="16"):
            self._runs(backend, LaneRows({"x": wide, "y": y}, 3, self.COLS), 3)
        with pytest.raises(ProgramError, match="unbound"):
            self._runs(backend, LaneRows({"y": y}, 3, self.COLS), 3)
        with pytest.raises(ProgramError, match="lanes"):
            self._runs(backend, LaneRows({"x": y, "y": y}, 2, self.COLS), 3)
        with pytest.raises(ProgramError, match="column"):
            self._runs(backend, LaneRows({"x": y, "y": y}, 3, self.COLS + 1), 3)
