"""Tests for the MultPIM-style single-row multiplier (Sec. IV-D)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import rowmul
from repro.arith.rowmul import LockstepRowStage, RowMultiplier, RowMultiplierSpec
from repro.karatsuba.controller import KaratsubaController
from repro.karatsuba.multiply import MultiplicationStage
from repro.magic.executor import LaneRows, pack_row
from repro.portfolio.schoolbook import SchoolbookController
from repro.portfolio.toom3 import Toom3Controller
from repro.reliability.residue import ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError, StageSelfCheckError


class TestSpec:
    def test_area_is_12m(self):
        assert RowMultiplierSpec(18).cells == 216
        assert rowmul.area_cells(98) == 1176

    def test_latency_closed_form(self):
        # m = n/4+2 for the paper's stage: n=64 -> m=18 -> 345 cc.
        assert rowmul.latency_cc(18) == 18 * (5 + 14) + 3 == 345
        assert rowmul.latency_cc(34) == 34 * (6 + 14) + 3 == 683
        assert rowmul.latency_cc(66) == 66 * (7 + 14) + 3 == 1389
        assert rowmul.latency_cc(98) == 98 * (7 + 14) + 3 == 2061

    def test_multpim_scaled_throughputs(self):
        """Full-width rows reproduce [9]'s Table I throughput column."""
        for n, tput in ((64, 779), (128, 372), (256, 177)):
            assert round(1e6 / rowmul.latency_cc(n)) == tput

    def test_max_writes_is_4m(self):
        assert rowmul.max_writes_per_cell(64) == 256
        assert rowmul.max_writes_per_cell(384) == 1536

    def test_product_bits(self):
        assert RowMultiplierSpec(10).product_bits == 20

    def test_invalid_width(self):
        with pytest.raises(DesignError):
            RowMultiplierSpec(0)
        with pytest.raises(DesignError):
            rowmul.latency_cc(0)


class TestMultiplication:
    def test_small_products(self):
        mul = RowMultiplier(RowMultiplierSpec(4))
        assert mul.multiply(0, 0) == 0
        assert mul.multiply(15, 15) == 225
        assert mul.multiply(1, 9) == 9
        assert mul.multiply(8, 8) == 64

    def test_operand_range_enforced(self):
        mul = RowMultiplier(RowMultiplierSpec(4))
        with pytest.raises(DesignError):
            mul.multiply(16, 1)
        with pytest.raises(DesignError):
            mul.multiply(1, -1)

    def test_clock_charged_full_latency(self):
        spec = RowMultiplierSpec(8)
        mul = RowMultiplier(spec)
        clock = Clock()
        mul.multiply(3, 5, clock=clock)
        assert clock.cycles == spec.latency_cc

    def test_clock_optional(self):
        mul = RowMultiplier(RowMultiplierSpec(8))
        assert mul.multiply(3, 5) == 15

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**18 - 1), st.integers(0, 2**18 - 1))
    def test_product_property(self, a, b):
        mul = RowMultiplier(RowMultiplierSpec(18))
        assert mul.multiply(a, b) == a * b

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**66 - 1), st.integers(0, 2**66 - 1))
    def test_wide_product_property(self, a, b):
        """The widest row of the n=256 design (m = 66)."""
        mul = RowMultiplier(RowMultiplierSpec(66))
        assert mul.multiply(a, b) == a * b


class TestWear:
    def test_hot_cell_wear_per_multiplication(self):
        spec = RowMultiplierSpec(16)
        mul = RowMultiplier(spec)
        mul.multiply(0xFFFF, 0xFFFF)
        assert mul.max_writes() == spec.max_writes_per_cell

    def test_wear_accumulates_linearly(self):
        spec = RowMultiplierSpec(8)
        mul = RowMultiplier(spec)
        for _ in range(5):
            mul.multiply(255, 255)
        assert mul.max_writes() == 5 * spec.max_writes_per_cell

    def test_stats(self):
        spec = RowMultiplierSpec(8)
        mul = RowMultiplier(spec)
        mul.multiply(2, 3)
        mul.multiply(4, 5)
        stats = mul.stats()
        assert stats.cycles == 2 * spec.latency_cc
        assert stats.cell_writes > 0


class TestLaneParallelKernel:
    @pytest.mark.parametrize("width", (1, 2, 3, 4, 18, 66, 95, 98))
    @pytest.mark.parametrize("lanes", (1, 2, 7, 64, 65, 576))
    def test_products_match_integer_multiplication(self, width, lanes):
        rng = random.Random(width * 1000 + lanes)
        top = (1 << width) - 1
        pairs = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(lanes)]
        pairs[0] = (top, top)
        pairs[-1] = (top, rng.getrandbits(width))
        assert rowmul.carry_save_products(width, pairs) == [a * b for a, b in pairs]

    def test_no_pairs(self):
        assert rowmul.carry_save_products(8, []) == []

    @pytest.mark.parametrize("bad", ((1 << 8, 1), (3, -1)))
    def test_any_lane_out_of_range_rejected(self, bad):
        pairs = [(1, 2)] * 5
        pairs[3] = bad
        with pytest.raises(DesignError):
            rowmul.carry_save_products(8, pairs)


def _charge_one_by_one(cell_writes, width, passes, rotate):
    """Reference wear: one multiplication's increments, then the swap."""
    cells = cell_writes.reshape(width, rowmul.CELLS_PER_PARTITION)
    increments = {2: width, 3: width, 4: 4 * width, 5: 4 * width,
                  6: 2 * width, 7: 2 * width}
    for _ in range(passes):
        for col, count in increments.items():
            cells[:, col] += count
        if rotate:
            cells[:, [4, 5, 8, 9]] = cells[:, [8, 9, 4, 5]]


class TestChargePasses:
    @pytest.mark.parametrize("passes", range(6))
    @pytest.mark.parametrize("rotate", (False, True))
    def test_closed_form_equals_sequential_steps(self, passes, rotate):
        width = 6
        rng = np.random.default_rng(passes + 10 * rotate)
        start = rng.integers(0, 50, size=rowmul.area_cells(width))
        batched = RowMultiplier(RowMultiplierSpec(width))
        batched.cell_writes[:] = start
        batched.charge_passes(passes, rotate)
        expected = start.copy()
        _charge_one_by_one(expected, width, passes, rotate)
        assert np.array_equal(batched.cell_writes, expected)
        assert batched.multiplications == passes


def _wear_matches(row, expected, passes):
    """*row*'s view, statistics and hottest cell equal *expected*."""
    assert np.array_equal(row.cell_writes, expected)
    assert row.max_writes() == expected.max()
    assert row.stats().cell_writes == expected.sum()
    assert row.multiplications == passes


class TestLazyWear:
    """Wear is charged when read: every view, statistic and closed-form
    hottest cell must equal charging each batch as it runs."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.booleans(), st.booleans()),
            max_size=8,
        ),
        st.booleans(),
    )
    def test_stage_equals_per_batch_charges(self, batches, wear_leveling):
        """Random batch sizes, with wear leveling on or off (and
        switched between batches), reads at random points."""
        stage = MultiplicationStage(16, wear_leveling=wear_leveling)
        rng = random.Random(len(batches))
        names = {name for _, lhs, rhs in stage.steps for name in (lhs, rhs)}
        expected = np.zeros((len(stage.steps), stage.width * 12), dtype=np.int64)
        passes = 0
        for jobs, switch, read in batches:
            if switch:
                stage.wear_leveling = not stage.wear_leveling
            stage.process_batch(
                [{name: rng.getrandbits(stage.width) for name in names}
                 for _ in range(jobs)]
            )
            rowmul.charge_wear(expected, stage.width, jobs, stage.wear_leveling)
            passes += jobs
            assert stage.max_writes() == expected.max()
            if read:
                assert np.array_equal(stage.cell_writes, expected)
                for line, row in enumerate(stage.rows.values()):
                    _wear_matches(row, expected[line], passes)
        assert np.array_equal(stage.cell_writes, expected)
        for line, row in enumerate(stage.rows.values()):
            _wear_matches(row, expected[line], passes)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.booleans(), st.booleans()),
            max_size=10,
        )
    )
    def test_standalone_row_mixes_flags(self, steps):
        """``multiply()`` charges one unrotated pass, ``charge_passes``
        any count under either flag; pending passes are charged under
        the flag they were counted with."""
        width = 5
        row = RowMultiplier(RowMultiplierSpec(width))
        expected = np.zeros(rowmul.area_cells(width), dtype=np.int64)
        passes = 0
        for count, rotate, read in steps:
            if count == 0:
                assert row.multiply(7, 9) == 63
                rowmul.charge_wear(expected, width, 1, False)
                passes += 1
            else:
                row.charge_passes(count, rotate)
                rowmul.charge_wear(expected, width, count, rotate)
                passes += count
            if read:
                _wear_matches(row, expected, passes)
        _wear_matches(row, expected, passes)

    @pytest.mark.parametrize("rotate", (False, True))
    @pytest.mark.parametrize("passes", range(6))
    def test_closed_form_max_writes(self, passes, rotate):
        wear = rowmul.RowWear(7, rows=3)
        wear.charge(passes, rotate)
        assert wear.max_writes() == wear.image.max()

    def test_stage_row_multiplies_through_its_stage(self):
        stage = MultiplicationStage(16)
        row = next(iter(stage.rows.values()))
        with pytest.raises(DesignError):
            row.multiply(1, 1)
        with pytest.raises(DesignError):
            row.charge_passes(1, rotate=True)
        assert not stage.cell_writes.any()


class TestStageBatchValidation:
    def test_bad_lane_leaves_wear_untouched(self):
        stage = MultiplicationStage(64)
        rng = random.Random(0xBAD)
        names = {name for _, lhs, rhs in stage.steps for name in (lhs, rhs)}
        jobs = [
            {name: rng.getrandbits(stage.width) for name in names}
            for _ in range(4)
        ]
        stage.process_batch(jobs[:1])
        before = {out: row.cell_writes.copy() for out, row in stage.rows.items()}
        checks = stage.checker.stats()
        jobs[2][stage.steps[4][1]] = 1 << stage.width
        with pytest.raises(DesignError):
            stage.process_batch(jobs)
        for out, row in stage.rows.items():
            assert np.array_equal(row.cell_writes, before[out])
            assert row.multiplications == 1
        assert stage.passes == 1
        assert stage.checker.stats() == checks


# ----------------------------------------------------------------------
# Row hand-offs: the designs pass a batch on as lane-major rows
# ----------------------------------------------------------------------
#: A controller of every design, each with a lock-step row stage.
HANDOFF_DESIGNS = {
    "karatsuba-L2": lambda: KaratsubaController(64),
    "toom3-270": lambda: Toom3Controller(270),
    "schoolbook-32": lambda: SchoolbookController(32),
}


class TestRowHandoffs:
    @pytest.mark.parametrize("design", ("karatsuba-L2", "toom3-270"))
    def test_stage_results_index_per_job(self, design):
        """Each stage's rows index into per-job views that equal the
        stage's results for that job alone."""
        ctl = HANDOFF_DESIGNS[design]()
        rng = random.Random(design)
        pairs = [(rng.getrandbits(ctl.n_bits), rng.getrandbits(ctl.n_bits))
                 for _ in range(9)]
        twin = HANDOFF_DESIGNS[design]()
        batch, singles = ctl._split(pairs), [twin._split([p]) for p in pairs]
        for stage, twin_stage in zip(ctl.stages, twin.stages):
            batch = stage.process_batch(batch)
            singles = [twin_stage.process_batch(s) for s in singles]
            assert len(batch) == len(pairs)
            assert list(batch) == [s[0] for s in singles]

    @pytest.mark.parametrize("n_bits", (16, 64, 90, 256, 270, 384))
    def test_handoff_strides(self, n_bits):
        """Each stage's rows arrive at a stride the next stage reads as
        it stands: precompute lanes are m columns, evaluation lanes
        m + 1 (two per job), narrow interpolation lanes 2m."""
        if n_bits % 4 == 0:
            karatsuba = KaratsubaController(n_bits)
            m = karatsuba.multiply_stage.width
            assert karatsuba.precompute.cols == m
            assert karatsuba.multiply_stage.out_cols == karatsuba.postcompute.cols
        toom = Toom3Controller(n_bits)
        m = toom.pointwise.width
        assert toom.evaluate.unit.array.cols == m + 1
        assert toom.interpolate.narrow.array.cols == toom.pointwise.out_cols == 2 * m


def _reference_checks(name, residue_bits, steps, jobs, products):
    """The per-product loop over (job, step) in job-major order: the
    error it raises (or None) and its counts."""
    checker = ResidueChecker(name, residue_bits)
    res = checker.res
    try:
        for job in range(jobs):
            for (out, lhs, rhs), (x, y, z) in zip(steps, products[job]):
                checker.check_product(z, res(x), res(y), out)
    except StageSelfCheckError as err:
        return (str(err), err.location), checker.stats()
    return None, checker.stats()


class TestBulkResidueCheck:
    JOBS = 64

    @pytest.mark.parametrize("invisible_first", (True, False))
    @pytest.mark.parametrize("design", sorted(HANDOFF_DESIGNS))
    def test_corrupted_products_raise_the_per_product_error(
        self, design, invisible_first, monkeypatch
    ):
        """Two corrupted sub-products of a 64-job batch, one that the
        residue code sees and one that it cannot (a multiple of the
        modulus): the stage raises the per-product loop's first error,
        located at its step's output, with the loop's counts."""
        ctl = HANDOFF_DESIGNS[design]()
        stage = next(s for s in ctl.stages if isinstance(s, LockstepRowStage))
        steps, jobs, modulus = stage.steps, self.JOBS, stage.checker.modulus
        # (job, step) of the invisible and the visible corruption.
        invisible, visible = (11, len(steps) - 1), (37, 0)
        if not invisible_first:
            invisible, visible = (50, 0), (29, len(steps) - 1)
        kernel = rowmul.carry_save_bits
        seen = {}

        def corrupting(width, a_bits, b_bits):
            products = kernel(width, a_bits, b_bits).copy()
            weights = 1 << np.arange(2 * width, dtype=object)
            for (job, step), visible_change in ((invisible, False), (visible, True)):
                lane = step * jobs + job
                value = int(products[:, lane].astype(object) @ weights)
                if visible_change:
                    value ^= 1
                else:
                    value = value - modulus if value >= modulus else value + modulus
                products[:, lane] = [(value >> i) & 1 for i in range(2 * width)]
            columns = [
                (int(a_bits[:, lane].astype(object) @ weights[:width]),
                 int(b_bits[:, lane].astype(object) @ weights[:width]),
                 int(products[:, lane].astype(object) @ weights))
                for lane in range(a_bits.shape[1])
            ]
            seen["products"] = [
                [columns[step * jobs + job] for step in range(len(steps))]
                for job in range(jobs)
            ]
            return products

        monkeypatch.setattr(rowmul, "carry_save_bits", corrupting)
        rng = random.Random(design)
        pairs = [(rng.getrandbits(ctl.n_bits), rng.getrandbits(ctl.n_bits))
                 for _ in range(jobs)]
        before = stage.checker.stats()
        with pytest.raises(StageSelfCheckError) as excinfo:
            ctl.run_jobs_batch(pairs)
        error, counts = _reference_checks(
            stage.checker.stage, stage.checker.residue_bits, steps, jobs,
            seen["products"],
        )
        assert error == (str(excinfo.value), excinfo.value.location)
        assert excinfo.value.location == steps[visible[1]][0]
        assert counts["checks"] == visible[0] * len(steps) + visible[1] + 1
        assert stage.checker.stats()["checks"] - before["checks"] == counts["checks"]
        assert stage.checker.stats()["mismatches"] - before["mismatches"] == 1

    def test_toom3_closure_counts_every_product(self):
        ctl = Toom3Controller(90)
        pairs = [(random.getrandbits(90), random.getrandbits(90)) for _ in range(7)]
        ctl.run_jobs_batch(pairs)
        # The interpolation checker counts its adder passes and one
        # end-to-end product check per job.
        passes = len(ctl.interpolate.adder_passes())
        assert ctl.interpolate.checker.checks == 7 * passes + 7

    def test_out_of_range_row_operand_charges_nothing(self):
        """An operand row with a lane wider than the rows raises
        DesignError before any wear is charged or the clock ticks."""
        stage = Toom3Controller(90).pointwise
        m, cols, lanes = stage.width, 2 * stage.width + 2, 9
        rng = random.Random(9)
        rows = {
            name: pack_row([rng.getrandbits(m) for _ in range(lanes)], cols)
            for name in stage._inputs
        }
        stage.process_batch(LaneRows(dict(rows), lanes, cols))
        wear, passes = stage.cell_writes.copy(), stage.passes
        clock, checks = stage.clock.snapshot(), stage.checker.stats()
        rows["B4"] |= 1 << (5 * cols + m)
        with pytest.raises(DesignError):
            stage.process_batch(LaneRows(rows, lanes, cols))
        assert np.array_equal(stage.cell_writes, wear)
        assert stage.passes == passes
        assert stage.clock.snapshot() == clock
        assert stage.checker.stats() == checks

    @pytest.mark.parametrize("lanes", (1, 2, 64))
    @pytest.mark.parametrize("extra, bad", (
        (0, "negative"), (0, "above-top-lane"),
        (3, "negative"), (3, "above-top-lane"), (3, "above-field"),
    ))
    def test_bad_operand_rows_raise_design_error(self, lanes, extra, bad):
        """A negative row, a bit above the top lane, or a bit above a
        lane's m-bit field raises DesignError at any batch width and
        lane stride, with nothing charged."""
        stage = SchoolbookController(32).multiply
        m = stage.width
        cols = m + extra
        rng = random.Random(lanes * 10 + extra)
        rows = {
            name: pack_row([rng.getrandbits(m) for _ in range(lanes)], cols)
            for name in stage._inputs
        }
        if bad == "negative":
            rows["b"] = -rows["b"] - 1
        elif bad == "above-top-lane":
            rows["b"] |= 1 << lanes * cols
        else:
            rows["b"] |= 1 << (lanes - 1) * cols + m
        with pytest.raises(DesignError):
            stage.process_batch(LaneRows(rows, lanes, cols))
        assert stage.passes == 0
        assert stage.clock.snapshot() == Clock().snapshot()
        assert stage.checker.checks == 0


class TestWideResidueCodes:
    @pytest.mark.parametrize("residue_bits", (2, 8, 31, 32, 47, 61, 64, 89))
    @pytest.mark.parametrize("width", (1, 66, 132, 196))
    def test_residues_equal_the_modulo(self, residue_bits, width):
        checker = ResidueChecker("rows", residue_bits)
        rng = np.random.default_rng(residue_bits * 1000 + width)
        bits = rng.integers(0, 2, (width, 3, 5), dtype=np.uint8)
        bits[:, 0, 0] = 1
        weights = 1 << np.arange(width, dtype=object)
        values = np.tensordot(weights, bits.astype(object), axes=1)
        expected = [[value % checker.modulus for value in row] for row in values]
        assert checker.residues(bits).tolist() == expected

    @pytest.mark.parametrize("residue_bits", (40, 61, 89))
    @pytest.mark.parametrize("design", ("karatsuba", "toom3", "schoolbook"))
    def test_wide_codes_pass_correct_products(self, design, residue_bits):
        """A correct product checks clean under any residue width, one
        check per sub-product."""
        ctl = {
            "karatsuba": lambda: KaratsubaController(256, residue_bits=residue_bits),
            "toom3": lambda: Toom3Controller(270, residue_bits=residue_bits),
            "schoolbook": lambda: SchoolbookController(64, residue_bits=residue_bits),
        }[design]()
        stage = next(s for s in ctl.stages if isinstance(s, LockstepRowStage))
        rng = random.Random(residue_bits)
        top = (1 << ctl.n_bits) - 1
        pairs = [(top, top)] + [
            (rng.getrandbits(ctl.n_bits), rng.getrandbits(ctl.n_bits))
            for _ in range(63)
        ]
        records = ctl.run_jobs_batch(pairs)
        assert [record.product for record in records] == [a * b for a, b in pairs]
        assert stage.checker.checks == len(stage.steps) * len(pairs)
        assert stage.checker.mismatches == 0
