"""Tests for the crossbar array and its stateful-logic primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar import (
    FAULT_STUCK_AT_0,
    FAULT_STUCK_AT_1,
    CrossbarArray,
    DeviceModel,
    WordPackedCrossbarArray,
)
from repro.magic import MagicExecutor, ProgramBuilder, get_backend
from repro.sim.exceptions import (
    AddressError,
    FaultInjectionError,
    MagicProtocolError,
)


@pytest.fixture
def array() -> CrossbarArray:
    return CrossbarArray(8, 16)


def bits(*values: int) -> np.ndarray:
    return np.array(values, dtype=bool)


class TestAddressing:
    def test_dimensions(self, array):
        assert array.rows == 8
        assert array.cols == 16
        assert array.cells == 128

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CrossbarArray(0, 4)
        with pytest.raises(ValueError):
            CrossbarArray(4, -1)

    def test_row_bounds_checked(self, array):
        with pytest.raises(AddressError):
            array.read_row(8)
        with pytest.raises(AddressError):
            array.write_bit(-1, 0, 1)

    def test_col_bounds_checked(self, array):
        with pytest.raises(AddressError):
            array.read_bit(0, 16)

    def test_word_shape_checked(self, array):
        with pytest.raises(AddressError):
            array.write_row(0, [1, 0, 1])


class TestReadWrite:
    def test_write_then_read_row(self, array):
        word = np.zeros(16, dtype=bool)
        word[[0, 3, 15]] = True
        array.write_row(2, word)
        assert (array.read_row(2) == word).all()

    def test_read_returns_copy(self, array):
        word = array.read_row(0)
        word[0] = True
        assert not array.state[0, 0]

    def test_masked_write_leaves_other_columns(self, array):
        array.write_row(1, np.ones(16, dtype=bool))
        mask = np.zeros(16, dtype=bool)
        mask[:4] = True
        array.write_row(1, np.zeros(16, dtype=bool), mask)
        got = array.read_row(1)
        assert not got[:4].any()
        assert got[4:].all()

    def test_bit_level_access(self, array):
        array.write_bit(3, 5, 1)
        assert array.read_bit(3, 5) == 1
        assert array.read_bit(3, 6) == 0

    def test_write_counting(self, array):
        array.write_row(0, np.ones(16, dtype=bool))
        array.write_bit(0, 2, 0)
        assert array.writes[0, 2] == 2
        assert array.writes[0, 3] == 1
        assert array.total_writes() == 17
        assert array.max_writes() == 2


class TestMagicNor:
    def test_nor_truth_table(self):
        array = CrossbarArray(3, 4)
        array.write_row(0, bits(0, 0, 1, 1))
        array.write_row(1, bits(0, 1, 0, 1))
        array.init_rows([2])
        array.nor_rows([0, 1], 2)
        assert (array.read_row(2) == bits(1, 0, 0, 0)).all()

    def test_not_is_single_input_nor(self):
        array = CrossbarArray(2, 4)
        array.write_row(0, bits(0, 1, 0, 1))
        array.init_rows([1])
        array.not_row(0, 1)
        assert (array.read_row(1) == bits(1, 0, 1, 0)).all()

    def test_three_input_nor(self):
        array = CrossbarArray(4, 2)
        array.write_row(0, bits(0, 1))
        array.write_row(1, bits(0, 0))
        array.write_row(2, bits(0, 0))
        array.init_rows([3])
        array.nor_rows([0, 1, 2], 3)
        assert (array.read_row(3) == bits(1, 0)).all()

    def test_inputs_preserved(self):
        """MAGIC preserves input memristors (unlike IMPLY)."""
        array = CrossbarArray(3, 4)
        array.write_row(0, bits(1, 0, 1, 0))
        array.write_row(1, bits(0, 0, 1, 1))
        array.init_rows([2])
        array.nor_rows([0, 1], 2)
        assert (array.read_row(0) == bits(1, 0, 1, 0)).all()
        assert (array.read_row(1) == bits(0, 0, 1, 1)).all()

    def test_uninitialised_output_rejected_in_strict_mode(self):
        array = CrossbarArray(3, 4, strict_magic=True)
        array.write_row(0, bits(1, 1, 1, 1))
        with pytest.raises(MagicProtocolError):
            array.nor_rows([0], 2)

    def test_nonstrict_mode_computes_pessimistically(self):
        array = CrossbarArray(3, 4, strict_magic=False)
        array.write_row(0, bits(0, 0, 0, 0))
        # Output row holds 0s; a real MAGIC gate cannot switch 0 -> 1,
        # but the behavioural model writes the logical NOR regardless.
        array.nor_rows([0], 2)
        assert array.read_row(2).all()

    def test_output_cannot_be_input(self, array):
        with pytest.raises(MagicProtocolError):
            array.nor_rows([0, 1], 1)

    def test_empty_inputs_rejected(self, array):
        with pytest.raises(MagicProtocolError):
            array.nor_rows([], 2)

    def test_masked_nor_only_touches_window(self):
        array = CrossbarArray(3, 8)
        array.write_row(0, bits(1, 1, 1, 1, 1, 1, 1, 1))
        array.init_rows([2])
        mask = np.zeros(8, dtype=bool)
        mask[:4] = True
        array.nor_rows([0], 2, mask)
        got = array.read_row(2)
        assert not got[:4].any()
        assert got[4:].all()

    def test_multi_row_init_counts_one_write_per_cell(self):
        array = CrossbarArray(4, 4)
        array.init_rows([0, 1, 2])
        assert array.writes[:3].sum() == 12
        assert array.writes[3].sum() == 0


class TestImply:
    @pytest.mark.parametrize(
        "p, q, expected",
        [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)],
    )
    def test_truth_table(self, p, q, expected):
        array = CrossbarArray(2, 1)
        array.write_bit(0, 0, p)
        array.write_bit(1, 0, q)
        array.imply_rows(0, 1)
        assert array.read_bit(1, 0) == expected

    def test_destructive_on_q_only(self):
        array = CrossbarArray(2, 4)
        array.write_row(0, bits(0, 0, 1, 1))
        array.write_row(1, bits(0, 1, 0, 1))
        array.imply_rows(0, 1)
        assert (array.read_row(0) == bits(0, 0, 1, 1)).all()
        assert (array.read_row(1) == bits(1, 1, 0, 1)).all()

    def test_same_row_rejected(self, array):
        with pytest.raises(MagicProtocolError):
            array.imply_rows(1, 1)


class TestMajority:
    @pytest.mark.parametrize(
        "a, b, c, expected",
        [
            (0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0),
            (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1),
        ],
    )
    def test_truth_table(self, a, b, c, expected):
        array = CrossbarArray(4, 1)
        array.write_bit(0, 0, a)
        array.write_bit(1, 0, b)
        array.write_bit(2, 0, c)
        array.maj_rows([0, 1, 2], 3)
        assert array.read_bit(3, 0) == expected

    def test_requires_three_inputs(self, array):
        with pytest.raises(MagicProtocolError):
            array.maj_rows([0, 1], 3)


class TestFaults:
    def test_stuck_at_one_pins_cell(self, array):
        array.inject_fault(0, 0, FAULT_STUCK_AT_1)
        array.write_row(0, np.zeros(16, dtype=bool))
        assert array.read_bit(0, 0) == 1

    def test_stuck_at_zero_pins_cell(self, array):
        array.inject_fault(1, 3, FAULT_STUCK_AT_0)
        array.write_row(1, np.ones(16, dtype=bool))
        assert array.read_bit(1, 3) == 0
        assert array.read_bit(1, 4) == 1

    def test_fault_corrupts_nor_result(self):
        array = CrossbarArray(3, 2, strict_magic=False)
        array.inject_fault(2, 0, FAULT_STUCK_AT_0)
        array.write_row(0, bits(0, 0))
        array.init_rows([2])
        array.nor_rows([0], 2)
        # Fault forces the output low even though NOR(0) = 1.
        assert array.read_bit(2, 0) == 0
        assert array.read_bit(2, 1) == 1

    def test_unknown_fault_kind_rejected(self, array):
        with pytest.raises(FaultInjectionError):
            array.inject_fault(0, 0, "flaky")

    def test_clear_faults(self, array):
        array.inject_fault(0, 0, FAULT_STUCK_AT_1)
        array.clear_faults()
        assert array.fault_count == 0
        array.write_row(0, np.zeros(16, dtype=bool))
        assert array.read_bit(0, 0) == 0


class TestEnergyAccounting:
    def test_writes_accumulate_energy(self, array):
        before = array.energy_fj
        array.write_row(0, np.ones(16, dtype=bool))
        assert array.energy_fj > before

    def test_reads_accumulate_energy(self, array):
        before = array.energy_fj
        array.read_row(0)
        assert array.energy_fj > before

    def test_set_costs_more_than_reset_by_default(self):
        a = CrossbarArray(1, 8)
        a.write_row(0, np.ones(8, dtype=bool))
        set_cost = a.energy_fj
        b = CrossbarArray(1, 8)
        b.write_row(0, np.zeros(8, dtype=bool))
        assert set_cost > b.energy_fj


# ----------------------------------------------------------------------
# Word-packed energy: one bit_count per event
# ----------------------------------------------------------------------
COUNTER_COLS = 3


def _lane_counts(mask: int, cols: int, batch: int) -> np.ndarray:
    """Naive per-lane popcount of one lane-major packed mask, ``(batch,)``."""
    row_bits = cols * batch
    raw = np.frombuffer(mask.to_bytes((row_bits + 7) // 8, "little"), np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[:row_bits]
    return bits.reshape(batch, cols).sum(axis=1, dtype=np.int64)


@st.composite
def _mask_runs(draw, batches=(1, 2, 3, 5, 8, 33, 64, 65)):
    """A batch size plus a mask sequence rich in zero and all-ones masks.

    Masks span the array's own row width, ``COUNTER_COLS * batch`` bits,
    at batch sizes that are and are not powers of two.
    """
    batch = draw(st.sampled_from(batches))
    row_bits = WordPackedCrossbarArray(batch, 1, COUNTER_COLS).row_bits
    assert row_bits == COUNTER_COLS * batch
    full = (1 << row_bits) - 1
    masks = draw(
        st.lists(
            st.one_of(
                st.just(0),
                st.just(full),
                st.integers(min_value=0, max_value=full),
            ),
            max_size=80,
        )
    )
    return batch, masks


class TestRedundantEnergyCounter:
    """The word array counts switched cells into one integer per
    coefficient: every bit of a row is a cell of some lane."""

    @settings(max_examples=60, deadline=None)
    @given(_mask_runs(), st.sampled_from([1.0, 61.0, 115.0]))
    def test_flush_equals_naive_popcount(self, run, coeff):
        """The total read back is *coeff* times the lanes' naive
        popcounts, read midway or at the end."""
        batch, masks = run
        array = WordPackedCrossbarArray(batch, 1, COUNTER_COLS)
        cells = 0
        for mask in masks:
            array._add_energy_cells(coeff, mask.bit_count())
            cells += int(_lane_counts(mask, COUNTER_COLS, batch).sum())
            assert array.total_energy_fj() == coeff * cells
        assert list(array._energy_counts.values()) == ([cells] if masks else [])

    @pytest.mark.parametrize("batch", [1, 3, 65])
    def test_aliased_coefficients(self, batch):
        """e_set - e_reset == e_reset: write and reset events share one
        counter, and the total must still match the scalar oracle's lanes."""
        device = DeviceModel(e_set_fj=122.0, e_reset_fj=61.0)
        assert device.e_set_fj - device.e_reset_fj == device.e_reset_fj
        program = (
            ProgramBuilder()
            .write(0, "x", width=16)
            .write(1, "y", width=16)
            .init([2])
            .nor([0, 1], 2)
            .shift(2, 3, -3, fill=1, cols=(2, 14))
            .init([4])
            .not_(3, 4, cols=(0, 9))
            .read(4, "out", width=16)
            .build()
        )
        rng = np.random.default_rng(batch)
        bindings = [
            {"x": int(rng.integers(1 << 16)), "y": int(rng.integers(1 << 16))}
            for _ in range(batch)
        ]
        backend = get_backend("word")
        words = backend.make_array(CrossbarArray(6, 16, device=device), batch)
        stats = backend.make_executor(words).execute(program, bindings)
        assert list(words._energy_counts) == [61.0]
        oracle_energy = 0.0
        for lane, lane_bindings in enumerate(bindings):
            oracle = MagicExecutor(CrossbarArray(6, 16, device=device))
            expected = oracle.execute(program, lane_bindings)
            assert stats[lane].results == expected.results
            oracle_energy += expected.energy_fj
        assert words.total_energy_fj() == oracle_energy

    @pytest.mark.parametrize("cols", [255, 256, 600])
    @pytest.mark.parametrize("lanes", [1, 2, 4, 8, 16, 32, 64, 128])
    def test_lane_popcounts_past_one_byte(self, cols, lanes):
        """Rows wider than 255 columns, at a power-of-two batch and at
        the batch just past the next one down (3, 5, 9, ..., 65 lanes):
        a row is exactly ``batch * cols`` bits, and the total is the
        per-lane popcounts summed, each well past one byte."""
        rng = np.random.default_rng(cols + lanes)
        for batch in sorted({lanes, lanes // 2 + 1}):
            array = WordPackedCrossbarArray(batch, 1, cols)
            row_bits = cols * batch
            assert array.row_bits == row_bits
            full = (1 << row_bits) - 1
            assert array._full == full
            masks = [full, 0, int(rng.integers(1 << 62)) << (row_bits - 62)]
            masks.append(int.from_bytes(rng.bytes(row_bits // 8 + 1), "little") & full)
            counts = np.zeros(batch, dtype=np.int64)
            for mask in masks:
                array._add_energy_cells(2.0, mask.bit_count())
                counts += _lane_counts(mask, cols, batch)
            assert counts[0] > 255
            assert array.total_energy_fj() == 2.0 * int(counts.sum())
