"""Tests for the in-memory Kogge-Stone adder (paper Sec. IV-B)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.arith.koggestone as koggestone_mod
import repro.magic.passes as passes_mod
from repro.arith.bitops import ceil_log2
from repro.arith.koggestone import (
    SCRATCH_ROWS,
    AdderUnit,
    KoggeStoneAdder,
    KoggeStoneLayout,
    latency_cc,
    writes_per_cell,
)
from repro.crossbar.faults import TransientFaultInjector, TransientFaultModel
from repro.magic.backend import BACKEND_NAMES
from repro.sim.exceptions import DesignError


class TestLatencyFormula:
    @pytest.mark.parametrize(
        "width, expected",
        [
            (4, 8 + 11 * 2 + 9),
            (16, 8 + 11 * 4 + 9),
            (17, 8 + 11 * 5 + 9),     # precompute adder at n = 64
            (65, 8 + 11 * 7 + 9),     # precompute adder at n = 256
            (95, 8 + 11 * 7 + 9),     # postcompute adder at n = 64
            (575, 8 + 11 * 10 + 9),   # postcompute adder at n = 384
        ],
    )
    def test_closed_form(self, width, expected):
        assert latency_cc(width) == expected

    def test_program_matches_formula(self):
        for width in (2, 3, 4, 8, 17, 33, 65, 97):
            adder = AdderUnit(width).adder
            assert adder.program("add").cycle_count == latency_cc(width)
            assert adder.program("sub").cycle_count == latency_cc(width)

    def test_levels(self):
        adder = AdderUnit(17).adder
        assert adder.levels == ceil_log2(17) == 5

    def test_invalid_width_rejected(self):
        with pytest.raises(DesignError):
            latency_cc(0)

    def test_writes_per_cell_bound(self):
        assert writes_per_cell(64) == 2 * 6
        assert writes_per_cell(96) == 2 * 7


class TestLayoutValidation:
    def test_needs_twelve_scratch_rows(self):
        with pytest.raises(DesignError):
            KoggeStoneLayout(
                width=8, col0=0, x_row=0, y_row=1, out_row=2,
                scratch_rows=tuple(range(3, 10)),
            )

    def test_rows_must_be_distinct(self):
        with pytest.raises(DesignError):
            KoggeStoneLayout(
                width=8, col0=0, x_row=0, y_row=0, out_row=2,
                scratch_rows=tuple(range(3, 15)),
            )

    def test_window_covers_carry_column(self):
        layout = KoggeStoneLayout(
            width=8, col0=2, x_row=0, y_row=1, out_row=2,
            scratch_rows=tuple(range(3, 15)),
        )
        assert layout.window == (2, 11)
        assert layout.columns == 9

    def test_footprint_matches_paper(self):
        """n+1 columns, 12 scratch rows, independent of n (Sec. IV-B)."""
        unit = AdderUnit(64)
        assert unit.array.cols == 65
        assert unit.array.rows == 3 + SCRATCH_ROWS


class TestAddition:
    def test_simple_cases(self):
        unit = AdderUnit(8)
        assert unit.run_pass([(0, 0)]) == [0]
        assert unit.run_pass([(1, 1)]) == [2]
        assert unit.run_pass([(255, 255)]) == [510]  # carry out captured
        assert unit.run_pass([(170, 85)]) == [255]

    def test_carry_chain_full_length(self):
        unit = AdderUnit(16)
        assert unit.run_pass([(0xFFFF, 1)]) == [0x10000]

    def test_repeated_use_stays_correct(self, rng):
        unit = AdderUnit(12)
        for _ in range(30):
            x, y = rng.getrandbits(12), rng.getrandbits(12)
            assert unit.run_pass([(x, y)]) == [x + y]

    def test_operand_width_enforced(self):
        """Operands may fill the 9-column window, carry column included,
        but not exceed it."""
        unit = AdderUnit(8)
        with pytest.raises(DesignError, match="window"):
            unit.run_pass([(1, 0), (0, 1 << 9)])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_addition_property(self, x, y):
        assert AdderUnit(16).run_pass([(x, y)]) == [x + y]


class TestSubtraction:
    def test_simple_cases(self):
        unit = AdderUnit(8)
        assert unit.run_pass([(5, 3)], "sub") == [2]
        assert unit.run_pass([(255, 0)], "sub") == [255]
        assert unit.run_pass([(128, 128)], "sub") == [0]

    def test_borrow_chain(self):
        unit = AdderUnit(16)
        assert unit.run_pass([(0x8000, 1)], "sub") == [0x7FFF]

    def test_negative_result_rejected(self):
        unit = AdderUnit(8)
        with pytest.raises(DesignError):
            unit.run_pass([(3, 5)], "sub")

    def test_unknown_op_rejected(self):
        unit = AdderUnit(8)
        with pytest.raises(DesignError):
            unit.adder.program("mul")
        with pytest.raises(DesignError):
            unit.run_pass([(1, 1)], "mul")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_subtraction_property(self, x, y):
        x, y = max(x, y), min(x, y)
        assert AdderUnit(16).run_pass([(x, y)], "sub") == [x - y]

    def test_add_sub_interleaved(self, rng):
        """Add and sub programs share the array without interference."""
        unit = AdderUnit(10)
        for _ in range(20):
            x, y = rng.getrandbits(10), rng.getrandbits(10)
            assert unit.run_pass([(x, y)], "add") == [x + y]
            hi, lo = max(x, y), min(x, y)
            assert unit.run_pass([(hi, lo)], "sub") == [hi - lo]


class TestOperandRule:
    """The window rule the Karatsuba postcompute plans its passes by:
    operands may use the carry column when the result has no carry-out."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("width", [8, 95])
    def test_window_wide_operands_exact(self, backend, width):
        unit = AdderUnit(width, backend=backend)
        top = 1 << width
        assert unit.run_pass(
            [(top, top - 1), (top, 0), (0, top)], "add"
        ) == [2 * top - 1, top, top]
        assert unit.run_pass(
            [(2 * top - 1, top), (top, 1), (top, top)], "sub"
        ) == [top - 1, top - 1, 0]

    @pytest.mark.parametrize(
        "pairs, op, match",
        [
            ([(1 << 9, 0)], "sub", "window"),       # over-window operand
            ([(-1, 0)], "add", "window"),           # negative operand
            ([(256, 256)], "add", "overflows"),     # sum needs a 10th column
            ([(1, 1), (511, 1)], "add", "overflows"),
            ([(3, 5)], "sub", "x >= y"),            # negative difference
        ],
    )
    def test_other_inputs_rejected(self, pairs, op, match):
        unit = AdderUnit(8)
        with pytest.raises(DesignError, match=match):
            unit.run_pass(pairs, op)
        # Validation runs before any lane: nothing was charged.
        assert unit.array.energy_fj == AdderUnit(8).array.energy_fj

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_empty_pass_returns_nothing(self, backend):
        """No pairs means no lanes: an empty result, nothing charged,
        and the same on every backend."""
        unit = AdderUnit(8, backend=backend)
        writes, energy = unit.array.writes.copy(), unit.array.energy_fj
        for op in ("add", "sub"):
            assert unit.run_pass([], op) == []
        assert unit.replay(unit.adder.program(), []) == []
        assert (unit.array.writes == writes).all()
        assert unit.array.energy_fj == energy
        assert unit.run_pass([(3, 4)]) == [7]


class TestStandaloneFaultHook:
    @pytest.mark.parametrize("lanes", [1, 3])
    def test_sum_read_meets_the_hook(self, lanes):
        """A standalone pass senses its sum with a READ micro-op, so a
        read-disturb hook strikes every sensed cell of every lane, after
        the sense: the sums stay exact, and both backends charge the
        same writes and energy."""
        pairs = [(0xBEEF >> lane, 0x1234 + lane) for lane in range(lanes)]
        outcomes = {}
        for backend in BACKEND_NAMES:
            unit = AdderUnit(16, backend=backend)
            hook = TransientFaultInjector(TransientFaultModel(read_disturb_prob=1.0))
            unit.fault_hook = hook
            assert unit.run_pass(pairs) == [x + y for x, y in pairs]
            assert hook.read_disturbs == 17 * lanes
            outcomes[backend] = (unit.array.writes.tolist(), unit.array.energy_fj)
        assert outcomes["word"] == outcomes["scalar"]


class TestPinnedFaultAfterReplay:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_stuck_cell_stays_pinned(self, backend):
        """A replay leaves the unit's array at the all-ones steady state
        with its faults re-pinned, so the array's own state shows a
        stuck-at-0 cell at logic zero after a pass as before it."""
        unit = AdderUnit(8, backend=backend)
        unit.array.strict_magic = False
        unit.array.inject_fault(2, 3, "sa0")
        assert not unit.array.snapshot()[2, 3]
        unit.run_pass([(1, 2)])
        assert unit.array.faults == {(2, 3): "sa0"}
        state = unit.array.snapshot()
        assert not state[2, 3]
        assert state.sum() == state.size - 1


class TestBatchedOperation:
    """Two independent operations share one pass via disjoint column
    blocks — the paper's postcompute batching (Sec. IV-E)."""

    def test_batched_addition(self):
        unit = AdderUnit(16)
        # Blocks: [0, 7) and [8, 15); sums have 8 bits each, gap at 7.
        xa, ya = 0x55, 0x2A
        xb, yb = 0x7F, 0x01
        x = xa | (xb << 8)
        y = ya | (yb << 8)
        (got,) = unit.run_pass([(x, y)], "add")
        assert got & 0xFF == xa + ya
        assert (got >> 8) & 0xFF == xb + yb

    def test_batched_subtraction_no_borrow_leak(self):
        unit = AdderUnit(16)
        # Low block produces a zero result; the gap column's propagate=1
        # must forward only a zero borrow into the high block.
        xa, ya = 0x40, 0x40
        xb, yb = 0x50, 0x01
        x = xa | (xb << 8)
        y = ya | (yb << 8)
        (got,) = unit.run_pass([(x, y)], "sub")
        assert got & 0xFF == 0
        assert (got >> 8) & 0xFF == xb - yb


class TestWear:
    def test_scratch_wear_bounded(self):
        """Per-addition scratch wear stays within a small factor of the
        paper's 2*ceil(log2 n) bound."""
        unit = AdderUnit(32)
        unit.run_pass([(1, 2)])
        baseline = unit.array.max_writes()
        runs = 20
        for i in range(runs):
            unit.run_pass([(i + 3, 2 * i + 1)])
        per_run = (unit.array.max_writes() - baseline) / runs
        assert per_run <= 3 * writes_per_cell(32)

    def test_write_counters_monotone(self):
        unit = AdderUnit(8)
        unit.run_pass([(1, 1)])
        w1 = unit.array.total_writes()
        unit.run_pass([(2, 2)])
        assert unit.array.total_writes() > w1


# ----------------------------------------------------------------------
# Process-wide program memo: one generation and packing per layout
# ----------------------------------------------------------------------
#: A layout no other test places (odd width, offset window, high rows).
SHARED_LAYOUT = KoggeStoneLayout(
    width=37, col0=3, x_row=40, y_row=41, out_row=42,
    scratch_rows=tuple(range(43, 43 + SCRATCH_ROWS)),
)


@pytest.fixture
def builds(monkeypatch, fresh_programs):
    """Fresh memo plus counters of generation and packing calls."""
    calls = {"generate": 0, "optimize": 0}
    generate = koggestone_mod._generate
    optimize = passes_mod.optimize_program

    def counting_generate(layout, op):
        calls["generate"] += 1
        return generate(layout, op)

    def counting_optimize(*args, **kwargs):
        calls["optimize"] += 1
        return optimize(*args, **kwargs)

    monkeypatch.setattr(koggestone_mod, "_generate", counting_generate)
    monkeypatch.setattr(passes_mod, "optimize_program", counting_optimize)
    return calls


class TestSharedPrograms:
    def test_second_build_packs_nothing(self, builds):
        first = KoggeStoneAdder(SHARED_LAYOUT)
        packed = first.program("add", optimize=True)
        assert builds == {"generate": 1, "optimize": 1}

        second = KoggeStoneAdder(dataclasses.replace(SHARED_LAYOUT))
        assert second.optimizer_reports == {}
        again = second.program("add", optimize=True)
        assert builds == {"generate": 1, "optimize": 1}
        assert again is packed
        assert second.program("add") is first.program("add")
        # The report is filled for the instance that asked for it.
        assert second.optimizer_reports["add"] is first.optimizer_reports["add"]

    @pytest.mark.parametrize(
        "change",
        [
            {"col0": 4},
            {"x_row": 39},
            {"out_row": 39},
            {"scratch_rows": tuple(range(44, 44 + SCRATCH_ROWS))},
            {"width": 38},
        ],
    )
    def test_other_layout_gets_own_program(self, builds, change):
        base = KoggeStoneAdder(SHARED_LAYOUT).program("add", optimize=True)
        other = KoggeStoneAdder(dataclasses.replace(SHARED_LAYOUT, **change))
        assert other.program("add", optimize=True) is not base
        assert builds == {"generate": 2, "optimize": 2}

    def test_other_op_gets_own_program(self, builds):
        adder = KoggeStoneAdder(SHARED_LAYOUT)
        add = adder.program("add", optimize=True)
        sub = KoggeStoneAdder(SHARED_LAYOUT).program("sub", optimize=True)
        assert sub is not add
        assert builds == {"generate": 2, "optimize": 2}
        # The unpacked program is an entry of its own.
        assert adder.program("add") is not add
        assert builds == {"generate": 2, "optimize": 2}

    def test_lru_stays_within_bound(self, builds):
        memo = koggestone_mod.adder_program
        bound = memo.cache_info().maxsize
        assert bound == 512
        first = KoggeStoneAdder(SHARED_LAYOUT).program("add")
        for col0 in range(1, bound + 5):
            layout = dataclasses.replace(SHARED_LAYOUT, width=3, col0=col0)
            KoggeStoneAdder(layout).program("add")
            assert memo.cache_info().currsize <= bound
        assert memo.cache_info().currsize == bound
        # The oldest entry was evicted: an equal adder rebuilds it, equal
        # in content to the program it replaces.
        generated = builds["generate"]
        again = KoggeStoneAdder(SHARED_LAYOUT).program("add")
        assert builds["generate"] == generated + 1
        assert again is not first
        assert again.ops == first.ops
        assert again.cycle_count == first.cycle_count
