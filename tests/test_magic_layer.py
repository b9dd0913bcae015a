"""Tests for the MAGIC layer: micro-ops, programs, executor, synthesis."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crossbar import CrossbarArray
from repro.magic import (
    Init,
    MagicExecutor,
    Nop,
    Nor,
    Program,
    ProgramBuilder,
    Shift,
    bits_to_int,
    emit_and,
    emit_maj3,
    emit_or,
    emit_xnor,
    emit_xor,
    int_to_bits,
)
from repro.sim.clock import Clock
from repro.sim.exceptions import ProgramError


class TestMicroOps:
    def test_default_cycle_costs(self):
        assert Init(rows=(0,)).cycles == 1
        assert Nor(in_rows=(0,), out_row=1).cycles == 1
        assert Shift(src_row=0, dst_row=1, offset=1).cycles == 2
        assert Nop(count=5).cycles == 5

    def test_opcode_names(self):
        assert Init(rows=(0,)).opcode == "init"
        assert Shift(src_row=0, dst_row=1, offset=1).opcode == "shift"

    def test_empty_init_rejected(self):
        with pytest.raises(ValueError):
            Init(rows=())

    def test_empty_nor_rejected(self):
        with pytest.raises(ValueError):
            Nor(in_rows=(), out_row=1)

    def test_nop_minimum(self):
        with pytest.raises(ValueError):
            Nop(count=0)

    def test_ops_are_hashable(self):
        assert hash(Nor(in_rows=(0, 1), out_row=2)) == hash(
            Nor(in_rows=(0, 1), out_row=2)
        )


class TestProgram:
    def test_cycle_count_sums_op_costs(self):
        prog = (
            ProgramBuilder()
            .init([0])
            .nor([0], 1)
            .shift(1, 2, 1)
            .nop(3)
            .build()
        )
        assert prog.cycle_count == 1 + 1 + 2 + 3

    def test_histogram(self):
        prog = ProgramBuilder().nor([0], 1).nor([1], 2).init([3]).build()
        assert prog.histogram() == {"nor": 2, "init": 1}

    def test_rows_touched(self):
        prog = (
            ProgramBuilder()
            .nor([0, 1], 2)
            .shift(2, 3, 1, also_init=(5,))
            .build()
        )
        assert prog.rows_touched() == (0, 1, 2, 3, 5)

    def test_extend_concatenates(self):
        a = ProgramBuilder().nor([0], 1).build()
        b = ProgramBuilder().init([2]).build()
        joined = ProgramBuilder().concat(a).concat(b).build()
        assert joined.ops == a.ops + b.ops
        assert len(a) == len(b) == 1  # the parts are left as they were

    def test_ops_are_a_tuple(self):
        program = Program(ops=[Nop(count=2)], label="x")
        assert isinstance(program.ops, tuple)
        assert isinstance(ProgramBuilder().nop().build().ops, tuple)
        with pytest.raises(TypeError):
            program.ops[0] = Nop()
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.ops = ()
        assert program.cycle_count == 2

    def test_builder_not_validates_single_input(self):
        with pytest.raises(ProgramError):
            ProgramBuilder().not_([0, 1], 2)

    def test_builder_concat(self):
        inner = ProgramBuilder().nop(1).build()
        prog = ProgramBuilder().concat(inner).nop(1).build()
        assert prog.cycle_count == 2


class TestBitConversions:
    def test_roundtrip(self):
        for value in (0, 1, 0b1011, 0xFFFF):
            assert bits_to_int(int_to_bits(value, 16)) == value

    def test_lsb_first(self):
        bits = int_to_bits(0b01, 2)
        assert bits[0] and not bits[1]

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)


class TestExecutor:
    def test_cycle_accounting(self):
        array = CrossbarArray(4, 8)
        clock = Clock()
        ex = MagicExecutor(array, clock=clock)
        prog = ProgramBuilder().init([2]).nor([0, 1], 2).nop(3).build()
        stats = ex.execute(prog)
        assert clock.cycles == 5
        assert stats.cycles == 5
        assert stats.nor_ops == 1
        assert stats.init_ops == 1

    def test_write_and_read_bindings(self):
        array = CrossbarArray(2, 8)
        ex = MagicExecutor(array)
        prog = (
            ProgramBuilder()
            .write(0, "x", width=8)
            .read(0, "echo", width=8)
            .build()
        )
        ex.execute(prog, bindings={"x": 0xA5})
        assert ex.results["echo"] == 0xA5

    def test_unbound_write_rejected(self):
        array = CrossbarArray(2, 8)
        ex = MagicExecutor(array)
        prog = ProgramBuilder().write(0, "missing").build()
        with pytest.raises(ProgramError):
            ex.execute(prog)

    def test_field_bounds_checked(self):
        array = CrossbarArray(2, 8)
        ex = MagicExecutor(array)
        prog = ProgramBuilder().read(0, "x", col_offset=6, width=4).build()
        with pytest.raises(ProgramError):
            ex.execute(prog)

    def test_shift_left_with_fill(self):
        array = CrossbarArray(2, 8)
        ex = MagicExecutor(array)
        prog = (
            ProgramBuilder()
            .write(0, "x", width=8)
            .shift(0, 1, 2, fill=1)
            .read(1, "out", width=8)
            .build()
        )
        ex.execute(prog, bindings={"x": 0b0000_0101})
        # Shift towards MSB by 2, filling vacated LSBs with 1.
        assert ex.results["out"] == 0b0001_0111

    def test_shift_right(self):
        array = CrossbarArray(2, 8)
        ex = MagicExecutor(array)
        prog = (
            ProgramBuilder()
            .write(0, "x", width=8)
            .shift(0, 1, -1, fill=0)
            .read(1, "out", width=8)
            .build()
        )
        ex.execute(prog, bindings={"x": 0b1000_0000})
        assert ex.results["out"] == 0b0100_0000

    def test_shift_also_init(self):
        array = CrossbarArray(4, 8)
        ex = MagicExecutor(array)
        prog = (
            ProgramBuilder()
            .write(0, "x", width=8)
            .shift(0, 1, 1, also_init=(2, 3))
            .build()
        )
        ex.execute(prog, bindings={"x": 0xFF})
        assert array.state[2].all()
        assert array.state[3].all()

    def test_shift_window_restricted(self):
        array = CrossbarArray(2, 8)
        ex = MagicExecutor(array)
        prog = (
            ProgramBuilder()
            .write(0, "x", width=8)
            .shift(0, 1, 1, cols=(0, 4))
            .read(1, "out", width=8)
            .build()
        )
        ex.execute(prog, bindings={"x": 0b1111_1111})
        # Only the low window [0,4) was shifted into row 1.
        assert ex.results["out"] == 0b0000_1110

    def test_bad_column_range_rejected(self):
        array = CrossbarArray(2, 8)
        ex = MagicExecutor(array)
        prog = ProgramBuilder().nor([0], 1, cols=(4, 20)).build()
        with pytest.raises(ProgramError):
            ex.execute(prog)


class TestSynthMacros:
    @staticmethod
    def _run(build, a_bits: int, b_bits: int, width: int = 4) -> int:
        array = CrossbarArray(10, width)
        ex = MagicExecutor(array)
        builder = ProgramBuilder()
        builder.write(0, "a", width=width).write(1, "b", width=width)
        builder.init([2, 3, 4, 5, 6, 7, 8, 9])
        build(builder)
        builder.read(2, "out", width=width)
        ex.execute(builder.build(), bindings={"a": a_bits, "b": b_bits})
        return ex.results["out"]

    def test_and(self):
        got = self._run(
            lambda b: emit_and(b, 0, 1, 2, scratch=[3, 4]), 0b0011, 0b0101
        )
        assert got == 0b0001

    def test_or(self):
        got = self._run(
            lambda b: emit_or(b, 0, 1, 2, scratch=[3]), 0b0011, 0b0101
        )
        assert got == 0b0111

    def test_xor(self):
        got = self._run(
            lambda b: emit_xor(b, 0, 1, 2, scratch=[3, 4, 5, 6]), 0b0011, 0b0101
        )
        assert got == 0b0110

    def test_xnor(self):
        got = self._run(
            lambda b: emit_xnor(b, 0, 1, 2, scratch=[3, 4, 5]), 0b0011, 0b0101
        )
        assert got == 0b1001

    def test_maj3_all_patterns(self):
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    array = CrossbarArray(12, 1)
                    ex = MagicExecutor(array)
                    builder = ProgramBuilder()
                    for row, val in ((0, a), (1, b), (2, c)):
                        builder.write(row, f"v{row}", width=1)
                    builder.init(list(range(3, 12)))
                    emit_maj3(builder, 0, 1, 2, 3, scratch=[4, 5, 6, 7, 8, 9])
                    builder.read(3, "out", width=1)
                    ex.execute(
                        builder.build(),
                        bindings={"v0": a, "v1": b, "v2": c},
                    )
                    expected = 1 if a + b + c >= 2 else 0
                    assert ex.results["out"] == expected, (a, b, c)

    def test_scratch_shortage_rejected(self):
        with pytest.raises(ProgramError):
            emit_xor(ProgramBuilder(), 0, 1, 2, scratch=[3])
