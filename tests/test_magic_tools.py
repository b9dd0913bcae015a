"""Tests for the MAGIC program tooling: optimizer, verifier, assembler."""

from __future__ import annotations

import pytest

from repro.arith.koggestone import AdderUnit
from repro.crossbar import CrossbarArray
from repro.magic import (
    MagicExecutor,
    ProgramBuilder,
    bits_to_int,
    check_protocol,
    coalesce_inits,
    dump_asm,
    eliminate_dead_ops,
    int_to_bits,
    liveness,
    load_asm,
)
from repro.magic.ops import Init, Nop, Nor
from repro.magic.optimize import effect_of, optimization_summary
from repro.sim.exceptions import ProgramError


class TestEffects:
    def test_nor_effect(self):
        eff = effect_of(Nor(in_rows=(0, 1), out_row=2))
        assert eff.reads == (0, 1)
        assert eff.writes == (2,)
        assert eff.initialises == ()

    def test_init_effect(self):
        eff = effect_of(Init(rows=(3, 4)))
        assert eff.writes == (3, 4)
        assert eff.initialises == (3, 4)

    def test_nop_effect(self):
        eff = effect_of(Nop(count=2))
        assert eff.reads == () and eff.writes == ()


class TestLiveness:
    def test_simple_chain(self):
        prog = (
            ProgramBuilder()
            .nor([0, 1], 2)
            .nor([2], 3)
            .read(3, "out")
            .build()
        )
        live = liveness(prog)
        assert 2 in live[0]     # row 2 live after first op
        assert 3 in live[1]
        assert 2 not in live[1]

    def test_overwritten_row_not_live(self):
        prog = (
            ProgramBuilder()
            .nor([0], 2)
            .init([2])          # clobbers row 2 before any read
            .read(2, "x")
            .build()
        )
        live = liveness(prog)
        assert 2 not in live[0]


class TestProtocolChecker:
    def test_valid_program_passes(self):
        prog = (
            ProgramBuilder()
            .init([2, 3])
            .nor([0, 1], 2)
            .not_(2, 3)
            .build()
        )
        assert check_protocol(prog).ok

    def test_missing_init_detected(self):
        prog = ProgramBuilder().nor([0, 1], 2).build()
        report = check_protocol(prog)
        assert not report.ok
        assert "row 2" in report.violations[0]

    def test_reused_output_needs_reinit(self):
        prog = (
            ProgramBuilder()
            .init([2])
            .nor([0], 2)
            .nor([1], 2)        # row 2 no longer armed
            .build()
        )
        report = check_protocol(prog)
        assert not report.ok

    def test_shift_also_init_arms_rows(self):
        prog = (
            ProgramBuilder()
            .shift(0, 1, 1, also_init=(2,))
            .nor([1], 2)
            .build()
        )
        assert check_protocol(prog).ok

    def test_initially_ones_honoured(self):
        prog = ProgramBuilder().nor([0], 2).build()
        assert check_protocol(prog, initially_ones={2}).ok

    def test_koggestone_programs_statically_valid(self):
        """The generated adder programs obey the MAGIC discipline given
        the stage's power-up guarantee (scratch + out rows at one)."""
        for width in (4, 16, 64):
            adder = AdderUnit(width).adder
            armed = set(adder.layout.scratch_rows) | {adder.layout.out_row}
            for op in ("add", "sub"):
                report = check_protocol(adder.program(op), initially_ones=armed)
                assert report.ok, (width, op, report.violations[:3])


class TestDeadOpElimination:
    def test_dead_logic_removed(self):
        prog = (
            ProgramBuilder()
            .init([2, 3])
            .nor([0], 2)        # dead: row 2 never read
            .nor([1], 3)
            .read(3, "out")
            .build()
        )
        optimised = eliminate_dead_ops(prog)
        assert len(optimised) == len(prog) - 1

    def test_keep_rows_protects_outputs(self):
        prog = ProgramBuilder().init([2]).nor([0], 2).build()
        assert len(eliminate_dead_ops(prog)) == 1          # NOR dropped
        assert len(eliminate_dead_ops(prog, keep_rows={2})) == 2

    def test_adder_program_single_known_redundancy(self):
        """DCE finds exactly one dead op in the Kogge-Stone schedule:
        the *last* prefix level's P-combine (``P1 AND P2``), whose
        output no later op consumes (the sum needs only the original
        propagate bits and the final generates).  The paper's uniform
        7-op-per-level schedule computes it anyway for SIMD regularity,
        so the generator keeps it."""
        adder = AdderUnit(16).adder
        prog = adder.program("add")
        optimised = eliminate_dead_ops(
            prog, keep_rows={adder.layout.out_row}
        )
        assert len(optimised) == len(prog) - 1

    def test_optimised_program_still_correct(self, rng):
        """Optimisation passes preserve semantics on the executor."""
        adder = AdderUnit(8).adder
        prog = coalesce_inits(
            eliminate_dead_ops(
                adder.program("add"), keep_rows={adder.layout.out_row}
            )
        )
        # Run the optimised program manually.
        array = CrossbarArray(15, 9)
        lay = adder.layout
        array.init_rows(lay.scratch_rows)
        array.init_rows([lay.out_row])
        x, y = rng.getrandbits(8), rng.getrandbits(8)
        array.write_row(lay.x_row, int_to_bits(x, 9))
        array.write_row(lay.y_row, int_to_bits(y, 9))
        MagicExecutor(array).execute(prog)
        assert bits_to_int(array.read_row(lay.out_row)) == x + y


class TestCoalesceInits:
    def test_adjacent_inits_merge(self):
        prog = (
            ProgramBuilder()
            .init([0], cols=(0, 4))
            .init([1], cols=(0, 4))
            .nor([0], 1)
            .init([2])
            .init([3])
            .build()
        )
        merged = coalesce_inits(prog)
        assert merged.histogram()["init"] == 2
        assert merged.cycle_count == prog.cycle_count - 2

    def test_different_windows_not_merged(self):
        prog = (
            ProgramBuilder()
            .init([0], cols=(0, 4))
            .init([1], cols=(0, 8))
            .build()
        )
        assert len(coalesce_inits(prog)) == 2

    def test_summary_text(self):
        prog = ProgramBuilder().nop(2).build()
        text = optimization_summary(prog, coalesce_inits(prog))
        assert "2 cc" in text


class TestAssembler:
    def test_roundtrip_generated_programs(self):
        for width in (4, 16, 33):
            adder = AdderUnit(width).adder
            for op in ("add", "sub"):
                prog = adder.program(op)
                assert load_asm(dump_asm(prog)).ops == prog.ops

    def test_roundtrip_io_ops(self):
        prog = (
            ProgramBuilder("io-demo")
            .write(0, "x", col_offset=2, width=8)
            .read(1, "y", col_offset=0, width=4)
            .nop(3)
            .build()
        )
        back = load_asm(dump_asm(prog))
        assert back.ops == prog.ops
        assert back.label == "io-demo"

    def test_text_is_humane(self):
        prog = ProgramBuilder().nor([0, 1], 2, cols=(0, 9)).build()
        text = dump_asm(prog)
        assert "nor   r0,r1 -> r2 [0:9]" in text

    def test_bad_mnemonic_rejected(self):
        with pytest.raises(ProgramError):
            load_asm("frobnicate r0\n")

    def test_bad_shift_syntax_rejected(self):
        with pytest.raises(ProgramError):
            load_asm("shift r0 -> r1\n")

    def test_executable_after_roundtrip(self, rng):
        """A reloaded program produces identical results."""
        adder = AdderUnit(8).adder
        prog = load_asm(dump_asm(adder.program("add")))
        array = CrossbarArray(15, 9)
        ex = MagicExecutor(array)
        lay = adder.layout
        array.init_rows(lay.scratch_rows)
        array.init_rows([lay.out_row])
        x, y = rng.getrandbits(8), rng.getrandbits(8)
        array.write_row(lay.x_row, int_to_bits(x, 9))
        array.write_row(lay.y_row, int_to_bits(y, 9))
        ex.execute(prog)
        assert bits_to_int(array.read_row(lay.out_row)) == x + y
