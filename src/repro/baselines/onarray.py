"""On-array functional models for the baseline logic families.

The baseline cost models in this package reproduce Table I; these
implementations additionally run the baselines' *logic families* on the
simulated crossbar itself, tying every primitive the substrate offers
to a published design:

* :func:`wallace_multiply_on_array` — [8]'s MAJORITY Wallace tree: all
  partial-product rows materialised, 3:2-reduced with row-parallel
  MAJ/NOT carry-save adders (``sum = MAJ(~Cout, Cin, MAJ(a, b, ~Cin))``)
  until two rows remain, then a final MAGIC ripple addition;
* :func:`imply_add_on_array` / :func:`imply_multiply_on_array` — [6]'s
  IMPLY family: a NAND-based serial full adder where every NAND is the
  canonical two-IMPLY sequence ``t <- b IMP (t=0); t <- a IMP t`` on
  real rows (IMPLY is destructive, so each gate consumes a freshly
  reset work cell — the endurance liability Sec. II-B notes).

These run at bit level on a :class:`CrossbarArray`, so their results
are products of actual gate evaluations, not formula shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.crossbar.array import CrossbarArray
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError


def _word(value: int, cols: int) -> np.ndarray:
    return np.array([(value >> i) & 1 for i in range(cols)], dtype=bool)


def _read(array: CrossbarArray, row: int, cols: int) -> int:
    word = array.read_row(row)
    value = 0
    for i in range(cols):
        if word[i]:
            value |= 1 << i
    return value


# ----------------------------------------------------------------------
# [8] MAJORITY Wallace tree
# ----------------------------------------------------------------------
@dataclass
class WallaceStats:
    """Gate-level counters of one on-array Wallace multiplication."""

    maj_ops: int = 0
    not_ops: int = 0
    csa_layers: int = 0
    cycles: int = 0


def _csa_layer(
    array: CrossbarArray,
    rows: Tuple[int, int, int],
    out_sum: int,
    out_carry: int,
    work: Tuple[int, int, int],
    cols: int,
    clock: Clock,
    stats: WallaceStats,
) -> None:
    """One MAJ/NOT carry-save layer: rows (a, b, c) -> (sum, carry<<1)."""
    a_row, b_row, c_row = rows
    n_c, inner, n_cout = work
    # ~Cin
    array.init_rows([n_c])
    array.not_row(c_row, n_c)
    # inner = MAJ(a, b, ~Cin)
    array.maj_rows([a_row, b_row, n_c], inner)
    # Cout (pre-shift) into n_cout's neighbour: reuse out_carry as temp.
    array.maj_rows([a_row, b_row, c_row], out_carry)
    # ~Cout
    array.init_rows([n_cout])
    array.not_row(out_carry, n_cout)
    # sum = MAJ(~Cout, Cin, inner)
    array.maj_rows([n_cout, c_row, inner], out_sum)
    # carry <<= 1 (periphery shift: read, shift, write back).
    carry_word = array.read_row(out_carry)
    shifted = np.zeros(cols, dtype=bool)
    shifted[1:] = carry_word[:-1]
    array.write_row(out_carry, shifted)
    stats.maj_ops += 3
    stats.not_ops += 2
    clock.tick(2, category="init")
    clock.tick(5, category="maj")
    clock.tick(2, category="shift")


def wallace_multiply_on_array(
    a: int, b: int, n_bits: int
) -> Tuple[int, WallaceStats]:
    """Multiply via [8]'s structure on a simulated crossbar.

    Practical for small widths (the array holds all n partial-product
    rows plus working rows); the scaled cost model in
    :mod:`repro.baselines.lakshmi` covers Table I sizes.
    """
    if a < 0 or b < 0:
        raise DesignError("operands must be non-negative")
    if a >> n_bits or b >> n_bits:
        raise DesignError(f"operands must fit in {n_bits} bits")
    cols = 2 * n_bits + 1
    pp_rows = list(range(n_bits))
    work_base = n_bits
    # Rows: n partial products + 2 outputs per layer (reused) + 3 work.
    array = CrossbarArray(n_bits + 5, cols)
    clock = Clock()
    stats = WallaceStats()
    for i in pp_rows:
        partial = (a << i) if (b >> i) & 1 else 0
        array.write_row(i, _word(partial, cols))
        clock.tick(1, category="write")

    live = list(pp_rows)
    out_sum, out_carry = work_base, work_base + 1
    work = (work_base + 2, work_base + 3, work_base + 4)
    while len(live) > 2:
        next_live = []
        for i in range(0, len(live) - 2, 3):
            triple = (live[i], live[i + 1], live[i + 2])
            # Arm the layer outputs.
            array.init_rows([out_sum, work[1]])
            _csa_layer(
                array, triple, out_sum, out_carry, work, cols, clock, stats
            )
            # Copy results back over two of the consumed rows so row
            # count stays bounded (periphery copy: read + write).
            array.write_row(triple[0], array.read_row(out_sum))
            array.write_row(triple[1], array.read_row(out_carry))
            clock.tick(4, category="shift")
            next_live.extend([triple[0], triple[1]])
        remainder = len(live) % 3
        if remainder:
            next_live.extend(live[-remainder:])
        live = next_live
        stats.csa_layers += 1

    total = sum(_read(array, row, cols) for row in live)
    # Final carry-propagate addition of the last two rows, delegated to
    # the MAGIC ripple adder (the design's final fast adder).
    if len(live) == 2:
        from repro.arith.ripple import RippleUnit

        x = _read(array, live[0], cols)
        y = _read(array, live[1], cols)
        unit = RippleUnit(max(x.bit_length(), y.bit_length(), 1))
        total = unit.run(x, y)
        clock.tick(unit.adder.program().cycle_count, category="final_add")
    stats.cycles = clock.cycles
    if total != a * b:
        raise AssertionError("on-array Wallace product mismatch")
    return total, stats


# ----------------------------------------------------------------------
# [6] IMPLY family
# ----------------------------------------------------------------------
@dataclass
class ImplyStats:
    """Gate-level counters of the IMPLY adder/multiplier."""

    imply_ops: int = 0
    false_ops: int = 0
    cycles: int = 0


def _nand(
    array: CrossbarArray,
    a_row: int,
    b_row: int,
    t_row: int,
    col: int,
    clock: Clock,
    stats: ImplyStats,
) -> None:
    """``t = NAND(a, b)`` at one column: FALSE + two IMPLYs."""
    mask = np.zeros(array.cols, dtype=bool)
    mask[col] = True
    array.write_row(t_row, np.zeros(array.cols, dtype=bool), mask)  # FALSE
    array.imply_rows(b_row, t_row, mask)       # t = ~b
    array.imply_rows(a_row, t_row, mask)       # t = ~a | ~b
    stats.false_ops += 1
    stats.imply_ops += 2
    clock.tick(3, category="imply")


def imply_add_on_array(
    x: int, y: int, n_bits: int
) -> Tuple[int, ImplyStats]:
    """Serial IMPLY addition built from NAND gates on real rows.

    The full adder is the classic 9-NAND network; each NAND costs one
    FALSE plus two IMPLY pulses, all destructive on the work cells.
    """
    if x < 0 or y < 0 or x >> n_bits or y >> n_bits:
        raise DesignError(f"operands must fit in {n_bits} bits")
    cols = n_bits + 2
    # Rows: x, y, carry, sum, 9 NAND work rows.
    array = CrossbarArray(13, cols)
    clock = Clock()
    stats = ImplyStats()
    X, Y, C, S = 0, 1, 2, 3
    w = list(range(4, 13))
    array.write_row(X, _word(x, cols))
    array.write_row(Y, _word(y, cols))
    clock.tick(2, category="write")

    for bit in range(n_bits + 1):
        # 9-NAND full adder at column `bit`:
        # n1=NAND(a,b); n2=NAND(a,n1); n3=NAND(b,n1); h=NAND(n2,n3)
        # n4=NAND(h,c); n5=NAND(h,n4); n6=NAND(c,n4); s=NAND(n5,n6)
        # c' = n1 NAND n4  -> maj(a,b,c)  [since ~n1=ab, ~n4=hc]
        _nand(array, X, Y, w[0], bit, clock, stats)
        _nand(array, X, w[0], w[1], bit, clock, stats)
        _nand(array, Y, w[0], w[2], bit, clock, stats)
        _nand(array, w[1], w[2], w[3], bit, clock, stats)      # h = x^y
        _nand(array, w[3], C, w[4], bit, clock, stats)
        _nand(array, w[3], w[4], w[5], bit, clock, stats)
        _nand(array, C, w[4], w[6], bit, clock, stats)
        _nand(array, w[5], w[6], S, bit, clock, stats)         # sum bit
        _nand(array, w[0], w[4], w[7], bit, clock, stats)      # carry out
        # Move the carry into the next column of C (periphery).
        carry_bit = array.read_bit(w[7], bit)
        if bit + 1 < cols:
            array.write_bit(C, bit + 1, carry_bit)
        clock.tick(2, category="shift")

    result = _read(array, S, cols)
    expected = x + y
    if result != expected:
        raise AssertionError("on-array IMPLY sum mismatch")
    stats.cycles = clock.cycles
    return result, stats


def imply_multiply_on_array(
    a: int, b: int, n_bits: int
) -> Tuple[int, ImplyStats]:
    """[6]'s semi-serial shift-and-add with on-array IMPLY additions."""
    if a < 0 or b < 0 or a >> n_bits or b >> n_bits:
        raise DesignError(f"operands must fit in {n_bits} bits")
    total = ImplyStats()
    accumulator = 0
    for t in range(n_bits):
        if (b >> t) & 1:
            window = accumulator >> t
            width = max(window.bit_length(), n_bits) + 1
            result, stats = imply_add_on_array(window, a, width)
            total.imply_ops += stats.imply_ops
            total.false_ops += stats.false_ops
            total.cycles += stats.cycles
            accumulator = (accumulator & ((1 << t) - 1)) | (result << t)
    if accumulator != a * b:
        raise AssertionError("on-array IMPLY product mismatch")
    return accumulator, total
