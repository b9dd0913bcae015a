"""Cost models of the design alternatives the paper rejects.

Sec. III argues qualitatively against three alternatives; this module
prices them with the same stage models used for the chosen design so
the arguments become quantitative:

* **Recursive Karatsuba, multi-adder** (Sec. III-C.1 option *i*): one
  addition array per recursion level's operand width — extra area.
* **Recursive Karatsuba, shared adder** (option *ii*): one array of the
  largest width reused for all levels — underutilised columns and a
  longer critical path (every addition pays the widest adder's log
  depth).
* **Toom-3 CIM** (Sec. III-B): five pointwise row-multiplications of
  ~n/3-bit chunks, but an interpolation stage with 25 constant
  multiplications, several with fractional constants that need
  multi-pass shift-add/division sequences in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arith import rowmul
from repro.arith.bitops import ceil_div, ceil_log2
from repro.arith.koggestone import SCRATCH_ROWS
from repro.karatsuba import cost
from repro.sim.exceptions import DesignError


@dataclass(frozen=True)
class AlternativeCost:
    """Area/latency of one rejected design alternative."""

    name: str
    n_bits: int
    area_cells: int
    bottleneck_cc: int
    note: str

    @property
    def throughput_per_mcc(self) -> float:
        return 1e6 / self.bottleneck_cc

    @property
    def atp(self) -> float:
        return self.area_cells / self.throughput_per_mcc

    def atp_penalty_vs_chosen(self) -> float:
        """ATP ratio against the paper's unrolled L = 2 design."""
        chosen = cost.design_cost(self.n_bits, 2).atp
        return self.atp / chosen


def _adder_array_cells(width: int) -> int:
    """Cells of one placed Kogge-Stone instance (operands + scratch)."""
    return (3 + SCRATCH_ROWS) * (width + 1)


def recursive_multi_adder(n_bits: int) -> AlternativeCost:
    """Option (i): dedicated addition arrays per recursion level.

    A depth-2 recursive tree needs n/2-bit adders (level 1) and
    n/4+1-bit adders (level 2), instantiated separately; the
    multiplication and postcompute stages match the chosen design.
    """
    _check(n_bits)
    chosen = cost.design_cost(n_bits, 2)
    level1 = _adder_array_cells(n_bits // 2)
    level2 = _adder_array_cells(n_bits // 4 + 1)
    # Input/result storage matches the unrolled stage.
    storage = (8 + 10) * (n_bits // 4 + 2)
    pre_area = level1 + level2 + storage
    # Latency: 2 wide adds at level 1, then 8 narrow adds at level 2
    # (data dependency: level-1 mids must finish first, Fig. 2).
    pre_latency = (
        8
        + 2 * cost.adder_latency_cc(n_bits // 2)
        + 8 * cost.adder_latency_cc(n_bits // 4 + 1)
        + 1
    )
    _, multiply, postcompute = chosen.stages
    area = pre_area + multiply.area_cells + postcompute.area_cells
    bottleneck = max(pre_latency, multiply.latency_cc, postcompute.latency_cc)
    return AlternativeCost(
        name="recursive-multi-adder",
        n_bits=n_bits,
        area_cells=area,
        bottleneck_cc=bottleneck,
        note="one addition array per recursion level (Sec. III-C.1 i)",
    )


def recursive_shared_adder(n_bits: int) -> AlternativeCost:
    """Option (ii): a single n/2-bit adder array reused for all levels.

    Area matches one wide instance, but every addition — including the
    eight narrow level-2 ones — pays the n/2-bit prefix depth, and the
    narrow additions leave half the columns idle.
    """
    _check(n_bits)
    chosen = cost.design_cost(n_bits, 2)
    storage = (8 + 10) * (n_bits // 4 + 2)
    pre_area = _adder_array_cells(n_bits // 2) + storage
    wide_add = cost.adder_latency_cc(n_bits // 2)
    pre_latency = 8 + 10 * wide_add + 1
    _, multiply, postcompute = chosen.stages
    area = pre_area + multiply.area_cells + postcompute.area_cells
    bottleneck = max(pre_latency, multiply.latency_cc, postcompute.latency_cc)
    return AlternativeCost(
        name="recursive-shared-adder",
        n_bits=n_bits,
        area_cells=area,
        bottleneck_cc=bottleneck,
        note="largest-width adder reused for all levels (Sec. III-C.1 ii)",
    )


def shared_adder_utilization(n_bits: int) -> float:
    """Average column utilisation of the shared n/2-bit adder across
    the ten additions of a depth-2 recursion (Sec. III-C.1's
    'underutilization of the array')."""
    _check(n_bits)
    wide = n_bits // 2 + 1
    # Two level-1 additions use the full width; eight level-2 ones use
    # n/4+2 of the wide columns.
    used = 2 * wide + 8 * (n_bits // 4 + 2)
    return used / (10 * wide)


#: Interpolation constants of Toom-3 with points {0, 1, -1, 2, inf}:
#: number of shift-add passes to multiply by each inverse-matrix entry
#: (fractional entries like 1/2 and 1/6 need iterative division in
#: memory, costed here as extra adder passes).
_TOOM3_CONST_PASSES = 2.5


def toom3_cim(n_bits: int) -> AlternativeCost:
    """A hypothetical Toom-3 CIM design priced with our stage models.

    Evaluation: 4 additions per operand over n/3-bit chunks (points
    1, -1, 2 from shifted adds).  Pointwise: 5 row multiplications of
    (n/3 + 2)-bit operands.  Interpolation: 25 constant multiplications
    (Sec. III-B), each ~2.5 full-width adder passes on a 2n-bit adder
    (fractional constants forbid the paper's cheap power-of-two-only
    path), plus recombination.
    """
    _check(n_bits)
    if n_bits % 3:
        chunk = ceil_div(n_bits, 3)
    else:
        chunk = n_bits // 3
    mult_width = chunk + 2
    eval_adds = 8
    eval_width = chunk + 2
    pre_area = (6 + 10 + SCRATCH_ROWS) * (eval_width + 1)
    pre_latency = 6 + eval_adds * cost.adder_latency_cc(eval_width) + 1

    mult_area = 5 * rowmul.area_cells(mult_width)
    mult_latency = rowmul.latency_cc(mult_width)

    post_width = 2 * n_bits
    interp_passes = round(25 * _TOOM3_CONST_PASSES)
    recombine_passes = 4
    post_area = (10 + SCRATCH_ROWS) * post_width
    post_latency = (
        (interp_passes + recombine_passes) * cost.adder_latency_cc(post_width)
        + 2 * 5
    )

    area = pre_area + mult_area + post_area
    bottleneck = max(pre_latency, mult_latency, post_latency)
    return AlternativeCost(
        name="toom3-cim",
        n_bits=n_bits,
        area_cells=area,
        bottleneck_cc=bottleneck,
        note="k=3 Toom-Cook with 25 interpolation constant mults (Sec. III-B)",
    )


def comparison(n_bits: int) -> list:
    """All alternatives plus the chosen design, ATP-sorted."""
    chosen = cost.design_cost(n_bits, 2)
    rows = [
        AlternativeCost(
            name="unrolled-L2 (chosen)",
            n_bits=n_bits,
            area_cells=chosen.area_cells,
            bottleneck_cc=chosen.bottleneck_cc,
            note="the paper's design",
        ),
        recursive_multi_adder(n_bits),
        recursive_shared_adder(n_bits),
        toom3_cim(n_bits),
    ]
    return sorted(rows, key=lambda r: r.atp)


def _check(n_bits: int) -> None:
    if n_bits < 16 or n_bits % 4:
        raise DesignError(
            f"alternatives need n divisible by 4 and >= 16, got {n_bits}"
        )
