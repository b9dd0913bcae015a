"""Toom-3 CIM pipeline on evaluation points {0, 1, 2, 4, inf} (Sec. III-B).

The paper rules Toom-Cook out *at its fixed design point* because the
customary points {0, +-1, +-2, inf} force signed intermediates and
fractional interpolation constants onto a NOR crossbar.  This module
builds the variant that sidesteps both objections so the portfolio
tuner can measure Toom-3 honestly instead of dismissing it a priori:

* **Non-negative evaluation points** ``{0, 1, 2, 4, inf}``: every
  evaluation is a sum of left-shifted chunks and every interpolation
  intermediate is provably non-negative, so the existing borrow-free
  Kogge-Stone subtractor (:mod:`repro.arith.koggestone`) suffices —
  no sign handling in memory.
* **Division-free interpolation** up to one exact division by 3,
  realised in ``O(log w)`` adder passes via the two-adic inverse
  ``3^-1 = -(1 + 4 + 4^2 + ...) mod 2^w`` (``3 * (4^K - 1)/3 = 4^K - 1
  = -1 mod 2^w`` once ``2K >= w``), with the geometric series summed by
  repeated doubling.  All shifts and mod-``2^w`` masks happen at
  operand staging, which the crossbar periphery performs while writing
  the operand rows — the same convention the Karatsuba stages use.

The datapath mirrors the three-stage Karatsuba organisation so the
scheduler, program caches, telemetry spans and residue self-checks
apply unchanged:

========== ===================================== =====================
slot       Toom-3 stage                          substrate, replays
========== ===================================== =====================
evaluate   A(1), A(2), A(4) / B(...) — 6 adder   Kogge-Stone adder,
           passes; the a- and b-operand are two  ``cb + 5`` bits;
           lanes (paper Sec. IV-E batching)      1 replay per batch
pointwise  v0, v1, v2, v4, vinf — 5 row          5 RowMultipliers,
           multipliers in lock-step              ``cb + 5`` bits
interpolate 15 + ceil(log2(ceil(w/2))) narrow    Kogge-Stone adders,
           passes + 4 wide recombination passes  ``2cb + 9`` and
                                                 ``2n - cb`` bits;
                                                 1 replay per adder
========== ===================================== =====================

with ``cb = ceil(n/3)``.  The adder stages run the one
:class:`~repro.arith.koggestone.AdderPassStage` body: the host plans
every pass's operands, each adder replays all of a batch's passes as
one mega-program, and every sensed pass is residue-verified (ABFT,
mod ``2^r - 1``) and then compared with the plan.  Every point-wise
product is residue-verified too, and the final product is checked
against ``res(a) * res(b)``.  Transient-fault hooks and
``diagnose_and_repair`` (write-verify march + spare-row remap) work
exactly as in the Karatsuba stages.

Functionally the pipeline is differentially tested against the
exact-rational :class:`repro.algorithms.toomcook.ToomCook` oracle on
the same point set (see ``tests/test_portfolio.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arith.bitops import ceil_div, ceil_log2, mask
from repro.arith.koggestone import (
    OP_ADD,
    OP_SUB,
    SCRATCH_ROWS,
    AdderPassStage,
    AdderUnit,
    LanePlan,
)
from repro.arith.rowmul import LockstepRowStage
from repro.karatsuba.controller import PipelineController
from repro.karatsuba.cost import StageLayout, UnitLayout
from repro.magic.backend import DEFAULT_BACKEND
from repro.reliability.residue import DEFAULT_RESIDUE_BITS, ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError

#: Smallest operand the Toom-3 datapath supports.  Unlike the L = 2
#: Karatsuba design there is **no divisibility constraint**: chunking
#: uses ``ceil(n/3)`` and the recombination stage absorbs the ragged
#: top chunk, so any width >= 16 is servable.  This is what makes
#: Toom-3 the portfolio's fallback for off-grid widths (n % 4 != 0)
#: that the Karatsuba pipeline rejects.
MIN_BITS = 16

#: Evaluation points (paper Sec. III-B, re-chosen for non-negativity).
EVAL_POINTS: Tuple[object, ...] = (0, 1, 2, 4, "inf")

#: Adder passes of the evaluation stage (a- and b-operand lanes share
#: each pass in disjoint lanes, so 6 passes evaluate both operands).
EVAL_PASSES = 6

#: Recombination passes on the wide adder.
RECOMBINE_PASSES = 4


# ----------------------------------------------------------------------
# Closed-form geometry and stage layouts
# ----------------------------------------------------------------------
def chunk_bits(n_bits: int) -> int:
    """Chunk width ``cb = ceil(n/3)``."""
    _check_width(n_bits)
    return ceil_div(n_bits, 3)


def eval_width(n_bits: int) -> int:
    """Evaluation adder width: ``A(4) < 21 * 2^cb < 2^(cb+5)``."""
    return chunk_bits(n_bits) + 5


def pointwise_width(n_bits: int) -> int:
    """Row-multiplier operand width (same bound as the evaluations)."""
    return eval_width(n_bits)


def interp_width(n_bits: int) -> int:
    """Narrow interpolation adder width: ``v4 < 441 * 4^cb < 2^(2cb+9)``."""
    return 2 * chunk_bits(n_bits) + 9


def recombine_width(n_bits: int) -> int:
    """Wide recombination adder width.

    The low ``cb`` product bits pass through from ``v0`` untouched
    (nothing else reaches them), so the adder only spans the top
    ``2n - cb`` bits — the same LSB pass-through trick the Karatsuba
    postcomputation uses.
    """
    return 2 * n_bits - chunk_bits(n_bits)


def div3_doublings(width: int) -> int:
    """Doubling passes summing the geometric series for ``3^-1 mod 2^w``:
    ``ceil(log2(ceil(w/2)))`` (then ``K = 2^J`` satisfies ``2K >= w``)."""
    return ceil_log2(ceil_div(width, 2))


def _check_width(n_bits: int) -> None:
    if n_bits < MIN_BITS:
        raise DesignError(
            f"the Toom-3 design needs n >= {MIN_BITS}, got {n_bits}"
        )


def split3(value: int, cb: int) -> List[int]:
    """Split into three chunks of ``cb`` bits (top chunk may be short)."""
    m = mask(cb)
    return [(value >> (i * cb)) & m for i in range(3)]


#: Point-wise products: output name -> (a-side input, b-side input).
POINTWISE_STEPS: Tuple[Tuple[str, str, str], ...] = (
    ("v0", "A0", "B0"),
    ("v1", "A1", "B1"),
    ("v2", "A2", "B2"),
    ("v4", "A4", "B4"),
    ("vinf", "Ainf", "Binf"),
)


def _adder_unit(width: int, ops: List[str]) -> UnitLayout:
    """A standalone :class:`AdderUnit` of *width* bits running *ops*:
    ``(3 + 12) x (width + 1)`` cells."""
    return UnitLayout(
        3 + SCRATCH_ROWS, width + 1, tuple((op, width) for op in ops)
    )


def layouts(n_bits: int) -> Tuple[StageLayout, StageLayout, StageLayout]:
    """Rows, columns and passes of the evaluation, point-wise and
    interpolation stages at *n_bits*.

    Evaluation: six chunk writes, six adds and the closing write on one
    ``cb + 5``-bit adder.  Point-wise: five lock-step rows.
    Interpolation: five product writes and the closing write; the
    narrow adder runs 9 reduction subs, the div-by-3 doublings,
    negate/increment and h/c2/g/c1, the wide adder the 4
    recombination adds.
    """
    _check_width(n_bits)
    iw = interp_width(n_bits)
    narrow = (
        [OP_SUB] * 9
        + [OP_ADD] * div3_doublings(iw)
        + [OP_SUB, OP_ADD, OP_ADD, OP_SUB, OP_ADD, OP_SUB]
    )
    return (
        StageLayout(
            "evaluate",
            units=(_adder_unit(eval_width(n_bits), [OP_ADD] * EVAL_PASSES),),
            overhead={"write": EVAL_PASSES + 1},
        ),
        StageLayout(
            "pointwise",
            multipliers=len(POINTWISE_STEPS),
            multiplier_width=pointwise_width(n_bits),
        ),
        StageLayout(
            "interpolate",
            units=(
                _adder_unit(iw, narrow),
                _adder_unit(
                    recombine_width(n_bits), [OP_ADD] * RECOMBINE_PASSES
                ),
            ),
            overhead={"write": 5 + 1},
        ),
    )


# ----------------------------------------------------------------------
# Adder stages: one mega-program per unit
# ----------------------------------------------------------------------
class _Toom3AdderStage(AdderPassStage):
    """A Toom-3 adder stage on standalone adder units, one per unit of
    its layout (:attr:`slot` of :func:`layouts`): no wear leveler (a
    batch is one group), and each :class:`AdderUnit` powers its rows up
    at construction."""

    #: Index of the stage's layout in :func:`layouts`.
    slot: int

    def __init__(
        self,
        n_bits: int,
        device=None,
        spare_rows: int = 2,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
        optimize: bool = False,
        backend: object = DEFAULT_BACKEND,
    ):
        self.layout = layouts(n_bits)[self.slot]
        self.n_bits = n_bits
        self.cb = chunk_bits(n_bits)
        self.optimize = optimize
        self.overhead = self.layout.overhead
        self.units = tuple(
            AdderUnit(
                unit.passes[0][1],
                device=device,
                spare_rows=spare_rows,
                optimize=optimize,
                backend=backend,
            )
            for unit in self.layout.units
        )
        self.checker = ResidueChecker(self.layout.name, residue_bits)
        self.clock = Clock()

    def unit_passes(self):
        return [
            (unit, [(unit.adder, op) for op, _ in planned.passes])
            for unit, planned in zip(self.units, self.layout.units)
        ]

    def _power_up(self, k: int, passes) -> None:
        """Nothing to do: :class:`AdderUnit` powered up at construction."""


# ----------------------------------------------------------------------
# Stage 1: evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvalResult:
    """Evaluations of one operand pair at the five points."""

    values: Dict[str, int]
    cycles: int


class EvaluationStage(_Toom3AdderStage):
    """Evaluate both operands at {1, 2, 4} in six batched adder passes.

    Points 0 and inf are wire taps (``a0`` and ``a2``).  Shifted
    addends — ``a1 << 1``, ``a2 << 2`` for A(2); ``a1 << 2``,
    ``a2 << 4`` for A(4) — are staged by the periphery while writing
    the operand rows, so each evaluation costs two plain additions.
    The a- and b-operand evaluations ride in disjoint lanes of the
    same pass (paper Sec. IV-E batching), halving the pass count.
    """

    slot = 0

    @property
    def unit(self) -> AdderUnit:
        return self.units[0]

    def _plan(
        self, job: Tuple[List[int], List[int]]
    ) -> Tuple[List[LanePlan], EvalResult]:
        """Two lanes per job, the a- and the b-operand:
        ``A(2^k) = a0 + (a1 << k) + (a2 << 2k)``, two passes per point."""
        a_chunks, b_chunks = job
        if len(a_chunks) != 3 or len(b_chunks) != 3:
            raise DesignError("Toom-3 expects 3 chunks per operand")
        for chunk in (*a_chunks, *b_chunks):
            if chunk >> self.cb:
                raise DesignError(f"chunk {chunk} exceeds {self.cb} bits")
        lanes = []
        values: Dict[str, int] = {}
        for side, chunks in (("A", a_chunks), ("B", b_chunks)):
            lane = LanePlan(self._schedule)
            values[f"{side}0"] = chunks[0]
            for k in range(3):
                point = 1 << k
                s = lane.run(
                    f"e{point}.sum", OP_ADD, chunks[1] << k, chunks[2] << (2 * k)
                )
                values[f"{side}{point}"] = lane.run(
                    f"e{point}", OP_ADD, s, chunks[0]
                )
            values[f"{side}inf"] = chunks[2]
            lanes.append(lane)
        return lanes, EvalResult(values=values, cycles=self.latency_cc())


# ----------------------------------------------------------------------
# Stage 2: point-wise products
# ----------------------------------------------------------------------
class PointwiseStage(LockstepRowStage):
    """Five single-row multipliers in lock-step (``cb + 5``-bit rows)."""

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
    ):
        self.n_bits = n_bits
        super().__init__(
            layouts(n_bits)[1],
            POINTWISE_STEPS,
            "pointwise",
            wear_leveling=wear_leveling,
            residue_bits=residue_bits,
        )


# ----------------------------------------------------------------------
# Stage 3: interpolation + recombination
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InterpolationResult:
    product: int
    cycles: int


class InterpolationStage(_Toom3AdderStage):
    """Recover c0..c4 from the five products and assemble the result.

    All intermediates are non-negative (a consequence of the positive
    evaluation points), so every pass is a plain Kogge-Stone add or
    borrow-subtract.  The single exact division by 3 runs as the
    repeated-doubling multiplication by ``3^-1 mod 2^w`` described in
    the module docstring.  The recombination runs on a second, wider
    adder covering the top ``2n - cb`` product bits.
    """

    slot = 2

    @property
    def narrow(self) -> AdderUnit:
        return self.units[0]

    @property
    def wide(self) -> AdderUnit:
        return self.units[1]

    def _plan(
        self, products: Dict[str, int]
    ) -> Tuple[List[LanePlan], InterpolationResult]:
        cb = self.cb
        width = self.narrow.adder.layout.width
        wmask = mask(width)
        v0, v1, v2, v4, vinf = (
            products[key] for key in ("v0", "v1", "v2", "v4", "vinf")
        )
        lane = LanePlan(self._schedule)
        run = lane.run
        # Reduction to w1 = c1+c2+c3, w2 = c1+2c2+4c3, w4 = c1+4c2+16c3.
        m1 = run("m1", OP_SUB, v1, v0)
        w1 = run("w1", OP_SUB, m1, vinf)
        m2 = run("m2", OP_SUB, v2, v0)
        w2 = run("m2b", OP_SUB, m2, vinf << 4) >> 1  # exact: 2c1+4c2+8c3
        m4 = run("m4", OP_SUB, v4, v0)
        w4 = run("m4b", OP_SUB, m4, vinf << 8) >> 2  # exact: 4c1+16c2+64c3

        # t1 = c2 + 3c3, t2 = c2 + 6c3, t3 = 3c3.
        t1 = run("t1", OP_SUB, w2, w1)
        t2 = run("t2", OP_SUB, w4, w2) >> 1           # exact: 2c2 + 12c3
        t3 = run("t3", OP_SUB, t2, t1)

        # c3 = t3 / 3 via the two-adic inverse: multiply by
        # sum(4^i, i < K) with repeated doubling, then negate mod 2^w.
        acc = t3
        for j in range(div3_doublings(width)):
            acc = run(
                f"div3.{j}", OP_ADD, acc & wmask, (acc << (2 << j)) & wmask
            )
        neg = run("div3.neg", OP_SUB, wmask, acc & wmask)
        c3 = run("div3.inc", OP_ADD, neg, 1) & wmask

        # c2 = t1 - 3c3; c1 = w1 - (c2 + c3).
        h = run("h", OP_ADD, c3, c3 << 1)
        c2 = run("c2", OP_SUB, t1, h)
        g = run("g", OP_ADD, c2, c3)
        c1 = run("c1", OP_SUB, w1, g)

        # Recombination on the wide adder; the low cb bits of v0 pass
        # through untouched (LSB pass-through, Karatsuba-style).
        r = run("r1", OP_ADD, v0 >> cb, c1)
        r = run("r2", OP_ADD, r, c2 << cb)
        r = run("r3", OP_ADD, r, c3 << (2 * cb))
        r = run("r4", OP_ADD, r, vinf << (3 * cb))
        product = (r << cb) | (v0 & mask(cb))
        return [lane], InterpolationResult(
            product=product, cycles=self.latency_cc()
        )


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
class Toom3Controller(PipelineController):
    """Drives multiplications through the three Toom-3 stages.

    Shares the :class:`~repro.karatsuba.controller.PipelineController`
    surface — job records, stage latencies, wear/energy/reliability
    accounting — so :class:`repro.karatsuba.pipeline.KaratsubaPipeline`'s
    timing algebra, the bank dispatcher and the degrade ladder drive it
    unchanged.
    """

    stage_attr_names = ("evaluate", "pointwise", "interpolate")
    handoff = ("values", "products")

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        device=None,
        spare_rows: int = 2,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
        optimize: bool = False,
        backend: object = DEFAULT_BACKEND,
    ):
        _check_width(n_bits)
        super().__init__(n_bits, optimize, backend)
        self.evaluate = EvaluationStage(
            n_bits,
            device=device,
            spare_rows=spare_rows,
            residue_bits=residue_bits,
            optimize=optimize,
            backend=backend,
        )
        self.pointwise = PointwiseStage(
            n_bits, wear_leveling=wear_leveling, residue_bits=residue_bits
        )
        self.interpolate = InterpolationStage(
            n_bits,
            device=device,
            spare_rows=spare_rows,
            residue_bits=residue_bits,
            optimize=optimize,
            backend=backend,
        )

    def _split(self, pairs):
        cb = chunk_bits(self.n_bits)
        return [(split3(a, cb), split3(b, cb)) for a, b in pairs]

    def _check_products(self, pairs, products):
        # End-to-end ABFT closure: the assembled product must agree
        # with the operands' residues.
        checker = self.interpolate.checker
        for (a, b), product in zip(pairs, products):
            checker.check_product(
                product, checker.res(a), checker.res(b), "product"
            )
