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
slot       Toom-3 stage                          substrate
========== ===================================== =====================
evaluate   A(1), A(2), A(4) / B(...) — 6 batched Kogge-Stone adder,
           adder passes (a- and b-lanes share    ``cb + 5`` bits
           each pass, paper Sec. IV-E batching)
pointwise  v0, v1, v2, v4, vinf — 5 row          5 RowMultipliers,
           multipliers in lock-step              ``cb + 5`` bits
interpolate 15 + ceil(log2(ceil(w/2))) narrow    Kogge-Stone adders,
           passes + 4 wide recombination passes  ``2cb + 9`` and
                                                 ``2n - cb`` bits
========== ===================================== =====================

with ``cb = ceil(n/3)``.  Every adder pass and every point-wise
product is residue-verified (ABFT, mod ``2^r - 1``); the final product
is additionally checked against ``res(a) * res(b)``.  Transient-fault
hooks and ``diagnose_and_repair`` (write-verify march + spare-row
remap) work exactly as in the Karatsuba stages.

Functionally the pipeline is differentially tested against the
exact-rational :class:`repro.algorithms.toomcook.ToomCook` oracle on
the same point set (see ``tests/test_portfolio.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.arith import rowmul
from repro.arith.bitops import ceil_div, ceil_log2, mask
from repro.arith.koggestone import (
    OP_ADD,
    OP_SUB,
    AdderPassStage,
    AdderUnit,
    KoggeStoneAdder,
)
from repro.arith.rowmul import LockstepRowStage
from repro.karatsuba.controller import PipelineController
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

#: Interpolation passes on the narrow adder, excluding the div-by-3
#: doubling chain: 9 reduction passes + 2 negation passes + 4
#: coefficient-recovery passes.
INTERP_FIXED_PASSES = 15

#: Recombination passes on the wide adder.
RECOMBINE_PASSES = 4


# ----------------------------------------------------------------------
# Closed-form geometry and latency
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


def interp_passes(n_bits: int) -> int:
    """Narrow-adder passes of the interpolation stage."""
    return INTERP_FIXED_PASSES + div3_doublings(interp_width(n_bits))


def eval_latency_cc(n_bits: int) -> int:
    """Evaluation stage latency: 6 chunk writes + 6 adder passes + 1."""
    from repro.arith import koggestone

    return EVAL_PASSES + EVAL_PASSES * koggestone.latency_cc(eval_width(n_bits)) + 1


def pointwise_latency_cc(n_bits: int) -> int:
    """Point-wise stage latency (5 lock-step rows, one row latency)."""
    return rowmul.latency_cc(pointwise_width(n_bits))


def interp_latency_cc(n_bits: int) -> int:
    """Interpolation stage latency: 5 product writes + narrow passes +
    4 wide recombination passes + 1."""
    from repro.arith import koggestone

    return (
        5
        + interp_passes(n_bits) * koggestone.latency_cc(interp_width(n_bits))
        + RECOMBINE_PASSES * koggestone.latency_cc(recombine_width(n_bits))
        + 1
    )


def _check_width(n_bits: int) -> None:
    if n_bits < MIN_BITS:
        raise DesignError(
            f"the Toom-3 design needs n >= {MIN_BITS}, got {n_bits}"
        )


def split3(value: int, cb: int) -> List[int]:
    """Split into three chunks of ``cb`` bits (top chunk may be short)."""
    m = mask(cb)
    return [(value >> (i * cb)) & m for i in range(3)]


# ----------------------------------------------------------------------
# Adder stages: residue-checked passes
# ----------------------------------------------------------------------
class _CheckedAdderStage(AdderPassStage):
    """A Toom-3 MAGIC stage: lock-step adder passes on its units, each
    residue-verified lane by lane."""

    def __init__(self, name: str, residue_bits: int):
        self.checker = ResidueChecker(name, residue_bits)
        self.clock = Clock()
        self.passes = 0

    def _pass(
        self,
        unit: AdderUnit,
        xs: Sequence[int],
        ys: Sequence[int],
        op: str,
        name: str,
    ) -> List[int]:
        """One pass of *unit* over lanes ``(xs[i], ys[i])``; residues
        predicted from the staged operands, verified against every
        sensed lane."""
        sensed = unit.run_pass(list(zip(xs, ys)), op)
        program = unit.adder.program(op, optimize=unit.optimize)
        for opcode, cycles in program.cycles_by_opcode().items():
            self.clock.tick(cycles, category=opcode)
        self.passes += 1
        res = self.checker.res
        sign = 1 if op == OP_ADD else -1
        for lane, (value, x, y) in enumerate(zip(sensed, xs, ys)):
            self.checker.check_linear(
                value, [(res(x), 1), (res(y), sign)], f"{name}[{lane}]"
            )
        return sensed


# ----------------------------------------------------------------------
# Stage 1: evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvalResult:
    """Evaluations of one operand pair at the five points."""

    values: Dict[str, int]
    cycles: int


class EvaluationStage(_CheckedAdderStage):
    """Evaluate both operands at {1, 2, 4} in six batched adder passes.

    Points 0 and inf are wire taps (``a0`` and ``a2``).  Shifted
    addends — ``a1 << 1``, ``a2 << 2`` for A(2); ``a1 << 2``,
    ``a2 << 4`` for A(4) — are staged by the periphery while writing
    the operand rows, so each evaluation costs two plain additions.
    The a- and b-operand evaluations ride in disjoint lanes of the
    same pass (paper Sec. IV-E batching), halving the pass count.
    """

    #: Six chunk writes and the closing write.
    overhead_cc = EVAL_PASSES + 1

    def __init__(
        self,
        n_bits: int,
        device=None,
        spare_rows: int = 2,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
        optimize: bool = False,
        backend: object = DEFAULT_BACKEND,
    ):
        _check_width(n_bits)
        super().__init__("evaluate", residue_bits)
        self.n_bits = n_bits
        self.cb = chunk_bits(n_bits)
        self.optimize = optimize
        self.unit = AdderUnit(
            eval_width(n_bits),
            device=device,
            spare_rows=spare_rows,
            optimize=optimize,
            backend=backend,
        )
        self.units = (self.unit,)

    def adder_passes(self) -> List[Tuple[KoggeStoneAdder, str]]:
        return [(self.unit.adder, OP_ADD)] * EVAL_PASSES

    # ------------------------------------------------------------------
    def process_batch(
        self, jobs: List[Tuple[List[int], List[int]]]
    ) -> List[EvalResult]:
        """Evaluate B chunked operand pairs in lock-step."""
        jobs = list(jobs)
        if not jobs:
            return []
        for a_chunks, b_chunks in jobs:
            if len(a_chunks) != 3 or len(b_chunks) != 3:
                raise DesignError("Toom-3 expects 3 chunks per operand")
            for chunk in (*a_chunks, *b_chunks):
                if chunk >> self.cb:
                    raise DesignError(f"chunk {chunk} exceeds {self.cb} bits")
        start = self.clock.cycles
        self.clock.tick(EVAL_PASSES, category="write")

        # Lanes 0..B-1 evaluate the a-operands, lanes B..2B-1 the
        # b-operands.  A(2^k) = a0 + (a1 << k) + (a2 << 2k), two passes
        # per point.
        chunks = [a for a, _ in jobs] + [b for _, b in jobs]
        evals: Dict[int, List[int]] = {}
        for k in range(3):
            point = 1 << k
            s = self._pass(
                self.unit,
                [t[1] << k for t in chunks],
                [t[2] << (2 * k) for t in chunks],
                OP_ADD,
                f"e{point}.sum",
            )
            evals[point] = self._pass(
                self.unit, s, [t[0] for t in chunks], OP_ADD, f"e{point}"
            )
        self.clock.tick(1, category="write")
        cycles = self.clock.cycles - start

        results: List[EvalResult] = []
        B = len(jobs)
        for j, (a_chunks, b_chunks) in enumerate(jobs):
            values = {
                "A0": a_chunks[0],
                "A1": evals[1][j],
                "A2": evals[2][j],
                "A4": evals[4][j],
                "Ainf": a_chunks[2],
                "B0": b_chunks[0],
                "B1": evals[1][B + j],
                "B2": evals[2][B + j],
                "B4": evals[4][B + j],
                "Binf": b_chunks[2],
            }
            results.append(EvalResult(values=values, cycles=cycles))
        return results


# ----------------------------------------------------------------------
# Stage 2: point-wise products
# ----------------------------------------------------------------------
#: Point-wise products: output name -> (a-side input, b-side input).
POINTWISE_STEPS: Tuple[Tuple[str, str, str], ...] = (
    ("v0", "A0", "B0"),
    ("v1", "A1", "B1"),
    ("v2", "A2", "B2"),
    ("v4", "A4", "B4"),
    ("vinf", "Ainf", "Binf"),
)


class PointwiseStage(LockstepRowStage):
    """Five single-row multipliers in lock-step (``cb + 5``-bit rows)."""

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
    ):
        _check_width(n_bits)
        self.n_bits = n_bits
        super().__init__(
            pointwise_width(n_bits),
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


class InterpolationStage(_CheckedAdderStage):
    """Recover c0..c4 from the five products and assemble the result.

    All intermediates are non-negative (a consequence of the positive
    evaluation points), so every pass is a plain Kogge-Stone add or
    borrow-subtract.  The single exact division by 3 runs as the
    repeated-doubling multiplication by ``3^-1 mod 2^w`` described in
    the module docstring.  Each pass is residue-verified against the
    residues of its staged operands; the recombination runs on a
    second, wider adder covering the top ``2n - cb`` product bits.
    """

    #: Five product writes and the closing write.
    overhead_cc = 5 + 1

    def __init__(
        self,
        n_bits: int,
        device=None,
        spare_rows: int = 2,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
        optimize: bool = False,
        backend: object = DEFAULT_BACKEND,
    ):
        _check_width(n_bits)
        super().__init__("interpolate", residue_bits)
        self.n_bits = n_bits
        self.cb = chunk_bits(n_bits)
        self.optimize = optimize
        self.iw = interp_width(n_bits)
        self.rw = recombine_width(n_bits)
        self.narrow = AdderUnit(
            self.iw, device=device, spare_rows=spare_rows,
            optimize=optimize, backend=backend,
        )
        self.wide = AdderUnit(
            self.rw, device=device, spare_rows=spare_rows,
            optimize=optimize, backend=backend,
        )
        self.units = (self.narrow, self.wide)

    def adder_passes(self) -> List[Tuple[KoggeStoneAdder, str]]:
        """Every adder pass one job runs: 9 reduction subs +
        neg/c2/c1 subs, inc/h/g adds + J doublings on the narrow adder,
        then the wide recombination adds."""
        adds = div3_doublings(self.iw) + 3
        return (
            [(self.narrow.adder, OP_ADD)] * adds
            + [(self.narrow.adder, OP_SUB)] * 12
            + [(self.wide.adder, OP_ADD)] * RECOMBINE_PASSES
        )

    # ------------------------------------------------------------------
    def process_batch(
        self, products_list: List[Dict[str, int]]
    ) -> List[InterpolationResult]:
        products_list = list(products_list)
        if not products_list:
            return []
        start = self.clock.cycles
        self.clock.tick(5, category="write")
        cb = self.cb
        wmask = mask(self.iw)
        pass_ = self._pass

        v = {key: [p[key] for p in products_list] for key in
             ("v0", "v1", "v2", "v4", "vinf")}
        # Reduction to w1 = c1+c2+c3, w2 = c1+2c2+4c3, w4 = c1+4c2+16c3.
        m1 = pass_(self.narrow, v["v1"], v["v0"], OP_SUB, "m1")
        w1 = pass_(self.narrow, m1, v["vinf"], OP_SUB, "w1")
        m2 = pass_(self.narrow, v["v2"], v["v0"], OP_SUB, "m2")
        m2b = pass_(
            self.narrow, m2, [x << 4 for x in v["vinf"]], OP_SUB, "m2b"
        )
        w2 = [x >> 1 for x in m2b]          # exact: m2b = 2c1+4c2+8c3
        m4 = pass_(self.narrow, v["v4"], v["v0"], OP_SUB, "m4")
        m4b = pass_(
            self.narrow, m4, [x << 8 for x in v["vinf"]], OP_SUB, "m4b"
        )
        w4 = [x >> 2 for x in m4b]          # exact: m4b = 4c1+16c2+64c3

        # t1 = c2 + 3c3, t2 = c2 + 6c3, t3 = 3c3.
        t1 = pass_(self.narrow, w2, w1, OP_SUB, "t1")
        t2r = pass_(self.narrow, w4, w2, OP_SUB, "t2")
        t2 = [x >> 1 for x in t2r]          # exact: t2r = 2c2 + 12c3
        t3 = pass_(self.narrow, t2, t1, OP_SUB, "t3")

        # c3 = t3 / 3 via the two-adic inverse: multiply by
        # sum(4^i, i < K) with repeated doubling, then negate mod 2^w.
        acc = t3
        for j in range(div3_doublings(self.iw)):
            shift = 2 << j
            acc = pass_(
                self.narrow,
                [x & wmask for x in acc],
                [(x << shift) & wmask for x in acc],
                OP_ADD,
                f"div3.{j}",
            )
        neg = pass_(
            self.narrow, [wmask] * len(acc), [x & wmask for x in acc],
            OP_SUB, "div3.neg",
        )
        c3p = pass_(self.narrow, neg, [1] * len(neg), OP_ADD, "div3.inc")
        c3 = [x & wmask for x in c3p]

        # c2 = t1 - 3c3; c1 = w1 - (c2 + c3).
        h = pass_(self.narrow, c3, [x << 1 for x in c3], OP_ADD, "h")
        c2 = pass_(self.narrow, t1, h, OP_SUB, "c2")
        g = pass_(self.narrow, c2, c3, OP_ADD, "g")
        c1 = pass_(self.narrow, w1, g, OP_SUB, "c1")

        # Recombination on the wide adder; the low cb bits of v0 pass
        # through untouched (LSB pass-through, Karatsuba-style).
        r = pass_(self.wide, [x >> cb for x in v["v0"]], c1, OP_ADD, "r1")
        r = pass_(self.wide, r, [x << cb for x in c2], OP_ADD, "r2")
        r = pass_(self.wide, r, [x << (2 * cb) for x in c3], OP_ADD, "r3")
        r = pass_(
            self.wide, r, [x << (3 * cb) for x in v["vinf"]], OP_ADD, "r4"
        )
        low = mask(cb)
        products = [
            (top << cb) | (v0 & low) for top, v0 in zip(r, v["v0"])
        ]
        self.clock.tick(1, category="write")
        cycles = self.clock.cycles - start
        return [
            InterpolationResult(product=p, cycles=cycles) for p in products
        ]


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

    stage_names = ("evaluate", "pointwise", "interpolate")
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
