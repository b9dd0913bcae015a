"""Analytic area/latency/throughput model of the CIM Karatsuba design.

Implements the closed forms of Sec. IV for the shipped L = 2 design and
generalises every stage over the unroll depth L, which is what the
paper's Fig. 4 sweeps to justify choosing L = 2.

Generalisation over L (the paper fixes L = 2; these reductions follow
the same construction):

* **precompute** — ``2^(L+1)`` input writes, ``2*(3^L - 2^L)`` additions
  on a Kogge-Stone of the widest chunk-sum width ``n/2^L + L - 1``,
  one reset cycle.
* **multiply** — ``3^L`` parallel rows of width ``n/2^L + L``.
* **postcompute** — a 1.5n-wide adder (the top-level LSB pass-through
  works for every L); the passes are the plan's batched combine-tree
  schedule (:meth:`~repro.karatsuba.unroll.UnrolledPlan.postcompute_schedule`),
  the same list the postcompute stage replays: the paper's 11 at L = 2.

The max-writes-per-cell model reflects wear-leveling (which halves the
per-region accumulation) plus the small reorder/reset constants; it
reproduces the paper's 81 / 92 / 134 / 198 column cell-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.arith import rowmul
from repro.arith.bitops import ceil_div, ceil_log2
from repro.arith.koggestone import SCRATCH_ROWS
# Kogge-Stone pass latency: one closed form, the adder program's own.
from repro.arith.koggestone import latency_cc as adder_latency_cc
from repro.karatsuba.unroll import UnrolledPlan, build_plan
from repro.sim.exceptions import DesignError
from repro.sim.stats import DesignMetrics


@dataclass(frozen=True)
class StageCost:
    """Area and latency of one pipeline stage."""

    name: str
    area_cells: int
    latency_cc: int


@dataclass(frozen=True)
class DesignCost:
    """Full cost breakdown of one (n, L) design point."""

    n_bits: int
    depth: int
    precompute: StageCost
    multiply: StageCost
    postcompute: StageCost

    @property
    def stages(self) -> Tuple[StageCost, StageCost, StageCost]:
        return (self.precompute, self.multiply, self.postcompute)

    @property
    def area_cells(self) -> int:
        return sum(stage.area_cells for stage in self.stages)

    @property
    def latency_cc(self) -> int:
        return sum(stage.latency_cc for stage in self.stages)

    @property
    def bottleneck_cc(self) -> int:
        return max(stage.latency_cc for stage in self.stages)

    @property
    def throughput_per_mcc(self) -> float:
        return 1e6 / self.bottleneck_cc

    @property
    def atp(self) -> float:
        """Area-time product: cells / throughput (the paper's metric)."""
        return self.area_cells / self.throughput_per_mcc


# ----------------------------------------------------------------------
# Stage models, generalised over L
# ----------------------------------------------------------------------
def _validate(n_bits: int, depth: int) -> None:
    if depth < 1:
        raise DesignError("unroll depth must be at least 1")
    if n_bits <= 0 or n_bits % (1 << depth):
        raise DesignError(
            f"n_bits must be a positive multiple of 2**{depth}, got {n_bits}"
        )


def precompute_cost(n_bits: int, depth: int = 2) -> StageCost:
    """Generalised precompute stage cost (paper Sec. IV-C at L = 2)."""
    _validate(n_bits, depth)
    plan = build_plan(n_bits, depth)
    inputs = 2 << depth                      # 2^(L+1) chunks
    additions = len(plan.precompute_adds)    # 2 (3^L - 2^L)
    adder_width = plan.max_precompute_input_width
    cols = adder_width + 1
    rows = inputs + additions + SCRATCH_ROWS
    latency = inputs + additions * adder_latency_cc(adder_width) + 1
    return StageCost(name="precompute", area_cells=rows * cols, latency_cc=latency)


def multiply_cost(n_bits: int, depth: int = 2) -> StageCost:
    """Generalised multiplication stage cost (paper Sec. IV-D at L = 2)."""
    _validate(n_bits, depth)
    plan = build_plan(n_bits, depth)
    width = plan.max_mult_width
    return StageCost(
        name="multiply",
        area_cells=len(plan.multiplications) * rowmul.area_cells(width),
        latency_cc=rowmul.latency_cc(width),
    )


def postcompute_passes(plan: UnrolledPlan, window_bits: int) -> int:
    """Adder passes of the batched postcompute schedule: the length of
    :meth:`UnrolledPlan.postcompute_schedule`, the pass list the
    postcompute stage replays (the paper's 11 at L = 2)."""
    return len(plan.postcompute_schedule(window_bits))


def postcompute_cost(n_bits: int, depth: int = 2) -> StageCost:
    """Generalised postcompute stage cost (paper Sec. IV-E at L = 2)."""
    _validate(n_bits, depth)
    plan = build_plan(n_bits, depth)
    window = (3 * n_bits) // 2
    passes = postcompute_passes(plan, window)
    reorder = 2 * 3**depth
    latency = passes * adder_latency_cc(window) + reorder
    # Data rows: the partial products packed into 1.5n-wide rows, doubled
    # for reordering headroom, plus the 12 adder scratch rows.
    product_bits = sum(
        step.product_width + 1 for step in plan.multiplications
    )
    data_rows = 2 * ceil_div(product_bits, window)
    rows = data_rows + SCRATCH_ROWS
    return StageCost(
        name="postcompute", area_cells=rows * window, latency_cc=latency
    )


# ----------------------------------------------------------------------
# Design-point aggregation
# ----------------------------------------------------------------------
def design_cost(n_bits: int, depth: int = 2) -> DesignCost:
    """Full analytic cost of one (n, L) design point."""
    return DesignCost(
        n_bits=n_bits,
        depth=depth,
        precompute=precompute_cost(n_bits, depth),
        multiply=multiply_cost(n_bits, depth),
        postcompute=postcompute_cost(n_bits, depth),
    )


def squaring_cost(n_bits: int) -> DesignCost:
    """Cost of a dedicated squarer variant (extension).

    Squaring halves the precompute work: only the five a-side chunk
    additions exist (b = a), and the eight input writes drop to four.
    The nine partial multiplications become squarings of the same
    widths (same row-multiplier latency), and postcompute is unchanged.
    Crypto workloads are squaring-heavy (about 2/3 of a modexp), so the
    precompute saving lifts the stage balance.
    """
    _validate(n_bits, 2)
    base = design_cost(n_bits, 2)
    adds = 5
    inputs = 4
    adder_width = n_bits // 4 + 1
    pre_latency = inputs + adds * adder_latency_cc(adder_width) + 1
    pre_rows = inputs + adds + SCRATCH_ROWS
    precompute = StageCost(
        name="precompute",
        area_cells=pre_rows * (adder_width + 1),
        latency_cc=pre_latency,
    )
    return DesignCost(
        n_bits=n_bits,
        depth=2,
        precompute=precompute,
        multiply=base.multiply,
        postcompute=base.postcompute,
    )


def max_writes_per_cell(n_bits: int) -> int:
    """Hottest-cell writes per multiplication for the L = 2 design.

    Two candidate hot spots, both wear-leveled (halved):

    * postcompute scratch: 11 passes x 2*ceil(log2 1.5n) writes, halved,
      plus 4 reorder writes -> ``11*ceil(log2 1.5n) + 4``;
    * multiplier-row scratch: ``4*(n/4+2)`` writes, halved, plus 2
      input writes -> ``2*(n/4+2) + 2``.

    Reproduces the paper's 81 / 92 / 134 / 198 for n = 64..384.
    """
    _validate(n_bits, 2)
    post = 11 * ceil_log2((3 * n_bits) // 2) + 4
    mult = 2 * (n_bits // 4 + 2) + 2
    return max(post, mult)


@dataclass(frozen=True)
class ResidueOverhead:
    """Cost of the in-band mod-(2^r - 1) stage-boundary checks.

    Each check folds one sensed word into an r-bit residue with a
    log-depth tree of r-bit end-around-carry additions over the word's
    ``ceil(w / r)`` r-bit digits, then one compare against the
    predicted residue:

        cycles per check = ceil(log2 ceil(w / r)) + 1.

    The accumulator occupies scratch cells inside the stage subarray,
    costing about ``2r`` writes per check (the folded digit plus the
    end-around carry fix-up).
    """

    n_bits: int
    depth: int
    residue_bits: int
    checks_per_stage: Tuple[int, int, int]
    cycles_per_check: Tuple[int, int, int]

    @property
    def checks(self) -> int:
        return sum(self.checks_per_stage)

    @property
    def latency_cc(self) -> int:
        return sum(
            count * cycles
            for count, cycles in zip(self.checks_per_stage, self.cycles_per_check)
        )

    @property
    def writes(self) -> int:
        return self.checks * 2 * self.residue_bits

    def fraction_of(self, pipeline_latency_cc: int) -> float:
        """Residue-check latency as a fraction of a pipeline latency."""
        if pipeline_latency_cc <= 0:
            raise DesignError("pipeline latency must be positive")
        return self.latency_cc / pipeline_latency_cc


def _fold_cycles(word_bits: int, residue_bits: int) -> int:
    digits = ceil_div(word_bits, residue_bits)
    return ceil_log2(max(digits, 2)) + 1


def residue_overhead(
    n_bits: int, depth: int = 2, residue_bits: int = 8
) -> ResidueOverhead:
    """Per-multiplication cost of the ABFT residue checks.

    One check per precompute addition (``2*(3^L - 2^L)``), one per
    partial product (``3^L``), and one per postcompute combine pass.
    At n = 256, L = 2, r = 8 this is 10x5 + 9x6 + 11x7 = 181 cc,
    about 5% of the 3632 cc pipeline fill latency.
    """
    _validate(n_bits, depth)
    if residue_bits < 2:
        raise DesignError("residue width must be at least 2 bits")
    plan = build_plan(n_bits, depth)
    pre_checks = len(plan.precompute_adds)
    pre_width = plan.max_precompute_input_width
    mul_checks = len(plan.multiplications)
    mul_width = 2 * plan.max_mult_width
    window = (3 * n_bits) // 2
    post_checks = postcompute_passes(plan, window)
    return ResidueOverhead(
        n_bits=n_bits,
        depth=depth,
        residue_bits=residue_bits,
        checks_per_stage=(pre_checks, mul_checks, post_checks),
        cycles_per_check=(
            _fold_cycles(pre_width, residue_bits),
            _fold_cycles(mul_width, residue_bits),
            _fold_cycles(window, residue_bits),
        ),
    )


def design_metrics(n_bits: int, depth: int = 2) -> DesignMetrics:
    """Headline :class:`DesignMetrics` for Table I's "Our" rows."""
    cost = design_cost(n_bits, depth)
    return DesignMetrics(
        name=f"ours-L{depth}",
        n_bits=n_bits,
        latency_cc=cost.latency_cc,
        area_cells=cost.area_cells,
        throughput_per_mcc=cost.throughput_per_mcc,
        max_writes_per_cell=max_writes_per_cell(n_bits) if depth == 2 else None,
    )


def atp_sweep(
    sizes: Tuple[int, ...] = (64, 128, 256, 384, 512, 768, 1024),
    depths: Tuple[int, ...] = (1, 2, 3, 4),
) -> Dict[int, Dict[int, float]]:
    """Fig. 4 data: ATP per unroll depth across multiplication sizes.

    Returns ``{depth: {n: atp}}``; sizes not divisible by ``2**depth``
    are skipped for that depth.
    """
    sweep: Dict[int, Dict[int, float]] = {}
    for depth in depths:
        series: Dict[int, float] = {}
        for n_bits in sizes:
            if n_bits % (1 << depth):
                continue
            series[n_bits] = design_cost(n_bits, depth).atp
        sweep[depth] = series
    return sweep


def optimal_depth(n_bits: int, depths: Tuple[int, ...] = (1, 2, 3, 4)) -> int:
    """Depth with the lowest ATP at *n_bits* (the paper finds L = 2)."""
    candidates = [
        (design_cost(n_bits, depth).atp, depth)
        for depth in depths
        if n_bits % (1 << depth) == 0
    ]
    if not candidates:
        raise DesignError(f"no feasible depth for n = {n_bits}")
    return min(candidates)[1]
