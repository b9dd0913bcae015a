"""Area/latency/throughput model of the CIM multiplier designs.

One cost source: every stage lays out its rows, columns and adder
passes with a pure layout function of its inputs
(:class:`StageLayout`; Karatsuba stages read the depth-L unrolled plan
of ``(n, L)``, the Toom-3 and schoolbook stages ``n`` alone).  The
stage constructors build their arrays and programs from those layouts,
and :func:`design_cost` prices a design point by summing them, with no
array allocated and no program generated.  A stage's latency is its
periphery overhead plus the closed-form Kogge-Stone latency of every
pass (:func:`repro.arith.koggestone.latency_cc`) or one row-multiplier
latency (:func:`repro.arith.rowmul.latency_cc`); its area is its
crossbar cells plus ``12 m`` cells per ``m``-bit multiplier row.

At the shipped L = 2 Karatsuba design this reproduces the closed forms
of Sec. IV; Fig. 4 sweeps the same layouts over L.

The max-writes-per-cell model reflects wear-leveling (which halves the
per-region accumulation) plus the small reorder/reset constants; it
reproduces the paper's 81 / 92 / 134 / 198 column cell-exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Tuple

from repro.arith import rowmul
from repro.arith.bitops import ceil_div, ceil_log2
from repro.arith.koggestone import SCRATCH_ROWS
# Kogge-Stone pass latency: one closed form, the adder program's own.
from repro.arith.koggestone import latency_cc as adder_latency_cc
from repro.karatsuba.unroll import build_plan
from repro.sim.exceptions import DesignError
from repro.sim.stats import DesignMetrics


class UnitLayout(NamedTuple):
    """One crossbar unit: its logical rows and columns, and the
    ``(op, adder width)`` passes one job replays on it, in order."""

    rows: int
    cols: int
    passes: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class StageLayout:
    """What one pipeline stage builds, worked out before anything is
    built: its crossbar :attr:`units`, the periphery cycles one job
    spends outside the adder passes (:attr:`overhead`, per clock
    category), and :attr:`multipliers` lock-step rows of
    :attr:`multiplier_width` bits."""

    name: str
    units: Tuple[UnitLayout, ...] = ()
    overhead: Dict[str, int] = field(default_factory=dict)
    multipliers: int = 0
    multiplier_width: int = 0

    @property
    def passes(self) -> Tuple[Tuple[str, int], ...]:
        """Every ``(op, adder width)`` pass of one job, unit by unit."""
        return tuple(p for unit in self.units for p in unit.passes)

    @property
    def area_cells(self) -> int:
        cells = sum(unit.rows * unit.cols for unit in self.units)
        if self.multipliers:
            cells += self.multipliers * rowmul.area_cells(self.multiplier_width)
        return cells

    @property
    def latency_cc(self) -> int:
        cycles = sum(self.overhead.values()) + sum(
            adder_latency_cc(width) for _, width in self.passes
        )
        if self.multipliers:
            cycles += rowmul.latency_cc(self.multiplier_width)
        return cycles


@dataclass(frozen=True)
class StageCost:
    """Area and latency of one pipeline stage."""

    name: str
    area_cells: int
    latency_cc: int


@dataclass(frozen=True)
class DesignCost:
    """Cost and timing of one pipelined design point, stage by stage.

    Latency of one multiplication is the *sum* of the stage latencies;
    the steady-state throughput is set by the *maximum* (paper
    Sec. IV-A).  The figures are computed once per record: the serving
    layer reads them on every flush.
    """

    n_bits: int
    stages: Tuple[StageCost, ...]

    @functools.cached_property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    @functools.cached_property
    def stage_latencies(self) -> Tuple[int, ...]:
        return tuple(stage.latency_cc for stage in self.stages)

    @functools.cached_property
    def area_cells(self) -> int:
        return sum(stage.area_cells for stage in self.stages)

    @functools.cached_property
    def latency_cc(self) -> int:
        """Fill latency of one multiplication (sum of stages)."""
        return sum(self.stage_latencies)

    @functools.cached_property
    def bottleneck_cc(self) -> int:
        """Initiation interval: the slowest stage."""
        return max(self.stage_latencies)

    @property
    def bottleneck_stage(self) -> str:
        return self.stage_names[self.stage_latencies.index(self.bottleneck_cc)]

    @functools.cached_property
    def throughput_per_mcc(self) -> float:
        """Steady-state multiplications per 10^6 clock cycles."""
        return 1e6 / self.bottleneck_cc

    @property
    def atp(self) -> float:
        """Area-time product: cells / throughput (the paper's metric)."""
        return self.area_cells / self.throughput_per_mcc

    def makespan_cc(self, jobs: int) -> int:
        """Total cycles to finish *jobs* multiplications back-to-back."""
        if jobs < 0:
            raise DesignError("job count must be non-negative")
        if jobs == 0:
            return 0
        return self.latency_cc + (jobs - 1) * self.bottleneck_cc


# ----------------------------------------------------------------------
# Design-point aggregation
# ----------------------------------------------------------------------
def stage_layouts(
    n_bits: int, depth: int = 2, algorithm: str = "karatsuba"
) -> Tuple[StageLayout, ...]:
    """The layouts of one design point's stages, slot for slot:
    Karatsuba at unroll depth *depth*, or the ``"toom3"`` and
    ``"schoolbook"`` designs (whose depth is fixed)."""
    # The stage modules import this one for StageLayout.
    if algorithm == "karatsuba":
        from repro.karatsuba import multiply, postcompute, precompute

        plan = build_plan(n_bits, depth)
        return (
            precompute.layout(plan),
            multiply.layout(plan),
            postcompute.layout(plan),
        )
    if algorithm == "toom3":
        from repro.portfolio import toom3

        return toom3.layouts(n_bits)
    if algorithm == "schoolbook":
        from repro.portfolio import schoolbook

        return schoolbook.layouts(n_bits)
    raise DesignError(f"unknown algorithm {algorithm!r}")


@functools.lru_cache(maxsize=None)
def design_cost(
    n_bits: int, depth: int = 2, algorithm: str = "karatsuba"
) -> DesignCost:
    """Cost of one design point: its stage layouts, summed (the paper's
    closed forms at the unoptimized schedule)."""
    return DesignCost(
        n_bits=n_bits,
        stages=tuple(
            StageCost(layout.name, layout.area_cells, layout.latency_cc)
            for layout in stage_layouts(n_bits, depth, algorithm)
        ),
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
    return DesignCost(n_bits=n_bits, stages=(precompute, *base.stages[1:]))


def max_writes_per_cell(n_bits: int) -> int:
    """Hottest-cell writes per multiplication for the L = 2 design.

    Two candidate hot spots, both wear-leveled (halved):

    * postcompute scratch: 11 passes x 2*ceil(log2 1.5n) writes, halved,
      plus 4 reorder writes -> ``11*ceil(log2 1.5n) + 4``;
    * multiplier-row scratch: ``4*(n/4+2)`` writes, halved, plus 2
      input writes -> ``2*(n/4+2) + 2``.

    Reproduces the paper's 81 / 92 / 134 / 198 for n = 64..384.
    """
    build_plan(n_bits, 2)  # rejects widths the L = 2 design cannot split
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
    if residue_bits < 2:
        raise DesignError("residue width must be at least 2 bits")
    pre, mul, post = stage_layouts(n_bits, depth)
    return ResidueOverhead(
        n_bits=n_bits,
        depth=depth,
        residue_bits=residue_bits,
        checks_per_stage=(len(pre.passes), mul.multipliers, len(post.passes)),
        cycles_per_check=(
            _fold_cycles(pre.passes[0][1], residue_bits),
            _fold_cycles(2 * mul.multiplier_width, residue_bits),
            _fold_cycles(post.units[0].cols, residue_bits),
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
