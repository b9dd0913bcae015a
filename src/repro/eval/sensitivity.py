"""Sensitivity of the paper's conclusions to cost-model assumptions.

Every cycle count in the reproduction rests on the MAGIC cost
discipline (1 cc per row-parallel NOR, 2 cc per periphery shift, 14
steps per row-multiplier iteration, ...).  Those constants come from
the paper and its references, but devices differ; this module re-prices
the whole comparison under perturbed constants and checks which
conclusions are robust:

* the ATP ordering of Table I (who beats whom),
* the Fig. 4 choice of L = 2,
* the headline factors versus the schoolbook baselines.

The parameterisation scales the three latency ingredients — the adder
pass (`alpha`), the row-multiplier iteration (`beta`), and fixed
controller overheads (`gamma`) — and rebuilds every design's latency
from its structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arith.bitops import ceil_log2
from repro.karatsuba import cost as cost_model
from repro.sim.exceptions import DesignError


@dataclass(frozen=True)
class CostPerturbation:
    """Multipliers on the three latency ingredients (1.0 = paper)."""

    alpha: float = 1.0      # Kogge-Stone pass cost scale
    beta: float = 1.0       # row-multiplier per-iteration cost scale
    gamma: float = 1.0      # fixed overheads (writes, resets, reorder)

    def __post_init__(self) -> None:
        for value in (self.alpha, self.beta, self.gamma):
            if value <= 0:
                raise DesignError("perturbation factors must be positive")


def _adder_pass(width: int, p: CostPerturbation) -> float:
    return p.alpha * (11 * ceil_log2(max(width, 2))) + p.gamma * 17


def _rowmul(width: int, p: CostPerturbation) -> float:
    return (
        width * (p.alpha * ceil_log2(max(width, 2)) + p.beta * 14)
        + p.gamma * 3
    )


def _perturbed_cc(layout, p: CostPerturbation) -> float:
    """A stage layout's latency under *p*: its passes, its row
    multipliers and its periphery overhead."""
    cycles = p.gamma * sum(layout.overhead.values()) + sum(
        _adder_pass(width, p) for _, width in layout.passes
    )
    if layout.multipliers:
        cycles += _rowmul(layout.multiplier_width, p)
    return cycles


def ours_latency(n_bits: int, p: CostPerturbation) -> Tuple[float, ...]:
    """(precompute, multiply, postcompute) of the L = 2 design under *p*."""
    return tuple(
        _perturbed_cc(layout, p) for layout in cost_model.stage_layouts(n_bits, 2)
    )


def design_latencies(n_bits: int, p: CostPerturbation) -> Dict[str, float]:
    """Perturbed single-multiplication latency per design."""
    stages = ours_latency(n_bits, p)
    return {
        "ours": max(stages),                      # pipelined interval
        "radakovits2020": n_bits * (p.alpha * 10 * ceil_log2(n_bits) + p.gamma * 4),
        "hajali2018": p.alpha * 13 * n_bits * n_bits,
        # [8]'s calibrated latencies scale with the NOR pulse cost.
        "lakshmi2022": p.alpha * {64: 404, 128: 866, 256: 1905, 384: 3195}.get(
            n_bits, 404 * (n_bits / 64) ** 1.2
        ),
        "leitersdorf2022": _rowmul(n_bits, p),
    }


_AREAS = {
    "ours": lambda n: cost_model.design_cost(n, 2).area_cells,
    "radakovits2020": lambda n: 2 * n * n + n + 2,
    "hajali2018": lambda n: 20 * n - 5,
    "lakshmi2022": lambda n: 8 * n * n + 48 * (ceil_log2(n) - 2),
    "leitersdorf2022": lambda n: 14 * n - 7,
}


def atp_table(n_bits: int, p: CostPerturbation) -> Dict[str, float]:
    """Perturbed ATP per design (cells x latency / 1e6)."""
    latencies = design_latencies(n_bits, p)
    return {
        design: _AREAS[design](n_bits) * latency / 1e6
        for design, latency in latencies.items()
    }


def atp_ranking(n_bits: int, p: CostPerturbation) -> List[str]:
    """Designs sorted best-ATP-first under perturbation *p*."""
    table = atp_table(n_bits, p)
    return sorted(table, key=table.get)


@dataclass(frozen=True)
class RobustnessResult:
    """Outcome of one robustness sweep."""

    perturbations: int
    ordering_preserved: int
    l2_still_best: int
    headline_factor_range: Tuple[float, float]


def sweep(
    n_bits: int = 384,
    factors: Tuple[float, ...] = (0.5, 1.0, 2.0),
) -> RobustnessResult:
    """Grid-sweep (alpha, beta, gamma) and count surviving conclusions.

    *Ordering preserved* means the paper's ATP ranking at n = 384
    ([9] < ours < [8] < [6] < [7]) holds; *L2 still best* re-runs the
    Fig. 4 aggregate with the perturbed adder/multiplier costs.
    """
    baseline_order = atp_ranking(n_bits, CostPerturbation())
    checked = 0
    order_ok = 0
    l2_ok = 0
    factor_lo, factor_hi = float("inf"), 0.0
    for alpha in factors:
        for beta in factors:
            for gamma in factors:
                p = CostPerturbation(alpha=alpha, beta=beta, gamma=gamma)
                checked += 1
                if atp_ranking(n_bits, p) == baseline_order:
                    order_ok += 1
                # Fig. 4 choice: compare L in {1,2,3} with perturbed
                # stage ingredients (structure from the stage layouts).
                aggregates = {}
                for depth in (1, 2, 3):
                    total = 1.0
                    for size in (64, 128, 256, 384):
                        if size % (1 << depth):
                            continue
                        layouts = cost_model.stage_layouts(size, depth)
                        bottleneck = max(
                            _perturbed_cc(layout, p) for layout in layouts
                        )
                        area = sum(layout.area_cells for layout in layouts)
                        total *= area * bottleneck
                    aggregates[depth] = total
                if min(aggregates, key=aggregates.get) == 2:
                    l2_ok += 1
                # Headline: ours vs [7] throughput factor.
                latencies = design_latencies(n_bits, p)
                factor = latencies["hajali2018"] / latencies["ours"]
                factor_lo = min(factor_lo, factor)
                factor_hi = max(factor_hi, factor)
    return RobustnessResult(
        perturbations=checked,
        ordering_preserved=order_ok,
        l2_still_best=l2_ok,
        headline_factor_range=(factor_lo, factor_hi),
    )


def render(n_bits: int = 384) -> str:
    """Text summary of the robustness sweep."""
    result = sweep(n_bits)
    lo, hi = result.headline_factor_range
    return (
        f"Sensitivity sweep at n = {n_bits} "
        f"({result.perturbations} perturbations of alpha/beta/gamma in "
        "{0.5, 1, 2}):\n"
        f"  Table I ATP ordering preserved : "
        f"{result.ordering_preserved}/{result.perturbations}\n"
        f"  Fig. 4 choice (L = 2) preserved: "
        f"{result.l2_still_best}/{result.perturbations}\n"
        f"  headline throughput factor vs [7]: {lo:,.0f}x .. {hi:,.0f}x "
        "(paper: 916x)"
    )
