"""Metric catalogue and the statistics every report shares.

``BENCHMARK.json`` is the only source of the name, unit, direction and
bound of every metric it lists.  It lists the end-to-end metrics every
workload reports, which is what ``run.py`` prints;
:data:`SUITE_ONLY` adds the cycle-clock metrics that apply to some
workloads only or can read 0, which ``python -m bench`` also reports.

A metric's clock follows from its bound:

* bound > 0 — ``host``: wall time of the Python simulator on the
  machine running the benchmark (``time.perf_counter``), or the memory
  it takes; medians over repeats;
* bound 0 — ``cycle``: the modelled hardware's virtual clock, and the
  outcome counts decided on it.  These repeat bit for bit for a seed.
  The schedule the system sees does not depend on the seed, so all but
  ``energy_fj_per_op``, which depends on the operand bits written, are
  the same for every seed.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Sequence, Tuple

STREAM = "stream"
PORTFOLIO = "serve-portfolio"
SHARDED = "serve-sharded"
CRYPTO = "crypto"
WORKLOADS: Tuple[str, ...] = (STREAM, PORTFOLIO, SHARDED, CRYPTO)
SERVE: Tuple[str, ...] = (PORTFOLIO, SHARDED)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Metric:
    """One named end-to-end metric."""

    name: str
    unit: str
    better: str
    #: Share of the base median by which the metric may worsen before
    #: it counts as a regression.
    bound: float
    workloads: Tuple[str, ...] = WORKLOADS

    @property
    def clock(self) -> str:
        return "host" if self.bound else "cycle"


#: Reported by the suite for the workloads named; see the README for
#: their definitions.
SUITE_ONLY: Tuple[Metric, ...] = (
    Metric("p50_cc", "cc", "lower", 0.0, SERVE + (CRYPTO,)),
    Metric("p99_cc", "cc", "lower", 0.0, SERVE),
    Metric("p90_cc", "cc", "lower", 0.0, (CRYPTO,)),
    Metric("miss_rate", "fraction", "lower", 0.0, SERVE),
    Metric("slo_rate_per_mcc", "req/Mcc", "higher", 0.0, SERVE),
    Metric("energy_fj_per_op", "fJ", "lower", 0.0, (STREAM, PORTFOLIO, CRYPTO)),
    Metric("error_rate", "fraction", "lower", 0.0),
    Metric("paper_err", "fraction", "lower", 0.0, (STREAM,)),
)

CATALOGUE: Dict[str, Metric] = {
    m["name"]: Metric(m["name"], m["unit"], m["better"], m["bound"])
    for m in SPEC["end_to_end"]
}
CATALOGUE.update((m.name, m) for m in SUITE_ONLY)

#: Per-layer metric name -> unit, as ``BENCHMARK.json`` lists them.
LAYER_UNITS: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Layers whose host self time is reported as a share of the traced
#: wall time; the seconds behind each share are in ``layers.json``.
SHARE_LAYERS: Tuple[str, ...] = tuple(
    name[: -len("_share")] for name in LAYER_UNITS if name.endswith("_share")
)


def applies(metric: Metric, workload: str) -> bool:
    return workload in metric.workloads


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile; ``math.inf`` entries rank last."""
    ordered = sorted(values)
    if not ordered:
        return math.inf
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
