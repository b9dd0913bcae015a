"""``python -m bench compare BASE.json NEW.json``: verdict per metric.

For each workload x end-to-end metric present in both result files the
comparison prints each side's median and quartiles, the bound, and a
verdict from paired repeats:

* ``improved``   — the new side wins at least 9 of 10 pairs (ties count
  for neither) and the medians differ, in the better direction, by
  more than the base's interquartile range.  Host-clock claims need at
  least 10 pairs; a deterministic metric needs one;
* ``worse``      — the new median is worse than the base median by more
  than the bound;
* ``unresolved`` — neither, but the base's spread (IQR / median) is
  wider than the bound, and not every new run beats every base run;
* ``unchanged``  — otherwise.

Cycle-clock metrics have bound 0, so any move is a verdict, and each
moved one is flagged: a host-only speed-up must leave them identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from bench.metrics import CATALOGUE, quartiles, spread


def verdict(
    better: str,
    bound: float,
    base: Sequence[float],
    new: Sequence[float],
    min_pairs: int = 10,
) -> str:
    sign = 1 if better == "higher" else -1
    q1, base_median, q3 = quartiles(base)
    new_median = quartiles(new)[1]
    gain = (new_median - base_median) * sign
    pairs = list(zip(base, new))
    wins = sum((n - b) * sign > 0 for b, n in pairs)
    if len(pairs) >= min_pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(base_median):
        return "worse"
    every_better = all((n - b) * sign > 0 for b in base for n in new)
    if spread(base) > bound and not every_better:
        return "unresolved"
    return "unchanged"


def compare(base: Dict, new: Dict) -> Tuple[List[str], int]:
    """Report lines and the count of ``worse`` verdicts."""
    lines = [
        f"{'workload':16s} {'metric':18s} {'base median [q1, q3]':>34s} "
        f"{'new median [q1, q3]':>34s} {'bound':>6s}  verdict"
    ]
    worse = 0
    for workload, metrics in base["workloads"].items():
        for name, entry in metrics.items():
            other = new["workloads"].get(workload, {}).get(name)
            if other is None or name not in CATALOGUE:
                continue
            metric = CATALOGUE[name]
            result = verdict(
                metric.better, metric.bound, entry["values"], other["values"],
                min_pairs=10 if metric.clock == "host" else 1,
            )
            worse += result == "worse"
            moved = metric.clock == "cycle" and entry["values"] != other["values"]
            lines.append(
                f"{workload:16s} {name:18s} {_summary(entry['values']):>34s} "
                f"{_summary(other['values']):>34s} {metric.bound:>6.0%}  {result}"
                + ("  CYCLE-CLOCK METRIC MOVED" if moved else "")
            )
    return lines, worse


def _summary(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    lines, worse = compare(base, new)
    print("\n".join(lines))
    return 1 if worse else 0
