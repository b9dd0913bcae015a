"""One sink for every observability signal of a component.

A :class:`TelemetryRegistry` owns both live telemetry channels —
counters/histograms and spans (whatever tracer
:func:`repro.telemetry.spans.active` returns) — behind a single object
that components own.  The service, front-end, workload and eval layers
register their instruments through it, so one snapshot / one trace
export covers the whole stack.

Instruments are deliberately dependency-free and snapshot-oriented:
every instrument renders to plain dicts of ints/floats so the snapshot
can be printed, JSON-serialised, or asserted on in tests without
touching the live objects.  Schema of :meth:`TelemetryRegistry.snapshot`
(read by ``repro service-bench``, ``benchmarks/bench_service.py`` and
the front-end's cross-shard merge)::

    {
      "counters": {<name>: <int>, ...},
      "histograms": {
        <name>: {
          "count": <int>, "sum": <float>,
          "mean": <float>, "min": <float>, "max": <float>,
          "buckets": {"<=B0": n, ..., "+inf": n},   # cumulative-free
        },
        ...
      },
    }
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

from repro.telemetry import spans as _spans
from repro.telemetry.spans import NOOP_SPAN, Tracer

__all__ = [
    "COUNT_BUCKETS",
    "LATENCY_BUCKETS",
    "Counter",
    "Histogram",
    "TelemetryRegistry",
]

Number = Union[int, float]

#: Default bucket bounds for small-count distributions (queue depth,
#: batch occupancy).
COUNT_BUCKETS = (1, 2, 4, 8, 16, 32, 64)

#: Default bucket bounds for cycle-denominated latencies.
LATENCY_BUCKETS = (1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000)


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with sum/extrema tracking.

    Buckets are upper-inclusive bounds; observations above the last
    bound land in the implicit ``+inf`` bucket.  Buckets hold plain
    (non-cumulative) counts.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "_min", "_max")

    def __init__(self, name: str, bounds: Sequence[Number] = COUNT_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and ascending")
        self.name = name
        self.bounds: List[Number] = list(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def snapshot(self) -> Dict[str, object]:
        buckets = {
            f"<={bound}": count
            for bound, count in zip(self.bounds, self.bucket_counts)
        }
        buckets["+inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean if self.count else 0.0,
            "min": self._min if self._min is not None else 0.0,
            "max": self._max if self._max is not None else 0.0,
            "buckets": buckets,
        }


class TelemetryRegistry:
    """Metrics instruments plus span emission for one component.

    Instruments are created on first use (``counter(name)`` /
    ``histogram(name)``), so call sites never pre-declare; the snapshot
    is sorted by name for deterministic output.

    Parameters
    ----------
    tracer:
        Pin span emission to a specific tracer.  By default spans
        follow the globally installed tracer
        (:func:`repro.telemetry.spans.active`), so enabling tracing
        around any service call captures its spans with zero
        per-component wiring.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._tracer = tracer

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(
        self, name: str, bounds: Sequence[Number] = COUNT_BUCKETS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def snapshot(self) -> Dict[str, object]:
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Optional[Tracer]:
        """The tracer spans go to right now (``None`` when disabled)."""
        if self._tracer is not None:
            return self._tracer if self._tracer.enabled else None
        return _spans.active()

    def span(self, name: str, **kwargs):
        """Open a span on the active tracer (no-op when disabled)."""
        tracer = self.tracer
        if tracer is None:
            return NOOP_SPAN
        return tracer.span(name, **kwargs)

    def event(self, name: str, **kwargs):
        """Record an instant event on the active tracer."""
        tracer = self.tracer
        if tracer is None:
            return NOOP_SPAN
        return tracer.event(name, **kwargs)
