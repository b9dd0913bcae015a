"""Bank-of-banks dispatch layer.

One :class:`Way` is one physical multiplier bank way — a
:class:`~repro.karatsuba.pipeline.KaratsubaPipeline` plus the service's
view of it (accumulated busy cycles, health, wear).  A
:class:`BankDispatcher` owns a pool of ways per operand width, creates
them lazily through the warm-pipeline
:class:`~repro.service.cache.ProgramCache`, and issues each flushed
batch to the least-loaded healthy way (with an optional wear-aware
ranking supplied by :mod:`repro.service.degrade`).

Timing is aggregated from the existing
:class:`~repro.karatsuba.cost.DesignCost` model: each dispatch
adds the batch's pipelined makespan to the chosen way's busy time, and
the service-level makespan is the busiest way's total — the classic
list-scheduling bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.karatsuba.cost import DesignCost
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.magic.backend import DEFAULT_BACKEND
from repro.portfolio.design import DesignPoint, build_pipeline
from repro.service.cache import ProgramCache
from repro.service.requests import NoHealthyWayError
from repro.telemetry import spans as _telemetry


class Way:
    """One bank way: a pipeline plus service-side bookkeeping."""

    def __init__(self, way_id: str, pipeline: KaratsubaPipeline):
        self.way_id = way_id
        self.pipeline = pipeline
        self.busy_cc = 0
        self.jobs_done = 0
        self.batches_done = 0
        self.healthy = True
        #: Autoscaler gate: an inactive way takes no new batches but
        #: stays warm (its compiled pipeline survives) for reactivation.
        self.active = True
        #: Virtual-timeline occupancy: the cycle at which this way next
        #: becomes free (open-loop drivers advance it per dispatch).
        self.free_at_cc = 0
        #: Why the way left service ("" while healthy).
        self.retired_reason = ""

    @property
    def n_bits(self) -> int:
        return self.pipeline.n_bits

    def max_writes(self) -> int:
        """Hottest-cell write count across the way's subarrays."""
        return self.pipeline.controller.max_writes()

    def retire(self, reason: str) -> None:
        self.healthy = False
        self.retired_reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "healthy" if self.healthy else f"retired({self.retired_reason})"
        return f"Way({self.way_id}, {state}, busy={self.busy_cc}cc)"


@dataclass(frozen=True)
class DispatchReport:
    """Outcome of running one flushed batch on one way."""

    way_id: str
    n_bits: int
    products: List[int]
    makespan_cc: int
    timing: DesignCost
    #: Ids of the client requests the batch carried (empty when the
    #: caller dispatched raw pairs without request context).
    request_ids: Tuple[int, ...] = ()


#: Ranking hook: maps candidate ways to a sort key (lower runs first).
WayRanker = Callable[[Way], Tuple]


def least_loaded(way: Way) -> Tuple:
    """Default ranking: least queued work, then stable by id."""
    return (way.busy_cc, way.way_id)


class BankDispatcher:
    """Routes flushed batches onto per-width pools of bank ways.

    Parameters
    ----------
    ways_per_width:
        Pool size for each distinct operand width (lazily built).
    program_cache:
        Warm-pipeline cache; pool construction for a width that was
        seen before (even by a retired pool) hits this cache instead of
        re-synthesising stage programs.
    wear_leveling:
        Forwarded to each pipeline (the paper's Sec. IV-B policy).
    spare_rows:
        Spare word lines per crossbar stage, forwarded to each
        pipeline; the degrade controller remaps defective rows onto
        them instead of quarantining the whole way.
    ranker:
        Way-selection key; :func:`least_loaded` unless a wear-aware
        policy (:mod:`repro.service.degrade`) overrides it.
    optimize:
        Run stage adder programs through the SIMD cycle packer
        (:mod:`repro.magic.passes`) in every way's pipeline.  Part of
        the cache variant key, so optimized and paper-exact pipelines
        never alias.
    backend:
        Batched executor backend (:mod:`repro.magic.backend` name) each
        way's pipeline runs on.  Also part of the cache variant key —
        a warm pipeline carries its backend choice, so two configs with
        different backends must never share one.
    design_resolver:
        Optional portfolio hook mapping an operand width to the
        :class:`~repro.portfolio.design.DesignPoint` that should serve
        it (typically ``TuningTable.resolve``).  When set, pools are
        built through :func:`repro.portfolio.design.build_pipeline` and
        the resolved design overrides ``optimize``/``backend``; when
        ``None`` the dispatcher serves the paper's fixed Karatsuba
        L = 2 design for every width.
    """

    def __init__(
        self,
        ways_per_width: int = 2,
        program_cache: Optional[ProgramCache] = None,
        wear_leveling: bool = True,
        spare_rows: int = 2,
        ranker: WayRanker = least_loaded,
        optimize: bool = False,
        backend: str = DEFAULT_BACKEND,
        design_resolver: Optional[Callable[[int], DesignPoint]] = None,
    ):
        if ways_per_width < 1:
            raise ValueError("need at least one way per width")
        if spare_rows < 0:
            raise ValueError("spare_rows must be non-negative")
        self.ways_per_width = ways_per_width
        self.program_cache = (
            program_cache if program_cache is not None else ProgramCache()
        )
        self.wear_leveling = wear_leveling
        self.spare_rows = spare_rows
        self.ranker = ranker
        self.optimize = optimize
        self.backend = backend
        self.design_resolver = design_resolver
        self._pools: Dict[int, List[Way]] = {}

    # ------------------------------------------------------------------
    def pool(self, n_bits: int) -> List[Way]:
        """The (lazily created) way pool for *n_bits*."""
        ways = self._pools.get(n_bits)
        if ways is None:
            ways = [
                Way(
                    way_id=f"w{n_bits}.{index}",
                    pipeline=self._build_pipeline(n_bits, index),
                )
                for index in range(self.ways_per_width)
            ]
            self._pools[n_bits] = ways
        return ways

    def design_for(self, n_bits: int) -> DesignPoint:
        """The design point serving *n_bits* under the current policy."""
        if self.design_resolver is not None:
            return self.design_resolver(n_bits)
        return DesignPoint(
            "karatsuba",
            depth=2,
            optimize=self.optimize,
            backend=self.backend,
        )

    def _variant(self, n_bits: int, index) -> str:
        """Cache variant key of one way's pipeline.

        Embeds the full design-point key — algorithm, unroll depth,
        optimizer flag and executor backend — so two design points at
        the same width can never alias one warm pipeline (a Toom-3 way
        and a Karatsuba way are different hardware).
        """
        return f"pipeline.{index}.{self.design_for(n_bits).key()}"

    def _build_pipeline(self, n_bits: int, index: int) -> KaratsubaPipeline:
        design = self.design_for(n_bits)
        return self.program_cache.get_or_build(
            n_bits,
            lambda: build_pipeline(
                n_bits,
                design,
                wear_leveling=self.wear_leveling,
                spare_rows=self.spare_rows,
            ),
            variant=self._variant(n_bits, index),
        )

    def healthy_ways(self, n_bits: int) -> List[Way]:
        """Ways eligible for new work: healthy *and* autoscaler-active."""
        return [
            way for way in self.pool(n_bits) if way.healthy and way.active
        ]

    def active_count(self, n_bits: int) -> int:
        return len(self.healthy_ways(n_bits))

    def set_active_ways(self, n_bits: int, count: int) -> int:
        """Resize the active portion of a width's pool to *count* ways.

        Scale-up first reactivates warm (deactivated) ways, then builds
        brand-new ones past the original ``ways_per_width``; scale-down
        deactivates the highest-indexed active ways but keeps them warm
        for the next burst.  Retired ways are never revived.  Returns
        the resulting active count.
        """
        if count < 1:
            raise ValueError("at least one way must stay active")
        pool = self.pool(n_bits)
        healthy = [way for way in pool if way.healthy]
        while len(healthy) < count:
            index = len(pool)
            way = Way(
                way_id=f"w{n_bits}.{index}",
                pipeline=self._build_pipeline(n_bits, index),
            )
            pool.append(way)
            healthy.append(way)
        for position, way in enumerate(healthy):
            way.active = position < count
        return self.active_count(n_bits)

    def way_by_id(self, way_id: str) -> Optional[Way]:
        for way in self.all_ways():
            if way.way_id == way_id:
                return way
        return None

    def quarantine(self, way: Way, reason: str) -> None:
        """Retire *way* and evict its warm pipeline from the cache.

        A quarantined way's arrays may hold corrupted state (stuck-at
        cells, exhausted endurance), so a future pool for this width
        must rebuild rather than revive it.
        """
        way.retire(reason)
        index = way.way_id.rsplit(".", 1)[-1]
        self.program_cache.discard(
            way.n_bits, variant=self._variant(way.n_bits, index)
        )

    def widths(self) -> List[int]:
        return sorted(self._pools)

    def all_ways(self) -> List[Way]:
        return [way for width in self.widths() for way in self._pools[width]]

    # ------------------------------------------------------------------
    def select_way(
        self, n_bits: int, exclude: Optional[Set[str]] = None
    ) -> Way:
        """Best healthy way for *n_bits* under the current ranking."""
        exclude = exclude or set()
        candidates = [
            way for way in self.healthy_ways(n_bits)
            if way.way_id not in exclude
        ]
        if not candidates:
            # Autoscaled-down ways are a capacity policy, not a health
            # one: fall back to any warm healthy way before declaring
            # the width unservable (fault retries may have excluded
            # every active way).
            candidates = [
                way for way in self.pool(n_bits)
                if way.healthy and way.way_id not in exclude
            ]
        if not candidates:
            raise NoHealthyWayError(
                f"no healthy way left for n={n_bits} "
                f"(excluded: {sorted(exclude) or 'none'})"
            )
        return min(candidates, key=self.ranker)

    def dispatch(
        self,
        n_bits: int,
        pairs: Sequence[Tuple[int, int]],
        exclude: Optional[Set[str]] = None,
        request_ids: Sequence[int] = (),
    ) -> DispatchReport:
        """Run *pairs* as one SIMD batch on the best available way.

        The whole batch executes on a single way — lanes of one
        SIMD pass share that way's subarrays — and the way's busy
        time grows by the batch's pipelined makespan.
        """
        way = self.select_way(n_bits, exclude)
        return self.run_on(way, pairs, request_ids=request_ids)

    def run_on(
        self,
        way: Way,
        pairs: Sequence[Tuple[int, int]],
        request_ids: Sequence[int] = (),
    ) -> DispatchReport:
        """Run *pairs* on a specific way (retry path uses this).

        When tracing is enabled the dispatch emits one span per batch
        on the way's track, timed in *service time* — the way's
        accumulated busy window ``[busy_cc, busy_cc + makespan_cc]`` —
        and tagged with the request ids it carried.
        """
        pairs = list(pairs)
        tracer = _telemetry.active()
        if tracer is None:
            result = way.pipeline.run_stream(
                pairs, batch_size=max(len(pairs), 1)
            )
        else:
            with tracer.span(
                "dispatch",
                begin_cc=way.busy_cc,
                track=way.way_id,
                way=way.way_id,
                n_bits=way.n_bits,
                jobs=len(pairs),
                request_ids=list(request_ids),
            ) as span:
                result = way.pipeline.run_stream(
                    pairs, batch_size=max(len(pairs), 1)
                )
                span.set(makespan_cc=result.makespan_cc)
                span.finish(way.busy_cc + result.makespan_cc)
        way.busy_cc += result.makespan_cc
        way.jobs_done += len(pairs)
        way.batches_done += 1
        return DispatchReport(
            way_id=way.way_id,
            n_bits=way.n_bits,
            products=result.products,
            makespan_cc=result.makespan_cc,
            timing=result.timing,
            request_ids=tuple(request_ids),
        )

    # ------------------------------------------------------------------
    def makespan_cc(self) -> int:
        """Service makespan: the busiest way bounds completion."""
        return max((way.busy_cc for way in self.all_ways()), default=0)

    def throughput_per_mcc(self, jobs: int) -> float:
        """Achieved multiplications per Mcc over the busiest way's span."""
        makespan = self.makespan_cc()
        if makespan == 0:
            return 0.0
        return jobs * 1e6 / makespan

    def utilisation(self) -> Dict[str, float]:
        """Busy fraction per way against the busiest way."""
        makespan = self.makespan_cc()
        if makespan == 0:
            return {way.way_id: 0.0 for way in self.all_ways()}
        return {
            way.way_id: way.busy_cc / makespan for way in self.all_ways()
        }
