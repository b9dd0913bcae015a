"""Pippenger MSM decomposed into waves of served multiplications.

One ZKP-style :class:`~repro.workloads.requests.MsmRequest` becomes
thousands of scheduled CIM field multiplications: the orchestrator
mirrors :func:`repro.crypto.msm.pippenger_msm` — same windows, same
bucket insertion, same running-sum aggregation — but every group
operation is expressed as a *plan* (generator of multiplier jobs, see
:mod:`repro.workloads.context`) instead of a host-side call, so
independent chains batch into SIMD waves through the service or the
sharded front-end.

Per window ``w`` (high → low) the decomposition has two phases:

* **phase A** — the result doubling chain (``window_bits`` doublings)
  runs *in parallel* with one bucket-accumulation chain per non-empty
  digit (all the per-digit additions are independent of each other and
  of the doublings);
* **phase B** — the running-sum aggregation over the buckets
  (inherently sequential, descending digits) followed by the final
  ``result += window_sum`` addition, fused into one chain.

Field inversions (affine slopes) go through Fermat exponentiation, so
they are themselves modexp plans over the same modulus context.

:meth:`MsmOrchestrator.waves` is the phase loop, written once for both
hosts: a generator that runs each phase as one
:class:`~repro.workloads.waves.WavePlan` by ``yield from`` the runner's
wave loop, so the sync service and the async front-end drive it with
their own ``drive`` step (see :mod:`repro.workloads.waves`).  The
MSM result point is mathematically unique, hence bit-identical to
``pippenger_msm`` / naive double-and-add whenever the decomposition is
correct — the acceptance check the benchmarks pin.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.crypto.ec import CurveParams, Point
from repro.crypto import msm as msm_model
from repro.workloads.context import ModulusContext, ModulusContextCache, Plan
from repro.workloads.requests import MsmRequest
from repro.workloads.waves import TaskMeta, WavePlan, WaveStats

#: A phase plan: yields lists of (plan, meta) tasks, receives the list
#: of task results, returns the MSM point.
PhasePlan = Generator[List[Tuple[Plan, TaskMeta]], List[object], Point]
#: The MSM phase loop: a :data:`~repro.workloads.waves.WaveLoop` that
#: returns the MSM point and the merged stats of every phase.
MsmLoop = Generator[object, object, Tuple[Point, WaveStats]]


# ----------------------------------------------------------------------
# Group operations as multiplication plans
# ----------------------------------------------------------------------
def _mul_plan(ctx: ModulusContext, x: int, y: int) -> Plan:
    p = ctx.modulus
    return (yield from ctx.modmul_plan(x % p, y % p))


def _inv_plan(ctx: ModulusContext, x: int) -> Plan:
    """Field inversion by Fermat exponentiation (chained modmuls)."""
    p = ctx.modulus
    return (yield from ctx.modexp_plan(x % p, p - 2))


def _add_plan(
    ctx: ModulusContext, params: CurveParams, p1: Point, p2: Point
) -> Plan:
    """Affine addition mirroring :meth:`CimEllipticCurve.add`."""
    if p1.is_identity:
        return p2
    if p2.is_identity:
        return p1
    p = params.p
    if p1.x == p2.x:
        if (p1.y + p2.y) % p == 0:
            return Point.identity()
        return (yield from _double_plan(ctx, params, p1))
    inverse = yield from _inv_plan(ctx, (p2.x - p1.x) % p)
    slope = yield from _mul_plan(ctx, (p2.y - p1.y) % p, inverse)
    slope_sq = yield from _mul_plan(ctx, slope, slope)
    x3 = (slope_sq - p1.x - p2.x) % p
    y3 = ((yield from _mul_plan(ctx, slope, (p1.x - x3) % p)) - p1.y) % p
    return Point(x=x3, y=y3)


def _double_plan(ctx: ModulusContext, params: CurveParams, pt: Point) -> Plan:
    """Affine doubling mirroring :meth:`CimEllipticCurve.double`."""
    if pt.is_identity:
        return pt
    p, a = params.p, params.a
    if pt.y == 0:
        return Point.identity()
    numerator = (3 * (yield from _mul_plan(ctx, pt.x, pt.x)) + a) % p
    inverse = yield from _inv_plan(ctx, (2 * pt.y) % p)
    slope = yield from _mul_plan(ctx, numerator, inverse)
    slope_sq = yield from _mul_plan(ctx, slope, slope)
    x3 = (slope_sq - 2 * pt.x) % p
    y3 = ((yield from _mul_plan(ctx, slope, (pt.x - x3) % p)) - pt.y) % p
    return Point(x=x3, y=y3)


def _double_chain_plan(
    ctx: ModulusContext, params: CurveParams, pt: Point, times: int
) -> Plan:
    for _ in range(times):
        pt = yield from _double_plan(ctx, params, pt)
    return pt


def _bucket_chain_plan(
    ctx: ModulusContext, params: CurveParams, points: Sequence[Point]
) -> Plan:
    acc = Point.identity()
    for pt in points:
        acc = yield from _add_plan(ctx, params, acc, pt)
    return acc


def _aggregate_plan(
    ctx: ModulusContext,
    params: CurveParams,
    doubled: Point,
    buckets: Sequence[Point],
) -> Plan:
    """Running-sum bucket aggregation plus the final window add."""
    running = Point.identity()
    window_sum = Point.identity()
    for digit in range(len(buckets) - 1, 0, -1):
        running = yield from _add_plan(ctx, params, running, buckets[digit])
        window_sum = yield from _add_plan(ctx, params, window_sum, running)
    return (yield from _add_plan(ctx, params, doubled, window_sum))


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
class MsmOrchestrator:
    """Decompose an MSM request into wave plans over a runner.

    Parameters
    ----------
    contexts:
        Modulus-context cache shared with the engine; repeated curves
        reuse precomputed field constants.

    Phase spans are emitted through the runner's component registry
    (the service's in the sync path, the front-end's in the async
    path), so they nest under the caller's ``workload.msm`` span and
    land in whatever tracer that component follows.
    """

    def __init__(self, contexts: Optional[ModulusContextCache] = None):
        self.contexts = (
            contexts if contexts is not None else ModulusContextCache()
        )

    # ------------------------------------------------------------------
    def window_bits_for(self, request: MsmRequest) -> int:
        if request.window_bits is not None:
            return request.window_bits
        scalar_bits = max(s.bit_length() for s in request.scalars) or 1
        return msm_model.optimal_window(
            len(request.scalars), scalar_bits=scalar_bits
        )

    def estimate_passes(self, request: MsmRequest) -> int:
        """Field-mult count from the Pippenger cost model, scaled by
        the context's passes-per-modmul — the deadline-admission bound.
        """
        ctx = self.contexts.get(request.curve.p, strategy=request.strategy)
        scalar_bits = max(s.bit_length() for s in request.scalars) or 1
        model = msm_model.msm_cost(
            len(request.scalars),
            scalar_bits=scalar_bits,
            window_bits=self.window_bits_for(request),
        )
        return model.field_multiplications * ctx.modmul_passes

    # ------------------------------------------------------------------
    def phases(self, request: MsmRequest) -> PhasePlan:
        """Yield per-phase task lists, receive results, return the point."""
        ctx = self.contexts.get(request.curve.p, strategy=request.strategy)
        params = request.curve
        meta = TaskMeta.of(request, ctx)
        window_bits = self.window_bits_for(request)
        max_bits = max(s.bit_length() for s in request.scalars) or 1
        windows = -(-max_bits // window_bits)
        mask = (1 << window_bits) - 1
        result = Point.identity()
        for w in range(windows - 1, -1, -1):
            shift = w * window_bits
            by_digit: Dict[int, List[Point]] = {}
            for scalar, point in zip(request.scalars, request.points):
                digit = (scalar >> shift) & mask
                if digit:
                    by_digit.setdefault(digit, []).append(point)
            # Phase A: doubling chain || one bucket chain per digit.
            digits = sorted(by_digit)
            tasks: List[Tuple[Plan, TaskMeta]] = [
                (_double_chain_plan(ctx, params, result, window_bits), meta)
            ]
            tasks.extend(
                (_bucket_chain_plan(ctx, params, by_digit[d]), meta)
                for d in digits
            )
            outcomes = yield tasks
            doubled = outcomes[0]
            buckets = [Point.identity() for _ in range(1 << window_bits)]
            for digit, bucket in zip(digits, outcomes[1:]):
                buckets[digit] = bucket
            # Phase B: sequential aggregation + final window add.
            outcomes = yield [
                (_aggregate_plan(ctx, params, doubled, buckets), meta)
            ]
            result = outcomes[0]
        return result

    # ------------------------------------------------------------------
    def waves(self, request: MsmRequest, runner) -> MsmLoop:
        """The phase loop: each phase's tasks as one :class:`WavePlan`
        under a ``workload.msm.phase`` span, served by ``yield from``
        the runner's wave loop.  Returns the point and merged stats."""
        phases = self.phases(request)
        total = WaveStats()
        outcome: Optional[List[object]] = None
        for phase_index in itertools.count():
            try:
                tasks = phases.send(outcome)
            except StopIteration as stop:
                return stop.value, total
            plan = WavePlan(tasks)
            with runner.telemetry.span(
                "workload.msm.phase",
                begin_cc=runner.now_cc,
                phase=phase_index,
                tasks=len(tasks),
            ) as span:
                stats = yield from runner.waves(plan)
                span.set(waves=stats.waves, jobs=stats.jobs)
                span.finish(runner.now_cc)
            self._merge(total, stats)
            outcome = [plan.results[i] for i in range(len(plan))]

    @staticmethod
    def _merge(total: WaveStats, stats: WaveStats) -> None:
        total.waves += stats.waves
        total.jobs += stats.jobs
        total.residue_checks += stats.residue_checks
        total.cache_hits += stats.cache_hits
        total.wave_completions_cc.extend(stats.wave_completions_cc)
