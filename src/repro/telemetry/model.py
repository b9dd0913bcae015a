"""Span trees derived from the analytic pipeline timing model.

The batched executors run each stage's whole batch in one SIMD sweep,
so their *live* clocks do not show the overlapped steady-state schedule
of paper Sec. IV-A.  This module rebuilds that schedule as a span tree
from :class:`~repro.karatsuba.cost.DesignCost`: job *j* enters
stage *s* at ``j * II + sum(latencies[:s])`` where ``II`` is the
initiation interval (the bottleneck stage latency) — the classic
modulo schedule, valid because ``II >= latency[s]`` for every stage.

The resulting tree is exact by construction: the root span of
:func:`bank_spans` ends at
:meth:`~repro.karatsuba.bank.BankTiming.makespan_cc`, which the
acceptance tests assert cycle-for-cycle.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.karatsuba.cost import DesignCost
from repro.telemetry.spans import Span

__all__ = ["pipeline_spans", "bank_spans"]


def pipeline_spans(
    timing: DesignCost,
    jobs: int,
    track: str = "way0",
    t0: int = 0,
    depth: int = 2,
) -> List[Span]:
    """Per-job spans (with stage children) for one pipelined way.

    Job *j* spans ``[t0 + j*II, t0 + j*II + latency_cc]``; its stage
    children, named after the record's stages, tile that interval
    back-to-back.  The last job ends
    at ``t0 + makespan_cc(jobs)`` exactly.
    """
    interval = timing.bottleneck_cc
    spans: List[Span] = []
    for job in range(jobs):
        begin = t0 + job * interval
        job_span = Span(
            f"job{job}",
            begin_cc=begin,
            end_cc=begin + timing.latency_cc,
            track=track,
            attrs={"width": timing.n_bits, "depth": depth, "job": job},
        )
        offset = begin
        for name, latency in zip(timing.stage_names, timing.stage_latencies):
            job_span.children.append(
                Span(
                    name,
                    begin_cc=offset,
                    end_cc=offset + latency,
                    track=track,
                    attrs={"width": timing.n_bits, "depth": depth, "job": job},
                )
            )
            offset += latency
        spans.append(job_span)
    return spans


def bank_spans(
    timing: DesignCost,
    per_way_jobs: Sequence[int],
    depth: int = 2,
) -> Span:
    """Model span tree of a bank draining ``per_way_jobs`` in parallel.

    Returns a root ``bank`` span covering ``[0, makespan]`` where the
    makespan is the fullest way's pipelined drain time — identical to
    :meth:`BankTiming.makespan_cc` under the balanced assignment of
    :meth:`MultiplierBank.run_stream`.
    """
    total = sum(per_way_jobs)
    makespan = max(
        (timing.makespan_cc(jobs) for jobs in per_way_jobs if jobs),
        default=0,
    )
    root = Span(
        "bank",
        begin_cc=0,
        end_cc=makespan,
        track="bank",
        attrs={
            "width": timing.n_bits,
            "depth": depth,
            "ways": len(per_way_jobs),
            "jobs": total,
        },
    )
    for way, jobs in enumerate(per_way_jobs):
        track = f"way{way}"
        way_span = Span(
            track,
            begin_cc=0,
            end_cc=timing.makespan_cc(jobs),
            track=track,
            attrs={"width": timing.n_bits, "jobs": jobs, "way": track},
        )
        way_span.children.extend(
            pipeline_spans(timing, jobs, track=track, depth=depth)
        )
        root.children.append(way_span)
    return root
