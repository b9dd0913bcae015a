"""Synthetic workload traces for accelerator-level studies.

The paper motivates CIM with data-intensive cryptographic workloads;
this module generates representative multiplication *traces* —
sequences of operand pairs with realistic value distributions — and
replays them through the reproduction's timing models:

* **FHE trace** — streams of 64-bit RNS limb products (uniform
  residues, occasional small twiddle constants);
* **ZKP trace** — 384-bit field products as an MSM inner loop would
  issue them (uniform field elements, bursts per bucket);
* **mixed trace** — interleaved widths, exercising the heterogeneous
  event simulation where the closed-form pipeline model does not apply.

Replay reports makespan, utilisation, and achieved throughput over a
:class:`~repro.karatsuba.bank.MultiplierBank` or the event simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.karatsuba import cost
from repro.karatsuba.eventsim import simulate
from repro.sim.exceptions import DesignError


@dataclass(frozen=True)
class TraceItem:
    """One multiplication job: operand width plus the operands."""

    n_bits: int
    a: int
    b: int


@dataclass(frozen=True)
class ReplayResult:
    """Timing outcome of replaying a trace."""

    jobs: int
    makespan_cc: int
    throughput_per_mcc: float
    stage_utilisation: Tuple[float, float, float]


def fhe_limb_trace(
    jobs: int, seed: int = 0xF8E, small_constant_fraction: float = 0.25
) -> List[TraceItem]:
    """64-bit limb products; a fraction multiplies by small twiddles."""
    if jobs < 0:
        raise DesignError("job count must be non-negative")
    rng = random.Random(seed)
    trace: List[TraceItem] = []
    for _ in range(jobs):
        a = rng.getrandbits(64)
        if rng.random() < small_constant_fraction:
            b = rng.getrandbits(16)          # twiddle-like constant
        else:
            b = rng.getrandbits(64)
        trace.append(TraceItem(n_bits=64, a=a, b=b))
    return trace


def zkp_field_trace(jobs: int, seed: int = 0x2E9) -> List[TraceItem]:
    """384-bit field products (uniform, as Pippenger buckets issue)."""
    if jobs < 0:
        raise DesignError("job count must be non-negative")
    rng = random.Random(seed)
    return [
        TraceItem(n_bits=384, a=rng.getrandbits(381), b=rng.getrandbits(381))
        for _ in range(jobs)
    ]


def mixed_trace(jobs: int, seed: int = 0x313) -> List[TraceItem]:
    """Random interleave of FHE-width and ZKP-width jobs."""
    return width_mix_trace(jobs, (64, 128, 256, 384), seed=seed)


def width_mix_trace(
    jobs: int, widths: Tuple[int, ...], seed: int = 0x313
) -> List[TraceItem]:
    """Random interleave of uniform jobs over an explicit width set.

    The portfolio benchmarks use this to build loads that hit both
    tuned bucket widths and off-grid widths (``n % 4 != 0``) only the
    Toom-3 / schoolbook designs can serve.
    """
    if jobs < 0:
        raise DesignError("job count must be non-negative")
    if not widths:
        raise DesignError("need at least one operand width")
    rng = random.Random(seed)
    trace: List[TraceItem] = []
    for _ in range(jobs):
        width = rng.choice(tuple(widths))
        trace.append(
            TraceItem(
                n_bits=width,
                a=rng.getrandbits(width),
                b=rng.getrandbits(width),
            )
        )
    return trace


def replay(trace: List[TraceItem]) -> ReplayResult:
    """Replay a trace through the event-driven pipeline model.

    A reconfigurable datapath processes jobs in order; each job's
    per-stage latencies follow its width (the paper's design is
    fixed-width, so a mixed trace models the widest-provisioned array
    running narrower operands at their own stage costs).
    """
    if not trace:
        return ReplayResult(
            jobs=0, makespan_cc=0, throughput_per_mcc=0.0,
            stage_utilisation=(0.0, 0.0, 0.0),
        )
    latencies = [
        cost.design_cost(item.n_bits, 2).stage_latencies for item in trace
    ]
    result = simulate(latencies)
    makespan = result.makespan_cc
    busy = [0, 0, 0]
    for triple in latencies:
        for stage in range(3):
            busy[stage] += triple[stage]
    utilisation = tuple(
        min(1.0, b / makespan) if makespan else 0.0 for b in busy
    )
    return ReplayResult(
        jobs=len(trace),
        makespan_cc=makespan,
        throughput_per_mcc=len(trace) * 1e6 / makespan if makespan else 0.0,
        stage_utilisation=utilisation,
    )


def render(jobs: int = 32) -> str:
    """Workload summary table for the three trace families."""
    from repro.eval.report import format_table

    rows = []
    for name, trace in (
        ("fhe-64b", fhe_limb_trace(jobs)),
        ("zkp-384b", zkp_field_trace(jobs)),
        ("mixed", mixed_trace(jobs)),
    ):
        result = replay(trace)
        rows.append(
            (
                name,
                result.jobs,
                result.makespan_cc,
                round(result.throughput_per_mcc, 1),
                " / ".join(f"{u:.0%}" for u in result.stage_utilisation),
            )
        )
    return format_table(
        ("trace", "jobs", "makespan cc", "tput/Mcc", "stage utilisation"),
        rows,
        title="Workload replay through the pipelined datapath",
    )
