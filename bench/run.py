"""Run one benchmark workload in this process and print its result.

    python3 bench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is pure Python under
``src/`` and needs no build.  The process:

1. sets up (imports, construction, warm-up) and times it; fresh child
   processes repeat only the set-up, and ``setup_s`` is the median of
   ``--setup-samples`` set-ups;
2. serves the inputs — a fixed schedule with seeded operand values —
   in passes until the next pass would end after ``--seconds``, and
   at least once.  Every pass serves the same
   inputs, and each later pass must reproduce the first pass's
   cycle-clock outcome bit for bit;
3. checks every result against a Python oracle, outside the timed
   phase.

``--trace 0`` prints the end-to-end metrics ``BENCHMARK.json`` lists;
``--trace 1`` instead alternates untraced and traced passes and prints
the per-layer metrics, and with ``--trace-dir`` writes a
Chrome/Perfetto trace plus ``<workload>.layers.json`` there.  The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when a result is
wrong, a cycle-clock statistic does not repeat, or ``src/repro`` is
missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.metrics import CATALOGUE, LAYER_UNITS, SHARE_LAYERS, SPEC, applies, percentile  # noqa: E402
from bench.tracing import SpanTracer  # noqa: E402

# bench.workloads and bench.calibrate import repro and numpy, whose
# import time belongs to setup_s, so they are imported inside functions.

#: Calibrations whose median scales ``setup_s``: one set-up is a single
#: ~1 s stretch, so one ~7 ms probe would decide it alone.
SETUP_PROBES = 5


class PassTimer:
    """Host time of a pass's ``with timer():`` blocks.

    ``seconds`` is raw wall time.  When constructed with the latest
    calibration ``cal_s``, the calibration kernel also runs after every
    block that closes a stretch of at least ``STRETCH_S`` timed seconds,
    and ``reference_seconds`` adds each stretch scaled by ``REFERENCE_S``
    over the mean calibration on either side of it.  Under tracing each
    block is a ``bench.pass`` root span.
    """

    STRETCH_S = 0.1

    def __init__(self, tracer=None, cal_s: Optional[float] = None):
        self.tracer = tracer
        self.cal_s = cal_s
        self.seconds = 0.0
        self.reference_seconds = 0.0
        self._stretch = 0.0

    @contextmanager
    def __call__(self) -> Iterator[None]:
        with self.tracer.root("bench.pass") if self.tracer else nullcontext():
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.seconds += elapsed
                self._stretch += elapsed
        if self.cal_s is not None and self._stretch >= self.STRETCH_S:
            self.calibrate()

    def finish(self) -> None:
        """Calibrate after the pass's last stretch, if it is not yet."""
        if self.cal_s is not None and self._stretch:
            self.calibrate()

    def calibrate(self) -> None:
        from bench.calibrate import REFERENCE_S, calibration_s

        cal_s = calibration_s()
        self.reference_seconds += self._stretch * REFERENCE_S * 2 / (self.cal_s + cal_s)
        self.cal_s = cal_s
        self._stretch = 0.0


def one_pass(workload, inputs, tracer=None, cal_s: Optional[float] = None):
    """Serve and score one pass; returns the result and the latest
    calibration (``None`` when not calibrating)."""
    timer = PassTimer(tracer, cal_s)
    if tracer is not None:
        tracer.install()
    try:
        raw = workload.run(inputs, timer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    timer.finish()
    result = workload.score(inputs, raw)
    result.host_s = timer.seconds
    result.reference_s = timer.reference_seconds
    return result, timer.cal_s


def timed_passes(workload, seconds: float):
    """Passes until the next would end after *seconds*; returns them
    with the indices whose cycle-clock outcome failed to repeat."""
    from bench.calibrate import calibration_s

    inputs = workload.inputs()
    passes, mismatches = [], []
    start = time.perf_counter()
    cal_s = calibration_s()
    while True:
        began = time.perf_counter()
        result, cal_s = one_pass(workload, inputs, cal_s=cal_s)
        if passes and result.fingerprint() != passes[0].fingerprint():
            mismatches.append(len(passes))
        passes.append(result)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes, mismatches


def cycle_metrics(workload, first) -> Dict[str, float]:
    """Cycle-clock end-to-end metrics of the first pass."""
    rungs = first.rungs
    jobs = sum(r.jobs for r in rungs)
    metrics = {
        "mults_per_mcc": jobs * 1e6 / sum(r.busy_cc for r in rungs),
        "error_rate": sum(r.errors for r in rungs) / sum(r.offered for r in rungs),
    }
    if all(r.energy_fj is not None for r in rungs):
        metrics["energy_fj_per_op"] = sum(r.energy_fj for r in rungs) / jobs
    if workload.ladder:
        nominal = rungs[workload.nominal]
        metrics["p50_cc"] = percentile(nominal.latencies, 0.50)
        metrics["p90_cc"] = percentile(nominal.latencies, 0.90)
        metrics["p99_cc"] = percentile(nominal.latencies, 0.99)
        metrics["miss_rate"] = (nominal.late + nominal.errors) / nominal.offered
        if workload.slo_cc:
            metrics["slo_rate_per_mcc"] = max(
                (
                    1e6 / gap
                    for gap, rung in zip(workload.ladder, rungs)
                    if _meets_slo(rung, workload.slo_cc)
                ),
                default=0.0,
            )
    metrics.update(workload.extra_metrics())
    return metrics


def _meets_slo(rung, slo_cc: int) -> bool:
    return (
        percentile(rung.latencies, 0.99) <= slo_cc
        and rung.late + rung.errors <= 0.01 * rung.offered
        and not rung.errors
        and rung.backlog_cc <= slo_cc
    )


def layer_metrics(workload, traced, breakdown, overhead: float, absent_layers) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see ``BENCHMARK.json``)."""
    from bench.workloads import BATCH_SIZE, merge_counts

    counts: Dict[str, float] = {}
    waits: List[int] = []
    execs: List[int] = []
    timings = {}
    for rung in traced.rungs:
        merge_counts(counts, rung.counts)
        waits += rung.queue_wait_cc
        execs += rung.exec_cc
        timings.update(rung.timings)

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    calls = breakdown.calls.get("magic.execute", 0)
    batches = counts.get("batches", 0)
    requests = sum(rung.offered for rung in traced.rungs)
    metrics = {
        f"{layer}_share": breakdown.share(layer)
        for layer in SHARE_LAYERS
        if layer not in absent_layers
    }
    metrics.update({
        "magic.execute_calls": calls,
        "magic.lanes_per_execute": breakdown.lanes / calls if calls else 0.0,
        "magic.ns_per_lane_cc": (
            breakdown.self_ns.get("magic.execute", 0) / breakdown.lane_cc
            if breakdown.lane_cc else 0.0
        ),
        "crossbar.max_writes": counts.get("max_writes", 0),
        "reliability.residue_checks_per_op": counts.get("residue_checks", 0) / traced.ops,
        "reliability.detections": counts.get("detections", 0),
        "service.batches": batches,
        "service.occupancy": (
            counts.get("occupancy_sum", 0) / batches / BATCH_SIZE if batches else 0.0
        ),
        "service.queue_wait_cc.p50": percentile(waits, 0.50) if waits else 0,
        "service.queue_wait_cc.p99": percentile(waits, 0.99) if waits else 0,
        "service.exec_cc.p50": percentile(execs, 0.50) if execs else 0,
        "service.exec_cc.p99": percentile(execs, 0.99) if execs else 0,
        "service.operand_cache_hit_rate": ratio("operand_hits", "operand_lookups"),
        "service.compile_cache_hit_rate": ratio("compile_hits", "compile_lookups"),
        "service.retries": counts.get("retries", 0),
        "frontend.redispatches": counts.get("redispatches", 0),
        "frontend.breaker_opens": counts.get("breaker_opens", 0),
        "workloads.context_hit_rate": ratio("context_hits", "context_lookups"),
        "workloads.passes_per_req": counts.get("passes", 0) / requests,
        "workloads.waves_per_req": counts.get("waves", 0) / requests,
        "trace.overhead": overhead,
        "trace.coverage": breakdown.coverage,
    })
    for algorithm in ("schoolbook", "karatsuba", "toom3"):
        metrics[f"portfolio.routes.{algorithm}"] = counts.get(f"route_{algorithm}", 0)
    for reason in ("full", "timeout", "deadline", "drain"):
        metrics[f"service.flush.{reason}"] = counts.get(f"flush_{reason}", 0)
    # Workload-specific names: layers.json only, not BENCHMARK.json.
    for key, (latency, bottleneck) in sorted(timings.items()):
        metrics[f"datapath.latency_cc.{key}"] = latency
        metrics[f"datapath.bottleneck_cc.{key}"] = bottleneck
    if "nor_cycles" in counts:
        metrics["datapath.nor_cycles_per_op"] = counts["nor_cycles"] / traced.ops
    return metrics


def setup_process(args) -> tuple:
    """Imports, construction and warm-up; returns the workload and the
    set-up time in reference seconds, calibrated by the median of
    ``SETUP_PROBES`` calibrations right after."""
    started = time.perf_counter()
    from bench import workloads

    imported = time.perf_counter()
    workload = workloads.make(args.workload, args.seed, args.quick)
    built = time.perf_counter()
    workload.setup()
    seconds = (imported - started) + (time.perf_counter() - built)
    from bench.calibrate import REFERENCE_S, calibration_s

    cal_s = statistics.median(calibration_s() for _ in range(SETUP_PROBES))
    return workload, seconds * REFERENCE_S / cal_s


def setup_samples(args, own: float) -> List[float]:
    """*own* plus the set-up time of fresh child processes."""
    samples = [own]
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ] + (["--quick"] if args.quick else [])
    for _ in range(args.setup_samples - 1):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_timed(args, workload, own_setup: float) -> Dict:
    passes, mismatches = timed_passes(workload, args.seconds)
    metrics = cycle_metrics(workload, passes[0])
    metrics["host_ops_per_s"] = statistics.median(p.ops / p.reference_s for p in passes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = setup_samples(args, own_setup)
    metrics["setup_s"] = statistics.median(samples)
    metrics = {
        name: value
        for name, value in metrics.items()
        if applies(CATALOGUE[name], workload.name)
    }
    return {
        "passes": passes,
        "mismatches": mismatches,
        "metrics": metrics,
        "extra": {
            "setup_samples": samples,
            "pass_host_s": [p.host_s for p in passes],
            "pass_reference_s": [p.reference_s for p in passes],
        },
    }


def run_traced(args, workload, tracer) -> Dict:
    inputs = workload.inputs()
    untraced, traced, mismatches = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain, _ = one_pass(workload, inputs)
        spanned, _ = one_pass(workload, inputs, tracer if not traced else SpanTracer())
        if spanned.fingerprint() != plain.fingerprint():
            mismatches.append(len(traced))
        untraced.append(plain)
        traced.append(spanned)
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:
            break
    overhead = (
        statistics.median(p.host_s for p in traced)
        / statistics.median(p.host_s for p in untraced) - 1
    )
    breakdown = tracer.layer_breakdown("bench.pass")
    metrics = layer_metrics(workload, traced[0], breakdown, overhead, tracer.absent_layers)
    layers = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": f"{workload.name}.trace.json",
        "absent": tracer.absent,
        "overhead": overhead,
        "pass": breakdown.as_dict(),
        "setup": tracer.layer_breakdown("bench.setup").as_dict(),
        "metrics": metrics,
    }
    if args.trace_dir:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome_trace(
            trace_dir / layers["trace"], f"bench {workload.name} seed {args.seed}"
        )
        (trace_dir / f"{workload.name}.layers.json").write_text(json.dumps(layers, indent=2))
    return {
        "passes": untraced + traced,
        "mismatches": mismatches,
        "metrics": metrics,
        "extra": {"layers": layers},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream", "serve-portfolio", "serve-sharded", "crypto"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", help="with --trace 1, write the trace and layers here")
    parser.add_argument("--setup-samples", type=int, default=3,
                        help="set-ups whose median is setup_s (1 = this process only)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny passes, for smoke tests; numbers not comparable")
    parser.add_argument("--report", help="also write every metric to this JSON file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    if args.trace:
        from bench import workloads

        tracer = SpanTracer()
        workload = workloads.make(args.workload, args.seed, args.quick)
        tracer.install()
        try:
            with tracer.root("bench.setup"):
                workload.setup()
        finally:
            tracer.uninstall()
        outcome = run_traced(args, workload, tracer)
        units = LAYER_UNITS
    else:
        workload, own_setup = setup_process(args)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        outcome = run_timed(args, workload, own_setup)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    return report(args, workload, outcome, units)


def report(args, workload, outcome: Dict, units: Dict[str, str]) -> int:
    """Print the result line for the metrics in *units*; the
    ``--report`` file gets every metric."""
    passes = outcome["passes"]
    attempted = sum(r.offered for p in passes for r in p.rungs)
    failed = sum(p.failed for p in passes)
    wrong = sum(p.wrong for p in passes)
    checked = sum(p.checked for p in passes)
    # The gate ran: every result that came back met the oracle.
    answered = attempted - sum(p.unanswered for p in passes)
    correct = wrong == 0 and not outcome["mismatches"] and checked == answered
    metrics = outcome["metrics"]
    if wrong:
        print(f"bench: {workload.name}: {wrong} wrong results", file=sys.stderr)
    for index in outcome["mismatches"]:
        print(f"bench: {workload.name}: pass {index} did not repeat its "
              "cycle-clock statistics", file=sys.stderr)
    if args.report:
        every_unit = dict(LAYER_UNITS)
        every_unit.update((name, m.unit) for name, m in CATALOGUE.items())
        Path(args.report).write_text(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "trace": args.trace,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "wrong": wrong,
            "oracle_checked": checked,
            "passes": len(passes),
            "determinism_mismatches": outcome["mismatches"],
            "metrics": {
                name: {"value": value, "unit": every_unit.get(name, "cc")}
                for name, value in metrics.items()
            },
            **outcome["extra"],
        }, indent=2))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
