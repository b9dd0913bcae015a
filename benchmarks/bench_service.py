"""Benchmark: service-level batching efficiency and cache behaviour.

The service layer exists to turn a stream of single multiplications
into full SIMD batches.  This bench pushes a 64-job
mixed-width stream (with repeated operand pairs in the tail and one
injected stuck-at fault) through :class:`repro.service.
MultiplicationService`, asserts every product bit-exact against Python
integer multiplication, and asserts the service actually batched
(mean batch occupancy >= 4) and actually cached (operand-cache hits
and compiled-program reuse both non-zero).

Runs under pytest (``pytest benchmarks/bench_service.py``) and as a
script (``python benchmarks/bench_service.py``), which exits non-zero
when a floor is missed — the CI perf smoke check.
"""

from __future__ import annotations

import random
import sys
import time

from repro.eval.report import format_table
from repro.service import MultiplicationService, ServiceConfig

#: Mixed-width acceptance stream.
WIDTHS = (16, 32, 64)
JOBS = 64
BATCH_SIZE = 8

#: Floors checked by CI.
MIN_OCCUPANCY = 4.0
MIN_CACHE_HITS = 1


def run_bench():
    rng = random.Random(0x5E47)
    service = MultiplicationService(
        ServiceConfig(batch_size=BATCH_SIZE, ways_per_width=2, max_wait_ticks=32)
    )
    # One silent-corruption fault in a 64-bit way: the service must
    # detect it in-band (residue self-check), remap the defective row
    # to a spare word line and replay the batch on the same way.
    faulted = service.inject_fault(64)

    expected = {}
    history = []
    begin = time.perf_counter()
    for index in range(JOBS):
        n_bits = WIDTHS[index % len(WIDTHS)]
        if index >= 48 and index % 4 == 3:
            # Tail repeats early pairs (already flushed and memoised),
            # so these are deterministic operand-cache hits.
            a, b, n_bits = history[rng.randrange(12)]
        else:
            a = rng.getrandbits(n_bits)
            b = rng.getrandbits(n_bits)
            history.append((a, b, n_bits))
        request_id = service.submit(a, b, n_bits)
        expected[request_id] = a * b
    results = service.drain()
    elapsed = time.perf_counter() - begin

    assert len(results) == JOBS
    for result in results:
        assert result.product == expected[result.request_id]

    snap = service.snapshot()
    occupancy = snap["histograms"]["batch_occupancy"]["mean"]
    batches = snap["counters"]["batches_flushed"]
    operand_hits = snap["counters"].get("operand_cache_hits", 0)
    compile_hits = snap["caches"]["compile"]["hits"]
    faults = snap["counters"].get("faults_detected", 0)
    assert faults >= 1, "injected fault was not detected"
    assert snap["counters"].get("rows_remapped", 0) >= 1, (
        "defective row was not remapped to a spare"
    )
    faulted_healthy = snap["reliability"][faulted]["healthy"]
    assert faulted_healthy, "in-place-correctable fault consumed a way"

    rows = [
        ("jobs / batches", f"{JOBS} / {batches}", ""),
        ("mean batch occupancy", f"{occupancy:.2f}", f">= {MIN_OCCUPANCY:.0f}"),
        ("operand-cache hits", f"{operand_hits}", f">= {MIN_CACHE_HITS}"),
        ("compile-cache hits", f"{compile_hits}", ">= 1"),
        ("faults recovered", f"{faults}", ">= 1"),
        ("makespan", f"{snap['service']['makespan_cc']:,} cc", ""),
        (
            "throughput",
            f"{snap['service']['throughput_per_mcc']:.1f} mult/Mcc",
            "",
        ),
        ("wall time", f"{elapsed:.3f} s", ""),
    ]
    table = format_table(
        ("metric", "value", "floor"),
        rows,
        title=(
            f"Service bench: {JOBS} mixed-width jobs "
            f"(n in {WIDTHS}, batch size {BATCH_SIZE})"
        ),
    )
    return occupancy, operand_hits, compile_hits, table


def test_service_batching_and_caching():
    occupancy, operand_hits, compile_hits, table = run_bench()
    try:
        from benchmarks.conftest import register_report

        register_report("service", table)
    except ImportError:  # script mode, no harness
        pass
    assert occupancy >= MIN_OCCUPANCY, (
        f"mean batch occupancy {occupancy:.2f} below floor {MIN_OCCUPANCY}"
    )
    assert operand_hits >= MIN_CACHE_HITS, "no operand-cache hits on repeats"
    assert compile_hits >= 1, "compiled programs were never reused"


if __name__ == "__main__":
    measured, hits, reuse, report = run_bench()
    print(report)
    failed = []
    if measured < MIN_OCCUPANCY:
        failed.append(
            f"occupancy {measured:.2f} below floor {MIN_OCCUPANCY}"
        )
    if hits < MIN_CACHE_HITS:
        failed.append("no operand-cache hits")
    if reuse < 1:
        failed.append("no compile-cache reuse")
    if failed:
        print("FAIL: " + "; ".join(failed))
        sys.exit(1)
    print(
        f"OK: occupancy {measured:.2f}, {hits} operand hits, "
        f"{reuse} compile hits"
    )
