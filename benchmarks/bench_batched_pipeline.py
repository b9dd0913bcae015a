"""Benchmark: batched SIMD executor vs job-by-job scalar execution.

The batched engines exist for one reason — to make the simulator's hot
path keep up with the row-parallel hardware it models.  Seven perf-smoke
checks live here:

* ``test_batched_run_stream_speedup`` replays the acceptance workload
  (32 jobs at n = 256 through ``run_stream``) both ways, asserts
  bit-identical products against Python integer multiplication, and
  asserts the batched path is at least 8x faster than the scalar
  oracle run job by job (``backend="scalar"``, ``batch_size=1``).
* ``test_word_backend_speedup`` replays the n = 256 stage mega-programs
  over a 64-lane batch on the word backend and on the scalar oracle
  (one scalar pass per lane) and asserts the word-packed engine is at
  least 460x faster with bit-identical per-lane results: switching
  energy is one ``int.bit_count`` per event at every lane count, with
  no per-lane count to flush.  The replay
  itself is measured (not ``run_stream`` wall clock) because program
  compilation and the closed-form multiply stage are
  backend-independent and would dilute the comparison.
* ``test_narrow_batch_replay_speedup`` replays the same mega-programs
  on the word backend over 3 and 4 lanes and over 64 lanes and asserts
  each narrow replay is at least 5x faster, with its results
  bit-identical to the first lanes of the 64-lane run: packed rows are
  exactly ``batch * cols`` bits, lane by lane, and operands pack and
  results unpack with a shift per lane, so replay cost follows the
  lanes a batch actually uses, also when the batch is not a power of
  two.
* ``test_one_lane_replay_speedup`` does the same at one lane and
  asserts it is at least 5x faster than 64 lanes, with results
  bit-identical to lane 0 of the 64-lane run: a one-lane replay packs
  no operands, and its rows are 64 times narrower.
* ``test_one_lane_oracle_speedup`` replays the same mega-programs at
  one lane on the word backend and on the scalar oracle and asserts
  the word replay is at least 59x faster with bit-identical results.
  The 64-lane comparisons above speed up with the word backend's
  per-gate loop too, so only this one catches a slower one-lane gate
  step.
* ``test_wear_leveled_batch_speedup`` runs a 4-job n = 256
  ``KaratsubaController.run_jobs_batch`` (``optimize=True``) and a
  1-job batch and asserts the 4-job batch costs at most 1/2.5 of the
  1-job batch per job, with bit-exact products: the two wear-leveling
  groups of a batch (the even and the odd jobs) share one replay per
  MAGIC unit, so a narrow batch pays for one replay per stage, not
  two.
* ``test_rowmul_lane_parallel_speedup`` runs the n = 256 multiply
  stage (m = 66 rows, 64 jobs x 9 rows) as one bit-sliced lock-step
  pass and as one row-multiplier call per product, and asserts the
  batched stage is at least 4x faster with identical products.

Runs under pytest (``pytest benchmarks/bench_batched_pipeline.py``)
and as a script (``python benchmarks/bench_batched_pipeline.py``),
which exits non-zero when a speedup floor is missed — the CI perf
smoke check.
"""

from __future__ import annotations

import random
import sys
import time

from repro.eval.report import format_table
from repro.arith.rowmul import RowMultiplier, RowMultiplierSpec
from repro.karatsuba.controller import KaratsubaController
from repro.karatsuba.multiply import MultiplicationStage
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.karatsuba.postcompute import PostcomputeStage
from repro.karatsuba.precompute import PrecomputeStage
from repro.magic.backend import get_backend
from repro.sim.clock import Clock

#: Acceptance workload: one full batch at the paper's flagship width.
N_BITS = 256
JOBS = 32
BATCH_SIZE = 32

#: Required advantage of the batched path over the scalar oracle run
#: job by job.
MIN_SPEEDUP = 8.0

#: Lanes for the backend shoot-out.
BACKEND_LANES = 64

#: Required advantage of the word-packed replay over the scalar oracle
#: on the 64-lane n = 256 stage mega-programs.
MIN_ORACLE_SPEEDUP = 460

#: Timing repetitions per measurement; best-of is reported so scheduler
#: noise cannot fail a floor.
BACKEND_REPS = 3

#: Repetitions of the word replay against the oracle.  The oracle is
#: timed best-of-:data:`BACKEND_REPS` too: timed once, its noise alone
#: spread the ratio wider than the gain the floor guards.
ORACLE_WORD_REPS = 20

#: Lane counts of the narrow word-backend replay: a batch that is not a
#: power of two, and one that is.
NARROW_LANES = (3, 4)

#: Required advantage of each narrow replay over the 64-lane replay of
#: the n = 256 stage mega-programs on the word backend.
MIN_NARROW_SPEEDUP = 5.0

#: Required advantage of the one-lane replay over the 64-lane replay of
#: the same mega-programs.
MIN_ONE_LANE_SPEEDUP = 5

#: Required advantage of the one-lane word replay over the one-lane
#: scalar oracle replay of the same mega-programs.
MIN_ONE_LANE_ORACLE_SPEEDUP = 59

#: Timing repetitions of the narrow-batch comparison (sub-10 ms each).
NARROW_REPS = 40

#: Jobs in the narrow wear-leveled controller batch: two per wear state.
WEAR_JOBS = 4

#: Required per-job advantage of a :data:`WEAR_JOBS`-job controller
#: batch over a 1-job batch.
MIN_WEAR_BATCH_SPEEDUP = 2.5

#: Timing repetitions of the wear-leveled batch comparison (~1-2 ms
#: each), the two batch sizes interleaved.
WEAR_REPS = 60

#: Jobs in the lock-step multiply-stage batch (9 rows each).
ROWMUL_JOBS = 64

#: Required advantage of the bit-sliced lock-step multiply stage over
#: one row-multiplier call per sub-product.
MIN_ROWMUL_SPEEDUP = 4.0


def _measure(batch_size, backend="word"):
    rng = random.Random(0xD47E)
    pairs = [
        (rng.randrange(2**N_BITS), rng.randrange(2**N_BITS))
        for _ in range(JOBS)
    ]
    pipeline = KaratsubaPipeline(N_BITS, backend=backend)
    begin = time.perf_counter()
    result = pipeline.run_stream(pairs, batch_size=batch_size)
    elapsed = time.perf_counter() - begin
    assert result.products == [a * b for a, b in pairs]
    return elapsed, result, pipeline


def run_bench():
    seq_seconds, seq_result, seq_pipeline = _measure(1, backend="scalar")
    bat_seconds, bat_result, bat_pipeline = _measure(BATCH_SIZE)
    speedup = seq_seconds / bat_seconds

    assert seq_result.products == bat_result.products
    assert seq_result.makespan_cc == bat_result.makespan_cc
    assert (
        seq_pipeline.controller.total_energy_fj()
        == bat_pipeline.controller.total_energy_fj()
    )
    assert (
        seq_pipeline.controller.max_writes()
        == bat_pipeline.controller.max_writes()
    )

    rows = [
        ("scalar oracle (x1)", f"{seq_seconds:.3f}", f"{seq_seconds / JOBS * 1e3:.1f}"),
        ("batched (SIMD x32)", f"{bat_seconds:.3f}", f"{bat_seconds / JOBS * 1e3:.1f}"),
    ]
    table = format_table(
        ("path", "wall s", "ms/job"),
        rows,
        title=(
            f"Batched executor, {JOBS} jobs at n = {N_BITS}: "
            f"{speedup:.1f}x speedup (floor {MIN_SPEEDUP:.0f}x)"
        ),
    )
    return speedup, table


def _stage_workloads():
    """The n = 256 stage mega-programs with 64 random binding sets."""
    workloads = []
    for label, stage in (
        ("precompute", PrecomputeStage(N_BITS)),
        ("postcompute", PostcomputeStage(N_BITS)),
    ):
        program = stage._mega_programs[0]
        compiled = stage.executor.compile(program)
        rng = random.Random(0xB0BA)
        widths = dict(compiled.write_specs)
        bindings = [
            {
                name: rng.randrange(2 ** min(widths[name], 60))
                for name in widths
            }
            for _ in range(BACKEND_LANES)
        ]
        workloads.append((label, stage, compiled, bindings))
    return workloads


def _replay(backend, stage, compiled, bindings, reps=BACKEND_REPS):
    """Best-of-*reps* replay time plus per-lane results."""
    best = float("inf")
    results = None
    for _ in range(reps):
        array = backend.make_array(stage.array, len(bindings))
        array.reset_to_ones()
        executor = backend.make_executor(array, clock=Clock())
        begin = time.perf_counter()
        stats = executor.execute(compiled, bindings)
        best = min(best, time.perf_counter() - begin)
        lane_results = [s.results for s in stats]
        assert results is None or results == lane_results
        results = lane_results
    return best, results


def run_backend_bench():
    scalar = get_backend("scalar")
    word = get_backend("word")
    rows = []
    sc_total = wd_total = 0.0
    for label, stage, compiled, bindings in _stage_workloads():
        sc_seconds, sc_results = _replay(scalar, stage, compiled, bindings)
        wd_seconds, wd_results = _replay(
            word, stage, compiled, bindings, ORACLE_WORD_REPS
        )
        assert sc_results == wd_results, f"{label}: backend results diverge"
        sc_total += sc_seconds
        wd_total += wd_seconds
        rows.append(
            (
                label,
                f"{sc_seconds * 1e3:.1f}",
                f"{wd_seconds * 1e3:.1f}",
                f"{sc_seconds / wd_seconds:.0f}x",
            )
        )
    speedup = sc_total / wd_total
    rows.append(
        (
            "combined",
            f"{sc_total * 1e3:.1f}",
            f"{wd_total * 1e3:.1f}",
            f"{speedup:.0f}x",
        )
    )
    table = format_table(
        ("stage replay", "scalar oracle ms", "word ms", "speedup"),
        rows,
        title=(
            f"Word-packed backend, {BACKEND_LANES} lanes at n = {N_BITS}: "
            f"{speedup:.0f}x speedup over the scalar oracle "
            f"(floor {MIN_ORACLE_SPEEDUP}x)"
        ),
    )
    return speedup, table


def run_narrow_bench(lanes=NARROW_LANES, floor=MIN_NARROW_SPEEDUP):
    """Each lane count of *lanes* against 64 lanes; returns the smallest
    combined speedup and the table."""
    word = get_backend("word")
    workloads = _stage_workloads()
    wide = [
        _replay(word, stage, compiled, bindings, NARROW_REPS)
        for _, stage, compiled, bindings in workloads
    ]
    wide_total = sum(seconds for seconds, _ in wide)
    rows = []
    speedups = []
    for count in lanes:
        narrow_total = 0.0
        for (label, stage, compiled, bindings), (wide_seconds, wide_results) in zip(
            workloads, wide
        ):
            narrow_seconds, narrow_results = _replay(
                word, stage, compiled, bindings[:count], NARROW_REPS
            )
            assert narrow_results == wide_results[:count], (
                f"{label}: {count}-lane results diverge from "
                f"{BACKEND_LANES} lanes"
            )
            narrow_total += narrow_seconds
            rows.append(
                (
                    f"{label}, {count} lanes",
                    f"{wide_seconds * 1e3:.2f}",
                    f"{narrow_seconds * 1e3:.2f}",
                    f"{wide_seconds / narrow_seconds:.1f}x",
                )
            )
        speedups.append(wide_total / narrow_total)
        rows.append(
            (
                f"combined, {count} lanes",
                f"{wide_total * 1e3:.2f}",
                f"{narrow_total * 1e3:.2f}",
                f"{speedups[-1]:.1f}x",
            )
        )
    speedup = min(speedups)
    counts = "/".join(str(count) for count in lanes)
    table = format_table(
        ("stage replay", f"{BACKEND_LANES} lanes ms", "narrow ms", "speedup"),
        rows,
        title=(
            f"Word backend, {counts} vs {BACKEND_LANES} lanes at "
            f"n = {N_BITS}: {speedup:.1f}x slowest speedup "
            f"(floor {floor}x)"
        ),
    )
    return speedup, table


def run_one_lane_oracle_bench():
    scalar = get_backend("scalar")
    word = get_backend("word")
    rows = []
    sc_total = wd_total = 0.0
    for label, stage, compiled, bindings in _stage_workloads():
        sc_seconds, sc_results = _replay(scalar, stage, compiled, bindings[:1])
        wd_seconds, wd_results = _replay(
            word, stage, compiled, bindings[:1], NARROW_REPS
        )
        assert sc_results == wd_results, f"{label}: one-lane results diverge"
        sc_total += sc_seconds
        wd_total += wd_seconds
        rows.append(
            (
                label,
                f"{sc_seconds * 1e3:.2f}",
                f"{wd_seconds * 1e3:.2f}",
                f"{sc_seconds / wd_seconds:.0f}x",
            )
        )
    speedup = sc_total / wd_total
    rows.append(
        (
            "combined",
            f"{sc_total * 1e3:.2f}",
            f"{wd_total * 1e3:.2f}",
            f"{speedup:.0f}x",
        )
    )
    table = format_table(
        ("stage replay", "scalar oracle ms", "word ms", "speedup"),
        rows,
        title=(
            f"Word backend, one lane at n = {N_BITS}: {speedup:.0f}x "
            f"speedup over the scalar oracle "
            f"(floor {MIN_ONE_LANE_ORACLE_SPEEDUP}x)"
        ),
    )
    return speedup, table


def run_wear_batch_bench():
    """Per-job time of a :data:`WEAR_JOBS`-job batch against a 1-job
    batch through one controller; returns the speedup and the table."""
    rng = random.Random(0x3EA2)
    pairs = [
        (rng.getrandbits(N_BITS), rng.getrandbits(N_BITS))
        for _ in range(WEAR_JOBS)
    ]
    controller = KaratsubaController(N_BITS, optimize=True)
    best = {1: float("inf"), WEAR_JOBS: float("inf")}
    for _ in range(WEAR_REPS):
        for jobs in best:
            batch = pairs[:jobs]
            begin = time.perf_counter()
            records = controller.run_jobs_batch(batch)
            best[jobs] = min(best[jobs], time.perf_counter() - begin)
            assert [r.product for r in records] == [a * b for a, b in batch]
    per_job = best[WEAR_JOBS] / WEAR_JOBS
    speedup = best[1] / per_job
    table = format_table(
        ("controller batch", "wall ms", "ms/job"),
        [
            ("1 job", f"{best[1] * 1e3:.2f}", f"{best[1] * 1e3:.2f}"),
            (
                f"{WEAR_JOBS} jobs (both wear states)",
                f"{best[WEAR_JOBS] * 1e3:.2f}",
                f"{per_job * 1e3:.2f}",
            ),
        ],
        title=(
            f"Wear-leveled batch, {WEAR_JOBS} vs 1 job at n = {N_BITS}: "
            f"{speedup:.2f}x per-job speedup "
            f"(floor {MIN_WEAR_BATCH_SPEEDUP}x)"
        ),
    )
    return speedup, table


def run_rowmul_bench():
    stage = MultiplicationStage(N_BITS)
    rng = random.Random(0x66)
    names = {name for _, lhs, rhs in stage.steps for name in (lhs, rhs)}
    jobs = [
        {name: rng.getrandbits(stage.width) for name in names}
        for _ in range(ROWMUL_JOBS)
    ]
    loop_best = batch_best = float("inf")
    for _ in range(BACKEND_REPS):
        rows = {out: RowMultiplier(RowMultiplierSpec(stage.width))
                for out, _, _ in stage.steps}
        begin = time.perf_counter()
        looped = [
            {out: rows[out].multiply(ops[lhs], ops[rhs])
             for out, lhs, rhs in stage.steps}
            for ops in jobs
        ]
        loop_best = min(loop_best, time.perf_counter() - begin)
        begin = time.perf_counter()
        batched = MultiplicationStage(N_BITS).process_batch(jobs)
        batch_best = min(batch_best, time.perf_counter() - begin)
        assert [r.products for r in batched] == looped
    speedup = loop_best / batch_best
    products = ROWMUL_JOBS * len(stage.steps)
    table = format_table(
        ("multiply stage", "wall ms", "us/product"),
        [
            ("per-product loop", f"{loop_best * 1e3:.1f}",
             f"{loop_best / products * 1e6:.1f}"),
            ("lock-step batch", f"{batch_best * 1e3:.1f}",
             f"{batch_best / products * 1e6:.1f}"),
        ],
        title=(
            f"Bit-sliced row multipliers, {ROWMUL_JOBS} jobs x "
            f"{len(stage.steps)} rows at m = {stage.width}: {speedup:.1f}x "
            f"speedup (floor {MIN_ROWMUL_SPEEDUP:.0f}x)"
        ),
    )
    return speedup, table


def _register(name, table):
    try:
        from benchmarks.conftest import register_report

        register_report(name, table)
    except ImportError:  # script mode, no harness
        pass


def test_batched_run_stream_speedup():
    speedup, table = run_bench()
    _register("batched-pipeline", table)
    assert speedup >= MIN_SPEEDUP, (
        f"batched run_stream only {speedup:.2f}x faster than the scalar "
        f"oracle job by job "
        f"(needs >= {MIN_SPEEDUP}x)"
    )


def test_word_backend_speedup():
    speedup, table = run_backend_bench()
    _register("word-backend", table)
    assert speedup >= MIN_ORACLE_SPEEDUP, (
        f"word-packed replay only {speedup:.2f}x faster than the scalar "
        f"oracle (needs >= {MIN_ORACLE_SPEEDUP}x)"
    )


def test_narrow_batch_replay_speedup():
    speedup, table = run_narrow_bench()
    _register("narrow-batch", table)
    assert speedup >= MIN_NARROW_SPEEDUP, (
        f"a {NARROW_LANES}-lane replay only {speedup:.2f}x faster than "
        f"{BACKEND_LANES} lanes (needs >= {MIN_NARROW_SPEEDUP}x)"
    )


def test_one_lane_replay_speedup():
    speedup, table = run_narrow_bench((1,), MIN_ONE_LANE_SPEEDUP)
    _register("one-lane", table)
    assert speedup >= MIN_ONE_LANE_SPEEDUP, (
        f"one-lane replay only {speedup:.2f}x faster than "
        f"{BACKEND_LANES} lanes (needs >= {MIN_ONE_LANE_SPEEDUP}x)"
    )


def test_one_lane_oracle_speedup():
    speedup, table = run_one_lane_oracle_bench()
    _register("one-lane-oracle", table)
    assert speedup >= MIN_ONE_LANE_ORACLE_SPEEDUP, (
        f"one-lane word replay only {speedup:.2f}x faster than the "
        f"one-lane scalar oracle (needs >= {MIN_ONE_LANE_ORACLE_SPEEDUP}x)"
    )


def test_wear_leveled_batch_speedup():
    speedup, table = run_wear_batch_bench()
    _register("wear-batch", table)
    assert speedup >= MIN_WEAR_BATCH_SPEEDUP, (
        f"a {WEAR_JOBS}-job batch only {speedup:.2f}x faster per job than "
        f"a 1-job batch (needs >= {MIN_WEAR_BATCH_SPEEDUP}x)"
    )


def test_rowmul_lane_parallel_speedup():
    speedup, table = run_rowmul_bench()
    _register("rowmul-lanes", table)
    assert speedup >= MIN_ROWMUL_SPEEDUP, (
        f"lock-step multiply stage only {speedup:.2f}x faster than the "
        f"per-product loop (needs >= {MIN_ROWMUL_SPEEDUP}x)"
    )


if __name__ == "__main__":
    failed = False
    for measured, report, floor, name in (
        (*run_bench(), MIN_SPEEDUP, "batched"),
        (*run_backend_bench(), MIN_ORACLE_SPEEDUP, "word backend"),
        (*run_narrow_bench(), MIN_NARROW_SPEEDUP, "narrow batch"),
        (*run_narrow_bench((1,), MIN_ONE_LANE_SPEEDUP), MIN_ONE_LANE_SPEEDUP,
         "one lane"),
        (*run_one_lane_oracle_bench(), MIN_ONE_LANE_ORACLE_SPEEDUP,
         "one lane vs oracle"),
        (*run_wear_batch_bench(), MIN_WEAR_BATCH_SPEEDUP,
         "wear-leveled batch"),
        (*run_rowmul_bench(), MIN_ROWMUL_SPEEDUP, "row multiplier"),
    ):
        print(report)
        if measured < floor:
            print(f"FAIL: {name} speedup {measured:.2f}x below floor {floor}x")
            failed = True
        else:
            print(f"OK: {name} speedup {measured:.2f}x")
    sys.exit(1 if failed else 0)
