"""Benchmark: chaos campaign against the supervised front-end.

The supervision layer exists so that a dying shard worker costs
retries, not stranded work.  This bench drives one seeded open-loop
load through the async sharded front-end under every canonical chaos
scenario — worker kill, worker hang, dropped result replies,
duplicated result replies, a seeded storm mixing them, and one hard
SIGKILL of a live worker process mid-batch — and asserts the CI
floors of the supervision contract:

* 100% of offered requests reach a terminal state: a bit-exact
  product, a typed error, or a typed rejection at admission — zero
  stranded futures, ``outstanding == 0`` and an empty journal after
  every drain;
* journaled in-flight requests from a dead shard complete on the
  survivors or the respawn (kill/hang/sigkill scenarios finish with
  every product delivered);
* the failure actually happened and was actually handled: deaths,
  restarts, redispatches and orphan absorptions are non-zero exactly
  where the scenario demands them;
* the circuit breaker cycles closed → open → half-open → closed — a
  recovered shard takes traffic again instead of staying fenced.

Scenario schedules are seeded (:func:`repro.eval.loadgen.chaos_scenario`),
so every run injects at the same command points.  Inline shards cover
the deterministic supervisor paths; the SIGKILL and hang scenarios run
real worker processes so the dead-man poll and heartbeat timeout are
exercised against a genuine corpse.

Runs under pytest (``pytest benchmarks/bench_chaos.py``) and as a
script (``python benchmarks/bench_chaos.py``), which exits non-zero
when a floor is missed — the CI chaos smoke check.
"""

from __future__ import annotations

import sys

from repro.eval import loadgen
from repro.eval.report import format_table
from repro.frontend import (
    AsyncShardedFrontend,
    FrontendConfig,
    SupervisionConfig,
)
from repro.service import ServiceConfig

JOBS = 48
MEAN_GAP_CC = 200
SHARDS = 4
BATCH = 8
SEED = 0xC4A05

#: (scenario, process shards?) — the process rows exercise the real
#: dead-man poll (SIGKILL) and heartbeat hang detection.
SCENARIOS = (
    ("none", False),
    ("kill", False),
    ("drop", False),
    ("duplicate", False),
    ("storm", False),
    ("hang", True),
    ("sigkill", True),
)

#: Tight liveness tunables so the process-mode hang scenario resolves
#: in CI time instead of the production 10 s timeout.
SUPERVISION = SupervisionConfig(
    poll_timeout_s=0.02,
    heartbeat_interval_s=0.1,
    hang_timeout_s=1.0,
)


def run_bench():
    service_config = ServiceConfig(
        batch_size=BATCH, ways_per_width=1, oracle_audit=True
    )
    load = loadgen.build_load(
        "fhe", "poisson", JOBS, MEAN_GAP_CC, seed=SEED
    )
    reports = {}
    for name, processes in SCENARIOS:
        chaos, sigkill_after = loadgen.chaos_scenario(
            name, SHARDS, JOBS, BATCH, seed=SEED
        )
        frontend = AsyncShardedFrontend(
            FrontendConfig(
                shards=SHARDS,
                inline=not processes,
                service=service_config,
                supervision=SUPERVISION,
                chaos=chaos,
            )
        )
        reports[name] = loadgen.run(
            load, frontend, sigkill_after=sigkill_after
        )
    rows = [
        (
            f"{name}{'/proc' if processes else ''}",
            report.completed,
            report.failed_typed,
            report.stranded,
            report.counter("frontend_shard_deaths"),
            report.counter("frontend_shard_restarts"),
            report.counter("frontend_redispatches"),
            report.counter("frontend_orphan_results"),
            "clean" if report.clean else "DIRTY",
        )
        for (name, processes), report in zip(SCENARIOS, reports.values())
    ]
    table = format_table(
        (
            "scenario", "done", "failed", "stranded", "deaths",
            "restarts", "redisp", "orphans", "verdict",
        ),
        rows,
        title=(
            f"Chaos campaign: {JOBS} fhe jobs, {SHARDS} shards, "
            f"seed {SEED:#x}"
        ),
    )
    return reports, table


def _check_floors(reports) -> list:
    failures = []
    for name, report in reports.items():
        if not report.clean:
            failures.append(
                f"{name}: supervision contract violated "
                f"({report.terminal}/{report.offered} terminal, "
                f"{report.stranded} stranded, "
                f"{report.snapshot['service']['outstanding_futures']} "
                f"outstanding)"
            )
    # The control run must be genuinely fault-free.
    control = reports["none"]
    if control.counter("frontend_shard_deaths") or control.counter(
        "frontend_redispatches"
    ):
        failures.append("control scenario saw deaths/redispatches")
    # Worker-death scenarios: the shard died, was respawned, its
    # journaled work replayed, every product still delivered.
    for name in ("kill", "hang", "sigkill"):
        report = reports[name]
        if (
            report.counter("frontend_shard_deaths") < 1
            or report.counter("frontend_shard_restarts") < 1
        ):
            failures.append(f"{name}: no shard death/restart observed")
        if report.counter("frontend_redispatches") < 1:
            failures.append(f"{name}: journaled work never redispatched")
        if report.completed != report.offered:
            failures.append(
                f"{name}: {report.offered - report.completed} journaled "
                f"request(s) never completed after failover"
            )
        # Breaker reopened: trip (→open), probe (→half-open), close.
        if report.counter("frontend_breaker_transitions") < 3:
            failures.append(f"{name}: breaker never cycled")
    if reports["drop"].counter("frontend_redispatches") < 1:
        failures.append("drop: lost completions never replayed")
    if reports["duplicate"].counter("frontend_orphan_results") < 1:
        failures.append("duplicate: no duplicate delivery absorbed")
    return failures


def test_chaos_campaign():
    reports, table = run_bench()
    try:
        from benchmarks.conftest import register_report

        register_report("chaos", table)
    except ImportError:  # script mode, no harness
        pass
    failures = _check_floors(reports)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    reports, table = run_bench()
    print(table)
    failures = _check_floors(reports)
    if failures:
        print("FAIL: " + "; ".join(failures))
        sys.exit(1)
    deaths = sum(
        r.counter("frontend_shard_deaths") for r in reports.values()
    )
    redispatches = sum(
        r.counter("frontend_redispatches") for r in reports.values()
    )
    print(
        f"OK: {len(reports)} scenarios clean, {deaths} shard deaths "
        f"survived, {redispatches} redispatches, zero stranded futures"
    )
