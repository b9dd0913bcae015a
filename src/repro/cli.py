"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``      regenerate Table I (the related-work comparison)
``fig4``        regenerate Fig. 4 (ATP vs unroll depth)
``explore``     the Sec. III algorithm-exploration report
``energy``      first-order energy comparison (extension)
``multiply``    run one multiplication through the simulated datapath
``metrics``     print the design metrics for one operand width
``scaling``     complexity-class fits of all designs (Sec. II-C)
``floorplan``   subarray dimensions and line-length practicality
``waveform``    row-activity waveform of the Kogge-Stone schedule
``artifacts``   write every table/figure to text + JSON files
``claims``      verify the machine-checkable paper-claims ledger
``variability`` MAGIC NOR sense-margin and device-spread study
``service-bench`` drive a mixed-width stream through ``repro.service``
``load-bench``  open-loop load: sync service vs sharded front-end
``fault-campaign`` seeded fault-injection sweep (kind × width)
``chaos-campaign`` seeded shard kill/hang/drop chaos drill
``trace``       export a traced bank batch as Perfetto/Chrome JSON
``bench-compare`` compare seeded benchmarks against BENCH_*.json
``optimize-report`` SIMD cycle-packer report (before/after per stage)
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.eval import table1

    print(table1.render())
    factors = table1.headline_factors()
    print()
    print(
        f"Headline: {factors['throughput']:.0f}x throughput / "
        f"{factors['atp']:.0f}x ATP vs best baseline case "
        "(paper: 916x / 281x)"
    )
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.eval import fig4

    print(fig4.render())
    print()
    agg = fig4.geomean_atp_by_depth()
    for depth, value in sorted(agg.items()):
        marker = "  <- chosen" if depth == fig4.best_overall_depth() else ""
        print(f"  L={depth}: geomean ATP {value:.1f}{marker}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.eval import explore_report

    print(explore_report.render(args.bits))
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.eval import energy

    print(energy.render(args.bits))
    return 0


def _cmd_multiply(args: argparse.Namespace) -> int:
    from repro.karatsuba.design import KaratsubaCimMultiplier

    a = int(args.a, 0)
    b = int(args.b, 0)
    cim = KaratsubaCimMultiplier(args.bits)
    product = cim.multiply(a, b)
    print(f"{a} * {b} = {product}")
    if product != a * b:  # pragma: no cover - the simulator is bit-exact
        print("MISMATCH against native multiplication!", file=sys.stderr)
        return 1
    timing = cim.timing()
    print(
        f"latency {timing.latency_cc} cc, pipelined throughput "
        f"{timing.throughput_per_mcc:.0f} mult/Mcc"
    )
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.eval import scaling

    print(scaling.render())
    return 0


def _cmd_floorplan(args: argparse.Namespace) -> int:
    from repro.karatsuba import floorplan

    print(floorplan.comparison(args.bits))
    return 0


def _cmd_waveform(args: argparse.Namespace) -> int:
    from repro.arith.koggestone import standalone_adder
    from repro.sim import waveform

    adder, _ = standalone_adder(args.bits)
    print(waveform.render(adder.program(args.op), max_cycles=args.cycles))
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from repro.eval import claims

    print(claims.render())
    results = claims.verify_all()
    return 0 if all(r.ok for r in results) else 1


def _cmd_variability(args: argparse.Namespace) -> int:
    from repro.crossbar import variability

    print(variability.render())
    return 0


def _cmd_artifacts(args: argparse.Namespace) -> int:
    from repro.eval.artifacts import write_all

    manifest = write_all(args.out)
    total = sum(len(files) for files in manifest.values())
    print(f"wrote {total} artefact files to {args.out}/")
    for group, files in manifest.items():
        print(f"  {group}: {', '.join(files)}")
    return 0


def _cmd_service_bench(args: argparse.Namespace) -> int:
    import random

    from repro.eval.report import format_table
    from repro.service import MultiplicationService, ServiceConfig

    widths = [int(w) for w in args.widths.split(",")]
    rng = random.Random(args.seed)
    service = MultiplicationService(
        ServiceConfig(
            batch_size=args.batch_size,
            ways_per_width=args.ways,
            max_wait_ticks=args.max_wait_ticks,
        )
    )
    if args.inject_fault:
        faulted = service.inject_fault(max(widths))
        print(f"injected sa1 fault into way {faulted}")

    expected = {}
    history = []
    for index in range(args.jobs):
        n_bits = widths[index % len(widths)]
        if history and index % 8 == 7:
            a, b, n_bits = history[rng.randrange(len(history))]
        else:
            a = rng.getrandbits(n_bits)
            b = rng.getrandbits(n_bits)
            history.append((a, b, n_bits))
        expected[service.submit(a, b, n_bits)] = a * b

    results = service.drain()
    mismatches = sum(
        1 for r in results if r.product != expected[r.request_id]
    )
    snap = service.snapshot()
    occupancy = snap["histograms"]["batch_occupancy"]
    counters = snap["counters"]
    rows = [
        ("requests", f"{counters.get('requests_submitted', 0)}"),
        ("batches flushed", f"{counters.get('batches_flushed', 0)}"),
        ("mean batch occupancy", f"{occupancy['mean']:.2f}"),
        ("operand-cache hits", f"{counters.get('operand_cache_hits', 0)}"),
        ("compile-cache hits", f"{snap['caches']['compile']['hits']}"),
        ("faults detected", f"{counters.get('faults_detected', 0)}"),
        ("ways retired", f"{counters.get('ways_retired', 0)}"),
        ("makespan", f"{snap['service']['makespan_cc']:,} cc"),
        (
            "throughput",
            f"{snap['service']['throughput_per_mcc']:.1f} mult/Mcc",
        ),
    ]
    print(
        format_table(
            ("metric", "value"),
            rows,
            title=(
                f"Service bench: {args.jobs} jobs, widths {widths}, "
                f"batch size {args.batch_size}"
            ),
        )
    )
    print()
    for way_id, busy in sorted(snap["ways"].items()):
        endurance = snap["endurance"][way_id]
        status = (
            "healthy"
            if endurance["healthy"]
            else f"retired ({endurance['retired_reason']})"
        )
        print(
            f"  {way_id}: utilisation {busy:.2f}, "
            f"max writes/cell {endurance['max_writes']}, {status}"
        )
    if mismatches:  # pragma: no cover - the service is bit-exact
        print(f"MISMATCH: {mismatches} wrong products!", file=sys.stderr)
        return 1
    print(f"all {len(results)} products bit-exact")
    return 0


def _cmd_load_bench(args: argparse.Namespace) -> int:
    """Open-loop load: sync baseline vs the async sharded front-end.

    Generates a seeded arrival schedule (Poisson / bursty MMPP /
    diurnal) over one operand mix, replays it through a synchronous
    single-process service and through the sharded front-end on the
    same per-shard config, and prints tail latencies, deadline-miss
    rates and the cycle-domain speedup.  All numbers live on the
    virtual cycle clock, so they are seed-reproducible regardless of
    host speed or ``--processes``.
    """
    from repro.eval import loadgen
    from repro.eval.report import format_table
    from repro.frontend import AsyncShardedFrontend, FrontendConfig
    from repro.service import (
        AutoscalerConfig,
        MultiplicationService,
        ServiceConfig,
    )

    autoscale = None
    if args.autoscale:
        autoscale = AutoscalerConfig(
            min_ways=1, max_ways=max(2, args.ways * 4),
            high_depth=2 * args.batch_size, low_depth=args.batch_size,
            up_ticks=2, down_ticks=10,
        )
    service_config = ServiceConfig(
        batch_size=args.batch_size,
        ways_per_width=args.ways,
        autoscale=autoscale,
    )
    load = loadgen.build_load(
        args.mix,
        args.arrivals,
        args.jobs,
        args.gap_cc,
        seed=args.seed,
        deadline_slack_cc=args.deadline_slack_cc,
    )
    sync_report = loadgen.run(load, MultiplicationService(service_config))
    sharded_report = loadgen.run(
        load,
        AsyncShardedFrontend(
            FrontendConfig(
                shards=args.shards,
                inline=not args.processes,
                service=service_config,
                routing=args.routing,
            )
        ),
    )
    speedup = (
        sync_report.horizon_cc / sharded_report.horizon_cc
        if sharded_report.horizon_cc
        else 0.0
    )
    rows = []
    for label, report in (("sync", sync_report), ("sharded", sharded_report)):
        rows.append(
            (
                label,
                report.completed,
                report.shed,
                report.p50_cc,
                report.p95_cc,
                report.p99_cc,
                f"{report.miss_rate:.1%}",
                f"{report.horizon_cc:,}",
                f"{report.wall_seconds:.2f}s",
            )
        )
    print(
        format_table(
            (
                "path", "done", "shed", "p50 cc", "p95 cc", "p99 cc",
                "miss", "horizon cc", "wall",
            ),
            rows,
            title=(
                f"Open-loop {args.mix}/{args.arrivals}: {args.jobs} jobs, "
                f"mean gap {args.gap_cc} cc, {args.shards} "
                f"{'process' if args.processes else 'inline'} shard(s)"
            ),
        )
    )
    print()
    print(
        f"cycle-domain speedup (sync horizon / sharded horizon): "
        f"{speedup:.2f}x"
    )
    auto = sharded_report.snapshot["autoscaler"]
    ups = sync_report.counter("autoscale_up_total") + auto["scale_ups"]
    downs = sync_report.counter("autoscale_down_total") + auto["scale_downs"]
    if autoscale is not None:
        print(f"autoscale events (sync + sharded): {ups} up, {downs} down")
    outstanding = sharded_report.snapshot["service"]["outstanding_futures"]
    if outstanding:  # pragma: no cover - future-loss guard
        print(f"FAIL: {outstanding} futures never resolved", file=sys.stderr)
        return 1
    mismatched = sync_report.mismatched + sharded_report.mismatched
    if mismatched:  # pragma: no cover - the service is bit-exact
        print(f"FAIL: {mismatched} wrong product(s)", file=sys.stderr)
        return 1
    if args.slo_p99_cc is not None and sharded_report.p99_cc > args.slo_p99_cc:
        print(
            f"FAIL: sharded p99 {sharded_report.p99_cc} cc exceeds "
            f"SLO {args.slo_p99_cc} cc",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_crypto_bench(args: argparse.Namespace) -> int:
    """Open-loop crypto traffic through the workload engine.

    Generates a seeded kind-mixed arrival stream (Zipf-skewed modulus
    popularity over modmul/modexp plus tiny Pippenger MSM instances)
    and serves it through one :class:`CryptoWorkloadEngine`.  All
    latencies are in the virtual cycle domain, so the report is
    seed-reproducible.
    """
    from collections import Counter

    from repro.eval import loadgen
    from repro.eval.report import format_table
    from repro.service import ServiceConfig
    from repro.workloads import CryptoWorkloadEngine

    moduli = tuple(int(m) for m in args.moduli.split(","))
    load = loadgen.build_crypto_load(
        args.jobs,
        args.gap_cc,
        process=args.arrivals,
        seed=args.seed,
        moduli=moduli,
        zipf_s=args.zipf_s,
        msm_points=args.msm_points,
        deadline_slack_cc=args.deadline_slack_cc,
    )
    engine = CryptoWorkloadEngine(
        config=ServiceConfig(
            batch_size=args.batch_size, ways_per_width=args.ways
        )
    )
    report = loadgen.run(load, engine, cohort_size=args.cohort_size)
    by_kind = ", ".join(
        f"{kind}:{count}"
        for kind, count in sorted(Counter(e.kind for e in load).items())
    )
    workloads = report.snapshot["workloads"]
    rows = [
        (
            report.completed,
            report.rejected_deadline,
            report.p50_cc,
            report.p95_cc,
            report.p99_cc,
            f"{report.miss_rate:.1%}",
            f"{workloads['context_hit_rate']:.1%}",
            f"{report.horizon_cc:,}",
            f"{report.wall_seconds:.2f}s",
        )
    ]
    print(
        format_table(
            (
                "done", "rej", "p50 cc", "p95 cc", "p99 cc", "miss",
                "ctx hit", "horizon cc", "wall",
            ),
            rows,
            title=(
                f"Crypto open-loop ({args.arrivals}): {args.jobs} jobs, "
                f"mean gap {args.gap_cc} cc, cohorts of {args.cohort_size}"
            ),
        )
    )
    print()
    print(f"kinds served: {by_kind}")
    passes = sum(r.multiplier_passes for r in report.results)
    waves = sum(r.waves for r in report.results)
    checks = sum(r.residue_checks for r in report.results)
    print(
        f"multiplier passes: {passes:,} across "
        f"{waves:,} waves ({checks:,} residue checks)"
    )
    print(
        f"modulus contexts: {workloads['cached_moduli']} cached, "
        f"hit rate {workloads['context_hit_rate']:.1%}"
    )
    if report.mismatched:  # pragma: no cover - the engine is bit-exact
        print(f"FAIL: {report.mismatched} wrong answer(s)", file=sys.stderr)
        return 1
    if args.slo_p99_cc is not None and report.p99_cc > args.slo_p99_cc:
        print(
            f"FAIL: crypto p99 {report.p99_cc} cc exceeds "
            f"SLO {args.slo_p99_cc} cc",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_fault_campaign(args: argparse.Namespace) -> int:
    from repro.eval.report import format_table
    from repro.reliability import CampaignConfig, run_campaign

    config = CampaignConfig(
        widths=tuple(int(w) for w in args.widths.split(",")),
        kinds=tuple(args.kinds.split(",")),
        trials=args.trials,
        seed=args.seed,
        batch=args.batch,
        spare_rows=args.spare_rows,
        oracle_audit=args.oracle_audit,
    )
    report = run_campaign(config)

    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        rows = [
            (
                str(width),
                kind,
                str(counts["benign"]),
                str(counts["corrected"]),
                str(counts["escalated"]),
                str(counts["sdc"]),
            )
            for (width, kind), counts in sorted(report.by_cell().items())
        ]
        print(
            format_table(
                ("n", "kind", "benign", "corrected", "escalated", "sdc"),
                rows,
                title=(
                    f"Fault campaign: {config.trials} trials/cell, "
                    f"seed {config.seed}, audit "
                    f"{'on' if config.oracle_audit else 'off'}"
                ),
            )
        )
        print()
        print(f"detection rate   : {report.detection_rate:.2%}")
        print(f"residue coverage : {report.residue_coverage:.2%}")
        for over in report.overhead():
            print(
                f"residue overhead @ n={over['n_bits']}: "
                f"{over['checks']} checks, {over['latency_cc']} cc "
                f"({over['fraction']:.1%} of {over['pipeline_cc']} cc "
                f"pipeline latency), ~{over['writes']} writes"
            )
    if report.sdc:
        print(f"FAIL: {report.sdc} silent data corruption(s)", file=sys.stderr)
        return 1
    if report.detection_rate < 1.0:
        print("FAIL: undetected corrupting faults", file=sys.stderr)
        return 1
    return 0


#: Table columns of ``chaos-campaign`` (keys of :func:`_chaos_row`).
_CHAOS_COLUMNS = (
    "scenario", "completed", "failed_typed", "rejected_at_submit",
    "stranded", "shard_deaths", "shard_restarts", "redispatches",
    "orphan_results",
)


def _chaos_row(scenario: str, report) -> dict:
    """One chaos scenario's supervision-contract record: the load
    report's terminal-state accounting plus the front-end counters,
    journal and breaker states from its final snapshot."""
    supervision = report.snapshot["supervision"]
    return {
        "scenario": scenario,
        "offered": report.offered,
        "admitted": report.offered - report.rejected_at_submit,
        "completed": report.completed,
        "failed_typed": report.failed_typed,
        "rejected_at_submit": report.rejected_at_submit,
        "stranded": report.stranded,
        "mismatched": report.mismatched,
        "outstanding_after": (
            report.snapshot["service"]["outstanding_futures"]
        ),
        "journal_after": supervision["journal"],
        "shard_deaths": report.counter("frontend_shard_deaths"),
        "shard_restarts": report.counter("frontend_shard_restarts"),
        "redispatches": report.counter("frontend_redispatches"),
        "orphan_results": report.counter("frontend_orphan_results"),
        "breaker_transitions": report.counter("frontend_breaker_transitions"),
        "breakers": supervision["breakers"],
        "terminal": report.terminal,
        "clean": report.clean,
    }


def _cmd_chaos_campaign(args: argparse.Namespace) -> int:
    """Seeded chaos drill against the supervised sharded front-end.

    Runs one open-loop load through every requested scenario (worker
    kill, hang, dropped replies, duplicated replies, a seeded storm
    and an external SIGKILL mid-batch) and grades each run against the
    supervision contract: every request reaches a terminal state,
    every product is bit-exact, nothing is left in the journal and no
    breaker is stuck open.  Exits non-zero when any scenario is dirty.
    """
    from repro.eval import loadgen
    from repro.eval.report import format_table
    from repro.frontend import (
        AsyncShardedFrontend,
        FrontendConfig,
        SupervisionConfig,
    )
    from repro.service import ServiceConfig

    scenarios = (
        loadgen.CHAOS_SCENARIOS
        if args.scenarios == "all"
        else tuple(args.scenarios.split(","))
    )
    service_config = ServiceConfig(
        batch_size=args.batch_size,
        ways_per_width=args.ways,
        oracle_audit=args.oracle_audit,
    )
    supervision = SupervisionConfig(
        poll_timeout_s=0.02,
        heartbeat_interval_s=args.heartbeat_s,
        hang_timeout_s=args.hang_timeout_s,
        max_restarts=args.max_restarts,
        retry_budget=args.retry_budget,
    )
    load = loadgen.build_load(
        args.mix, args.arrivals, args.jobs, args.gap_cc, seed=args.seed
    )
    records = []
    for name in scenarios:
        chaos, sigkill_after = loadgen.chaos_scenario(
            name, args.shards, args.jobs, args.batch_size, seed=args.seed
        )
        frontend = AsyncShardedFrontend(
            FrontendConfig(
                shards=args.shards,
                inline=not args.processes,
                service=service_config,
                supervision=supervision,
                chaos=chaos,
            )
        )
        report = loadgen.run(load, frontend, sigkill_after=sigkill_after)
        records.append(_chaos_row(name, report))
    if args.json or args.out:
        import json

        payload = {
            "seed": args.seed,
            "jobs": args.jobs,
            "shards": args.shards,
            "processes": bool(args.processes),
            "scenarios": records,
        }
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
        if args.json:
            print(json.dumps(payload, indent=2))
    if not args.json:
        rows = [
            tuple(row[key] for key in _CHAOS_COLUMNS)
            + ("clean" if row["clean"] else "DIRTY",)
            for row in records
        ]
        print(
            format_table(
                (
                    "scenario", "done", "failed", "rejected", "stranded",
                    "deaths", "restarts", "redisp", "orphans", "verdict",
                ),
                rows,
                title=(
                    f"Chaos campaign: {args.jobs} {args.mix} jobs, "
                    f"{args.shards} "
                    f"{'process' if args.processes else 'inline'} shard(s), "
                    f"seed {args.seed:#x}"
                ),
            )
        )
    dirty = [row["scenario"] for row in records if not row["clean"]]
    if dirty:
        print(
            f"FAIL: scenario(s) violated the supervision contract: "
            f"{', '.join(dirty)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import random

    from repro import telemetry
    from repro.karatsuba.bank import MultiplierBank
    from repro.telemetry import export, model
    from repro.telemetry import profile as profiling

    rng = random.Random(args.seed)
    bank = MultiplierBank(args.bits, ways=args.ways)
    pairs = [
        (rng.getrandbits(args.bits), rng.getrandbits(args.bits))
        for _ in range(args.jobs)
    ]
    with telemetry.tracing() as tracer:
        result = bank.run_stream(pairs)
    if result.products != [a * b for a, b in pairs]:
        print("MISMATCH: traced products diverged!", file=sys.stderr)
        return 1

    # Exact steady-state schedule from the analytic timing model; the
    # live tracer spans ride along as a second span forest.
    timing = bank.timing()
    root = model.bank_spans(timing.pipeline, result.per_way_jobs)
    expected = timing.makespan_cc(len(pairs))
    if root.duration_cc != expected:
        print(
            f"FAIL: model root span {root.duration_cc} cc != "
            f"BankTiming.makespan_cc {expected} cc",
            file=sys.stderr,
        )
        return 1

    doc = export.write_trace(
        args.out,
        [root] + tracer.roots,
        metadata={
            "n_bits": args.bits,
            "ways": args.ways,
            "jobs": args.jobs,
            "seed": args.seed,
            "makespan_cc": expected,
        },
    )
    print(profiling.report(root))
    print()
    print(
        f"wrote {len(doc['traceEvents'])} trace events to {args.out} "
        f"(load in ui.perfetto.dev or chrome://tracing)"
    )
    print(
        f"root span: {root.duration_cc:,} cc == "
        f"BankTiming.makespan_cc({args.jobs}) for n={args.bits}, "
        f"{args.ways} ways"
    )
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.telemetry import baseline

    names = (
        sorted(baseline.COLLECTORS)
        if args.names == "all"
        else [n.strip() for n in args.names.split(",") if n.strip()]
    )
    unknown = [n for n in names if n not in baseline.COLLECTORS]
    if unknown:
        print(
            f"unknown workload(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(baseline.COLLECTORS))})",
            file=sys.stderr,
        )
        return 2

    if args.record:
        for name in names:
            metrics = baseline.COLLECTORS[name]()
            path = baseline.record(name, metrics, directory=args.dir)
            print(f"recorded {len(metrics)} metrics to {path}")
        return 0

    failed = False
    for name in names:
        try:
            seeds = baseline.load(name, directory=args.dir)
        except FileNotFoundError:
            print(
                f"no baseline for {name!r} in {args.dir} "
                f"(run: repro bench-compare --record --names {name})",
                file=sys.stderr,
            )
            failed = True
            continue
        tolerance = (
            args.tolerance
            if args.tolerance is not None
            else baseline.DEFAULT_TOLERANCE
        )
        current = baseline.COLLECTORS[name]()
        comparison = baseline.compare(
            name, current, seeds, tolerance=tolerance
        )
        print(comparison.render())
        if not comparison.ok:
            failed = True
    return 1 if failed else 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Run the design-point tuner sweep and persist the tuning table.

    Measures every feasible (algorithm, L, optimizer, backend) design
    point at each requested width on the cycle-accurate simulator,
    selects the serving design per width bucket, and writes the
    versioned ``TUNE_portfolio.json`` that ``ServiceConfig.portfolio``
    routes against.
    """
    from repro.eval.report import format_table
    from repro.portfolio import sweep

    widths = tuple(int(w) for w in args.widths.split(",") if w.strip())
    optimize_flags = tuple(
        {"exact": False, "opt": True}[flag.strip()]
        for flag in args.optimize_flags.split(",")
        if flag.strip()
    )
    table = sweep(
        widths=widths,
        jobs=args.jobs,
        seed=args.seed,
        depths=tuple(int(d) for d in args.depths.split(",") if d.strip()),
        backends=tuple(
            b.strip() for b in args.backends.split(",") if b.strip()
        ),
        optimize_flags=optimize_flags,
    )
    table.save(args.out)
    rows = []
    for n_bits, entry in sorted(table.buckets.items()):
        winner = next(
            m for m in entry.candidates if m.design == entry.selected
        )
        rows.append(
            (
                n_bits,
                entry.selected.key(),
                winner.latency_cc,
                winner.bottleneck_cc,
                winner.selection_cc,
                len(entry.candidates),
            )
        )
    print(
        format_table(
            ("bits", "selected", "lat cc", "bneck cc", "sel cc", "cands"),
            rows,
            title=f"Tuned design points ({args.out})",
        )
    )
    return 0


def _cmd_tune_report(args: argparse.Namespace) -> int:
    """Validate and render a saved tuning table.

    Prints every bucket's candidate measurements with the selected
    design marked, re-runs the selection rule on the stored
    measurements, and exits non-zero when the table fails validation
    (schema, servability, or selection reproducibility) — the CI
    portfolio-smoke entry point.
    """
    import json

    from repro.eval.report import format_table
    from repro.portfolio import TuningTable, validate_table_payload

    with open(args.table, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    problems = validate_table_payload(payload)
    table = TuningTable.from_json(payload)
    rows = []
    for n_bits, entry in sorted(table.buckets.items()):
        for m in sorted(entry.candidates, key=lambda m: m.selection_cc):
            rows.append(
                (
                    n_bits,
                    m.design.key(),
                    m.latency_cc,
                    m.bottleneck_cc,
                    m.selection_cc,
                    m.area_cells,
                    "measured" if m.measured else "prior",
                    "<== selected" if m.design == entry.selected else "",
                )
            )
    print(
        format_table(
            (
                "bits", "design", "lat cc", "bneck cc", "sel cc",
                "cells", "source", "",
            ),
            rows,
            title=f"Tuning table {args.table} "
            f"(version {payload.get('version')})",
        )
    )
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    print(f"table valid: {len(table.buckets)} buckets")
    return 0


def _cmd_optimize_report(args: argparse.Namespace) -> int:
    """Before/after report of the SIMD cycle-packing optimizer.

    Builds the paper-exact and packed variants of every adder program
    the two crossbar stages run at ``--bits``, executes both on
    identical scratch arrays (same seeded operands), and prints one
    before/after row per stage: cycles, row footprint, measured array
    energy.  With ``--check`` it additionally re-verifies each packed
    program (init protocol + bit-exact final state against the
    unoptimized oracle) and exits non-zero on any violation — the CI
    optimizer-smoke entry point.
    """
    import random

    from repro.crossbar.array import CrossbarArray
    from repro.karatsuba.postcompute import PostcomputeStage
    from repro.karatsuba.precompute import PrecomputeStage
    from repro.magic.executor import MagicExecutor, int_to_bits
    from repro.magic.optimize import check_protocol
    from repro.sim.clock import Clock

    bits = args.bits
    rng = random.Random(0xC0DE)
    failures: List[str] = []

    def run_once(program, adder, cols, x, y):
        """Execute *program* on a fresh armed array; returns
        (array, energy_fj, cycles)."""
        rows = max(program.rows_touched()) + 1
        array = CrossbarArray(rows, cols)
        array.state[:] = True
        lay = adder.layout
        array.write_row(lay.x_row, int_to_bits(x, cols))
        array.write_row(lay.y_row, int_to_bits(y, cols))
        energy0 = array.energy_fj
        clock = Clock()
        MagicExecutor(array, clock=clock).execute(program)
        return array, array.energy_fj - energy0, clock.cycles

    def audit(stage_name, op, adder, base, packed, cols):
        x = rng.getrandbits(adder.layout.width)
        y = rng.getrandbits(adder.layout.width)
        if op == "sub" and y > x:
            x, y = y, x
        arr_a, e_base, cc_base = run_once(base, adder, cols, x, y)
        arr_b, e_opt, cc_opt = run_once(packed, adder, cols, x, y)
        if args.check:
            armed = frozenset(
                set(adder.layout.scratch_rows) | {adder.layout.out_row}
            )
            report = check_protocol(packed, initially_ones=armed)
            if not report.ok:
                failures.append(
                    f"{stage_name}/{op}: protocol violations "
                    f"{report.violations[:3]}"
                )
            if not (arr_a.state == arr_b.state).all():
                failures.append(
                    f"{stage_name}/{op}: packed program diverged from "
                    f"the unoptimized oracle"
                )
            if cc_opt > cc_base:
                failures.append(
                    f"{stage_name}/{op}: packed program is slower "
                    f"({cc_opt} > {cc_base} cc)"
                )
        return e_base, e_opt

    # Gather (stage, op, weight, adder, base program, packed program).
    entries = []
    pre = PrecomputeStage(bits, optimize=True)
    for step in pre.plan.precompute_adds:
        adder = pre._adder_for(step)
        entries.append(
            ("precompute", f"add[{step.out}]", 1, adder, pre.cols)
        )
    post = PostcomputeStage(bits, optimize=True)
    post_adder = post._adder()
    for op in ("add", "sub"):
        weight = post.PASS_OPS.count(op)
        entries.append(("postcompute", op, weight, post_adder, post.cols))

    stages: Dict[str, Dict[str, float]] = {}
    for stage_name, op_name, weight, adder, cols in entries:
        op = "sub" if op_name.startswith("sub") else "add"
        base = adder.program(op, optimize=False)
        packed = adder.program(op, optimize=True)
        e_base, e_opt = audit(stage_name, op, adder, base, packed, cols)
        agg = stages.setdefault(
            stage_name,
            {
                "cc_before": 0, "cc_after": 0,
                "rows_before": 0, "rows_after": 0,
                "e_before": 0.0, "e_after": 0.0,
            },
        )
        agg["cc_before"] += weight * base.cycle_count
        agg["cc_after"] += weight * packed.cycle_count
        agg["rows_before"] = max(
            agg["rows_before"], len(base.rows_touched())
        )
        agg["rows_after"] = max(
            agg["rows_after"], len(packed.rows_touched())
        )
        agg["e_before"] += weight * e_base
        agg["e_after"] += weight * e_opt

    print(f"SIMD cycle-packer report, n = {bits} bits")
    header = (
        f"  {'stage':<12} {'cycles':>15} {'rows':>9} {'energy (fJ)':>24} "
        f"{'saved':>7}"
    )
    print(header)
    for stage_name, agg in stages.items():
        saved = agg["cc_before"] - agg["cc_after"]
        pct = saved / agg["cc_before"] if agg["cc_before"] else 0.0
        print(
            f"  {stage_name:<12} "
            f"{agg['cc_before']:>6,} -> {agg['cc_after']:>6,} "
            f"{agg['rows_before']:>3} -> {agg['rows_after']:>3} "
            f"{agg['e_before']:>10,.0f} -> {agg['e_after']:>10,.0f} "
            f"{pct:>7.1%}"
        )
    pre_reports = [
        r
        for key, cache in pre._adders.items()
        for _, a in cache
        for r in a.optimizer_reports.values()
    ]
    post_reports = list(post_adder.optimizer_reports.values())
    by_pass: Dict[str, int] = {}
    for r in pre_reports + post_reports:
        for p in r.passes:
            by_pass[p.name] = by_pass.get(p.name, 0) + p.cycles_saved
    print("  cycles saved by pass:")
    for name, saved in by_pass.items():
        print(f"    {name:<18} {saved:>6,} cc")

    if args.check:
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"check: OK ({len(entries)} programs verified)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.karatsuba import cost

    metrics = cost.design_metrics(args.bits, depth=2)
    dc = cost.design_cost(args.bits, depth=2)
    print(f"n = {args.bits} bits (L = 2)")
    print(f"  area            : {metrics.area_cells:,} cells")
    for stage in dc.stages:
        print(
            f"    {stage.name:<12}: {stage.area_cells:,} cells, "
            f"{stage.latency_cc:,} cc"
        )
    print(f"  latency         : {metrics.latency_cc:,} cc")
    print(f"  throughput      : {metrics.throughput_per_mcc:.1f} mult/Mcc")
    print(f"  ATP             : {metrics.atp:.1f}")
    print(f"  max writes/cell : {metrics.max_writes_per_cell}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Karatsuba CIM multiplier reproduction (DATE 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="regenerate Table I").set_defaults(
        func=_cmd_table1
    )
    sub.add_parser("fig4", help="regenerate Fig. 4").set_defaults(
        func=_cmd_fig4
    )

    explore = sub.add_parser("explore", help="Sec. III report")
    explore.add_argument("--bits", type=int, default=256)
    explore.set_defaults(func=_cmd_explore)

    energy = sub.add_parser("energy", help="energy comparison")
    energy.add_argument("--bits", type=int, default=64)
    energy.set_defaults(func=_cmd_energy)

    multiply = sub.add_parser(
        "multiply", help="simulate one multiplication"
    )
    multiply.add_argument("a", help="first operand (int literal)")
    multiply.add_argument("b", help="second operand (int literal)")
    multiply.add_argument("--bits", type=int, default=64)
    multiply.set_defaults(func=_cmd_multiply)

    metrics = sub.add_parser("metrics", help="design metrics for a width")
    metrics.add_argument("--bits", type=int, default=256)
    metrics.set_defaults(func=_cmd_metrics)

    sub.add_parser(
        "scaling", help="complexity-class fits (Sec. II-C)"
    ).set_defaults(func=_cmd_scaling)

    fp = sub.add_parser("floorplan", help="subarray dimensions & line lengths")
    fp.add_argument("--bits", type=int, default=384)
    fp.set_defaults(func=_cmd_floorplan)

    wf = sub.add_parser("waveform", help="adder schedule waveform")
    wf.add_argument("--bits", type=int, default=8)
    wf.add_argument("--op", choices=["add", "sub"], default="add")
    wf.add_argument("--cycles", type=int, default=100)
    wf.set_defaults(func=_cmd_waveform)

    artifacts = sub.add_parser(
        "artifacts", help="write every reproduced artefact to a directory"
    )
    artifacts.add_argument("--out", default="artifacts")
    artifacts.set_defaults(func=_cmd_artifacts)

    sub.add_parser(
        "claims", help="verify the paper-claims ledger"
    ).set_defaults(func=_cmd_claims)

    sub.add_parser(
        "variability", help="MAGIC NOR sense-margin / variability study"
    ).set_defaults(func=_cmd_variability)

    svc = sub.add_parser(
        "service-bench",
        help="drive a mixed-width request stream through repro.service",
    )
    svc.add_argument("--jobs", type=int, default=64)
    svc.add_argument("--batch-size", type=int, default=8)
    svc.add_argument("--ways", type=int, default=2)
    svc.add_argument("--max-wait-ticks", type=int, default=32)
    svc.add_argument("--widths", default="16,32,64")
    svc.add_argument("--seed", type=int, default=0x5E47)
    svc.add_argument(
        "--inject-fault",
        action="store_true",
        help="pin a stuck-at-1 cell in one way and show the recovery",
    )
    svc.set_defaults(func=_cmd_service_bench)

    loadb = sub.add_parser(
        "load-bench",
        help="open-loop load: sync service vs async sharded front-end",
    )
    loadb.add_argument(
        "--mix", default="fhe", choices=("fhe", "zkp", "mixed")
    )
    loadb.add_argument(
        "--arrivals",
        default="poisson",
        choices=("poisson", "bursty", "diurnal"),
    )
    loadb.add_argument("--jobs", type=int, default=64)
    loadb.add_argument(
        "--gap-cc",
        type=int,
        default=100,
        help="mean inter-arrival gap in cycles (small = overload)",
    )
    loadb.add_argument("--shards", type=int, default=4)
    loadb.add_argument(
        "--processes",
        action="store_true",
        help="host shards in worker processes instead of inline",
    )
    loadb.add_argument(
        "--routing", default="round-robin", choices=("round-robin", "width")
    )
    loadb.add_argument("--batch-size", type=int, default=8)
    loadb.add_argument("--ways", type=int, default=1)
    loadb.add_argument("--seed", type=int, default=0x10AD)
    loadb.add_argument(
        "--deadline-slack-cc",
        type=int,
        default=None,
        help="stamp every request with this latency budget",
    )
    loadb.add_argument(
        "--autoscale",
        action="store_true",
        help="enable the way autoscaler in every service",
    )
    loadb.add_argument(
        "--slo-p99-cc",
        type=int,
        default=None,
        help="exit non-zero when the sharded p99 exceeds this",
    )
    loadb.set_defaults(func=_cmd_load_bench)

    cryptob = sub.add_parser(
        "crypto-bench",
        help="open-loop crypto traffic (modmul/modexp/MSM) through "
        "the workload engine",
    )
    cryptob.add_argument(
        "--arrivals",
        default="poisson",
        choices=("poisson", "bursty", "diurnal"),
    )
    cryptob.add_argument("--jobs", type=int, default=32)
    cryptob.add_argument(
        "--gap-cc",
        type=int,
        default=20_000,
        help="mean inter-arrival gap in cycles",
    )
    cryptob.add_argument(
        "--moduli",
        default="97,65521,65195,64854",
        help="comma-separated moduli, listed in popularity order",
    )
    cryptob.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="Zipf skew of modulus popularity",
    )
    cryptob.add_argument("--msm-points", type=int, default=3)
    cryptob.add_argument("--cohort-size", type=int, default=8)
    cryptob.add_argument("--batch-size", type=int, default=8)
    cryptob.add_argument("--ways", type=int, default=1)
    cryptob.add_argument("--seed", type=int, default=0xC49)
    cryptob.add_argument(
        "--deadline-slack-cc",
        type=int,
        default=None,
        help="stamp every request with this latency budget",
    )
    cryptob.add_argument(
        "--slo-p99-cc",
        type=int,
        default=None,
        help="exit non-zero when the crypto p99 exceeds this",
    )
    cryptob.set_defaults(func=_cmd_crypto_bench)

    campaign = sub.add_parser(
        "fault-campaign",
        help="seeded fault-injection sweep over kind x width",
    )
    campaign.add_argument("--widths", default="64,256")
    campaign.add_argument(
        "--kinds", default="sa0,sa1,transient,write-failure"
    )
    campaign.add_argument("--trials", type=int, default=5)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--batch", type=int, default=4)
    campaign.add_argument("--spare-rows", type=int, default=2)
    campaign.add_argument(
        "--oracle-audit",
        action="store_true",
        help="also audit every product against the Python oracle",
    )
    campaign.add_argument("--json", action="store_true")
    campaign.set_defaults(func=_cmd_fault_campaign)

    chaos = sub.add_parser(
        "chaos-campaign",
        help="seeded shard kill/hang/drop chaos drill on the front-end",
    )
    chaos.add_argument(
        "--scenarios",
        default="all",
        help="comma-separated scenario names, or 'all' "
        "(kill,hang,drop,duplicate,storm,sigkill,none)",
    )
    chaos.add_argument(
        "--mix", default="fhe", choices=("fhe", "zkp", "mixed")
    )
    chaos.add_argument(
        "--arrivals",
        default="poisson",
        choices=("poisson", "bursty", "diurnal"),
    )
    chaos.add_argument("--jobs", type=int, default=64)
    chaos.add_argument("--gap-cc", type=int, default=200)
    chaos.add_argument("--shards", type=int, default=4)
    chaos.add_argument(
        "--processes",
        action="store_true",
        help="host shards in worker processes (real SIGKILL/hang)",
    )
    chaos.add_argument("--batch-size", type=int, default=8)
    chaos.add_argument("--ways", type=int, default=1)
    chaos.add_argument("--seed", type=int, default=0xC4A05)
    chaos.add_argument("--max-restarts", type=int, default=2)
    chaos.add_argument("--retry-budget", type=int, default=2)
    chaos.add_argument(
        "--heartbeat-s",
        type=float,
        default=0.1,
        help="router heartbeat interval (process shards)",
    )
    chaos.add_argument(
        "--hang-timeout-s",
        type=float,
        default=1.0,
        help="unanswered-heartbeat hang threshold (process shards)",
    )
    chaos.add_argument(
        "--oracle-audit",
        action="store_true",
        help="audit every product against the Python oracle in-shard",
    )
    chaos.add_argument("--json", action="store_true")
    chaos.add_argument(
        "--out",
        default=None,
        help="also write the JSON campaign report to this path",
    )
    chaos.set_defaults(func=_cmd_chaos_campaign)

    trace = sub.add_parser(
        "trace",
        help="trace a bank batch and export Perfetto/Chrome JSON",
    )
    trace.add_argument("--bits", type=int, default=256)
    trace.add_argument("--jobs", type=int, default=8)
    trace.add_argument("--ways", type=int, default=2)
    trace.add_argument("--seed", type=int, default=0x7ACE)
    trace.add_argument("--out", default="trace.json")
    trace.set_defaults(func=_cmd_trace)

    bench = sub.add_parser(
        "bench-compare",
        help="compare seeded benchmark metrics against BENCH_*.json",
    )
    bench.add_argument(
        "--names",
        default="all",
        help="comma-separated workloads (default: all known)",
    )
    bench.add_argument(
        "--dir", default=".", help="directory holding BENCH_*.json seeds"
    )
    bench.add_argument("--tolerance", type=float, default=None)
    bench.add_argument(
        "--record",
        action="store_true",
        help="write fresh baseline seeds instead of comparing",
    )
    bench.set_defaults(func=_cmd_bench_compare)

    opt = sub.add_parser(
        "optimize-report",
        help="SIMD cycle-packer before/after report (and --check gate)",
    )
    opt.add_argument("--bits", type=int, default=64)
    opt.add_argument(
        "--check",
        action="store_true",
        help="verify packed programs (protocol + bit-exactness); "
        "non-zero exit on any violation",
    )
    opt.set_defaults(func=_cmd_optimize_report)

    tune = sub.add_parser(
        "tune",
        help="sweep design points per width and write TUNE_portfolio.json",
    )
    tune.add_argument(
        "--widths",
        default="16,32,64,90,128,270",
        help="comma-separated operand widths to measure",
    )
    tune.add_argument("--jobs", type=int, default=4)
    tune.add_argument("--seed", type=lambda s: int(s, 0), default=0x70F0)
    tune.add_argument(
        "--depths", default="1,2,3",
        help="Karatsuba unroll depths to sweep (non-2 are cost priors)",
    )
    tune.add_argument("--backends", default="word")
    tune.add_argument(
        "--optimize-flags", default="exact,opt",
        help="comma-separated subset of {exact,opt}",
    )
    tune.add_argument("--out", default="TUNE_portfolio.json")
    tune.set_defaults(func=_cmd_tune)

    tune_report = sub.add_parser(
        "tune-report",
        help="validate and render a saved tuning table",
    )
    tune_report.add_argument("--table", default="TUNE_portfolio.json")
    tune_report.set_defaults(func=_cmd_tune_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
