"""Tests for the telemetry layer: spans, model, profile, export, baseline.

Covers the subsystem's cross-validation contracts:

* model span trees end exactly at ``BankTiming.makespan_cc``;
* :func:`row_occupancy` over :func:`program_spans` reproduces
  :func:`repro.sim.waveform.utilization` cycle-for-cycle;
* disabled tracing allocates nothing (the shared ``NOOP_SPAN``);
* exported traces satisfy the Chrome trace-event schema;
* ``repro bench-compare`` fails on an injected latency regression.
"""

import json

import pytest

from repro import cli, telemetry
from repro.arith.koggestone import AdderUnit
from repro.karatsuba.bank import BankTiming, MultiplierBank
from repro.karatsuba.cost import DesignCost, StageCost
from repro.sim import waveform
from repro.sim.clock import Clock
from repro.telemetry import baseline, export, model
from repro.telemetry import profile as profiling
from repro.telemetry import spans
from repro.telemetry.registry import TelemetryRegistry
from repro.telemetry.spans import NOOP_SPAN, Span, Tracer


# ----------------------------------------------------------------------
# Span primitives
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_hierarchy(self):
        tracer = Tracer()
        with tracer.span("outer", begin_cc=0):
            with tracer.span("inner", begin_cc=1):
                pass
        assert [s.name for s in tracer.walk()] == ["outer", "inner"]
        assert tracer.roots[0].children[0].name == "inner"

    def test_clock_timestamps(self):
        clock = Clock()
        tracer = Tracer()
        with tracer.span("work", clock=clock):
            clock.tick(7, "nor")
        span = tracer.roots[0]
        assert (span.begin_cc, span.end_cc) == (0, 7)
        assert span.duration_cc == 7

    def test_child_inherits_parent_clock(self):
        clock = Clock()
        tracer = Tracer()
        with tracer.span("outer", clock=clock):
            clock.tick(3)
            with tracer.span("inner"):
                clock.tick(2)
        inner = tracer.roots[0].children[0]
        assert (inner.begin_cc, inner.end_cc) == (3, 5)

    def test_structural_span_envelopes_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.record("a", 2, 5)
            tracer.record("b", 4, 9)
        outer = tracer.roots[0]
        assert outer.end_cc == 9

    def test_cycle_monotonicity_in_live_trace(self):
        """Every closed span ends no earlier than it begins."""
        bank = MultiplierBank(16, ways=2)
        pairs = [(i + 3, i + 11) for i in range(6)]
        with telemetry.tracing() as tracer:
            bank.run_stream(pairs)
        seen = 0
        for span in tracer.walk():
            assert span.end_cc is not None
            assert span.end_cc >= span.begin_cc
            seen += 1
        assert seen > 10

    def test_record_rejects_backwards_interval(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.record("bad", 5, 3)

    def test_event_is_zero_duration_leaf(self):
        tracer = Tracer()
        event = tracer.event("tick", at_cc=12, flavour="test")
        assert (event.begin_cc, event.end_cc) == (12, 12)
        assert event.attrs["flavour"] == "test"

    def test_set_attaches_attributes(self):
        tracer = Tracer()
        with tracer.span("work", begin_cc=0) as span:
            span.set(width=64, nor=7)
        assert tracer.roots[0].attrs == {"width": 64, "nor": 7}


class TestDisabledMode:
    def test_active_is_none_by_default(self):
        assert spans.active() is None

    def test_disabled_span_is_shared_noop(self):
        """The disabled path hands out one shared instance — no
        per-call allocation on the hot path."""
        tracer = spans.current_tracer()
        assert tracer.enabled is False
        assert tracer.span("x") is NOOP_SPAN
        assert tracer.record("x", 0, 1) is NOOP_SPAN
        assert tracer.event("x") is NOOP_SPAN
        # the context-manager protocol still works
        with tracer.span("x") as s:
            assert s.set(a=1) is NOOP_SPAN

    def test_disabled_trace_collects_nothing(self):
        bank = MultiplierBank(16, ways=1)
        bank.run_stream([(3, 5)])
        assert spans.current_tracer().roots == []

    def test_install_restores_previous(self):
        mine = Tracer()
        previous = spans.install(mine)
        try:
            assert spans.active() is mine
        finally:
            spans.install(previous)
        assert spans.active() is None

    def test_tracing_context_restores_on_exit(self):
        with telemetry.tracing() as tracer:
            assert spans.active() is tracer
        assert spans.active() is None


class TestTelemetryRegistry:
    def test_metrics_schema_unchanged(self):
        registry = TelemetryRegistry()
        registry.counter("things").inc(3)
        snap = registry.snapshot()
        assert snap["counters"]["things"] == 3
        assert set(snap) == {"counters", "histograms"}

    def test_span_noop_when_disabled(self):
        registry = TelemetryRegistry()
        assert registry.tracer is None
        assert registry.span("x") is NOOP_SPAN

    def test_span_follows_installed_tracer(self):
        registry = TelemetryRegistry()
        with telemetry.tracing() as tracer:
            with registry.span("x", begin_cc=0):
                pass
        assert [s.name for s in tracer.walk()] == ["x"]


# ----------------------------------------------------------------------
# Model span trees vs the analytic timing model
# ----------------------------------------------------------------------
KARATSUBA_SLOTS = ("precompute", "multiply", "postcompute")


def _timing(latencies=(2, 5, 3), names=KARATSUBA_SLOTS) -> DesignCost:
    return DesignCost(
        n_bits=16,
        stages=tuple(StageCost(n, 0, c) for n, c in zip(names, latencies)),
    )


class TestModelSpans:
    @pytest.mark.parametrize("jobs", [1, 3, 8])
    @pytest.mark.parametrize("ways", [1, 2, 3])
    def test_bank_root_matches_makespan(self, jobs, ways):
        bank = MultiplierBank(16, ways=ways)
        result = bank.run_stream([(i + 1, i + 2) for i in range(jobs)])
        timing = bank.timing()
        root = model.bank_spans(timing.pipeline, result.per_way_jobs)
        assert root.duration_cc == timing.makespan_cc(jobs)
        assert root.duration_cc == result.makespan_cc

    def test_pipeline_jobs_follow_modulo_schedule(self):
        timing = _timing()
        jobs = model.pipeline_spans(timing, 3)
        assert [j.begin_cc for j in jobs] == [0, 5, 10]
        assert jobs[-1].end_cc == timing.makespan_cc(3) == 20
        for job in jobs:
            names = [c.name for c in job.children]
            assert names == list(KARATSUBA_SLOTS)
            # stages tile the job interval back-to-back
            cursor = job.begin_cc
            for child, latency in zip(job.children, timing.stage_latencies):
                assert (child.begin_cc, child.end_cc) == (
                    cursor,
                    cursor + latency,
                )
                cursor += latency
            assert cursor == job.end_cc

    def test_stage_spans_carry_the_design_slot_names(self):
        """A Toom-3 timing's stage spans read its own slot names."""
        from repro.portfolio.design import Toom3Pipeline

        timing = Toom3Pipeline(64).timing()
        (job,) = model.pipeline_spans(timing, 1)
        assert [c.name for c in job.children] == [
            "evaluate", "pointwise", "interpolate"
        ]
        assert [c.duration_cc for c in job.children] == list(
            timing.stage_latencies
        )

    def test_empty_bank_is_zero_length(self):
        timing = _timing()
        root = model.bank_spans(timing, [0, 0])
        assert root.duration_cc == 0


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def _tree(self):
        timing = _timing()
        return timing, model.bank_spans(timing, [3])

    def test_stage_occupancy_hand_computed(self):
        """3 jobs, latencies (2, 5, 3), II=5, makespan 20.

        precompute: [0,2]+[5,7]+[10,12] = 6 cc -> 0.30
        multiply:   [2,7]+[7,12]+[12,17] = [2,17] = 15 cc -> 0.75
        postcompute:[7,10]+[12,15]+[17,20] = 9 cc -> 0.45
        """
        _, root = self._tree()
        frac = profiling.occupancy(root, by="name")
        assert frac["precompute"] == pytest.approx(6 / 20)
        assert frac["multiply"] == pytest.approx(15 / 20)
        assert frac["postcompute"] == pytest.approx(9 / 20)

    def test_way_track_fully_busy(self):
        _, root = self._tree()
        frac = profiling.occupancy(root, by="track")
        assert frac["way0"] == pytest.approx(1.0)

    def test_bubbles_on_unbalanced_bank(self):
        timing = _timing()
        root = model.bank_spans(timing, [3, 1])
        gaps = profiling.bubbles(root, by="track")
        assert gaps["way0"] == []
        # way1 runs one job [0, 10] then idles until the bank drains.
        assert gaps["way1"] == [(10, 20)]

    def test_critical_path_reaches_root_end(self):
        _, root = self._tree()
        path = profiling.critical_path(root)
        assert path[0] is root
        assert path[-1].end_cc == root.end_cc
        assert path[-1].name == "postcompute"

    def test_report_renders(self):
        _, root = self._tree()
        text = profiling.report(root)
        assert "critical path" in text
        assert "multiply" in text

    def test_row_occupancy_matches_waveform_utilization(self):
        """Acceptance: profiler agrees with waveform.utilization on a
        single Kogge-Stone program, cycle-for-cycle."""
        adder = AdderUnit(8).adder
        program = adder.program("add")
        tree = profiling.program_spans(program)
        assert tree.duration_cc == program.cycle_count
        assert profiling.row_occupancy(tree) == waveform.utilization(program)

    def test_occupancy_of_zero_length_root(self):
        root = Span("empty", begin_cc=0, end_cc=0)
        assert profiling.occupancy(root) == {"empty": 0.0}


# ----------------------------------------------------------------------
# Exporter
# ----------------------------------------------------------------------
class TestExport:
    def _doc(self):
        timing = _timing()
        root = model.bank_spans(timing, [2, 1])
        return export.to_trace_events(root, metadata={"n_bits": 16})

    def test_schema_valid(self):
        doc = self._doc()
        assert export.validate_trace(doc) == len(doc["traceEvents"])

    def test_complete_events_carry_cycle_extents(self):
        doc = self._doc()
        bank = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "bank"
        ]
        assert len(bank) == 1
        assert bank[0]["ts"] == 0
        assert bank[0]["dur"] == 15  # makespan of 2 jobs at (2,5,3)

    def test_thread_metadata_per_track(self):
        doc = self._doc()
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"bank", "way0", "way1"} <= names

    def test_occupancy_counters_step_function(self):
        doc = self._doc()
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters, "expected occupancy counter samples"
        # every counter track ends back at zero active spans
        final = {}
        for e in counters:
            final[e["name"]] = e["args"]["active"]
        assert set(final.values()) == {0}

    def test_events_export_as_instants(self):
        tracer = Tracer()
        tracer.event("marker", at_cc=4, request_ids=[1, 2])
        doc = export.to_trace_events(tracer)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["args"]["request_ids"] == [1, 2]

    def test_validate_rejects_missing_field(self):
        with pytest.raises(ValueError):
            export.validate_trace({"traceEvents": [{"ph": "X", "name": "x"}]})

    def test_validate_rejects_negative_ts(self):
        doc = self._doc()
        doc["traceEvents"][-1]["ts"] = -1
        with pytest.raises(ValueError):
            export.validate_trace(doc)

    def test_validate_rejects_unknown_phase(self):
        with pytest.raises(ValueError):
            export.validate_trace({"traceEvents": [{"ph": "Z", "name": "x"}]})

    def test_validate_rejects_empty(self):
        with pytest.raises(ValueError):
            export.validate_trace({"traceEvents": []})

    def test_write_trace_roundtrip(self, tmp_path):
        timing = _timing()
        root = model.bank_spans(timing, [2])
        path = tmp_path / "trace.json"
        export.write_trace(str(path), root)
        loaded = json.loads(path.read_text())
        assert export.validate_trace(loaded) > 0


# ----------------------------------------------------------------------
# Live end-to-end traces (service -> ... -> executor)
# ----------------------------------------------------------------------
class TestLiveServiceTrace:
    def test_request_ids_correlate_across_layers(self):
        from repro.service import MultiplicationService, ServiceConfig

        service = MultiplicationService(
            ServiceConfig(batch_size=4, ways_per_width=2)
        )
        with telemetry.tracing() as tracer:
            ids = [service.submit(a + 3, a + 11, 16) for a in range(8)]
            service.drain()
        admits = [s for s in tracer.walk() if s.name == "service.admit"]
        assert sorted(s.attrs["request_id"] for s in admits) == sorted(ids)
        batches = [s for s in tracer.walk() if s.name == "service.batch"]
        dispatched = sorted(
            rid for s in batches for rid in s.attrs["request_ids"]
        )
        assert dispatched == sorted(ids)
        # the same ids reach the dispatch span on the chosen way track
        for batch in batches:
            children = [c for c in batch.walk() if c.name == "dispatch"]
            assert children
            assert children[0].attrs["request_ids"] == batch.attrs[
                "request_ids"
            ]
            assert children[0].track == batch.attrs["way"]

    def test_stage_spans_carry_accounting(self):
        bank = MultiplierBank(16, ways=1)
        with telemetry.tracing() as tracer:
            bank.run_stream([(3, 5), (7, 9)])
        stages = [
            s for s in tracer.walk() if s.name.startswith("stage.")
        ]
        assert {s.name for s in stages} == {
            "stage.precompute",
            "stage.multiply",
            "stage.postcompute",
        }
        pre = next(s for s in stages if s.name == "stage.precompute")
        assert pre.attrs["jobs"] == 2
        assert pre.attrs["nor"] > 0
        assert pre.attrs["energy_fj"] > 0

    def test_magic_program_spans_recorded(self):
        bank = MultiplierBank(16, ways=1)
        with telemetry.tracing() as tracer:
            bank.run_stream([(3, 5)])
        programs = [s for s in tracer.walk() if s.name == "magic.program"]
        assert programs
        for span in programs:
            assert span.attrs["ops"] > 0

    def test_degrade_escalation_events_carry_request_ids(self):
        from repro.service import MultiplicationService, ServiceConfig

        service = MultiplicationService(
            ServiceConfig(batch_size=4, ways_per_width=2)
        )
        service.inject_fault(64)
        with telemetry.tracing() as tracer:
            ids = [service.submit(a + 3, a + 11, 64) for a in range(4)]
            results = service.drain()
        assert [r.product for r in results] == [
            (a + 3) * (a + 11) for a in range(4)
        ]
        detects = [s for s in tracer.walk() if s.name == "degrade.detect"]
        assert detects
        assert detects[0].attrs["request_ids"] == ids
        assert detects[0].attrs["check"] in ("residue", "differential")
        remaps = [s for s in tracer.walk() if s.name == "degrade.remap"]
        assert remaps  # the sa1 row was remapped onto a spare

    def test_results_unchanged_by_tracing(self):
        from repro.service import MultiplicationService, ServiceConfig

        def run(traced):
            service = MultiplicationService(
                ServiceConfig(batch_size=4, ways_per_width=2)
            )
            for a in range(8):
                service.submit(a + 3, a + 11, 16)
            if traced:
                with telemetry.tracing():
                    return [r.product for r in service.drain()]
            return [r.product for r in service.drain()]

        assert run(traced=True) == run(traced=False)


# ----------------------------------------------------------------------
# Baselines and the bench-compare gate
# ----------------------------------------------------------------------
class TestBaseline:
    def _metrics(self):
        return {
            "latency_cc": baseline.Metric(1000, baseline.LOWER_IS_BETTER),
            "throughput": baseline.Metric(50, baseline.HIGHER_IS_BETTER),
        }

    def test_record_load_roundtrip(self, tmp_path):
        path = baseline.record("unit", self._metrics(), directory=str(tmp_path))
        assert path.endswith("BENCH_unit.json")
        loaded = baseline.load("unit", directory=str(tmp_path))
        assert loaded["latency_cc"].value == 1000
        assert loaded["throughput"].direction == baseline.HIGHER_IS_BETTER

    def test_twenty_percent_latency_regression_fails(self):
        seeds = self._metrics()
        current = {
            "latency_cc": baseline.Metric(1200, baseline.LOWER_IS_BETTER),
            "throughput": baseline.Metric(50, baseline.HIGHER_IS_BETTER),
        }
        comparison = baseline.compare("unit", current, seeds, tolerance=0.10)
        assert not comparison.ok
        assert [d.name for d in comparison.regressions] == ["latency_cc"]

    def test_improvement_never_fails(self):
        seeds = self._metrics()
        current = {
            "latency_cc": baseline.Metric(500, baseline.LOWER_IS_BETTER),
            "throughput": baseline.Metric(200, baseline.HIGHER_IS_BETTER),
        }
        assert baseline.compare("unit", current, seeds, tolerance=0.10).ok

    def test_throughput_drop_fails_in_higher_direction(self):
        seeds = self._metrics()
        current = {
            "latency_cc": baseline.Metric(1000, baseline.LOWER_IS_BETTER),
            "throughput": baseline.Metric(30, baseline.HIGHER_IS_BETTER),
        }
        comparison = baseline.compare("unit", current, seeds, tolerance=0.10)
        assert [d.name for d in comparison.regressions] == ["throughput"]

    def test_missing_metric_flagged(self):
        seeds = self._metrics()
        current = {"latency_cc": baseline.Metric(1000)}
        comparison = baseline.compare("unit", current, seeds)
        assert comparison.missing == ["throughput"]
        assert not comparison.ok

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            baseline.load("ghost", directory=str(tmp_path))

    def test_load_rejects_wrong_schema(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text('{"schema": 99}')
        with pytest.raises(ValueError):
            baseline.load("bad", directory=str(tmp_path))

    def test_collectors_are_deterministic(self):
        first = baseline.collect_pipeline_metrics(n_bits=16, jobs=2)
        second = baseline.collect_pipeline_metrics(n_bits=16, jobs=2)
        assert {k: m.value for k, m in first.items()} == {
            k: m.value for k, m in second.items()
        }


class TestCli:
    def test_trace_command_writes_valid_file(self, tmp_path):
        out = tmp_path / "trace.json"
        code = cli.main(
            [
                "trace",
                "--bits",
                "16",
                "--jobs",
                "4",
                "--ways",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert export.validate_trace(doc) > 0
        # the model root span duration equals the bank makespan
        timing = BankTiming(
            n_bits=16, ways=2, pipeline=MultiplierBank(16, ways=2).timing().pipeline
        )
        bank_events = [
            e
            for e in doc["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "bank"
        ]
        assert bank_events[0]["dur"] == timing.makespan_cc(4)

    def test_bench_compare_record_then_ok(self, tmp_path, monkeypatch):
        fast = {
            "toy": lambda: {
                "latency_cc": baseline.Metric(100, baseline.LOWER_IS_BETTER)
            }
        }
        monkeypatch.setattr(baseline, "COLLECTORS", fast)
        assert (
            cli.main(
                [
                    "bench-compare",
                    "--record",
                    "--dir",
                    str(tmp_path),
                    "--names",
                    "toy",
                ]
            )
            == 0
        )
        assert (
            cli.main(
                ["bench-compare", "--dir", str(tmp_path), "--names", "toy"]
            )
            == 0
        )

    def test_bench_compare_fails_on_injected_regression(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: a 20% latency regression exits non-zero."""
        fast = {
            "toy": lambda: {
                "latency_cc": baseline.Metric(120, baseline.LOWER_IS_BETTER)
            }
        }
        monkeypatch.setattr(baseline, "COLLECTORS", fast)
        baseline.record(
            "toy",
            {"latency_cc": baseline.Metric(100, baseline.LOWER_IS_BETTER)},
            directory=str(tmp_path),
        )
        assert (
            cli.main(
                ["bench-compare", "--dir", str(tmp_path), "--names", "toy"]
            )
            == 1
        )

    def test_bench_compare_missing_baseline_fails(self, tmp_path):
        assert (
            cli.main(
                [
                    "bench-compare",
                    "--dir",
                    str(tmp_path),
                    "--names",
                    "pipeline",
                ]
            )
            == 1
        )

    def test_bench_compare_unknown_name_rejected(self, tmp_path):
        assert (
            cli.main(
                ["bench-compare", "--dir", str(tmp_path), "--names", "nope"]
            )
            == 2
        )

    def test_committed_seeds_pass(self):
        """The committed BENCH_*.json seeds match a fresh collection."""
        assert cli.main(["bench-compare", "--dir", "."]) == 0
