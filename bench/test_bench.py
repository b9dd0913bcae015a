"""Checks of the benchmark itself: ``python -m pytest bench -q``.

Runs every workload in ``--quick`` mode (tiny passes) and checks that
what it prints matches ``BENCHMARK.json`` and the metric catalogue,
that the oracle gate ran over every result and catches a wrong one,
and that the comparator's verdicts follow its rules.
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare
from bench.metrics import CATALOGUE, SPEC, SUITE_ONLY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload: str, tmp_path: Path, *extra: str, cwd: Path = ROOT, seed: int = 7):
    tmp_path.mkdir(parents=True, exist_ok=True)
    report = tmp_path / f"{workload}.json"
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--quick", "--setup-samples", "1", "--report", str(report),
         *extra],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return done, report


def test_spec_follows_the_contract():
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert SPEC["command"][1].startswith(SPEC["paths"][0] + "/")
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert bounds["mults_per_mcc"] == 0, "cycle-clock metrics may not move"


def test_suite_only_metrics_stay_out_of_the_spec():
    listed = {m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}
    assert not listed & {m.name for m in SUITE_ONLY}
    assert all(m.clock == "cycle" for m in SUITE_ONLY)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_the_spec_metrics(workload, tmp_path):
    done, report_path = run(workload, tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    report = json.loads(report_path.read_text())
    assert report["oracle_checked"] == report["attempted"] >= 1
    for name, entry in report["metrics"].items():
        metric = CATALOGUE[name]
        assert workload in metric.workloads and entry["unit"] == metric.unit
    assert set(report["metrics"]) == {
        m.name for m in CATALOGUE.values() if workload in m.workloads
    }


@pytest.mark.parametrize("workload", ["serve-portfolio", "crypto"])
def test_cycle_clock_metrics_do_not_depend_on_the_seed(workload, tmp_path):
    values = []
    for seed in (7, 8):
        done, report = run(workload, tmp_path / str(seed), seed=seed)
        assert done.returncode == 0, done.stderr
        metrics = json.loads(report.read_text())["metrics"]
        values.append({
            name: entry["value"] for name, entry in metrics.items()
            # Array energy depends on the operand bits written.
            if CATALOGUE[name].clock == "cycle" and name != "energy_fj_per_op"
        })
    assert values[0] == values[1] and "mults_per_mcc" in values[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_trace_and_layers(workload, tmp_path):
    done, _ = run(workload, tmp_path, "--trace", "1", "--trace-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    trace = json.loads((tmp_path / f"{workload}.trace.json").read_text())
    spans = {event["name"] for event in trace["traceEvents"] if event["ph"] == "X"}
    assert {"bench.setup", "bench.pass"} <= spans and len(spans) > 2
    layers = json.loads((tmp_path / f"{workload}.layers.json").read_text())
    assert layers["absent"] == []
    assert layers["pass"]["coverage"] >= 0.95


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, _ = run("stream", tmp_path, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_oracle_gate_catches_a_wrong_product():
    sys.path.insert(0, str(ROOT / "src"))
    from bench.workloads import Stream

    workload = Stream(seed=3, quick=True)
    workload.setup()
    inputs = workload.inputs()
    raw = workload.run(inputs, contextlib.nullcontext)
    raw[0][1].products[0] += 1
    scored = workload.score(inputs, raw)
    assert scored.wrong == 1 and scored.failed == 1
    assert float("inf") in scored.rungs[0].latencies


@pytest.mark.parametrize(
    "better, base, new, expected",
    [
        ("higher", [100] * 10, [120] * 10, "improved"),
        ("higher", [100] * 10, [80] * 10, "worse"),
        ("higher", [100, 101, 99, 100, 100], [101, 100, 99, 100, 101], "unchanged"),
        ("lower", [100, 60, 140, 100, 100], [105, 70, 150, 95, 100], "unresolved"),
        ("lower", [100] * 4, [99] * 4, "unchanged"),
    ],
)
def test_compare_verdicts(better, base, new, expected):
    assert compare.verdict(better, 0.1, base, new) == expected


def test_compare_needs_one_pair_for_a_deterministic_metric():
    assert compare.verdict("lower", 0.0, [100] * 3, [99] * 3, min_pairs=1) == "improved"


def test_compare_flags_a_moved_cycle_metric():
    base = {"workloads": {"stream": {"mults_per_mcc": {"values": [500.0, 500.0]}}}}
    new = {"workloads": {"stream": {"mults_per_mcc": {"values": [490.0, 490.0]}}}}
    lines, worse = compare.compare(base, new)
    assert worse == 1 and "CYCLE-CLOCK METRIC MOVED" in lines[-1]
