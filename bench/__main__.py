"""Run every workload in fresh processes, or compare two result files.

    PYTHONPATH=src python -m bench [--seed S] [--repeats 3] [--trace DIR] [--quick] [--out FILE]
    python -m bench compare BASE.json NEW.json

Each repeat runs the four workloads one after another, each in its own
``bench/run.py`` process, so load comes from one process at a time;
``setup_s`` is that process's own set-up, and its median is taken over
the repeats.  Host-clock metrics are the median over repeats;
cycle-clock metrics must be bit-identical across repeats, or the
command names the metric and exits non-zero, as it does on any wrong
result.  ``--trace DIR`` then runs one traced process per workload and
writes a Chrome/Perfetto trace per workload plus ``layers.json``.
``--out`` writes the results file that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from bench import compare
from bench.metrics import CATALOGUE, SPEC, WORKLOADS, quartiles

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def run_workload(workload: str, args, report: Path, trace_dir: str = "") -> Dict:
    command = [
        sys.executable, str(RUN), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--setup-samples", "1", "--report", str(report),
        "--trace", "1" if trace_dir else "0",
    ] + (["--trace-dir", trace_dir] if trace_dir else []) + (
        ["--quick"] if args.quick else []
    )
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(done.stderr)
    if not report.exists():
        raise SystemExit(f"bench: {workload} exited {done.returncode} without a report")
    result = json.loads(report.read_text())
    result["returncode"] = done.returncode
    return result


def suite(args, scratch: Path) -> int:
    runs: Dict[str, List[Dict]] = {w: [] for w in WORKLOADS}
    for repeat in range(args.repeats):
        for workload in WORKLOADS:
            result = run_workload(workload, args, scratch / f"{workload}.{repeat}.json")
            runs[workload].append(result)
            print(f"# repeat {repeat + 1}/{args.repeats} {workload}: "
                  f"{result['passes']} passes, correct={result['correct']}",
                  file=sys.stderr)

    problems: List[str] = []
    table: Dict[str, Dict[str, Dict]] = {}
    for workload, results in runs.items():
        for result in results:
            if result["returncode"] or not result["correct"]:
                problems.append(
                    f"{workload}: wrong={result['wrong']} "
                    f"determinism_mismatches={result['determinism_mismatches']}"
                )
        table[workload] = {}
        for name, first in results[0]["metrics"].items():
            metric = CATALOGUE[name]
            values = [r["metrics"][name]["value"] for r in results]
            if metric.clock == "cycle" and len(set(values)) > 1:
                problems.append(f"{workload}: {name} differs across repeats: {values}")
            table[workload][name] = {
                "unit": first["unit"], "clock": metric.clock,
                "better": metric.better, "bound": metric.bound, "values": values,
            }

    print(f"{'workload':16s} {'metric':18s} {'median':>14s} {'unit':9s} "
          f"{'clock':6s} {'q1 .. q3':>27s} {'bound':>6s}")
    for workload, metrics in table.items():
        for name, entry in metrics.items():
            q1, median, q3 = quartiles(entry["values"])
            print(f"{workload:16s} {name:18s} {median:>14.6g} {entry['unit']:9s} "
                  f"{entry['clock']:6s} {q1:>13.6g} .. {q3:<11.6g} {entry['bound']:>6.0%}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "repeats": args.repeats, "seconds": args.seconds,
            "quick": args.quick, "workloads": table,
        }, indent=2))
        print(f"results: {args.out}")

    if args.trace:
        problems += traced(args, scratch)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def traced(args, scratch: Path) -> List[str]:
    trace_dir = Path(args.trace).resolve()
    trace_dir.mkdir(parents=True, exist_ok=True)
    problems, layers = [], {}
    for workload in WORKLOADS:
        result = run_workload(
            workload, args, scratch / f"{workload}.trace.json", str(trace_dir)
        )
        if result["returncode"] or not result["correct"]:
            problems.append(f"{workload}: traced run failed")
        layers[workload] = json.loads(
            (trace_dir / f"{workload}.layers.json").read_text()
        )
    (trace_dir / "layers.json").write_text(json.dumps(layers, indent=2))
    for workload, entry in layers.items():
        breakdown = entry["pass"]
        print(f"\n{workload}: traced wall {breakdown['wall_s']:.3f} s, coverage "
              f"{breakdown['coverage']:.1%}, trace.overhead {entry['overhead']:+.1%}, "
              f"trace {trace_dir / entry['trace']}")
        for layer, stats in sorted(
            breakdown["layers"].items(), key=lambda item: -item[1]["self_s"]
        ):
            print(f"  {layer:28s} {stats['self_s']:9.4f} s {stats['share']:7.1%} "
                  f"{stats['calls']:8d} calls")
        for name, value in entry["metrics"].items():
            if not name.endswith("_share"):
                print(f"  {name:40s} {value:.6g}")
        if entry["absent"]:
            print(f"  absent entry points: {', '.join(entry['absent'])}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m bench compare")
        parser.add_argument("base")
        parser.add_argument("new")
        options = parser.parse_args(argv[1:])
        return compare.main(options.base, options.new)
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--trace", metavar="DIR", help="also write traces and layers.json here")
    parser.add_argument("--quick", action="store_true",
                        help="about 1 s per workload; numbers not comparable")
    parser.add_argument("--out", metavar="FILE", help="write the results here, for compare")
    args = parser.parse_args(argv)
    args.seconds = 1 if args.quick else SPEC["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-") as scratch:
        return suite(args, Path(scratch))


if __name__ == "__main__":
    sys.exit(main())
