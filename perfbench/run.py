#!/usr/bin/env python3
"""pibgen benchmark runner (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A run writes the workload's inputs once, then starts WORKERS fresh worker
processes one after another (``worker.py``).  Each is one closed-loop client
making in-process ``pibgen.cli.main`` calls, with the bootstrap at its
default of one thread, and measures for S / WORKERS seconds.  Pooling the ops
of several processes averages out what differs between processes (hash seed,
memory layout), which otherwise dominates the run-to-run spread; each
worker's import plus first op is one set-up sample.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  The last line of
stdout is one JSON object.  ``all`` runs every workload and prints their
tables.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REQUIRED = (ROOT / "src" / "pibgen" / "cli.py", ROOT / "tests" / "golden" / "analyze.json")
WORKERS = 5
WORKER_TIMEOUT_S = 60
P90_MIN_OPS = 100

# metric -> (unit, which per-op tally, span name); "_ms" metrics are self times
LAYER_METRICS = {
    "cli.self_ms": ("ms", "self_ms", "cli"),
    "frame.load_ms": ("ms", "self_ms", "frame.load"),
    "frame.rows_loaded": ("count", "count", "frame.load"),
    "frame.stats_ms": ("ms", "self_ms", "frame.stats"),
    "frame.stats_calls": ("count", "calls", "frame.stats"),
    "stratify.assign_ms": ("ms", "self_ms", "stratify.assign"),
    "stratify.slice_ms": ("ms", "self_ms", "stratify.slice"),
    "stratify.slice_calls": ("count", "calls", "stratify.slice"),
    "stratify.units_resliced": ("count", "count", "stratify.slice"),
    "bounds.stratified_ms": ("ms", "self_ms", "bounds.stratified"),
    "bounds.stratified_calls": ("count", "calls", "bounds.stratified"),
    "bounds.formula_ms": ("ms", "self_ms", "bounds.formula"),
    "bounds.formula_calls": ("count", "calls", "bounds.formula"),
    "points.ipw_ms": ("ms", "self_ms", "points.ipw"),
    "points.bootstrap_reps": ("count", "count", "points.ipw"),
    "points.naive_ms": ("ms", "self_ms", "points.naive"),
    "points.subclass_ms": ("ms", "self_ms", "points.subclass"),
    "propensity.fit_ms": ("ms", "self_ms", "propensity.fit"),
    "propensity.fit_iterations": ("count", "count", "propensity.fit"),
    "propensity.balance_ms": ("ms", "self_ms", "propensity.balance"),
    "propensity.scores_ms": ("ms", "self_ms", "propensity.scores"),
    "propensity.scores_calls": ("count", "calls", "propensity.scores"),
    "lambda_select.ms": ("ms", "self_ms", "lambda_select"),
    "report.render_ms": ("ms", "self_ms", "report.render"),
    "report.bytes_out": ("bytes", "count", "report.render"),
    "oracle.enumerate_ms": ("ms", "self_ms", "oracle.enumerate"),
    "oracle.exact_ms": ("ms", "self_ms", "oracle.exact"),
    "oracle.completions": ("count", "count", "oracle.enumerate"),
}


def run_worker(spec_path: Path, seconds: float, trace: bool, trace_file: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path), repr(seconds),
         str(int(trace)), str(trace_file)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(workers: list[dict]) -> dict:
    """Per-layer metrics, each a mean per traced op over every worker."""
    ops = [op for w in workers for op in w["layers"]]
    checks = [c for w in workers for c in w["checks"]]

    def mean(values):
        return sum(values) / len(ops)

    metrics = {name: {"value": mean(op[kind].get(span, 0) for op in ops), "unit": unit}
               for name, (unit, kind, span) in LAYER_METRICS.items()}
    metrics["oracle.checks"] = {"value": mean(checks), "unit": "count"}
    metrics["trace.op_ms"] = {"value": mean(op["op_ms"] for op in ops), "unit": "ms"}
    traced = [t for w in workers for t in w["traced_s"]]
    untraced = [t for w in workers for t in w["untraced_s"]]
    metrics["trace.overhead_ms"] = {
        "value": (statistics.median(traced) - statistics.median(untraced)) * 1e3, "unit": "ms"}
    return metrics


def self_time_gap(metrics) -> float:
    """Traced op time minus the sum of every self-time metric (0 up to rounding)."""
    covered = sum(metrics[name]["value"] for name, (_, kind, _) in LAYER_METRICS.items()
                  if kind == "self_ms")
    return metrics["trace.op_ms"]["value"] - covered


def end_to_end(workers: list[dict]) -> tuple[dict, list]:
    """The end-to-end metrics, and the table rows that also show op_ms.p90."""
    times = [t for w in workers for t in w["untraced_s"]]
    metrics = {
        "op_ms.p50": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "units_per_s": {"value": sum(w["units"] for w in workers) / sum(times),
                        "unit": "units/s"},
        "peak_rss_mb": {"value": statistics.median(w["peak_rss_mb"] for w in workers),
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(w["setup_s"] for w in workers), "unit": "s"},
    }
    p90 = statistics.quantiles(times, n=10)[-1] * 1e3 if len(times) >= P90_MIN_OPS else None
    sample = f"n={len(times)} ops"
    rows = [
        ("op_ms.p50", metrics["op_ms.p50"]["value"], "ms", sample),
        ("op_ms.p90", p90, "ms", f"{sample}; reported from {P90_MIN_OPS} ops"),
        ("units_per_s", metrics["units_per_s"]["value"], "units/s", ""),
        ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB",
         f"median of {len(workers)} fresh processes"),
        ("setup_s", metrics["setup_s"]["value"], "s",
         f"median of {len(workers)} fresh processes"),
    ]
    return metrics, rows


def print_table(name, seed, rows, notes) -> None:
    """Human-readable lines; each row is (metric, value or None, unit, note)."""
    print(f"workload {name}  seed {seed}")
    for metric, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6f}"
        print(f"  {metric:<26} {shown:>16} {unit:<8} {note}".rstrip())
    for note in notes:
        print(f"  {note}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a pibgen checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(workloads.PREPARE[name](work, seed)), encoding="utf-8")
        workers = [run_worker(spec_path, seconds / WORKERS, trace,
                              WORK / f"trace-{name}-seed{seed}-worker{i}.jsonl")
                   for i in range(WORKERS)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    notes = [f"FAILED {reason}" for w in workers for reason in w["reasons"]][:5]
    if len({w["first_report_sha256"] for w in workers}) > 1:
        failed += 1
        notes.append("FAILED the first report differs between worker processes")
    correct = failed == 0
    if trace:
        metrics = layer_metrics(workers)
        rows = [(key, m["value"], m["unit"], "") for key, m in metrics.items()]
        gap = self_time_gap(metrics)
        notes.append(f"{sum(len(w['traced_s']) for w in workers)} traced ops; traced op time "
                     f"minus the summed self times: {gap:.3e} ms")
        if abs(gap) > 1e-6 * max(1.0, metrics["trace.op_ms"]["value"]):
            correct = False
            notes.append("FAILED self times do not sum to the traced op time")
    else:
        metrics, rows = end_to_end(workers)
    rows.append(("fail_share", failed / attempted, "share", f"{failed} of {attempted} ops failed"))
    print_table(name, seed, rows, notes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    status = 0
    for name in workloads.PREPARE:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            sys.stderr.write(proc.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.PREPARE, "all"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (inputs only)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per run, split over the workers")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
