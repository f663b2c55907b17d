#!/usr/bin/env python3
"""Self-test of the benchmark itself: ``python3 perfbench/selftest.py``.

1. The generator port reproduces the bundled dataset byte for byte.
2. The benchmark's analyze options equal the acceptance suite's GOLDEN_ARGS.
3. A deliberately wrong expected output on one op moves fail_share above 0.
4. Every workload runs clean, traced and untraced, on a non-default seed, and
   reports every metric BENCHMARK.json names.
5. Outside a pibgen checkout the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import synth
import worker
import workloads

ROOT = run.ROOT
SEED = 7  # not run.py's default of 1


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def test_generator_reproduces_bundled_csv(tmp: Path) -> None:
    out = tmp / "statewide_synthetic.csv"
    synth.write_csv(synth.generate(**synth.BUNDLED), out)
    expect(out.read_bytes() == workloads.BUNDLED_CSV.read_bytes(),
           "generator port does not reproduce src/pibgen/data/statewide_synthetic.csv")


def test_golden_options() -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    from test_acceptance import GOLDEN_ARGS

    i = GOLDEN_ARGS.index("--data")
    expect(GOLDEN_ARGS[:i] + GOLDEN_ARGS[i + 2:] == workloads.GOLDEN_OPTIONS,
           "workloads.GOLDEN_OPTIONS differs from tests/test_acceptance.py GOLDEN_ARGS")


def test_wrong_expectation_counts_as_failure(tmp: Path) -> None:
    spec = workloads.statewide_1k(tmp, SEED)
    corrupted = tmp / "analyze.json"
    corrupted.write_bytes(workloads.GOLDEN_JSON.read_bytes().replace(b"pibgen", b"pibgem", 1))
    good = workloads.make_check(spec)
    bad = workloads.make_check({**spec, "golden": str(corrupted)})
    calls = itertools.count()

    def check(code, out):  # the second op is checked against the wrong golden
        return (bad if next(calls) == 1 else good)(code, out)

    from pibgen.cli import main

    tally = worker.Tally()
    worker.measure(spec, check, main, 0.5, False, tally)
    expect(tally.attempted >= 2, f"only {tally.attempted} op(s) ran")
    expect(tally.failed == 1, f"{tally.failed} failed ops, expected exactly 1")
    expect(tally.failed / tally.attempted > 0, "fail_share stayed 0")


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)


def test_workloads_run_clean_on_another_seed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(ROOT, "--workload", workload["name"], "--seed", str(SEED),
                                 "--seconds", "2", "--trace", str(trace))
            where = f"{workload['name']} --trace {trace}"
            expect(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0,
                   f"{where}: {proc.stdout}")
            names = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == names, f"{where} metrics {sorted(got)} != BENCHMARK.json {key}")


def test_refuses_outside_a_checkout(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_benchmark(bare, "--workload", "statewide_1k", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    expect(proc.returncode != 0, "benchmark exited 0 outside a pibgen checkout")
    expect(proc.stdout.strip() == "", f"benchmark printed a result: {proc.stdout}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    run.WORK.mkdir(parents=True, exist_ok=True)
    failures = 0
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        tmp = Path(tmp)
        for name, test in [
            ("generator reproduces the bundled CSV",
             lambda: test_generator_reproduces_bundled_csv(tmp)),
            ("analyze options equal GOLDEN_ARGS", test_golden_options),
            ("wrong expected output counts as a failed op",
             lambda: test_wrong_expectation_counts_as_failure(tmp)),
            (f"every workload runs clean on seed {SEED}, traced and untraced",
             test_workloads_run_clean_on_another_seed),
            ("refuses to run outside a pibgen checkout",
             lambda: test_refuses_outside_a_checkout(tmp)),
        ]:
            try:
                test()
                print(f"PASS {name}")
            except SelfTestFailure as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
