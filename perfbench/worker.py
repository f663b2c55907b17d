"""One measuring process of a benchmark run.

    python3 perfbench/worker.py SPEC SECONDS TRACE TRACE_FILE

The worker imports ``pibgen.cli`` and makes the first op (together, one
set-up sample), then runs closed-loop ops for SECONDS: one client, the next
op only after the previous one returned.  With TRACE=1 every other pass over
the op list runs traced and the spans go to TRACE_FILE.  SPEC is the JSON
file ``run.py`` wrote for the workload.  The worker prints one JSON object.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


class Tally:
    """Ops attempted and failed; an op fails on a non-zero exit, an exception
    or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def checked(check, index: int, code, out: str, err: str) -> str | None:
    reason = check(code, out)
    if reason is None:
        return None
    return " ".join([f"op {index}: {reason}", *err.strip().splitlines()[-1:]])


def run_op(main, argv, tracer=None):
    """One call of ``pibgen.cli.main`` with stdout and stderr in memory."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call(tracing.ROOT_SPAN, main, None, argv)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def measure(spec, check, main, seconds: float, trace: bool, tally: Tally, tracer=None) -> dict:
    """Closed loop over the spec's ops for ``seconds``.

    With ``trace`` every other pass over the op list runs traced, so traced and
    untraced ops see the same inputs and the same drift of the machine.
    """
    ops = spec["ops"]
    untraced_s, traced_s, units, checks = [], [], 0, []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or (trace and not traced_s):
        index = i % len(ops)
        traced = trace and (i // len(ops)) % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        try:
            elapsed, code, out, err = run_op(main, ops[index], tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        tally.record(checked(check, index, code, out, err))
        if traced:
            traced_s.append(elapsed)
            checks.append(sum(line.startswith(("ok ", "MISMATCH ")) for line in out.splitlines()))
        else:
            untraced_s.append(elapsed)
            units += spec["units"][index]
        i += 1
    return {"untraced_s": untraced_s, "traced_s": traced_s, "units": units, "checks": checks}


def main(argv) -> int:
    spec_path, seconds, trace, trace_file = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    check = workloads.make_check(spec)
    trace = trace == "1"
    tally = Tally()
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    from pibgen.cli import main as pibgen_main

    _, code, out, err = run_op(pibgen_main, spec["ops"][0])
    setup_s = time.perf_counter() - start
    tally.record(checked(check, 0, code, out, err))

    tracer = tracing.Tracer() if trace else None
    loop = measure(spec, check, pibgen_main, float(seconds), trace, tally, tracer)
    if trace:
        tracer.write(trace_file)
        loop["layers"] = list(tracing.per_op(tracer.spans).values())
    print(json.dumps({
        **loop,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "first_report_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
