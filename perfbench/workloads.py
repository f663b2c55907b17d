"""The benchmark's three workloads: their inputs, the argv of each op, and the
check every op's output must pass.

``PREPARE[name](work, seed)`` runs once per benchmark run, before anything is
timed: it writes the inputs, which depend only on the workload seed, and
returns a JSON-able spec.  Each worker process turns the spec back into a
check with ``make_check``; a check returns ``None`` for a correct output and a
one-line reason otherwise.  This module imports no numpy, so a worker's import
of ``pibgen.cli`` is cold.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_CSV = ROOT / "src" / "pibgen" / "data" / "statewide_synthetic.csv"
GOLDEN_JSON = ROOT / "tests" / "golden" / "analyze.json"

# GOLDEN_ARGS of tests/test_acceptance.py without its --data pair;
# perfbench/selftest.py checks that the two stay equal.
GOLDEN_OPTIONS = [
    "--framework", "both",
    "--assumption", "worst", "--assumption", "bsv", "--assumption", "mtr",
    "--lambda", "0.3", "--lambda", "asmd:max",
    "--strata", "3", "--pw0z0", "0.5", "--seed", "20240311", "--reps", "300",
]

POPULATION = {"n": 100_000, "n_sample": 5_000, "n_treated": 3_036}  # bundled 34/56 split
ORACLE_FRAMES = 60  # every combination of the shape cycles, twice
TOL = 1e-12


def analyze_argv(data: Path, strata: int | None = None) -> list[str]:
    options = list(GOLDEN_OPTIONS)
    if strata is not None:
        options[options.index("--strata") + 1] = str(strata)
    return ["analyze", "--data", str(data), *options, "--format", "json"]


def statewide_1k(work: Path, seed: int) -> dict:
    """The bundled 1,029-school frame with the golden options.  The seed does
    not change this input: its output must equal the committed golden."""
    return {"name": "statewide_1k", "ops": [analyze_argv(BUNDLED_CSV)], "units": [1029],
            "golden": str(GOLDEN_JSON)}


def expected_blocks(cols) -> dict:
    """The report's frame, design and rates blocks and the naive estimate,
    computed from the generated columns instead of by pibgen."""
    pw0z0 = float(GOLDEN_OPTIONS[GOLDEN_OPTIONS.index("--pw0z0") + 1])
    sampled = cols.sampled == 1
    treated = cols.treatment == 1
    control = cols.treatment == 0
    y = cols.outcome.astype(float)
    n, n_sample, n1 = len(y), int(sampled.sum()), int(treated.sum())
    e1, e0 = y[treated].mean(), y[control].mean()
    return {
        "frame": {"n_units": n, "n_sample": n_sample, "n_sample_treated": n1,
                  "n_sample_control": n_sample - n1, "support": [0.0, 1.0]},
        "design": {"p_z1": n_sample / n, "p_w1_given_z1": n1 / n_sample,
                   "p_w0_given_z0": pw0z0},
        "rates": {"e_y1_w1z1": float(e1), "e_y0_w0z1": float(e0),
                  "e_y0_w0z0": float(y[~sampled].mean())},
        "naive": float(e1 - e0),
    }


def population_100k(work: Path, seed: int) -> dict:
    """A whole-state frame drawn from the bundled model at scale, seeded by the
    workload seed; each op's blocks are checked against the generated columns."""
    import synth

    cols = synth.generate(seed=seed, **POPULATION)
    path = work / "population.csv"
    synth.write_csv(cols, path)
    return {"name": "population_100k", "ops": [analyze_argv(path, strata=5)],
            "units": [POPULATION["n"]], "expected": expected_blocks(cols)}


def oracle_frame(rng: random.Random, k: int) -> list[tuple]:
    """One small binary frame as (in_sample, treatment, outcome) rows.

    The shape follows from ``k`` alone: 8..12 units, 1..3 treated and 1..2
    control sampled units, and even-numbered frames label every z=0 unit with a
    hypothetical arm.  Every seed therefore draws the same mix of shapes, and
    so the same enumeration sizes; the seed sets the outcomes, which z=0 units
    carry one, the arm labels and the row order.
    """
    n = 8 + k % 5
    labelled = k % 2 == 0
    rows = [(1, 1, rng.randint(0, 1)) for _ in range(1 + k % 3)]
    rows += [(1, 0, rng.randint(0, 1)) for _ in range(1 + (k // 3) % 2)]
    while len(rows) < n:
        w = rng.randint(0, 1) if labelled else None
        # control-labelled z=0 units carry their business-as-usual outcome
        bearing = w == 0 or rng.random() < 0.5
        rows.append((0, w, rng.randint(0, 1) if bearing else None))
    rng.shuffle(rows)
    return rows


def oracle_small(work: Path, seed: int) -> dict:
    """`verify` over seeded small binary frames: the exact bound formulas on
    Fraction inputs against the enumeration oracles."""
    rng = random.Random(seed)
    ops, units = [], []
    for k in range(ORACLE_FRAMES):
        rows = oracle_frame(rng, k)
        path = work / f"oracle_{k:03d}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "in_sample", "treatment", "outcome"])
            for i, (z, w, y) in enumerate(rows):
                writer.writerow([f"u{i}", z, "" if w is None else w, "" if y is None else y])
        ops.append(["verify", "--data", str(path)])
        units.append(len(rows))
    return {"name": "oracle_small", "ops": ops, "units": units}


PREPARE = {
    "statewide_1k": statewide_1k,
    "population_100k": population_100k,
    "oracle_small": oracle_small,
}


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= TOL


def make_check(spec: dict):
    """The output check of one op, as a function of (exit code, stdout)."""
    if spec["name"] == "statewide_1k":
        golden = Path(spec["golden"]).read_bytes()

        def check(code: int, out: str) -> str | None:
            if code != 0:
                return f"exit code {code}"
            if out.encode("utf-8") != golden:
                return f"output differs from {spec['golden']}"
            return None

    elif spec["name"] == "population_100k":
        expected = spec["expected"]
        first: list[str] = []  # every op's report must equal the first one

        def check(code: int, out: str) -> str | None:
            if code != 0:
                return f"exit code {code}"
            if not first:
                first.append(out)
            elif out != first[0]:
                return "report bytes differ from the first report of this process"
            doc = json.loads(out)
            for block in ("frame", "design", "rates"):
                for key, want in expected[block].items():
                    if not _close(doc[block][key], want):
                        return f"{block}.{key} = {doc[block][key]!r}, expected {want!r}"
            naive = next(p for p in doc["point_estimates"] if p["method"] == "naive")
            if not _close(naive["estimate"], expected["naive"]):
                return f"naive estimate {naive['estimate']!r}, expected {expected['naive']!r}"
            return None

    else:
        def check(code: int, out: str) -> str | None:
            if code != 0:
                return f"exit code {code}"
            if not out.endswith("all oracle checks passed\n"):
                return "verify did not report 'all oracle checks passed'"
            return None

    return check
