"""The behaviour corpus: what every command prints under several option sets,
in each format, on the bundled frame and on small frames written for it.

Each run is one in-process ``main`` call with the repository root as the
working directory.  ``golden/contract.json`` keeps one entry per run: its
label, its argv, its exit code, and the sha256 of its stdout and of its
stderr.  ``golden/verify_logs.txt`` keeps every ``verify`` log as text, so a
diff shows which check moved.  An argv names a repository file by its path
from the root, and a file written for the corpus as ``{inputs}/NAME``.
``tools/make_golden.py`` writes both files; the test below replays them.
"""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import tempfile

from pibgen.cli import FORMATS, main

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONTRACT = ROOT / "tests" / "golden" / "contract.json"
VERIFY_LOGS = ROOT / "tests" / "golden" / "verify_logs.txt"
BUNDLED = "src/pibgen/data/statewide_synthetic.csv"
INPUTS = "{inputs}"
ORACLE_SEED = 1  # the benchmark's default seed


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _workloads()
GOLDEN = WORKLOADS.GOLDEN_OPTIONS  # GOLDEN_ARGS without its --data pair (test_tools checks)
FIXED = ["--strata", "3", "--seed", "20240311", "--reps", "300"]
OPTION_SETS = {
    "golden": GOLDEN,
    "golden-pooled": [*GOLDEN, "--pooled"],
    "strata6": [*GOLDEN, "--strata", "6"],  # stratum 1 has no sampled treated unit
    "strata5-merged-pooled": [*GOLDEN, "--strata", "5", "--merge-strata", "--pooled"],
    "bsv0-pooled": ["--framework", "both", "--assumption", "bsv", "--lambda", "0", *FIXED,
                    "--pooled"],
    "mtr-reduced-pw0z0": ["--framework", "reduced", "--assumption", "mtr", "--pw0z0", "0.25",
                          *FIXED],
}
# outcomes on [0, 3], one of them outside [0, 1]
NONBINARY = ("id,in_sample,treatment,outcome,x1\n"
             "a1,1,1,3,0.1\na2,1,1,2.5,0.4\na3,1,0,1,0.2\na4,1,0,0.5,0.9\n"
             "a5,0,,2,0.3\na6,0,,,0.7\na7,0,,0,0.5\na8,0,,1.5,0.8\n")

# both sampled arms in each of 2 strata, and no z=0 outcome in the high-x1 one
NO_BAU = ("id,in_sample,treatment,outcome,x1\n"
          "b01,1,1,1,0.1\nb02,1,0,0,0.2\nb03,0,,1,0.3\nb04,0,,0,0.4\nb05,1,1,0,0.5\n"
          "b06,0,,1,0.6\nb07,1,1,1,1.1\nb08,0,,,1.2\nb09,0,,,1.3\nb10,1,0,1,1.4\n"
          "b11,0,,,1.5\nb12,0,,,1.6\n")


def runs() -> list[tuple[str, list[str]]]:
    """Every run of the corpus as (label, argv)."""
    data = ["--data", BUNDLED]
    split = ["--sample", f"{INPUTS}/sample.csv", "--population", f"{INPUTS}/population.csv"]
    nonbinary = ["--data", f"{INPUTS}/nonbinary.csv"]
    no_bau = ["--data", f"{INPUTS}/no_bau.csv", "--strata", "2"]
    absent = ["--data", "tests/golden/absent.csv"]
    out = [(f"{command} {name} {fmt}", [command, *data, *options, "--format", fmt])
           for name, options in OPTION_SETS.items()
           for command in ("analyze", "bounds", "points") for fmt in FORMATS]
    out += [(f"{command} bundled {fmt}", [command, *data, "--format", fmt])
            for command in ("strata", "lambda") for fmt in FORMATS]
    out += [("propensity bundled", ["propensity", *data]), ("verify bundled", ["verify", *data])]
    out += [(f"analyze split {fmt}", ["analyze", *split, *GOLDEN, "--format", fmt])
            for fmt in FORMATS]
    out += [
        ("bounds nonbinary json", ["bounds", *nonbinary, "--support", "0,3", "--framework",
                                   "both", "--assumption", "bsv", "--lambda", "0.5",
                                   "--format", "json"]),
        ("verify nonbinary", ["verify", *nonbinary, "--support", "0,3"]),
        # a stratum whose every spec is dropped: viable in strata, not in analyze
        ("analyze no-bau-stratum json", ["analyze", *no_bau, "--framework", "reduced",
                                         "--reps", "0", "--pooled", "--format", "json"]),
        ("strata no-bau-stratum json", ["strata", *no_bau, "--format", "json"]),
        # exit 2: data errors
        ("bounds nonbinary mtr", ["bounds", *nonbinary, "--support", "0,3", "--assumption",
                                  "mtr"]),
        ("bounds nonbinary outside-support", ["bounds", *nonbinary]),
        ("propensity covariates-misspelt", ["propensity", *data, "--covariates",
                                            "pretest,enrol"]),
        ("propensity exclude-misspelt", ["propensity", *data, "--exclude", "enrol"]),
        ("propensity split exclude-misspelt", ["propensity", *split, "--exclude", "enrol"]),
        ("analyze too-many-strata", ["analyze", *data, "--strata", "2000", "--reps", "0"]),
        # exit 3: config errors
        ("bounds data-absent", ["bounds", *absent]),
        ("bounds strata-zero", ["bounds", *data, "--strata", "0"]),
        ("bounds pw0z0-out-of-range", ["bounds", *data, "--pw0z0", "2"]),
        ("bounds bsv-no-lambda", ["bounds", *data, "--assumption", "bsv"]),
        ("bounds bsv-no-lambda data-absent", ["bounds", *absent, "--assumption", "bsv"]),
        ("analyze bsv-no-lambda model-absent", ["analyze", *data, "--assumption", "bsv",
                                                "--model", "tests/golden/absent.json"]),
        ("points bsv-no-lambda", ["points", *data, "--assumption", "bsv", "--reps", "10"]),
        ("strata bsv-no-lambda", ["strata", *data, "--assumption", "bsv"]),
        ("lambda bsv-no-lambda", ["lambda", *data, "--assumption", "bsv"]),
        # argparse: usage and help at a fixed width; a bad argv exits 3
        ("no-command", []),
        ("unknown-command", ["frobnicate"]),
        ("analyze format-xml", ["analyze", *data, "--format", "xml"]),
        ("help", ["--help"]),
        # every pooled spec left out: stratum 1 has no sampled treated unit
        ("analyze strata6-pooled md", ["analyze", *data, *OPTION_SETS["strata6"], "--pooled",
                                       "--format", "md"]),
    ]
    out += [(f"verify oracle_small {k:03d}", ["verify", "--data", f"{INPUTS}/oracle_{k:03d}.csv"])
            for k in range(WORKLOADS.ORACLE_FRAMES)]
    return out


def write_inputs(directory: pathlib.Path):
    """The corpus's own input files: the bundled frame split into a sample and
    a population file, the two small frames above, and the benchmark's
    ``oracle_small`` frames at seed 1."""
    with open(ROOT / BUNDLED, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    z = header.index("in_sample")
    for name, sampled in (("sample.csv", "1"), ("population.csv", "0")):
        with open(directory / name, "w", newline="", encoding="utf-8") as fh:
            body = [cells for cells in rows if cells[z] == sampled]
            csv.writer(fh, lineterminator="\n").writerows(
                [cells[:z] + cells[z + 1:] for cells in [header, *body]])
    (directory / "nonbinary.csv").write_text(NONBINARY, encoding="utf-8")
    (directory / "no_bau.csv").write_text(NO_BAU, encoding="utf-8")
    WORKLOADS.oracle_small(directory, ORACLE_SEED)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record() -> tuple[list[dict], str]:
    """Run every entry from the repository root, with ``PIBGEN_SEED`` unset:
    the contract entries, and the ``verify`` logs as one text."""
    entries, logs = [], []
    cwd, seed = os.getcwd(), os.environ.pop("PIBGEN_SEED", None)
    try:
        with tempfile.TemporaryDirectory() as inputs:
            write_inputs(pathlib.Path(inputs))
            os.chdir(ROOT)
            for label, argv in runs():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([arg.replace(INPUTS, inputs) for arg in argv])
                entries.append({"label": label, "argv": argv, "exit": code,
                                "stdout": _sha256(out.getvalue()),
                                "stderr": _sha256(err.getvalue())})
                if argv[:1] == ["verify"]:
                    logs.append(f"== {label}: exit {code}\n{out.getvalue()}")
    finally:
        os.chdir(cwd)
        if seed is not None:
            os.environ["PIBGEN_SEED"] = seed
    return entries, "".join(logs)


def contract_text(entries) -> str:
    """The contract file: one entry per line, so a diff shows the runs that moved."""
    return "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n"


def changed_labels(old, new) -> list[str]:
    """The labels whose entry differs between two contracts, or that one of
    them lacks: the new contract's order, then the labels it dropped."""
    before = {entry["label"]: entry for entry in old}
    after = {entry["label"]: entry for entry in new}
    return [label for label in {**after, **before} if before.get(label) != after.get(label)]


def test_every_corpus_entry_replays():
    entries, logs = record()
    assert len({entry["label"] for entry in entries}) == len(entries)
    old = json.loads(CONTRACT.read_text(encoding="utf-8"))
    changed = changed_labels(old, entries)
    assert not changed, f"corpus entries that changed: {changed}"
    assert logs == VERIFY_LOGS.read_text(encoding="utf-8")


def test_changed_labels_names_each_moved_added_and_dropped_run():
    old = [{"label": "a", "exit": 0}, {"label": "b", "exit": 0}, {"label": "c", "exit": 0}]
    new = [{"label": "d", "exit": 3}, {"label": "b", "exit": 2}, {"label": "a", "exit": 0}]
    assert changed_labels(old, new) == ["d", "b", "c"]
    assert changed_labels(new, new) == []
