"""Regenerate the golden report files used by the CLI determinism test.

The goldens freeze the oracle-validated engine's output on the bundled
dataset, so the tool first runs the oracle suite in a subprocess of the same
interpreter and ``verify`` on the bundled dataset, and writes nothing unless
both pass.  When it overwrites ``analyze.json`` it prints what changed: the
number of changed leaves, the key path and the old and new value of each, and
the largest absolute difference between an old and a new number.  For
``analyze.md`` and ``analyze.csv`` it prints the number of changed lines.
Last it writes the behaviour corpus (``tests/test_corpus.py``) and prints the
label of each run whose entry changed.
"""

import difflib
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from pibgen.cli import main
from pibgen.data import synthetic_path
from test_acceptance import GOLDEN, GOLDEN_ARGS
import test_corpus

ORACLE_SUITE = ("tests/test_oracle.py",
                "tests/test_acceptance.py::test_criterion_1_oracle_equivalence")
ABSENT = "(absent)"


def changed_leaves(old, new, path="") -> list[tuple[str, object, object]]:
    """(key path, old value, new value) of each leaf that differs between two
    JSON documents, in the old document's key order.  A key on one side only
    pairs with ``ABSENT``; lists of different lengths differ as one leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = [*old, *(key for key in new if key not in old)]
        return [change for key in keys for change in changed_leaves(
            old.get(key, ABSENT), new.get(key, ABSENT), f"{path}.{key}" if path else key)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [change for i, pair in enumerate(zip(old, new))
                for change in changed_leaves(*pair, f"{path}[{i}]")]
    same = type(old) is type(new) and old == new
    return [] if same else [(path, old, new)]


def change_report(old, new) -> str:
    """The changed leaves of ``new`` against ``old`` and the largest absolute
    numeric difference, as printed after ``analyze.json`` is overwritten."""
    changes = changed_leaves(old, new)

    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    largest = max((abs(b - a) for _, a, b in changes if number(a) and number(b)), default=0)
    lines = [f"analyze.json: {len(changes)} changed leaves, "
             f"largest absolute difference {largest!r}"]
    lines += [f"  {path}: {a!r} -> {b!r}" for path, a, b in changes]
    return "\n".join(lines)


def changed_lines(old: str, new: str) -> int:
    """Changed lines between two texts: each block where a line diff differs
    counts its longer side, so a line edited in place is one changed line."""
    matcher = difflib.SequenceMatcher(None, old.splitlines(), new.splitlines(), autojunk=False)
    return sum(max(i2 - i1, j2 - j1)
               for tag, i1, i2, j1, j2 in matcher.get_opcodes() if tag != "equal")


def verify_bundled():
    """Raise ``SystemExit`` unless ``verify`` passes on the bundled dataset."""
    code = main(["verify", "--data", synthetic_path()])
    if code != 0:
        raise SystemExit(f"verify exited {code} on the bundled dataset; goldens not written")


def write_corpus():
    """Write the corpus's contract and ``verify`` logs, and print the labels
    whose entry changed."""
    contract = test_corpus.CONTRACT
    old = json.loads(contract.read_text(encoding="utf-8")) if contract.exists() else []
    entries, logs = test_corpus.record()
    contract.write_text(test_corpus.contract_text(entries), encoding="utf-8")
    test_corpus.VERIFY_LOGS.write_text(logs, encoding="utf-8")
    changed = test_corpus.changed_labels(old, entries)
    print(f"contract.json: {len(entries)} runs, {len(changed)} changed")
    for label in changed:
        print(f"  {label}")


def run():
    suite = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            *ORACLE_SUITE], cwd=ROOT)
    if suite.returncode != 0:
        raise SystemExit(f"oracle suite failed (pytest exited {suite.returncode}); "
                         "goldens not written")
    verify_bundled()
    GOLDEN.mkdir(exist_ok=True)
    targets = {fmt: GOLDEN / f"analyze.{fmt}" for fmt in ("json", "md", "csv")}
    before = {fmt: target.read_text(encoding="utf-8")
              for fmt, target in targets.items() if target.exists()}
    for fmt, target in targets.items():
        code = main(["analyze", *GOLDEN_ARGS, "--format", fmt, "--out", str(target)])
        if code != 0:
            raise SystemExit(f"analyze exited {code}")
        print(f"wrote {target}")
    for fmt, old in before.items():
        new = targets[fmt].read_text(encoding="utf-8")
        if fmt == "json":
            print(change_report(json.loads(old), json.loads(new)))
        else:
            print(f"analyze.{fmt}: {changed_lines(old, new)} changed lines")
    write_corpus()


if __name__ == "__main__":
    run()
