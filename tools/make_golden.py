"""Regenerate the golden report files used by the CLI determinism test.

The goldens freeze the oracle-validated engine's output on the bundled
dataset, so the tool first runs the oracle suite in a subprocess of the same
interpreter and writes nothing unless it passes.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from pibgen.cli import main
from test_acceptance import GOLDEN, GOLDEN_ARGS

ORACLE_SUITE = ("tests/test_oracle.py",
                "tests/test_acceptance.py::test_criterion_1_oracle_equivalence")


def run():
    suite = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            *ORACLE_SUITE], cwd=ROOT)
    if suite.returncode != 0:
        raise SystemExit(f"oracle suite failed (pytest exited {suite.returncode}); "
                         "goldens not written")
    GOLDEN.mkdir(exist_ok=True)
    for fmt in ("json", "md", "csv"):
        target = GOLDEN / f"analyze.{fmt}"
        code = main(["analyze", *GOLDEN_ARGS, "--format", fmt, "--out", str(target)])
        if code != 0:
            raise SystemExit(f"analyze exited {code}")
        print(f"wrote {target}")


if __name__ == "__main__":
    run()
