"""Regenerate the bundled synthetic dataset (deterministic; committed output).

Shape mirrors a small statewide cluster trial: 1029 schools, 56 volunteers
(34 treated, 22 control), binary pass/fail outcome, four school covariates,
and business-as-usual outcomes recorded for every non-sampled school.

The model is the one in ``perfbench/synth.py``: this tool calls it at its
bundled sizes (``synth.BUNDLED``), so the bundled file and the benchmark's
larger frames come from one model.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "src" / "pibgen" / "data" / "statewide_synthetic.csv"


def main():
    spec = importlib.util.spec_from_file_location("synth", ROOT / "perfbench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    cols = synth.generate(**synth.BUNDLED)
    synth.write_csv(cols, OUT)
    print(f"wrote {OUT} ({len(cols.sampled)} rows, {cols.sampled.sum()} sampled, "
          f"{(cols.treatment == 1).sum()} treated)")


if __name__ == "__main__":
    main()
