"""The maintenance scripts under ``tools/``."""

import importlib.util
import pathlib

from pibgen.data import synthetic_path

TOOLS = pathlib.Path(__file__).parents[1] / "tools"


def test_synthetic_dataset_tool_reproduces_the_bundled_file(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_synthetic_dataset", TOOLS / "make_synthetic_dataset.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "statewide_synthetic.csv"
    monkeypatch.setattr(tool, "OUT", out)
    tool.main()
    assert capsys.readouterr().out == f"wrote {out} (1029 rows, 56 sampled, 34 treated)\n"
    assert out.read_bytes() == pathlib.Path(synthetic_path()).read_bytes()
