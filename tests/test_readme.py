"""The README's library examples run as written, on the bundled data, and it
names every command-line option."""

import pathlib
import re

import pytest

from pibgen.cli import OPTIONS
from pibgen.data import synthetic_path

README = pathlib.Path(__file__).parents[1] / "README.md"


def _quickstart_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)


def test_quickstart_has_python_blocks():
    assert len(_quickstart_blocks()) == 2


@pytest.mark.parametrize("index", range(2))
def test_quickstart_block_runs(index):
    source = _quickstart_blocks()[index].replace('"schools.csv"', repr(synthetic_path()))
    exec(compile(source, f"README.md quickstart block {index + 1}", "exec"), {})


def test_every_option_is_documented():
    text = README.read_text(encoding="utf-8")
    flags = [f"--{key.replace('_', '-')}" for key in OPTIONS]
    assert [flag for flag in flags if flag not in text] == []
