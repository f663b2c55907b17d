"""The maintenance scripts under ``tools/``, and the names the benchmark's
tracer wraps."""

import ast
import importlib
import importlib.util
import json
import pathlib
import sys

import pytest

from pibgen import stratify
from pibgen.cli import main
from pibgen.data import synthetic_path
from pibgen.frame import BINARY, load_frame

from test_acceptance import GOLDEN_ARGS

TOOLS = pathlib.Path(__file__).parents[1] / "tools"
PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


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


def test_golden_tool_reports_each_changed_leaf():
    spec = importlib.util.spec_from_file_location("make_golden", TOOLS / "make_golden.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    old = {"intervals": [{"lo": -0.75, "hi": 0.5, "clamped": {"lo": False}}], "n": 3,
           "notes": ["a"], "gone": 1}
    new = {"intervals": [{"lo": -0.75, "hi": 0.5 + 2 ** -53, "clamped": {"lo": 0}}], "n": 3,
           "notes": ["a", "b"], "added": True}
    assert tool.change_report(old, new).splitlines() == [
        "analyze.json: 5 changed leaves, largest absolute difference 1.1102230246251565e-16",
        "  intervals[0].hi: 0.5 -> 0.5000000000000001",
        "  intervals[0].clamped.lo: False -> 0",
        "  notes: ['a'] -> ['a', 'b']",
        "  gone: 1 -> '(absent)'",
        "  added: '(absent)' -> True",
    ]
    assert tool.change_report(old, old) == (
        "analyze.json: 0 changed leaves, largest absolute difference 0")


def test_golden_tool_counts_changed_lines():
    spec = importlib.util.spec_from_file_location("make_golden", TOOLS / "make_golden.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    old = "| a | 1 |\n| b | 2 |\n| c | 3 |\n"
    assert tool.changed_lines(old, old) == 0
    assert tool.changed_lines(old, "| a | 1 |\n| b | 2.5 |\n| c | 3 |\n") == 1
    assert tool.changed_lines(old, old + "| d | 4 |\n") == 1
    assert tool.changed_lines(old, "| a | 1 |\n| c | 3 |\n") == 1
    # two rows edited and one added: the longer side of the block
    assert tool.changed_lines(old, "| a | 0 |\n| b | 0 |\n| x | 9 |\n| c | 3 |\n") == 3
    assert tool.changed_lines("", old) == 3


def test_golden_tool_writes_nothing_unless_the_bundled_frame_verifies(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_golden", TOOLS / "make_golden.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.verify_bundled()
    assert capsys.readouterr().out.endswith("all oracle checks passed\n")
    monkeypatch.setattr(tool, "main", lambda argv: 1)
    with pytest.raises(SystemExit, match="verify exited 1"):
        tool.verify_bundled()


def test_benchmark_options_are_the_golden_options():
    # the benchmark checks every statewide_1k op against the goldens
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    i = GOLDEN_ARGS.index("--data")
    assert workloads.GOLDEN_OPTIONS == GOLDEN_ARGS[:i] + GOLDEN_ARGS[i + 2:]


def test_benchmark_tracer_wraps_and_restores_every_target(monkeypatch, capsys):
    # the tracer wraps pibgen's names from outside and reads return values
    # (StratumPiece.frame, details["bootstrap_reps"]); a rename breaks it here
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    originals = {(module, attr): getattr(importlib.import_module(module), attr)
                 for module, attr, _, _ in tracing.TARGETS}
    frame = load_frame(synthetic_path(), BINARY)
    assignment = stratify.strata_for_frame(frame, frame.covariate_column("pretest"), 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["analyze", *GOLDEN_ARGS, "--format", "json"]) == 0
        pieces = stratify.stratum_frames(frame, assignment)
    finally:
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)["meta"]["options"]["reps"] == 300
    assert [piece.index for piece in pieces] == [1, 2, 3]
    counts = {span.name: span.count for span in tracer.spans if span.count is not None}
    assert counts["points.ipw"] == 300
    assert counts["stratify.slice"] == frame.n_units
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, (module, attr)


def test_every_name_a_module_imports_is_used():
    # no linter runs here; the package's __init__ re-exports, and a line marked
    # `noqa: F401` imports a name for perfbench/tracing.py to wrap
    package = pathlib.Path(__file__).parents[1] / "src" / "pibgen"
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        lines = source.splitlines()
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    and "noqa: F401" not in lines[node.lineno - 1]):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused


def test_only_cli_imports_report_and_no_class_writes_json():
    # the estimation modules return values, cli builds every document entry
    # from them, and report renders the document
    package = pathlib.Path(__file__).parents[1] / "src" / "pibgen"
    importers, writers = [], []
    for path in sorted(package.glob("*.py")):
        modules = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules += [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.ClassDef):
                writers += [f"{path.name} {node.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef) and item.name == "to_json"]
        if any(module.rsplit(".", 1)[-1] == "report" for module in modules):
            importers.append(path.name)
    assert importers == ["cli.py"]
    assert not writers


def test_every_module_level_name_is_used():
    # a name counts as used where it appears other than as its own definition:
    # as a name, an attribute, an import alias, or a string (perfbench/tracing.py's
    # TARGETS name what it wraps); the check cannot tell same-named things apart
    root = pathlib.Path(__file__).parents[1]
    defined = []
    for path in sorted((root / "src" / "pibgen").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, name.id) for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name)]
    used = set()
    for folder in ("src", "tests", "tools", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update((node.name.rsplit(".", 1)[-1], node.asname))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    assert len(defined) > 150
    unused = [f"{module} {name}" for module, name in defined
              if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert not unused
