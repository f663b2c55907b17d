"""CLI subcommands, exit codes, and output determinism."""

import contextlib
import csv
import dataclasses
import io
import json
import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import pibgen
import pibgen.bounds
import pibgen.cli
import pibgen.frame
import pibgen.oracle
import pibgen.points
import pibgen.stratify
from pibgen.cli import main
from pibgen.data import synthetic_path
from pibgen.errors import ConfigError, NonFiniteResult, ZeroVariance
from pibgen.frame import BINARY, load_frame
from pibgen.propensity import fit_propensity, logit_scores
from pibgen.report import check_finite, to_json
from pibgen.stratify import merge_nonviable, strata_for_frame

from conftest import frame_texts
from test_acceptance import GOLDEN_ARGS

SMALL_BINARY = """id,in_sample,treatment,outcome
a,1,1,1
b,1,1,0
c,1,0,0
d,0,0,1
e,0,1,
f,0,0,0
g,0,1,
"""

_COMMANDS = ("analyze", "bounds", "points", "strata", "lambda", "propensity", "verify")

# x1 varies and c is constant: only a rule that reads the balance table fails
CONSTANT_COVARIATE_CSV = "id,in_sample,treatment,outcome,x1,c\n" + "".join(
    f"u{i},{int(i < 12)},{i % 2 if i < 12 else ''},{i * 7 % 3 % 2},{i * 0.37 % 1:.2f},1\n"
    for i in range(40))

CONTINUOUS_CSV = """id,in_sample,treatment,outcome
a,1,1,2.5
b,1,0,0.5
c,0,,
"""


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(SMALL_BINARY)
    return str(path)


@pytest.fixture
def continuous_csv(tmp_path):
    path = tmp_path / "cont.csv"
    path.write_text(CONTINUOUS_CSV)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _md_cells(table: str) -> list[list[str]]:
    """The header and body cells of a Markdown table, without the rule line."""
    lines = table.splitlines()
    assert lines[1].startswith("| --- |")
    return [line[2:-2].split(" | ") for line in [lines[0], *lines[2:]]]


class TestAnalyze:
    def test_markdown_report(self, capsys, small_csv):
        code, out, err = run(
            capsys, "analyze", "--data", small_csv, "--framework", "both",
            "--assumption", "worst", "--assumption", "mtr", "--strata", "1",
        )
        assert code == 0
        assert "# PATE analysis report" in out
        assert "treatment randomization" in out
        assert "monotone treatment response" in out

    def test_continuous_support_end_to_end(self, capsys, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "id,in_sample,treatment,outcome\n"
            "a,1,1,2.1\nb,1,1,1.4\nc,1,0,0.3\nd,1,0,-0.5\ne,0,,1.0\nf,0,,\n"
        )
        code, out, _ = run(
            capsys, "analyze", "--data", str(path), "--support=-2,3",
            "--framework", "both", "--assumption", "worst", "--assumption", "bsv",
            "--lambda", "0.5", "--strata", "1", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        full = document["intervals"][0]
        assert full["inputs"]["support"] == [-2.0, 3.0]
        # width identity on the general support
        p_z0 = 1 - document["design"]["p_z1"]
        width = full["pre_clamp"]["hi"] - full["pre_clamp"]["lo"]
        assert abs(width - 2 * p_z0 * 5.0) < 1e-12

    def test_mtr_on_continuous_frame_exits_2(self, capsys, continuous_csv):
        code, _out, err = run(
            capsys, "analyze", "--data", continuous_csv, "--support", "0,3",
            "--assumption", "mtr", "--strata", "1",
        )
        assert code == 2
        assert "binary" in err

    def test_lambda_zero_prints_degenerate_interval(self, capsys, small_csv):
        code, out, _ = run(
            capsys, "analyze", "--data", small_csv, "--assumption", "bsv",
            "--lambda", "0", "--strata", "1", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        entry = document["intervals"][0]
        assert entry["lo"] == entry["hi"]

    def test_bsv_without_lambda_is_config_error(self, capsys, small_csv):
        code, _, err = run(capsys, "analyze", "--data", small_csv, "--assumption", "bsv")
        assert code == 3

    def test_missing_data_flag_is_config_error(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 3

    def test_missing_column_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,outcome\na,1\n")
        code, _, err = run(capsys, "analyze", "--data", str(path))
        assert code == 2

    def test_two_file_mode(self, capsys, tmp_path):
        sample = tmp_path / "sample.csv"
        sample.write_text("id,treatment,outcome\ns1,1,1\ns2,1,0\ns3,0,0\n")
        population = tmp_path / "pop.csv"
        population.write_text("id,outcome\np1,1\np2,0\np3,\n")
        code, out, _ = run(
            capsys, "analyze", "--sample", str(sample), "--population", str(population),
            "--framework", "both", "--strata", "1", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["frame"]["n_units"] == 6
        assert document["frame"]["n_sample"] == 3

    def test_json_deterministic_across_runs(self, capsys, small_csv):
        args = ("analyze", "--data", small_csv, "--strata", "1", "--seed", "5",
                "--reps", "50", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_markdown_is_pure_view_of_json(self, capsys, small_csv):
        from pibgen.report import render_markdown

        code, out, _ = run(
            capsys, "analyze", "--data", small_csv, "--strata", "1",
            "--framework", "both", "--assumption", "worst", "--format", "json",
        )
        document = json.loads(out)
        text = render_markdown(document)
        for entry in document["intervals"]:
            assert f"[{entry['lo']:.2f}, {entry['hi']:.2f}]" in text
        for p in document["point_estimates"]:
            assert f"{p['estimate']:.3f} ({p['se']:.3f})" in text
        # mutating the document changes the view: proves nothing is recomputed
        document["intervals"][0]["lo"] = -0.123456
        assert "[-0.12," in render_markdown(document)

    def test_out_file(self, capsys, small_csv, tmp_path):
        target = tmp_path / "report.md"
        code, out, _ = run(capsys, "analyze", "--data", small_csv, "--strata", "1",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# PATE analysis report")

    def test_config_file_with_flag_override(self, capsys, small_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": small_csv, "strata": 1, "seed": 3,
                                      "assumption": ["worst", "mtr"],
                                      "framework": "both", "format": "json"}))
        code, out, _ = run(capsys, "--config", str(config), "analyze", "--seed", "9")
        assert code == 0
        document = json.loads(out)
        assert document["meta"]["seed"] == 9  # flag wins
        assert document["meta"]["options"]["assumptions"] == ["worst_case", "mtr"]

    @pytest.mark.parametrize("content", [
        None,
        b'{"strata": 3,}',
        '{"strata": 3}'.encode("utf-16"),
        '{"outcome_col": "r\u00e9sultat"}'.encode("latin-1"),
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["missing", "not-json", "utf-16", "latin-1", "deep"])
    def test_config_file_that_cannot_be_read_is_a_config_error(self, capsys, small_csv,
                                                               tmp_path, content):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_bytes(content)
        code, out, err = run(capsys, "--config", str(config), "analyze", "--data", small_csv)
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot read config file: ")

    def test_unknown_config_key_is_config_error(self, capsys, tmp_path, small_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": small_csv, "stratums": 3}))
        code, _, err = run(capsys, "--config", str(config), "analyze")
        assert code == 3

    def test_config_key_lambdas_is_unknown(self, capsys, tmp_path, small_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": small_csv, "lambdas": [0.3]}))
        code, out, err = run(capsys, "--config", str(config), "bounds")
        assert (code, out, err) == (3, "", "error: unknown config keys: ['lambdas']\n")

    @pytest.mark.parametrize("command", ["analyze", "bounds"])
    def test_config_lambda_that_is_no_expression_is_a_config_error(self, capsys, tmp_path,
                                                                   small_csv, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda": None, "assumption": ["bsv"]}))
        code, out, err = run(capsys, "--config", str(config), command, "--data", small_csv,
                             "--strata", "1")
        assert (code, out) == (3, "")
        assert err == "error: --lambda expects an expression or a list of them, got None\n"

    def test_config_lambda_is_the_flag_lambda(self, capsys, tmp_path, small_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda": "0.25", "assumption": ["bsv"]}))
        argv = ["bounds", "--data", small_csv, "--strata", "1", "--format", "json"]
        _, from_config, _ = run(capsys, "--config", str(config), *argv)
        _, from_flag, _ = run(capsys, *argv, "--assumption", "bsv", "--lambda", "0.25")
        assert json.loads(from_config)["intervals"][0]["lambda"] == 0.25
        assert from_config == from_flag

    def test_options_may_come_before_or_after_the_command(self, capsys, small_csv):
        options = ["--data", small_csv, "--strata", "1", "--format", "json"]
        before = run(capsys, *options, "bounds")
        after = run(capsys, "bounds", *options)
        assert before == after
        assert before[0] == 0

    def test_config_may_come_after_the_command(self, capsys, tmp_path, small_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "format": "json"}))
        code, out, _ = run(capsys, "analyze", "--config", str(config), "--data", small_csv,
                           "--strata", "1", "--reps", "5")
        assert code == 0
        assert json.loads(out)["meta"]["seed"] == 3

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["nope"], "argument command: invalid choice: 'nope' (choose from 'analyze', "
                   "'propensity', 'strata', 'lambda', 'bounds', 'points', 'verify')"),
    ], ids=["missing", "unknown"])
    def test_command_that_is_missing_or_unknown_is_a_config_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"{pibgen.cli.build_parser().format_usage()}error: {message}\n"

    @pytest.mark.parametrize("argv", [["analyze", "--format", "xml"], ["--help"]],
                             ids=["error", "help"])
    def test_usage_text_is_the_same_at_every_terminal_width(self, capsys, monkeypatch, argv):
        printed = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            printed.append(run(capsys, *argv))
        assert printed[0] == printed[1]

    def test_parser_declares_each_option_once(self):
        actions = pibgen.cli.build_parser()._actions
        flags = [flag for action in actions for flag in action.option_strings]
        assert len(flags) == len(set(flags))
        assert {action.dest for action in actions} == {
            "help", "command", "config", *pibgen.cli._DEFAULTS}

    def test_help_states_the_declared_default(self, monkeypatch):
        monkeypatch.setitem(pibgen.cli.OPTIONS, "strata", (7, pibgen.cli.OPTIONS["strata"][1]))
        assert "stratum count k (default 7)" in pibgen.cli.build_parser().format_help()

    def test_main_builds_one_parser_and_no_option_outlives_its_call(self, capsys, monkeypatch,
                                                                    tmp_path):
        built = []

        def build_parser():
            built.append(original())
            return built[-1]

        original = pibgen.cli.build_parser
        monkeypatch.setattr(pibgen.cli, "build_parser", build_parser)
        monkeypatch.delenv("PIBGEN_SEED", raising=False)
        pibgen.cli._parser.cache_clear()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 9, "pooled": True}))
        plain = ["analyze", "--data", synthetic_path(), "--strata", "2", "--reps", "5",
                 "--format", "json"]
        code, first, _ = run(capsys, *plain, "--lambda", "0.3", "--lambda", "sd:pooled",
                             "--assumption", "bsv", "--categorical", "title1=0",
                             "--config", str(config))
        assert code == 0
        code, second, _ = run(capsys, *plain)
        assert code == 0 and len(built) == 1
        first, second = json.loads(first), json.loads(second)
        assert first["meta"]["seed"] == 9 and "title1=1" in first["propensity"]["coefficients"]
        assert [lam["label"] for lam in first["lambda_values"]] == ["fixed:0.3", "sd:pooled"]
        assert second["meta"]["seed"] == 0
        assert second["meta"]["options"]["assumptions"] == ["worst_case"]
        assert second["lambda_values"] == []
        assert "title1=1" not in second["propensity"]["coefficients"]
        assert "pooled" not in second["stratum_intervals"]
        pibgen.cli._parser.cache_clear()  # a fresh parser gives the second call's bytes
        assert json.loads(run(capsys, *plain)[1]) == second
        assert len(built) == 2

    def test_env_seed_fallback(self, capsys, small_csv, monkeypatch):
        monkeypatch.setenv("PIBGEN_SEED", "123")
        code, out, _ = run(capsys, "analyze", "--data", small_csv, "--strata", "1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["seed"] == 123


class TestPipeline:
    def test_analyze_builds_no_stratum_sub_frame(self, capsys, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("a stratum sub-frame was built")

        built = []
        init = pibgen.frame.StudyFrame.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(pibgen.stratify, "stratum_frames", not_called)
        monkeypatch.setattr(pibgen.points, "stratum_frames", not_called)
        monkeypatch.setattr(pibgen.frame.StudyFrame, "__init__", counted_init)
        for extra in ((), ("--merge-strata", "--pooled")):
            built.clear()
            code, out, err = run(capsys, "analyze", *GOLDEN_ARGS, *extra, "--format", "json")
            assert (code, err) == (0, "")
            assert json.loads(out)["stratum_intervals"]["k"] == 3
            assert len(built) == 1  # the loaded frame only

    def test_each_input_set_gives_its_inputs_block(self, capsys):
        # the goldens run without --pooled and --merge-strata
        code, out, _ = run(capsys, "analyze", "--data", synthetic_path(), "--framework", "both",
                           "--assumption", "worst", "--assumption", "bsv", "--assumption", "mtr",
                           "--lambda", "0.3", "--strata", "5", "--pooled", "--merge-strata",
                           "--reps", "0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        whole = {**doc["design"], **doc["rates"], "support": doc["frame"]["support"]}
        assert [interval["inputs"] for interval in doc["intervals"]] == [whole] * 8
        frame = load_frame(synthetic_path(), BINARY)
        logits = logit_scores(fit_propensity(frame, frame.covariate_names), frame)
        assignment = merge_nonviable(strata_for_frame(frame, logits, 5), frame)
        t, block = assignment.tallies, doc["stratum_intervals"]
        assert block["k"] == assignment.k == 4
        for g, stratum in enumerate(block["strata"]):
            assert stratum["viable"] and stratum["results"]
            rates, probs = t.empirical_rates(g), t.design_probs(g, 0.5)
            inputs = {"e_y1_w1z1": rates.e_y1_w1z1, "e_y0_w0z1": rates.e_y0_w0z1,
                      "e_y0_w0z0": rates.e_y0_w0z0, "p_z1": probs.p_z1,
                      "p_w1_given_z1": probs.p_w1_given_z1,
                      "p_w0_given_z0": probs.p_w0_given_z0, "support": [0.0, 1.0]}
            assert all(result["inputs"] == inputs for result in stratum["results"])
        assert len(block["pooled"]) == 8
        for entry in block["pooled"]:
            assert entry["inputs"] == {"pooled": True, "strata": 4}
            assert entry["note"].startswith("population-share weighted across strata")
            mtr = entry["assumption"] == "mtr"
            assert ("variant" in entry, "scope" in entry) == (mtr, mtr)
            # the no-clip condition is defined on one arm-mean difference, not a pooled sum
            assert "improves" not in entry

    def test_public_names_resolve(self):
        for name in pibgen.__all__:
            assert hasattr(pibgen, name), name

    @pytest.mark.parametrize("command", ["bounds", "points"])
    def test_views_equal_the_matching_analyze_keys(self, capsys, command):
        _, full, _ = run(capsys, "analyze", *GOLDEN_ARGS, "--format", "json")
        code, view, _ = run(capsys, command, *GOLDEN_ARGS, "--format", "json")
        assert code == 0
        full, view = json.loads(full), json.loads(view)
        for key, value in view.items():
            if key == "notes":  # a view carries the notes of the stages it ran
                assert value == {note: full["notes"][note] for note in value}
            else:
                assert value == full[key]

    def test_stratum_without_population_outcomes_keeps_full_framework_results(
        self, capsys, tmp_path
    ):
        data = tmp_path / "mixed.csv"
        data.write_text(
            "id,in_sample,treatment,outcome,x1\n"
            "a,1,1,1,0.0\nb,1,0,0,0.1\nc,0,,1,0.2\n"
            "d,1,1,1,1.0\ne,1,0,0,1.1\nf,0,,,1.2\n"
        )
        model = tmp_path / "model.json"  # logit = x1 puts a-c in stratum 1, d-f in 2
        model.write_text(json.dumps({"intercept": 0.0, "coefficients": {"x1": 1.0},
                                     "converged": True, "iterations": 0}))
        code, out, _ = run(
            capsys, "analyze", "--data", str(data), "--model", str(model), "--strata", "2",
            "--framework", "both", "--assumption", "worst", "--assumption", "mtr",
            "--reps", "10", "--format", "json",
        )
        assert code == 0
        block = json.loads(out)["stratum_intervals"]
        first, second = block["strata"]
        assert {r["framework"] for r in first["results"]} == {"full", "reduced"}
        assert second["viable"] is True
        assert second["skip_reason"] is None
        assert [(r["assumption"], r["framework"]) for r in second["results"]] == [
            ("worst_case", "full"), ("mtr", "full"), ("mtr", "full"),
        ]

    def test_pooled_note_names_each_spec_left_out_and_the_first_stratum_without_it(
        self, capsys, tmp_path
    ):
        data = tmp_path / "mixed.csv"  # stratum 2 has both arms and no z=0 outcome
        data.write_text(
            "id,in_sample,treatment,outcome,x1\n"
            "a,1,1,1,0.0\nb,1,0,0,0.1\nc,0,,1,0.2\n"
            "d,1,1,1,1.0\ne,1,0,0,1.1\nf,0,,,1.2\n"
        )
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"intercept": 0.0, "coefficients": {"x1": 1.0},
                                     "converged": True, "iterations": 0}))
        argv = ["analyze", "--data", str(data), "--model", str(model), "--strata", "2",
                "--framework", "both", "--reps", "0"]
        code, out, _ = run(capsys, *argv, "--pooled", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert [e["framework"] for e in document["stratum_intervals"]["pooled"]] == ["full"]
        assert document["notes"]["pooled_omitted"] == [
            {"assumption": "worst_case", "framework": "reduced", "stratum": 2,
             "reason": "no business-as-usual outcomes among its z=0 units"}]
        code, out, _ = run(capsys, *argv, "--pooled", "--format", "md")
        assert ("- no pooled treatment randomization (reduced) interval: stratum 2 has "
                "no business-as-usual outcomes among its z=0 units") in out.splitlines()
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert "pooled_omitted" not in json.loads(out)["notes"]

    def test_pooled_note_gives_a_skipped_stratum_its_skip_reason(self, capsys):
        argv = ["analyze", *GOLDEN_ARGS, "--pooled", "--format", "json"]
        code, out, _ = run(capsys, *argv, "--strata", "6")
        assert code == 0
        document = json.loads(out)
        omitted = document["notes"]["pooled_omitted"]
        assert "pooled" not in document["stratum_intervals"]
        assert len(omitted) == 8  # every spec of the golden options
        assert {(e["stratum"], e["reason"]) for e in omitted} == {(1, "no sampled treated unit")}
        code, out, _ = run(capsys, *argv)  # at 3 strata every spec is pooled
        assert code == 0
        assert "pooled_omitted" not in json.loads(out)["notes"]


NON_FINITE_CSV = "id,in_sample,treatment,outcome,x1\na,1,1,1,0.2\nb,1,0,0,0.9\nc,0,,,{x}\nd,0,,,0.1\n"


@pytest.mark.parametrize("argv, x, code, message", [
    (("bounds", "--assumption", "bsv", "--lambda", "nan"), "0.5", 3, "lambda"),
    (("bounds", "--assumption", "bsv", "--lambda", "inf"), "0.5", 3, "lambda"),
    (("bounds", "--assumption", "bsv", "--lambda", "sd:pooled:inf"), "0.5", 3, "lambda"),
    (("bounds", "--support=0,inf"), "0.5", 3, "support"),
    (("analyze", "--strata", "1"), "nan", 2, "row 3: column 'x1'"),
    (("analyze", "--strata", "1"), "inf", 2, "row 3: column 'x1'"),
    (("propensity", "--model", "nan_model.json"), "0.5", 3, "non-finite"),
], ids=["lambda-nan", "lambda-inf", "sd-multiplier-inf", "support-inf", "covariate-nan",
        "covariate-inf", "model-nan"])
def test_non_finite_input_is_a_typed_error(capsys, tmp_path, argv, x, code, message):
    path = tmp_path / "data.csv"
    path.write_text(NON_FINITE_CSV.format(x=x))
    model = tmp_path / "nan_model.json"
    model.write_text('{"intercept": NaN, "coefficients": {"x1": 1.0}, '
                     '"converged": true, "iterations": 1}')
    argv = [str(model) if a == model.name else a for a in argv]
    rc, out, err = run(capsys, argv[0], "--data", str(path), *argv[1:], "--format", "json")
    assert rc == code
    assert message in err
    assert "NaN" not in out and "Infinity" not in out


@pytest.mark.parametrize("expr", ["sd:pooled:3:4", "asmd:single:x:1"])
def test_lambda_with_extra_fields_is_a_config_error(capsys, tmp_path, expr):
    path = tmp_path / "data.csv"
    path.write_text("id,in_sample,treatment,outcome,x\na,1,1,1,0.2\nb,1,0,0,0.9\n"
                    "c,0,,,0.4\nd,0,,,0.1\n")
    rc, out, err = run(capsys, "bounds", "--data", str(path), "--assumption", "bsv",
                       "--lambda", expr)
    assert (rc, out) == (3, "")
    assert err == f"error: bad lambda expression '{expr}': more than three ':' fields\n"


# every cell is finite, but the outcome moments of 1e200 are past float range
HUGE_OUTCOME_CSV = "id,in_sample,treatment,outcome,x1\n" + "".join(
    f"u{i},{int(i < 24)},{i % 2 if i < 24 else ''},{'1e200' if i % 3 else 0},{i * 0.37 % 1:.2f}\n"
    for i in range(40))


@pytest.mark.parametrize("command, argv, path", [
    ("bounds", ["--assumption", "bsv", "--lambda", "1e308"], "intervals[0].pre_clamp.lo is -inf"),
    ("bounds", ["--support=-1e308,1e308"], "intervals[0].lo is -inf"),
    ("lambda", ["--support=0,1e200"], "lambda_report[3].value is inf"),
    ("analyze", ["--support=0,1e200", "--strata", "1"], "lambda_report[3].value is inf"),
    ("points", ["--support=0,1e200", "--strata", "1"], "point_estimates[0].se is inf"),
], ids=["bsv-lambda", "support", "lambda-huge-outcomes", "analyze-huge-outcomes",
        "points-huge-outcomes"])
def test_a_result_past_float_range_is_the_same_data_error_in_every_format(
        capsys, tmp_path, command, argv, path):
    data = synthetic_path()
    if "--support=0,1e200" in argv:
        data = tmp_path / "huge.csv"
        data.write_text(HUGE_OUTCOME_CSV)
    for fmt in ("json", "md", "csv"):
        assert run(capsys, command, "--data", str(data), *argv, "--reps", "20",
                   "--format", fmt) == (
            2, "", f"error: result {path}: too large for float arithmetic\n"), fmt


def test_check_finite_names_the_first_non_finite_number_by_its_path():
    document = {"a": [1.0, {"b": 2, "c": float("nan")}], "d": float("inf")}
    with pytest.raises(NonFiniteResult, match=r"^result a\[1\]\.c is nan:"):
        check_finite(document)
    assert check_finite({"a": [1.0, None, "inf"], "b": True}) == {"a": [1.0, None, "inf"],
                                                                 "b": True}


_FINITE_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([-0.0, 5e-324, 1e308, -1e308]))
_TEXT = st.one_of(st.text(), st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t",
                                              "é", "\u2028", "\U0001d11e", "\ud800"]))


def _documents(floats):
    """Dicts as a report holds them, with tuples, big ints and numpy floats
    besides; leaf floats are drawn from ``floats``."""
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.just(-(10 ** 40)), _TEXT,
                        floats, floats.map(np.float64))
    values = st.recursive(scalars, lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4)), max_leaves=20)
    return st.dictionaries(_TEXT, values, max_size=5)


@settings(max_examples=300, deadline=None)
@given(document=_documents(_FINITE_FLOATS))
def test_to_json_writes_the_bytes_of_the_stdlib(document):
    assert to_json(document) == json.dumps(document, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(document=_documents(st.one_of(_FINITE_FLOATS, st.sampled_from(
    [float("nan"), float("inf"), float("-inf")]))))
@example(document={"b": [1.0, {"y": float("-inf")}], "a": {"z": 2.0, "x": float("nan")}})
@example(document={"b": {1: (float("inf"),)}, "a": [np.float64("nan")]})
def test_to_json_names_the_first_non_finite_number_as_check_finite_does(document):
    try:
        check_finite(document)
    except NonFiniteResult as exc:
        with pytest.raises(NonFiniteResult) as raised:
            to_json(document)
        assert str(raised.value) == str(exc)
    else:
        assert to_json(document) == json.dumps(document, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("document", [{1: 0.5}, {"a": [{"b": 1, 2: None}]}, {"a": {(): "x"}},
                                      {"a": object()}, {"a": [1.0, {"b": np.int64(1)}]}])
def test_to_json_refuses_a_key_or_value_json_lacks(document):
    with pytest.raises(TypeError):
        to_json(document)


@pytest.mark.parametrize("value", [object(), np.int64(1), {1, 2}])
def test_to_json_names_a_value_json_lacks_as_the_stdlib_does(value):
    document = {"a": [1.0, {"b": value}]}
    with pytest.raises(TypeError) as stdlib:
        json.dumps(document)
    with pytest.raises(TypeError) as raised:
        to_json(document)
    assert str(raised.value) == str(stdlib.value)


class TestSubcommands:
    def test_propensity_model_json(self, capsys, small_csv, tmp_path):
        path = tmp_path / "with_x.csv"
        path.write_text(
            "id,in_sample,treatment,outcome,x1\n"
            "a,1,1,1,0.2\nb,1,0,0,0.9\nc,0,,,0.5\nd,0,,,0.1\n"
        )
        code, out, _ = run(capsys, "propensity", "--data", str(path))
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"intercept", "coefficients", "converged", "iterations"}
        assert "x1" in doc["coefficients"]

    def test_shared_config_is_checked_only_by_commands_that_use_it(self, capsys, tmp_path):
        path = tmp_path / "with_x.csv"
        path.write_text(
            "id,in_sample,treatment,outcome,x1\n"
            "a,1,1,1,0.2\nb,1,0,0,0.9\nc,0,,,0.5\nd,0,,,0.1\n"
        )
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"assumption": ["bsv"], "reps": -1}))
        code, _, _ = run(capsys, "--config", str(config), "propensity", "--data", str(path))
        assert code == 0
        code, _, err = run(capsys, "--config", str(config), "analyze", "--data", str(path))
        assert code == 3
        assert "--reps" in err

    def test_strata_csv(self, capsys, small_csv):
        code, out, _ = run(capsys, "strata", "--data", small_csv, "--strata", "1",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("stratum,logit_lo,logit_hi")

    def test_strata_table_writes_the_open_outer_ends_in_each_format(self, capsys):
        argv = ["strata", "--data", synthetic_path(), "--strata", "3", "--format"]
        code, out, err = run(capsys, *argv, "json")
        assert (code, err) == (0, "")  # strict JSON has no infinity: the ends are null
        rows = json.loads(out)["strata"]
        assert (rows[0]["logit_lo"], rows[-1]["logit_hi"]) == (None, None)
        assert rows[0]["logit_hi"] == rows[1]["logit_lo"] < rows[1]["logit_hi"]
        _, table, _ = run(capsys, *argv, "csv")
        rows = list(csv.DictReader(io.StringIO(table)))
        assert (rows[0]["logit_lo"], rows[-1]["logit_hi"]) == ("-inf", "inf")
        _, table, _ = run(capsys, *argv, "md")
        header, *rows = _md_cells(table)
        lo, hi = header.index("logit_lo"), header.index("logit_hi")
        assert (rows[0][lo], rows[-1][hi]) == ("-inf", "inf")

    def test_strata_table_in_markdown_holds_the_csv_cells(self, capsys):
        argv = ["strata", "--data", synthetic_path(), "--strata", "3", "--format"]
        code, table, _ = run(capsys, *argv, "md")
        _, rows, _ = run(capsys, *argv, "csv")
        assert code == 0
        assert _md_cells(table) == list(csv.reader(io.StringIO(rows)))

    def test_lambda_report(self, capsys, tmp_path):
        path = tmp_path / "with_x.csv"
        path.write_text(
            "id,in_sample,treatment,outcome,x1\n"
            "a,1,1,1,0.2\nb,1,0,0,0.9\nc,0,,,0.5\nd,0,,,0.1\n"
        )
        code, out, _ = run(capsys, "lambda", "--data", str(path), "--format", "json")
        assert code == 0
        rows = json.loads(out)["lambda_report"]
        assert any(r["rule"] == "sd:pooled" for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "md"])
    def test_lambda_table_quotes_a_rule_holding_a_comma(self, capsys, tmp_path, fmt):
        path = tmp_path / "comma.csv"
        path.write_text(
            'id,in_sample,treatment,outcome,"size,log",x2\n'
            "a,1,1,1,0.2,3\nb,1,0,0,0.9,1\nc,0,,,0.5,2\nd,0,,,0.1,5\n"
        )
        code, out, _ = run(capsys, "lambda", "--data", str(path), "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        if fmt == "md":  # the Markdown table holds the CSV's header and cells
            code, out, _ = run(capsys, "lambda", "--data", str(path), "--format", fmt)
            assert code == 0
            assert _md_cells(out) == rows
        assert rows[0] == ["rule", "value"]
        assert {len(row) for row in rows} == {2}
        _, doc, _ = run(capsys, "lambda", "--data", str(path), "--format", "json")
        assert [[r["rule"], repr(r["value"])] for r in json.loads(doc)["lambda_report"]] == rows[1:]
        assert rows[1][0] == "asmd:single:size,log"

    def test_merged_strata_are_the_one_layout_of_the_report(self, capsys):
        data = synthetic_path()
        code, out, err = run(capsys, "analyze", "--data", data, "--strata", "8",
                             "--merge-strata", "--pooled", "--format", "json")
        assert code == 0
        assert err == "warning: merged non-viable strata, k=8 -> 7\n"
        doc = json.loads(out)
        block = doc["stratum_intervals"]
        subclass = doc["point_estimates"][2]
        assert subclass["method"] == "subclassification"
        code, rows, _ = run(capsys, "strata", "--data", data, "--strata", "8", "--merge-strata",
                            "--format", "csv")
        assert code == 0
        assert block["k"] == subclass["details"]["k"] == len(rows.splitlines()) - 1 == 7
        assert [s["stratum"] for s in block["strata"]] == list(range(1, 8))
        assert doc["notes"]["non_viable_strata"] == []
        assert block["pooled"]

    def test_bounds_result_fields(self, capsys):
        code, out, _ = run(capsys, "bounds", "--data", synthetic_path(), "--assumption", "bsv",
                           "--lambda", "0.3", "--format", "json")
        assert code == 0
        [doc] = json.loads(out)["intervals"]
        assert set(doc) >= {"assumption", "framework", "lambda", "lo", "hi",
                            "clamped", "pre_clamp", "inputs"}
        assert set(doc["clamped"]) == {"lo", "hi"}
        assert set(doc["pre_clamp"]) == {"lo", "hi"}
        assert doc["assumption"] == "bsv"
        assert doc["inputs"]["p_z1"] == pytest.approx(56 / 1029)

    def test_mtr_variant_fields(self, capsys):
        code, out, _ = run(capsys, "bounds", "--data", synthetic_path(), "--framework", "reduced",
                           "--assumption", "mtr", "--format", "json")
        assert code == 0
        docs = json.loads(out)["intervals"]
        assert [d["variant"] for d in docs] == ["min", "max"]
        assert all(d["assumption"] == "mtr" for d in docs)
        assert all(d["scope"] == "population" for d in docs)
        assert all(d["framework"] == "reduced" for d in docs)

    def test_bounds_subcommand(self, capsys, small_csv):
        code, out, _ = run(capsys, "bounds", "--data", small_csv, "--framework", "both",
                           "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert "intervals" in document and "stratum_intervals" not in document

    def test_points_subcommand(self, capsys, small_csv):
        code, out, _ = run(capsys, "points", "--data", small_csv, "--strata", "1",
                           "--reps", "20", "--format", "json")
        assert code == 0
        methods = [p["method"] for p in json.loads(out)["point_estimates"]]
        assert methods == ["naive", "ipw", "subclassification"]

    def test_points_with_exported_model(self, capsys, tmp_path):
        data = tmp_path / "with_x.csv"
        data.write_text(
            "id,in_sample,treatment,outcome,x1\n"
            "a,1,1,1,0.2\nb,1,0,0,0.9\nc,0,,,0.5\nd,0,,,0.1\n"
        )
        model_path = tmp_path / "model.json"
        code, out, _ = run(capsys, "propensity", "--data", str(data),
                           "--out", str(model_path))
        assert code == 0
        code, out, _ = run(capsys, "points", "--data", str(data), "--strata", "1",
                           "--reps", "20", "--model", str(model_path), "--format", "json")
        assert code == 0
        assert [p["method"] for p in json.loads(out)["point_estimates"]][1] == "ipw"

    def test_pooled_intervals_in_report(self, capsys, small_csv):
        code, out, _ = run(capsys, "analyze", "--data", small_csv, "--strata", "1",
                           "--pooled", "--format", "json")
        assert code == 0
        block = json.loads(out)["stratum_intervals"]
        assert "pooled" in block
        assert block["pooled"][0]["note"].startswith("population-share")

    def test_categorical_flag(self, capsys, tmp_path):
        data = tmp_path / "cat.csv"
        data.write_text(
            "id,in_sample,treatment,outcome,region\n"
            "a,1,1,1,north\nb,1,0,0,south\nc,0,,,west\nd,0,,,north\n"
        )
        code, out, _ = run(capsys, "strata", "--data", str(data), "--strata", "1",
                           "--categorical", "region=north")
        assert code == 0

    def test_categorical_column_missing_from_the_header_is_a_data_error(self, capsys):
        code, out, err = run(capsys, "propensity", "--data", synthetic_path(),
                             "--categorical", "titel1=0")
        assert (code, out) == (2, "")
        assert err == "error: required column 'titel1' not found in header\n"

    def test_config_categorical_pair_is_the_flag_item(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"categorical": [["title1", "0"]]}))
        argv = ["propensity", "--data", synthetic_path()]
        code, by_pair, _ = run(capsys, "--config", str(config), *argv)
        assert code == 0
        assert "title1=1" in json.loads(by_pair)["coefficients"]
        assert run(capsys, *argv, "--categorical", "title1=0") == (0, by_pair, "")

    def test_categorical_column_named_twice_is_a_config_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"categorical": [["title1", "1"], ["title1", "0"]]}))
        argv = ["propensity", "--data", synthetic_path()]
        for options in (["--categorical", "title1=1", "--categorical", "title1=0"],
                        ["--config", str(config)]):
            assert run(capsys, *options, *argv) == (
                3, "", "error: --categorical names column 'title1' twice\n")

    def test_covariate_missing_from_the_header_is_a_data_error(self, capsys):
        code, out, err = run(capsys, "propensity", "--data", synthetic_path(),
                             "--covariates", "nope")
        assert (code, out) == (2, "")
        assert err == "error: required column 'nope' not found in header\n"

    def test_covariate_missing_from_the_sample_header_names_the_file(self, capsys, tmp_path):
        (tmp_path / "sample.csv").write_text("id,treatment,outcome,x1\ns1,1,1,0.2\n")
        (tmp_path / "population.csv").write_text("id,outcome,nope\np1,1,0.3\n")
        code, out, err = run(capsys, "propensity", "--sample", str(tmp_path / "sample.csv"),
                             "--population", str(tmp_path / "population.csv"),
                             "--covariates", "nope")
        assert (code, out) == (2, "")
        assert err == "error: required column 'nope' not found in the sample file header\n"

    def test_excluded_column_missing_from_the_header_is_a_data_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"exclude": ["enrol"]}))
        argv = ["propensity", "--data", synthetic_path()]
        for options in (["--exclude", "enrol"], ["--config", str(config)]):
            assert run(capsys, *argv, *options) == (
                2, "", "error: required column 'enrol' not found in header\n")
        (tmp_path / "sample.csv").write_text("id,treatment,outcome,x1\ns1,1,1,0.2\n")
        (tmp_path / "population.csv").write_text("id,outcome,x1,enrol\np1,1,0.3,5\n")
        assert run(capsys, "propensity", "--sample", str(tmp_path / "sample.csv"),
                   "--population", str(tmp_path / "population.csv"), "--exclude", "enrol") == (
            2, "", "error: required column 'enrol' not found in the sample file header\n")

    def test_exclude_flag_drops_columns(self, capsys, tmp_path):
        data = tmp_path / "notes.csv"
        data.write_text(
            "id,in_sample,treatment,outcome,x1,notes\n"
            "a,1,1,1,0.2,free text\nb,1,0,0,0.9,more text\nc,0,,,0.5,third\n"
        )
        code, out, _ = run(capsys, "propensity", "--data", str(data),
                           "--exclude", "notes")
        assert code == 0
        assert list(json.loads(out)["coefficients"]) == ["x1"]

    @pytest.mark.parametrize("argv", [
        ["--assumption", "bsv", "--lambda", "0.3"],
        ["--assumption", "bsv", "--lambda", "sd:max_arm"],
        ["--assumption", "bsv", "--lambda", "sd:pooled"],
        ["--assumption", "worst", "--lambda", "0.3"],
    ], ids=["fixed", "sd-max-arm", "sd-pooled", "worst"])
    def test_fixed_and_sd_lambda_rules_read_no_covariate(self, capsys, tmp_path, argv):
        data = tmp_path / "constant.csv"
        data.write_text(CONSTANT_COVARIATE_CSV)
        code, out, err = run(capsys, "bounds", "--data", str(data), *argv)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, "bounds", "--data", str(data), *argv,
                                       "--exclude", "c")

    def test_asmd_lambda_rule_reads_every_covariate(self, capsys, tmp_path):
        data = tmp_path / "constant.csv"
        data.write_text(CONSTANT_COVARIATE_CSV)
        code, out, err = run(capsys, "bounds", "--data", str(data), "--assumption", "bsv",
                             "--lambda", "asmd:max")
        assert (code, out) == (2, "")
        expected = ZeroVariance("covariate 'c'")
        assert err == f"error: {expected}\n"

    @pytest.mark.parametrize("document", [
        [1],
        "abc",
        {"intercept": None},
        {"coefficients": [1]},
        {"coefficients": {"pretest": None}},
        {"converged": "false"},
        {"intercept": True},
        {"intercept": "-1.0"},
        {"intercept": 10**400},
        {"coefficients": {"pretest": True}},
        {"iterations": 1.5},
        {"iterations": "5"},
        {"iterations": True},
        {"iterations": -1},
    ], ids=["list", "string", "null-intercept", "list-coefficients", "null-coefficient",
            "text-converged", "true-intercept", "text-intercept", "huge-intercept", "true-coefficient",
            "fractional-iterations", "text-iterations", "true-iterations",
            "negative-iterations"])
    @pytest.mark.parametrize("command", ["points", "propensity"])
    def test_model_file_of_the_wrong_shape_is_a_config_error(self, capsys, tmp_path, command,
                                                            document):
        if isinstance(document, dict):
            document = {"intercept": -1.0, "coefficients": {"pretest": 0.5},
                        "converged": True, "iterations": 4, **document}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(document))
        code, out, err = run(capsys, command, "--data", synthetic_path(), "--reps", "2",
                             "--model", str(model))
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot read model file: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["points", "propensity"])
    def test_model_file_nested_past_the_recursion_limit_is_a_config_error(self, capsys,
                                                                          tmp_path, command):
        model = tmp_path / "model.json"
        model.write_bytes(b"[" * 100_000 + b"]" * 100_000)
        code, out, err = run(capsys, command, "--data", synthetic_path(), "--reps", "2",
                             "--model", str(model))
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot read model file: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["points", "propensity"])
    def test_model_file_with_an_iteration_count_past_any_float(self, capsys, tmp_path,
                                                               command):
        model = tmp_path / "model.json"
        model.write_text('{"intercept": -1.0, "coefficients": {"pretest": 0.5}, '
                         '"converged": true, "iterations": 1e400}')
        code, out, err = run(capsys, command, "--data", synthetic_path(), "--reps", "2",
                             "--model", str(model))
        assert (code, out) == (3, "")
        assert err == ("error: cannot read model file: 'iterations' must be a non-negative "
                       "integer, got inf\n")

    def test_model_naming_a_covariate_the_frame_lacks_is_rejected_on_load(self, capsys,
                                                                         tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"intercept": -1.0, "coefficients": {"pretset": 0.5},
                                     "converged": True, "iterations": 4}))
        results = [run(capsys, command, "--data", synthetic_path(), "--reps", "2",
                       "--model", str(model)) for command in ("propensity", "points")]
        known = ["enroll", "frl", "pretest", "title1"]
        expected = (3, "", f"error: unknown covariate 'pretset'; frame has {known}\n")
        assert results == [expected, expected]

    def test_fixed_lambda_reads_no_model_file(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text("{not json")
        argv = ["bounds", "--data", synthetic_path(), "--assumption", "bsv", "--lambda"]
        expected = run(capsys, *argv, "0.3")
        assert expected[0] == 0
        assert run(capsys, *argv, "0.3", "--model", str(model)) == expected
        code, _, err = run(capsys, *argv, "asmd:max", "--model", str(model))
        assert code == 3
        assert err.startswith("error: cannot read model file: ")


class TestReportViews:
    """The Markdown and CSV views of reports on the bundled data."""

    def test_markdown_pooled_table(self, capsys):
        code, out, _ = run(capsys, "analyze", "--data", synthetic_path(), "--strata", "3",
                           "--pooled", "--reps", "50", "--format", "md")
        assert code == 0
        lines = out.splitlines()
        caption = lines.index("Pooled across strata (population-share weighted; the PATE "
                              "range when randomization identifies each stratum's arm means):")
        assert lines[caption + 1:caption + 6] == [
            "",
            "| Assumption | Framework | Detail | Interval |",
            "| --- | --- | --- | --- |",
            "| treatment randomization | full |  | [-0.94, 0.95] |",
            "",
        ]

    def test_markdown_skipped_stratum(self, capsys):
        code, out, _ = run(capsys, "analyze", "--data", synthetic_path(), "--strata", "8",
                           "--reps", "50", "--format", "md")
        assert code == 0
        lines = out.splitlines()
        assert "| 1 | 129 | - | - | skipped: no sampled treated unit |" in lines
        assert "- non-viable strata skipped: [1]" in lines

    def test_csv_pooled_rows_hold_the_json_endpoints(self, capsys):
        argv = ["analyze", *GOLDEN_ARGS, "--pooled", "--format"]
        code, out, _ = run(capsys, *argv, "json")
        assert code == 0
        pooled = json.loads(out)["stratum_intervals"]["pooled"]
        code, out, _ = run(capsys, *argv, "csv")
        assert code == 0
        rows = [row for row in csv.DictReader(io.StringIO(out)) if row["section"] == "pooled"]
        assert len(rows) == len(pooled) == 10
        for row, entry in zip(rows, pooled):
            assert row["assumption"] == entry["assumption"]
            assert (row["lo"], row["hi"]) == (repr(entry["lo"]), repr(entry["hi"]))

    def test_markdown_notes_why_subclassification_is_unavailable(self, capsys):
        code, out, _ = run(capsys, "points", "--data", synthetic_path(), "--strata", "15",
                           "--reps", "50", "--format", "md")
        assert code == 0
        assert out.endswith("\n- subclassification unavailable: stratum(s) [1, 2, 3, 6, 8, 10] "
                            "lack a sampled treated or control unit\n")


BUNDLED_VERIFY_LOG = """\
ok worst_case full: [-0.938012, 0.953145]
ok worst_case reduced: [-0.575524, 0.370055]
ok bsv full lambda=0: [0.139037, 0.139037]
ok bsv reduced lambda=0: [0.286621, 0.286621]
ok bsv full lambda=1/10: [-0.050078, 0.317029]
ok bsv reduced lambda=1/10: [0.192063, 0.370055]
ok bsv full lambda=1/4: [-0.312261, 0.458865]
ok bsv reduced lambda=1/4: [0.050227, 0.370055]
ok bsv full lambda=1/2: [-0.548656, 0.695260]
ok bsv reduced lambda=1/2: [-0.186168, 0.370055]
ok bsv full lambda=1: [-0.938012, 0.953145]
ok bsv reduced lambda=1: [-0.575524, 0.370055]
ok mtr sample max-variant: [0.000000, 0.980564]
ok mtr sample min-variant: [0.000000, 0.034985]
ok mtr population max-variant: [0.000000, 0.397473]
ok mtr population min-variant: [0.000000, 0.397473]
all oracle checks passed
"""


SMALL_VERIFY_LOG = """\
ok worst_case full: [-0.357143, 0.785714]
ok worst_case reduced: [-0.214286, 0.642857]
ok bsv full lambda=0: [0.500000, 0.500000]
ok bsv reduced lambda=0: [0.357143, 0.357143]
ok bsv full lambda=1/10: [0.385714, 0.557143]
ok bsv reduced lambda=1/10: [0.271429, 0.414286]
ok bsv full lambda=1/4: [0.214286, 0.642857]
ok bsv reduced lambda=1/4: [0.142857, 0.500000]
ok bsv full lambda=1/2: [-0.071429, 0.785714]
ok bsv reduced lambda=1/2: [-0.071429, 0.642857]
ok bsv full lambda=1: [-0.357143, 0.785714]
ok bsv reduced lambda=1: [-0.214286, 0.642857]
ok mtr sample max-variant: [0.000000, 0.857143]
ok mtr sample min-variant: [0.000000, 0.285714]
ok mtr population max-variant: [0.000000, 0.714286]
ok mtr population min-variant: [0.000000, 0.428571]
all oracle checks passed
"""


class TestVerify:
    def test_small_frame_passes(self, capsys, small_csv):
        # z=0 units carry business-as-usual outcomes, so the log holds each
        # check name, the population-scope MTR lines included
        code, out, _ = run(capsys, "verify", "--data", small_csv)
        assert code == 0
        assert out == SMALL_VERIFY_LOG

    def test_a_z0_arm_label_changes_nothing(self, capsys, small_csv, tmp_path):
        blanked = tmp_path / "blanked" / "small.csv"  # the report names the file
        blanked.parent.mkdir()
        blanked.write_text(re.sub(r"^(\w+,0,)[01]", r"\1", SMALL_BINARY, flags=re.M))
        assert blanked.read_text().count(",0,,") == 4
        assert run(capsys, "verify", "--data", str(blanked)) == (0, SMALL_VERIFY_LOG, "")
        argv = ["analyze", "--strata", "1", "--reps", "20", "--framework", "both",
                "--assumption", "worst", "--assumption", "mtr", "--format", "json"]
        code, labelled, _ = run(capsys, *argv, "--data", small_csv)
        assert code == 0
        assert run(capsys, *argv, "--data", str(blanked)) == (0, labelled, "")

    def test_bundled_dataset_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--data", synthetic_path())
        assert code == 0
        # the first line is the golden report's unclamped worst-case interval,
        # checked exhaustively; the reduced and population lines take
        # P(W=0|Z=0) = 973/973, so both MTR variants pin every z=0 unit
        assert out == BUNDLED_VERIFY_LOG

    def test_frame_past_ten_thousand_units_passes(self, capsys, tmp_path):
        n = 10_001
        path = tmp_path / "large.csv"
        rows = ["a,1,1,1", "b,1,0,0"] + [f"u{i},0,," for i in range(n - 2)]
        path.write_text("id,in_sample,treatment,outcome\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, "verify", "--data", str(path))
        assert (code, err) == (0, "")
        assert out.endswith("all oracle checks passed\n")
        # every free unit's effect spans [-1, 1] around the sampled contrast of 2
        assert f"ok worst_case full: [{(2 - (n - 2)) / n:.6f}, 1.000000]\n" in out

    def test_continuous_frame_is_a_data_error(self, capsys, continuous_csv):
        code, out, err = run(capsys, "verify", "--data", continuous_csv, "--support", "0,3")
        assert code == 2
        assert err == "error: enumeration oracles require a binary frame\n"
        assert out == ""

    def test_empty_frame_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,in_sample,treatment,outcome\n")
        code, _, err = run(capsys, "verify", "--data", str(path))
        assert code == 2

    def test_census_frame_passes(self, capsys, tmp_path):
        path = tmp_path / "census.csv"
        path.write_text("id,in_sample,treatment,outcome\na,1,1,1\nb,1,1,0\nc,1,0,0\n")
        code, out, _ = run(capsys, "verify", "--data", str(path))
        assert code == 0
        assert "all oracle checks passed" in out

    def test_mutated_engine_fails_with_counterexample(self, capsys, small_csv, monkeypatch):
        original = pibgen.bounds.worst_case_bounds

        def off_by_a_bit(rates, probs, framework, support):
            interval = original(rates, probs, framework, support)
            return dataclasses.replace(interval, hi=interval.hi + 0.01,
                                       pre_clamp_hi=interval.pre_clamp_hi + 0.01)

        monkeypatch.setattr(pibgen.bounds, "worst_case_bounds", off_by_a_bit)
        code, out, _ = run(capsys, "verify", "--data", small_csv)
        assert code == 1
        assert "MISMATCH" in out
        assert "enumeration" in out


def long_id_files(tmp_path, flag, long_id):
    """The files of a ``flag`` load whose second data row has id ``long_id``."""
    texts = {"--data": f"id,in_sample,treatment,outcome\na,1,1,1\n{long_id},1,0,0\n",
             "--sample": f"id,treatment,outcome\ns1,1,1\n{long_id},0,0\n"}
    (tmp_path / "data.csv").write_text(texts[flag])
    (tmp_path / "population.csv").write_text("id,outcome\np1,1\n")
    return (["--data", str(tmp_path / "data.csv")] if flag == "--data" else
            ["--sample", str(tmp_path / "data.csv"),
             "--population", str(tmp_path / "population.csv")])


class TestExitContract:
    @pytest.mark.parametrize("mode", ["data", "sample", "population"])
    def test_duplicate_header_name_is_a_data_error(self, capsys, tmp_path, mode):
        combined = "id,in_sample,treatment,outcome,x1,x1\na,1,1,1,0.2,0.3\nb,1,0,0,0.5,0.1\n"
        sample = "id,treatment,outcome,x1\ns1,1,1,0.2\ns2,0,0,0.5\n"
        population = "id,outcome,x1\np1,1,0.3\np2,,0.9\n"
        if mode == "sample":
            sample = sample.replace("outcome,x1", "outcome,x1,x1").replace(",0.2\n", ",0.2,0.3\n")
        elif mode == "population":
            population = "id,x1,outcome,x1\np1,0.3,1,0.4\np2,0.9,,0.8\n"
        for name, text in (("data", combined), ("sample", sample), ("population", population)):
            (tmp_path / f"{name}.csv").write_text(text)
        files = (["--data", str(tmp_path / "data.csv")] if mode == "data" else
                 ["--sample", str(tmp_path / "sample.csv"),
                  "--population", str(tmp_path / "population.csv")])
        code, _, err = run(capsys, "propensity", *files)
        header = "the header" if mode == "data" else f"the {mode} file header"
        assert (code, err) == (2, f"error: column 'x1' appears more than once in {header}\n")

    @pytest.mark.parametrize("reps", ["0", "1"])
    def test_ipw_reports_no_se_below_two_replicates(self, capsys, small_csv, reps):
        outputs = {}
        for fmt in ("json", "md", "csv"):
            code, outputs[fmt], _ = run(capsys, "points", "--data", small_csv, "--strata", "1",
                                        "--reps", reps, "--format", fmt)
            assert code == 0
        (ipw,) = [p for p in json.loads(outputs["json"])["point_estimates"]
                  if p["method"] == "ipw"]
        assert ipw["se"] is None
        assert ipw["details"]["bootstrap_reps"] == int(reps)
        (md_row,) = [line for line in outputs["md"].splitlines() if line.startswith("| ipw")]
        assert md_row.endswith("(n/a) |")
        (csv_row,) = [line for line in outputs["csv"].splitlines() if ",ipw," in line]
        assert csv_row.endswith(",")
        naive_row = [line for line in outputs["csv"].splitlines() if ",naive," in line][0]
        assert not naive_row.endswith(",")

    def test_unexpected_exception_is_an_internal_error(self, capsys, small_csv, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("stage failed")

        monkeypatch.setattr(pibgen.cli, "fit_propensity", broken)
        code, out, err = run(capsys, "analyze", "--data", small_csv, "--strata", "1")
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: Traceback (most recent call last)")
        assert "RuntimeError: stage failed" in err

    def test_reps_ceiling_is_inclusive(self, monkeypatch):
        monkeypatch.delenv("PIBGEN_SEED", raising=False)
        pibgen.cli._check_request({**pibgen.cli._DEFAULTS, "reps": pibgen.cli.MAX_REPS})
        with pytest.raises(ConfigError, match="^--reps must be <= 1,000,000, got 1000001$"):
            pibgen.cli._check_request({**pibgen.cli._DEFAULTS, "reps": pibgen.cli.MAX_REPS + 1})

    @pytest.mark.parametrize("argv, env, config, message", [
        (["--seed", "-1"], None, None, "--seed (or PIBGEN_SEED) must be a non-negative integer"),
        ([], "abc", None, "--seed (or PIBGEN_SEED) must be a non-negative integer, got 'abc'"),
        ([], None, {"seed": "7"}, "--seed (or PIBGEN_SEED) must be a non-negative integer"),
        ([], None, {"seed": 1.5}, "--seed (or PIBGEN_SEED) must be a non-negative integer"),
        ([], None, {"seed": True}, "--seed (or PIBGEN_SEED) must be a non-negative integer"),
        ([], None, {"reps": "10"}, "--reps must be an integer, got '10'"),
        ([], None, {"reps": 2.5}, "--reps must be an integer, got 2.5"),
        (["--reps", str(10**20)], None, None,
         f"--reps must be <= 1,000,000, got {10**20}"),
        ([], None, {"reps": 10**20}, f"--reps must be <= 1,000,000, got {10**20}"),
        ([], None, {"strata": "3"}, "--strata must be an integer, got '3'"),
        ([], None, {"strata": True}, "--strata must be an integer, got True"),
        ([], None, {"strata": 0}, "--strata must be >= 1"),
        ([], None, {"pw0z0": "x"}, "--pw0z0 must be a real number, got 'x'"),
        (["--pw0z0", "1.5"], None, None, "--pw0z0 must be in [0, 1], got 1.5"),
        (["--pw0z0", "-0.1"], None, None, "--pw0z0 must be in [0, 1], got -0.1"),
        (["--pw0z0", "nan"], None, None, "--pw0z0 must be in [0, 1], got nan"),
        ([], None, {"framework": "bogus"},
         "--framework must be one of full, reduced, both, got 'bogus'"),
        ([], None, {"framework": ["full"]},
         "--framework must be one of full, reduced, both, got ['full']"),
        ([], None, {"assumption": ["nope"]}, "--assumption must be one of"),
        ([], None, {"lambda": None}, "--lambda expects an expression or a list of them, got None"),
        (["--lambda", "bogus"], None, None, "bad lambda expression 'bogus'"),
        (["--lambda=-0.3"], None, None, "lambda must be >= 0, got -0.3"),
        (["--assumption", "bsv"], None, None, "bsv bounds need a lambda value"),
    ])
    def test_option_of_the_wrong_type_is_a_config_error_before_loading(
            self, capsys, small_csv, tmp_path, monkeypatch, argv, env, config, message):
        def not_reached(*args, **kwargs):
            raise RuntimeError("the frame was loaded")

        if env is not None:
            monkeypatch.setenv("PIBGEN_SEED", env)
        options = []
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            options = ["--config", str(path)]
        with monkeypatch.context() as patched:
            patched.setattr(pibgen.cli, "load_frame", not_reached)
            for command in ("analyze", "bounds", "points", "strata", "lambda"):
                code, out, err = run(capsys, *options, command, "--data", small_csv, *argv)
                assert code == 3
                assert message in err
                assert out == ""
        # a command that does not use the option still ignores it
        code, _, _ = run(capsys, *options, "propensity", "--data", small_csv, *argv)
        assert code == 0

    @pytest.mark.parametrize("config, message", [
        ({"support": [1]}, "--support expects 'lo,hi', got [1]"),
        ({"support": ["a", "b"]}, "--support expects 'lo,hi', got ['a', 'b']"),
        ({"covariates": 5}, "--covariates expects comma-separated column names, got 5"),
        ({"exclude": 5}, "--exclude expects comma-separated column names, got 5"),
        ({"out": 5}, "--out expects a file path, got 5"),
        ({"out": 1}, "--out expects a file path, got 1"),
        ({"categorical": "x1=0"}, "--categorical expects a list of COL=REF items, got 'x1=0'"),
        ({"id_col": 5}, "--id-col expects a column name, got 5"),
        ({"outcome_col": ["outcome"]}, "--outcome-col expects a column name, got ['outcome']"),
        ({"sample": 5}, "--sample expects a file path, got 5"),
        ({"pooled": "false"}, "--pooled expects true or false, got 'false'"),
        ({"merge_strata": "no"}, "--merge-strata expects true or false, got 'no'"),
        ({"merge_strata": 1}, "--merge-strata expects true or false, got 1"),
        ({"format": "xml"}, "--format must be one of json, csv, md, got 'xml'"),
        ({"format": ["json"]}, "--format must be one of json, csv, md, got ['json']"),
        ({"model": 0}, "--model expects a file path, got 0"),
        ({"model": 7}, "--model expects a file path, got 7"),
        ({"model": ["a"]}, "--model expects a file path, got ['a']"),
        ({"categorical": [[1, "a"]]}, "--categorical expects COL=REF, got [1, 'a']"),
        ({"categorical": [["title1", None]]},
         "--categorical expects COL=REF, got ['title1', None]"),
        ({"support": [True, 2]}, "--support expects 'lo,hi', got [True, 2]"),
    ], ids=["support-short", "support-text", "covariates", "exclude", "out-5", "out-1",
            "categorical", "id-col", "outcome-col", "sample", "pooled", "merge-strata", "merge-strata-1",
            "format", "format-list", "model-0", "model-7", "model-list", "categorical-number",
            "categorical-null", "support-bool"])
    def test_config_value_of_the_wrong_type_is_a_config_error(
            self, capsys, small_csv, tmp_path, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "--config", str(path), "analyze", "--data", small_csv,
                             "--strata", "1")
        assert code == 3
        assert f"error: {message}" in err
        assert out == ""

    @pytest.mark.parametrize("text", ["5", "null", '[["a", "b"]]', '"abc"'])
    def test_config_file_that_is_not_a_json_object_is_a_config_error(
            self, capsys, small_csv, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, out, err = run(capsys, "--config", str(path), "analyze", "--data", small_csv,
                             "--strata", "1")
        assert code == 3
        assert err == f"error: config file {str(path)!r} does not hold a JSON object\n"
        assert out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["propensity", "strata", "analyze", "lambda"])
    def test_header_only_file_is_a_data_error(self, capsys, tmp_path, command):
        path = tmp_path / "empty.csv"
        path.write_text("id,in_sample,treatment,outcome,x1\n")
        code, out, err = run(capsys, command, "--data", str(path))
        assert code == 2
        assert err == "error: frame contains no sampled (z=1) units\n"
        assert out == ""

    @pytest.mark.parametrize("value", ["no", 1])
    def test_strata_command_rejects_a_merge_switch_that_is_not_a_bool(
            self, capsys, small_csv, tmp_path, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"merge_strata": value}))
        code, out, err = run(capsys, "--config", str(path), "strata", "--data", small_csv,
                             "--strata", "1")
        assert code == 3
        assert f"error: --merge-strata expects true or false, got {value!r}" in err
        assert out == ""

    @pytest.mark.parametrize("command", _COMMANDS)
    @pytest.mark.parametrize("where", ["flags", "config-data", "config-pair"])
    def test_data_beside_the_file_pair_is_a_config_error(self, capsys, small_csv, tmp_path,
                                                         command, where):
        config = tmp_path / "cfg.json"
        given = {"data": small_csv, "sample": small_csv, "population": small_csv}
        in_config = {"flags": (), "config-data": ("data",),
                     "config-pair": ("sample", "population")}[where]
        config.write_text(json.dumps({key: given[key] for key in in_config}))
        flags = [arg for key in given if key not in in_config for arg in (f"--{key}", given[key])]
        code, out, err = run(capsys, "--config", str(config), command, *flags)
        assert (code, out) == (3, "")
        assert err == "error: give --data, or --sample and --population, not both\n"

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("flag", ["--data", "--sample", "--population"])
    def test_missing_input_file_is_a_config_error(self, capsys, small_csv, tmp_path,
                                                  command, flag):
        missing = str(tmp_path / "nonexistent.csv")
        files = {"--data": ["--data", missing],
                 "--sample": ["--sample", missing, "--population", small_csv],
                 "--population": ["--sample", small_csv, "--population", missing]}
        code, out, err = run(capsys, command, *files[flag], "--strata", "1")
        assert code == 3
        assert err == f"error: cannot read data file {missing!r}: No such file or directory\n"
        assert out == ""

    @pytest.mark.parametrize("sample, population, message", [
        ("id,treatment,outcome\ns1,1,1\ns1,0,0\n", "id,outcome\np1,1\np2,x\n",
         "duplicate unit id 's1'"),
        ("id,treatment,outcome\ns1,1,1\ns2,0,0\n", "id,outcome\np1,1\np2,x\n",
         "row 2 of the population file: outcome 'x' outside support [0.0, 1.0]"),
        # a sample file lacks a column even when it has no row to miss it
        ("id,outcome\n", "id,outcome\np1,1\n",
         "required column 'treatment' not found in the sample file header"),
        ("id,treatment\n", "id,outcome\np1,1\n",
         "required column 'outcome' not found in the sample file header"),
        ("id,treatment,outcome,x1\ns1,1,1,0.2\ns2,0,0,0.5\n", "id,outcome\np1,1\n",
         "required column 'x1' not found in the population file header"),
    ], ids=["repeated-sample-id", "population-row", "no-treatment", "no-outcome",
            "population-no-covariate"])
    def test_bad_two_file_input_is_a_data_error(self, capsys, tmp_path, sample, population,
                                                message):
        (tmp_path / "sample.csv").write_text(sample)
        (tmp_path / "population.csv").write_text(population)
        code, out, err = run(capsys, "bounds", "--sample", str(tmp_path / "sample.csv"),
                             "--population", str(tmp_path / "population.csv"))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag", ["--data", "--sample"])
    def test_a_field_over_the_default_csv_size_limit_loads(self, capsys, tmp_path, flag):
        long_id = "u" * 140_000  # csv.field_size_limit() is 131,072 by default
        outputs = []
        for cell in (long_id, f'"{long_id}"'):  # numpy's reader reads it; csv reads it quoted
            files = long_id_files(tmp_path, flag, cell)
            outputs.append(run(capsys, "bounds", *files, "--strata", "1", "--format", "json"))
        assert outputs[0] == outputs[1] and outputs[0][::2] == (0, "")

    @pytest.mark.parametrize("flag", ["--data", "--sample"])
    def test_a_csv_error_is_a_data_error_naming_its_line(self, capsys, monkeypatch, tmp_path,
                                                         flag):
        monkeypatch.setattr(csv, "field_size_limit", lambda *limit: 131_072)  # not to be lifted
        files = long_id_files(tmp_path, flag, '"' + "u" * 140_000 + '"')
        code, out, err = run(capsys, "bounds", *files)
        where = "line 3" if flag == "--data" else "line 3 of the sample file"
        assert (code, out, err) == (
            2, "", f"error: unreadable CSV at {where}: field larger than field limit (131072)\n")

    def test_sample_file_is_read_before_the_population_file_is_opened(self, capsys, tmp_path):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("id,treatment,outcome\ncaf\xe9,1,1\n".encode("latin-1"))
        code, out, err = run(capsys, "bounds", "--sample", str(latin1),
                             "--population", str(tmp_path / "nonexistent.csv"))
        assert (code, out) == (2, "")
        assert err == (f"error: data file {str(latin1)!r} is not UTF-8 text: "
                       "invalid continuation byte\n")

    @pytest.mark.parametrize("flag", ["--data", "--sample", "--population"])
    def test_data_path_with_a_newline_is_read_as_a_file(self, capsys, tmp_path, flag):
        texts = {"--data": SMALL_BINARY,
                 "--sample": "id,treatment,outcome\ns1,1,1\ns2,0,0\n",
                 "--population": "id,outcome\np1,1\np2,\np3,0\n"}
        paths = {}
        for role, text in texts.items():
            name = f"odd\n{role[2:]}.csv" if role == flag else f"{role[2:]}.csv"
            paths[role] = tmp_path / name
            paths[role].write_text(text)
        files = (["--data", str(paths["--data"])] if flag == "--data" else
                 ["--sample", str(paths["--sample"]), "--population", str(paths["--population"])])
        code, out, err = run(capsys, "bounds", *files, "--strata", "1", "--format", "json")
        assert (code, err) == (0, "")
        frame = json.loads(out)["frame"]
        assert (frame["n_units"], frame["n_sample"]) == ((7, 3) if flag == "--data" else (5, 2))

    @pytest.mark.parametrize("flag", ["--data", "--sample", "--population"])
    def test_missing_data_path_with_a_newline_is_a_config_error(self, capsys, small_csv,
                                                                tmp_path, flag):
        missing = str(tmp_path / "odd\nname.csv")
        files = {"--data": ["--data", missing],
                 "--sample": ["--sample", missing, "--population", small_csv],
                 "--population": ["--sample", small_csv, "--population", missing]}
        code, out, err = run(capsys, "analyze", *files[flag], "--strata", "1")
        assert code == 3
        assert err == f"error: cannot read data file {missing!r}: No such file or directory\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_unwritable_output_file_is_a_config_error(self, capsys, small_csv, tmp_path,
                                                      command):
        target = str(tmp_path / "no_such_dir" / "report.md")
        code, out, err = run(capsys, command, "--data", small_csv, "--strata", "1",
                             "--out", target)
        assert code == 3
        assert err == f"error: cannot write output file {target!r}: No such file or directory\n"
        assert out == ""

    def test_failed_verify_writes_no_output_file(self, capsys, tmp_path):
        data = tmp_path / "header_only.csv"
        data.write_text("id,in_sample,treatment,outcome\n")
        target = tmp_path / "verify.txt"
        code, out, err = run(capsys, "verify", "--data", str(data), "--out", str(target))
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""
        assert not target.exists()

    @pytest.mark.parametrize("flag", ["--data", "--sample", "--population"])
    def test_data_file_that_is_not_utf8_is_a_data_error(self, capsys, small_csv, tmp_path,
                                                        flag):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(SMALL_BINARY.replace("a,1,1,1", "caf\xe9,1,1,1").encode("latin-1"))
        files = {"--data": ["--data", str(latin1)],
                 "--sample": ["--sample", str(latin1), "--population", small_csv],
                 "--population": ["--sample", small_csv, "--population", str(latin1)]}
        code, out, err = run(capsys, "analyze", *files[flag], "--strata", "1")
        assert code == 2
        assert err == (f"error: data file {str(latin1)!r} is not UTF-8 text: "
                       "invalid continuation byte\n")
        assert out == ""


@pytest.mark.parametrize("key", sorted(pibgen.cli._DEFAULTS))
def test_every_config_value_ends_in_a_report_or_a_typed_error(capsys, small_csv, tmp_path,
                                                              monkeypatch, key):
    monkeypatch.delenv("PIBGEN_SEED", raising=False)
    path = tmp_path / "cfg.json"
    for value in (None, True, 0, -1, 1.5, "", [], {}, [None]):
        path.write_text(json.dumps({"data": small_csv, "reps": 5, key: value}))
        for command in _COMMANDS:
            code, _, err = run(capsys, "--config", str(path), command)
            assert code in (0, 2, 3), (key, value, command, err)
            assert "Traceback" not in err, (key, value, command)


# one alphabet per column: valid cells, blanks, non-finite and unparsable text,
# outcomes outside the default [0, 1] support and indicators that are not 0/1
_CELLS = {
    "id": ["a", "b", "c", ""],
    "in_sample": ["0", "1", "1", "", "2", "x"],
    "treatment": ["0", "1", "", "nan", "2"],
    "outcome": ["0", "1", "1", "0.5", "", "nan", "inf", "-1", "2", "x"],
    "x1": ["0", "1", "2.5", "-3", "", "nan", "-inf", "x"],
}
@st.composite
def _csv_texts(draw):
    rows = draw(st.lists(st.fixed_dictionaries(
        {column: st.sampled_from(cells) for column, cells in _CELLS.items()}), max_size=8))
    lines = [",".join(_CELLS)] + [",".join(row.values()) for row in rows]
    return "\n".join(lines) + "\n"


# a loaded model whose x coefficient overflows the logits of units with |x| > 1
OVERFLOWING_MODEL = {"intercept": 0.0, "coefficients": {"x": 1e308}, "converged": True,
                     "iterations": 3}


def _past_the_open_ends(table: str, fmt: str) -> str:
    """A Markdown or CSV strata table with its open outer ends, which must read
    -inf and inf, blanked: the only cells that may hold an infinity."""
    header, *rows = _md_cells(table) if fmt == "md" else list(csv.reader(io.StringIO(table)))
    lo, hi = header.index("logit_lo"), header.index("logit_hi")
    assert (rows[0][lo], rows[-1][hi]) == ("-inf", "inf")
    rows[0][lo] = rows[-1][hi] = ""
    return "\n".join(",".join(row) for row in [header, *rows])


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(_csv_texts(), frame_texts()), strata=st.sampled_from(["1", "2", "3"]),
       merge=st.booleans(),
       fmt=st.sampled_from(["json", "csv", "md"]), overflowing_model=st.booleans())
def test_every_input_ends_in_a_report_or_a_typed_error(tmp_path_factory, text, strata, merge,
                                                       fmt, overflowing_model):
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_text(text)
    options = ["--data", str(path), "--strata", strata, "--reps", "5", "--format", fmt,
               "--framework", "both", "--pooled",
               "--assumption", "worst", "--assumption", "bsv", "--assumption", "mtr",
               "--lambda", "0.3", "--lambda", "sd:max_arm", "--lambda", "asmd:max"]
    if merge:
        options.append("--merge-strata")
    if overflowing_model:  # every x1 cell past 1 in size overflows its logit
        model = path.with_name("model.json")
        model.write_text(json.dumps({**OVERFLOWING_MODEL, "coefficients": {"x1": 1e308}}))
        options += ["--model", str(model)]
    for command in _COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *options])
        event(f"{command} exits {code}")
        assert code in (0, 1, 2, 3), (command, err.getvalue())
        assert code != 1 or command == "verify"
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue(), command
        if code == 0 and fmt != "json":
            cells = out.getvalue()
            if command == "strata":
                cells = _past_the_open_ends(cells, fmt)
            assert not re.search(r"\b(inf|nan)\b", cells), (command, fmt)


def test_a_quarter_of_generated_frames_reach_a_report(tmp_path_factory):
    # the exit-0 assertions above run only on frames that load and fit
    codes = []

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(text=frame_texts())
    def analyze(text):
        path = tmp_path_factory.mktemp("batch") / "data.csv"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(["analyze", "--data", str(path), "--reps", "5"]))

    analyze()
    assert codes.count(0) >= len(codes) / 4, sorted(codes)


# sampled treated, sampled control and non-sampled rows, with overlapping
# covariates so that the propensity fit converges; each row's outcome is drawn
# from the cells that lie in the support
_EXTREME_ROWS = (("1", "1", "0.2"), ("1", "1", "1.4"), ("1", "0", "0.9"), ("1", "0", "-0.3"),
                 ("0", "", "0.5"), ("0", "", "1.1"), ("0", "", "-0.6"), ("0", "", "0.1"))
_SUPPORT_CELLS = {"0,1": ["0", "1"], "0,1e200": ["0", "1", "1e200"],
                  "-1e308,1e308": ["0", "1", "1e200", "-1e308"]}
# covariate magnitudes whose mean or SD overflows a float (a sum past 1.8e308,
# or a square of 1e200) and ones whose moments stay finite
_COVARIATE_MAGNITUDES = ["1e308", "1.7e308", "1e200", "1e150", "1e-200"]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), support=st.sampled_from(list(_SUPPORT_CELLS)),
       lam=st.sampled_from(["0.3", "1e308", "sd:pooled", "asmd:max"]),
       magnitude=st.sampled_from([None, *_COVARIATE_MAGNITUDES]))
def test_extreme_magnitudes_end_in_a_finite_report_or_a_typed_error(tmp_path_factory, data,
                                                                   support, lam, magnitude):
    outcomes = data.draw(st.lists(st.sampled_from(_SUPPORT_CELLS[support]),
                                  min_size=len(_EXTREME_ROWS), max_size=len(_EXTREME_ROWS)))
    covariates = [x for _, _, x in _EXTREME_ROWS]
    if magnitude is not None:
        covariates = data.draw(st.lists(st.sampled_from([magnitude, f"-{magnitude}", *covariates]),
                                        min_size=len(_EXTREME_ROWS), max_size=len(_EXTREME_ROWS)))
    path = tmp_path_factory.mktemp("extreme") / "data.csv"
    path.write_text("id,in_sample,treatment,outcome,x1\n" + "".join(
        f"u{i},{z},{w},{y},{x}\n"
        for i, ((z, w, _), x, y) in enumerate(zip(_EXTREME_ROWS, covariates, outcomes))))
    options = ["--data", str(path), f"--support={support}", "--lambda", lam, "--strata", "1",
               "--reps", "5", "--framework", "both", "--assumption", "worst", "--assumption", "bsv"]
    for command in ("analyze", "bounds", "points", "lambda"):
        ends = set()
        for fmt in ("json", "md", "csv"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *options, "--format", fmt])
            assert code in (0, 2, 3), (command, fmt, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 0:
                assert not re.search(r"\b(inf|nan|Infinity|NaN)\b", out.getvalue()), (command, fmt)
            ends.add((code, err.getvalue()))
        assert len(ends) == 1, (command, ends)


OVERFLOWING_SUMS_CSV = ("id,in_sample,treatment,outcome\n"
                        "a,1,1,0\nb,1,0,-1\nc,0,,-1e308\nd,0,,-1e308\n")


def test_outcomes_whose_sum_overflows_give_a_finite_report(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(OVERFLOWING_SUMS_CSV)
    code, out, err = run(capsys, "bounds", "--data", str(path), "--support=-1e308,0",
                         "--framework", "both", "--format", "json")
    assert (code, err) == (0, "")
    full, reduced = json.loads(out)["intervals"]
    assert full["inputs"]["e_y0_w0z0"] == -1e308
    assert [(full["lo"], full["hi"]), (reduced["lo"], reduced["hi"])] == [
        (-5e307, 5e307), (-2.5e307, 5e307)]


def test_markdown_prints_huge_endpoints_in_exponent_form(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(OVERFLOWING_SUMS_CSV)
    code, out, err = run(capsys, "bounds", "--data", str(path), "--support=-1e308,0",
                         "--framework", "both", "--format", "md")
    assert (code, err) == (0, "")
    assert "| treatment randomization | reduced |  | [-2.50e+307, 5.00e+307] |  |" in out
    assert max(len(line) for line in out.splitlines()) < 200


_SCALE = 2.0 ** 1023
_SCALED_ARGS = ["--assumption", "worst", "--assumption", "bsv", "--framework", "both",
                "--format", "json"]


def _scaled_outcomes(text: str) -> str:
    """``text`` with every outcome cell multiplied by ``_SCALE``."""
    header, *lines = text.splitlines()
    rows = [line.split(",") for line in lines]
    for row in rows:
        row[3] = repr(float(row[3]) * _SCALE) if row[3] else ""
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


@settings(max_examples=40, deadline=None)
@given(text=frame_texts(max_perturbations=0))
def test_intervals_scale_exactly_with_outcomes_support_and_lambda(tmp_path_factory, text):
    # multiplying by 2**1023 is exact, so every endpoint scales exactly, unless
    # a sum of outcomes leaves float range on the way (frame._tally's scale)
    ends = []
    for factor, data in ((1.0, text), (_SCALE, _scaled_outcomes(text))):
        path = tmp_path_factory.mktemp("scaled") / "data.csv"
        path.write_text(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["bounds", "--data", str(path), f"--support=0,{factor!r}",
                         "--lambda", repr(0.25 * factor), *_SCALED_ARGS])
        intervals = json.loads(out.getvalue())["intervals"] if code == 0 else []
        ends.append((code, err.getvalue(), [
            (entry["lo"] / factor, entry["hi"] / factor) for entry in intervals]))
    assert ends[1] == ends[0]


@pytest.mark.parametrize("cells", [("1e308", "1.7e308"), ("1e200", "1e-200")])
@pytest.mark.parametrize("command", ["propensity", "analyze", "lambda"])
def test_covariate_whose_moments_overflow_is_a_data_error(capsys, tmp_path, cells, command):
    path = tmp_path / "data.csv"
    path.write_text("id,in_sample,treatment,outcome,x\n" + "".join(
        f"u{i},{int(i < 20)},{i % 2 if i < 20 else ''},{i * 7 % 3 % 2},{cells[i * 5 % 7 % 2]}\n"
        for i in range(60)))
    assert run(capsys, command, "--data", str(path), "--format", "json") == (
        2, "", "error: covariate 'x' is too large for float arithmetic: its mean or SD overflows\n")


def _sampled_first_twelve(cells) -> str:
    """A frame with one row per covariate cell: the first 12 rows are sampled,
    with arms alternating, and row i has outcome i % 3 % 2."""
    return "id,in_sample,treatment,outcome,x\n" + "".join(
        f"u{i},{int(i < 12)},{i % 2 if i < 12 else ''},{i % 3 % 2},{x}\n"
        for i, x in enumerate(cells))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, message", [
    ("strata", "result strata[1].logit_hi is inf: too large for float arithmetic"),
    ("analyze", "fitted selection probability is not positive for unit 'u0'"),
])
def test_logits_that_overflow_are_the_same_error_in_every_format(capsys, tmp_path, command,
                                                                 message):
    data, model = tmp_path / "g.csv", tmp_path / "m.json"
    data.write_text(_sampled_first_twelve([(-3, 3, 2, 1)[i % 4] for i in range(40)]))
    model.write_text(json.dumps(OVERFLOWING_MODEL))
    for fmt in ("md", "csv", "json"):
        assert run(capsys, command, "--data", str(data), "--model", str(model), "--strata", "3",
                   "--reps", "5", "--format", fmt) == (2, "", f"error: {message}\n"), fmt


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["strata", "analyze"])
def test_a_nan_logit_is_the_same_data_error_in_every_format(capsys, tmp_path, command):
    # unit u20, not sampled, has terms 3e308 and -3e308: +inf + -inf is NaN
    data, model = tmp_path / "g.csv", tmp_path / "m.json"
    data.write_text("id,in_sample,treatment,outcome,x,v\n" + "".join(
        f"u{i},{int(i < 12)},{i % 2 if i < 12 else ''},{i % 3 % 2},"
        + ("3,-3" if i == 20 else f"{(-3, 3, 2, 1)[i % 4]}e-308,0") + "\n"
        for i in range(40)))
    model.write_text(json.dumps({**OVERFLOWING_MODEL, "coefficients": {"x": 1e308, "v": 1e308}}))
    for fmt in ("md", "csv", "json"):
        assert run(capsys, command, "--data", str(data), "--model", str(model), "--strata", "3",
                   "--reps", "5", "--format", fmt) == (
            2, "", "error: propensity logit of unit 'u20' is NaN: "
                   "its terms overflow to +inf and -inf\n"), fmt


@settings(max_examples=40, deadline=None)
@given(cells=st.lists(st.sampled_from(["-3", "-1", "-0.5", "0", "0.5", "1", "2", "3"]),
                      min_size=24, max_size=24),
       coefficient=st.sampled_from([1e308, -1e308, 1e200]), strata=st.sampled_from("1234"),
       merge=st.booleans())
def test_a_model_whose_logits_overflow_ends_alike_in_every_format(tmp_path_factory, cells,
                                                                  coefficient, strata, merge):
    data = tmp_path_factory.mktemp("overflow") / "g.csv"
    data.write_text(_sampled_first_twelve(cells))
    model = data.with_name("m.json")
    model.write_text(json.dumps({**OVERFLOWING_MODEL, "coefficients": {"x": coefficient}}))
    options = ["--data", str(data), "--model", str(model), "--strata", strata, "--reps", "5",
               "--assumption", "bsv", "--lambda", "asmd:max", "--pooled"]
    if merge:
        options.append("--merge-strata")
    for command in ("strata", "analyze", "bounds", "points", "lambda"):
        ends = set()
        for fmt in ("json", "md", "csv"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *options, "--format", fmt])
            assert code in (0, 2), (command, fmt, err.getvalue())
            text = out.getvalue()
            if code == 0 and command == "strata" and fmt != "json":
                text = _past_the_open_ends(text, fmt)
            assert not re.search(r"\b(inf|nan|Infinity|NaN)\b", text), (command, fmt)
            ends.add((code, err.getvalue()))
        assert len(ends) == 1, (command, ends)


@pytest.mark.parametrize("command", ["analyze", "bounds", "points", "lambda", "strata",
                                     "propensity"])
def test_every_json_command_writes_canonical_json(capsys, command):
    code, out, err = run(capsys, command, *GOLDEN_ARGS, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    if command == "strata":
        rows = json.loads(out)["strata"]
        assert rows[0]["logit_lo"] is None and rows[-1]["logit_hi"] is None
        assert all(isinstance(row["logit_hi"], float) for row in rows[:-1])
