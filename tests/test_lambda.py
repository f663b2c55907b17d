"""Lambda selection rules for the bounded-variation bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pibgen.bounds import bsv_bounds
from pibgen.errors import ConfigError, NegativeLambda, UnknownCovariate
from pibgen.frame import BINARY, design_probs, empirical_rates, load_frame
from pibgen.lambda_select import (
    ARM_RULES,
    LambdaSpec,
    lambda_report,
    parse_lambda_expr,
    resolve_lambda,
)
from pibgen.propensity import compute_balance

from conftest import make_frame

# every finite non-negative float: a label prints each one so that it parses back
NUMBERS = st.floats(min_value=0, allow_nan=False, allow_infinity=False)
NAMES = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8)
LAMBDA_SPECS = st.one_of(
    st.builds(LambdaSpec, mode=st.just("fixed"), value=NUMBERS),
    st.builds(LambdaSpec, mode=st.just("asmd"), aggregate=st.sampled_from(["max", "mean"]),
              covariates=st.lists(NAMES, max_size=3).map(tuple)),
    st.builds(LambdaSpec, mode=st.just("asmd"), aggregate=st.just("single"),
              covariates=st.tuples(NAMES)),
    st.builds(LambdaSpec, mode=st.just("outcome_sd"), arm_rule=st.sampled_from(ARM_RULES),
              multiplier=NUMBERS),
)


def balanced_frame():
    spec = [(1, 1, 1.0), (1, 0, 0.0), (0, None, None), (0, None, None)]
    x = [(1.0, 5.0), (3.0, 9.0), (1.0, 5.0), (3.0, 9.0)]  # sample mirrors population
    return make_frame(spec, covariates=("a", "b"), x=x)


def lopsided_frame():
    spec = [(1, 1, 1.0), (1, 0, 0.0), (0, None, None), (0, None, None)]
    x = [(2.0, 1.0), (2.0, 1.0), (0.0, 1.5), (0.0, 0.5)]
    return make_frame(spec, covariates=("a", "b"), x=x)


class TestResolve:
    def test_fixed(self):
        frame = balanced_frame()
        spec = LambdaSpec(mode="fixed", value=0.25)
        assert resolve_lambda(spec, frame, compute_balance(frame)) == 0.25

    def test_fixed_negative_rejected(self):
        with pytest.raises(NegativeLambda):
            LambdaSpec(mode="fixed", value=-0.1)

    def test_perfect_balance_collapses_bsv_to_point(self):
        frame = balanced_frame()
        balance = compute_balance(frame)
        lam = resolve_lambda(LambdaSpec(mode="asmd", covariates=("a",), aggregate="single"),
                             frame, balance)
        assert lam == pytest.approx(0.0)
        rates = empirical_rates(frame)
        probs = design_probs(frame, 0.5)
        interval = bsv_bounds(rates, probs, "full", lam, BINARY)
        assert interval.lo == interval.hi

    def test_max_vs_mean_aggregate(self):
        frame = lopsided_frame()
        balance = compute_balance(frame)
        asmds = {r.covariate: r.asmd for r in balance}
        mx = resolve_lambda(LambdaSpec(mode="asmd", covariates=("a", "b"), aggregate="max"),
                            frame, balance)
        mean = resolve_lambda(LambdaSpec(mode="asmd", covariates=("a", "b"), aggregate="mean"),
                              frame, balance)
        assert mx == pytest.approx(max(asmds.values()))
        assert mean == pytest.approx(sum(asmds.values()) / 2)
        assert mx >= mean

    def test_known_asmds_pick_max(self):
        # balance with asmds 0.2 and 0.5 -> max rule returns 0.5
        from pibgen.propensity import BalanceRow

        balance = (
            BalanceRow("x1", 0.2, 0.0, 1.0, 0.2),
            BalanceRow("x2", 0.5, 0.0, 1.0, 0.5),
        )
        lam = resolve_lambda(LambdaSpec(mode="asmd", covariates=("x1", "x2"), aggregate="max"),
                             balanced_frame(), balance)
        assert lam == 0.5

    def test_unknown_covariate(self):
        frame = balanced_frame()
        with pytest.raises(UnknownCovariate):
            resolve_lambda(LambdaSpec(mode="asmd", covariates=("zz",), aggregate="single"),
                           frame, compute_balance(frame))

    def test_outcome_sd_pooled_matches_spec_number(self):
        # one pass among 39 sampled outcomes: 2*sqrt(p(1-p)) with p = 1/39
        spec = [(1, 1, 1.0)] + [(1, 0, 0.0)] * 38
        frame = make_frame(spec)
        lam = resolve_lambda(LambdaSpec(mode="outcome_sd"), frame, compute_balance(frame))
        p = 1 / 39
        assert lam == pytest.approx(2 * math.sqrt(p * (1 - p)))
        assert lam == pytest.approx(0.316, abs=0.002)

    def test_outcome_sd_max_arm_is_conservative(self):
        spec = [(1, 1, 1.0), (1, 1, 0.0), (1, 0, 0.0), (1, 0, 0.0)]
        frame = make_frame(spec)
        balance = compute_balance(frame)
        pooled = resolve_lambda(LambdaSpec(mode="outcome_sd", arm_rule="pooled"), frame, balance)
        max_arm = resolve_lambda(LambdaSpec(mode="outcome_sd", arm_rule="max_arm"), frame, balance)
        # treated arm variance 0.25 dominates the zero-variance control arm
        assert max_arm == pytest.approx(2 * math.sqrt(0.25))
        assert pooled == pytest.approx(2 * math.sqrt(0.25 * 0.75))

    def test_binary_outcome_sd_capped_at_half_multiplier(self, rng):
        for _ in range(25):
            n1 = int(rng.integers(1, 5))
            n0 = int(rng.integers(1, 5))
            spec = [(1, 1, float(rng.integers(0, 2))) for _ in range(n1)]
            spec += [(1, 0, float(rng.integers(0, 2))) for _ in range(n0)]
            frame = make_frame(spec)
            lam = resolve_lambda(LambdaSpec(mode="outcome_sd"), frame, compute_balance(frame))
            assert lam <= 2 * 0.5 + 1e-12


class TestReport:
    def test_six_rows_for_two_covariates(self):
        rows = lambda_report(lopsided_frame(), compute_balance(lopsided_frame()))
        assert len(rows) == 6
        assert [r["rule"] for r in rows] == [
            "asmd:single:a", "asmd:single:b", "asmd:mean", "asmd:max",
            "sd:pooled", "sd:max_arm",
        ]

    def test_constant_outcome_gives_zero_sd_rows(self):
        spec = [(1, 1, 1.0), (1, 0, 1.0), (0, None, None)]
        x = [(0.1,), (0.5,), (0.9,)]
        frame = make_frame(spec, covariates=("a",), x=x)
        rows = lambda_report(frame, compute_balance(frame))
        sd_rows = [r for r in rows if r["rule"].startswith("sd:")]
        assert all(r["value"] == 0.0 for r in sd_rows)

    def test_values_match_hand_arithmetic(self):
        frame = lopsided_frame()
        rows = {r["rule"]: r["value"] for r in lambda_report(frame, compute_balance(frame))}
        # covariate a: population mean 1, sd 1, sample mean 2 -> asmd 1
        assert rows["asmd:single:a"] == pytest.approx(1.0)
        # covariate b: values (1,1,1.5,0.5): mean 1, sd sqrt(0.125), sample mean 1
        assert rows["asmd:single:b"] == pytest.approx(0.0)
        assert rows["asmd:mean"] == pytest.approx(0.5)
        assert rows["asmd:max"] == pytest.approx(1.0)
        # sampled outcomes {1, 0}: sd 0.5
        assert rows["sd:pooled"] == pytest.approx(1.0)

    def test_rows_are_the_rules_as_lambda_resolves_them(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        balance = compute_balance(frame)
        rows = lambda_report(frame, balance)
        assert len(rows) == len(frame.covariate_names) + 4
        for row in rows:
            assert row["value"] == resolve_lambda(parse_lambda_expr(row["rule"]), frame, balance)

    def test_report_is_deterministic(self):
        frame = lopsided_frame()
        balance = compute_balance(frame)
        assert lambda_report(frame, balance) == lambda_report(frame, balance)


class TestParse:
    def test_number(self):
        assert parse_lambda_expr("0.3") == LambdaSpec(mode="fixed", value=0.3)

    def test_asmd_forms(self):
        spec = parse_lambda_expr("asmd:max:pretest,size")
        assert spec.mode == "asmd"
        assert spec.aggregate == "max"
        assert spec.covariates == ("pretest", "size")
        assert parse_lambda_expr("asmd:mean").covariates == ()

    def test_sd_forms(self):
        assert parse_lambda_expr("sd:pooled").arm_rule == "pooled"
        assert parse_lambda_expr("sd:max_arm:1.5").multiplier == 1.5

    def test_bad_expressions(self):
        for text in ("nope", "asmd", "sd", "sd:everything", "asmd:best:x", "sd:pooled:x",
                     "fixed", "fixed:x", "fixed:0.3:1"):
            with pytest.raises(ConfigError):
                parse_lambda_expr(text)

    def test_extra_fields_are_rejected(self):
        for text in ("sd:pooled:3:4", "asmd:single:x:1", "asmd:max:a,b:"):
            with pytest.raises(ConfigError, match=f"bad lambda expression '{text}'"):
                parse_lambda_expr(text)

    def test_labels_of_the_golden_forms(self):
        for text, label in (("0.3", "fixed:0.3"), ("fixed:0.3", "fixed:0.3"),
                            ("asmd:max", "asmd:max"), ("sd:pooled", "sd:pooled"),
                            ("sd:max_arm:2", "sd:max_arm"), ("sd:pooled:3", "sd:pooled:3")):
            assert parse_lambda_expr(text).label() == label

    @settings(max_examples=300, deadline=None)
    @given(LAMBDA_SPECS)
    def test_label_parses_back_to_its_spec(self, spec):
        assert parse_lambda_expr(spec.label()) == spec
