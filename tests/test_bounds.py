"""Closed-form interval estimates under the three assumption regimes."""

from fractions import Fraction

import pytest

from pibgen.bounds import (
    BoundSpec,
    bsv_bounds,
    bsv_improves,
    mtr_bounds,
    stratified_bounds,
    worst_case_bounds,
)
from pibgen.errors import (
    MissingPopulationOutcome,
    NegativeLambda,
    NonBinaryOutcome,
)
from pibgen.frame import (
    BINARY,
    DesignProbs,
    EmpiricalRates,
    OutcomeSupport,
    design_probs,
    empirical_rates,
)
from pibgen.points import subclass_estimate
from pibgen.stratify import strata_for_frame

from conftest import CONTINUOUS, make_frame, random_binary_frame

# reconstructed study-scale inputs: selection 56/1029, treated 34/56, assumed
# even assignment among non-sampled units
STUDY_PROBS = DesignProbs(p_z1=56 / 1029, p_w1_given_z1=34 / 56, p_w0_given_z0=0.5)


def rates_from(e1, e0, q0=None):
    return EmpiricalRates(e_y1_w1z1=e1, e_y0_w0z1=e0, e_y0_w0z0=q0, binary=True)


class TestWorstCase:
    def test_even_split_binary(self):
        probs = DesignProbs(p_z1=0.5, p_w1_given_z1=0.5, p_w0_given_z0=0.5)
        interval = worst_case_bounds(rates_from(0.6, 0.4), probs, "full", BINARY)
        assert interval.lo == pytest.approx(-0.4)
        assert interval.hi == pytest.approx(0.6)

    def test_census_collapses_to_sate(self):
        probs = DesignProbs(p_z1=1.0, p_w1_given_z1=0.5, p_w0_given_z0=0.5)
        interval = worst_case_bounds(rates_from(0.8, 0.3), probs, "full", BINARY)
        assert interval.lo == pytest.approx(0.5)
        assert interval.hi == pytest.approx(0.5)
        assert interval.width == pytest.approx(0.0)

    def test_small_sample_share_full(self):
        interval = worst_case_bounds(rates_from(0.6, 0.6 - 0.257), STUDY_PROBS, "full", BINARY)
        assert interval.lo == pytest.approx(-0.93, abs=0.01)
        assert interval.hi == pytest.approx(0.96, abs=0.01)

    def test_small_sample_share_reduced(self):
        rates = rates_from(0.6, 0.6 - 0.257, q0=0.91)
        interval = worst_case_bounds(rates, STUDY_PROBS, "reduced", BINARY)
        assert interval.lo == pytest.approx(-0.89, abs=0.01)
        assert interval.hi == pytest.approx(0.53, abs=0.01)

    def test_full_width_identity(self):
        probs = DesignProbs(p_z1=0.3, p_w1_given_z1=0.4, p_w0_given_z0=0.5)
        interval = worst_case_bounds(rates_from(0.9, 0.2), probs, "full", CONTINUOUS)
        expected = 2 * probs.p_z0 * CONTINUOUS.width
        assert interval.pre_clamp_width == pytest.approx(expected, abs=1e-12)

    def test_reduced_width_identity(self):
        probs = DesignProbs(p_z1=0.3, p_w1_given_z1=0.4, p_w0_given_z0=0.6)
        rates = rates_from(0.9, 0.2, q0=0.5)
        interval = worst_case_bounds(rates, probs, "reduced", BINARY)
        expected = probs.p_z0 + probs.p_w1_z0
        assert interval.pre_clamp_width == pytest.approx(expected, abs=1e-12)

    def test_reduced_requires_population_outcome(self):
        with pytest.raises(MissingPopulationOutcome):
            worst_case_bounds(rates_from(0.5, 0.5), STUDY_PROBS, "reduced", BINARY)

    def test_reduced_inside_full(self):
        rates = rates_from(0.7, 0.4, q0=0.55)
        full = worst_case_bounds(rates, STUDY_PROBS, "full", BINARY)
        reduced = worst_case_bounds(rates, STUDY_PROBS, "reduced", BINARY)
        assert full.pre_clamp_lo <= reduced.pre_clamp_lo
        assert reduced.pre_clamp_hi <= full.pre_clamp_hi

    def test_general_support(self):
        support = OutcomeSupport(-1.0, 2.0)
        probs = DesignProbs(p_z1=0.5, p_w1_given_z1=0.5, p_w0_given_z0=0.5)
        interval = worst_case_bounds(rates_from(1.0, 0.0), probs, "full", support)
        # sampled part 0.5, non-sampled part spans [-1, 2] for each arm
        assert interval.lo == pytest.approx(0.5 * 1.0 + 0.5 * (-1.0) - (0.5 * 0.0 + 0.5 * 2.0))
        assert interval.hi == pytest.approx(0.5 * 1.0 + 0.5 * 2.0 - (0.5 * 0.0 + 0.5 * (-1.0)))


class TestBsv:
    def test_lambda_zero_recovers_point(self):
        rates = rates_from(0.6, 0.35)
        interval = bsv_bounds(rates, STUDY_PROBS, "full", 0.0, BINARY)
        assert interval.lo == interval.hi == pytest.approx(rates.sate)

    def test_reconstructed_reading_interval(self):
        interval = bsv_bounds(rates_from(0.6, 0.6 - 0.257), STUDY_PROBS, "full", 0.3, BINARY)
        assert interval.lo == pytest.approx(-0.31, abs=0.01)
        assert interval.hi == pytest.approx(0.83, abs=0.01)

    def test_reconstructed_math_sign_identified(self):
        interval = bsv_bounds(rates_from(0.5, 0.5 - 0.209), STUDY_PROBS, "full", 0.1, BINARY)
        assert interval.lo == pytest.approx(0.02, abs=0.01)
        assert interval.hi == pytest.approx(0.40, abs=0.01)
        assert interval.lo > 0

    def test_width_and_nesting(self):
        rates = rates_from(0.55, 0.3)
        probs = DesignProbs(p_z1=0.2, p_w1_given_z1=0.5, p_w0_given_z0=0.5)
        last = None
        for lam in (0.0, 0.1, 0.2, 0.4):
            interval = bsv_bounds(rates, probs, "full", lam, BINARY)
            assert interval.pre_clamp_width == pytest.approx(4 * lam * probs.p_z0, abs=1e-12)
            if last is not None:
                assert interval.pre_clamp_lo <= last.pre_clamp_lo
                assert interval.pre_clamp_hi >= last.pre_clamp_hi
            last = interval

    def test_clamping_flags_and_pre_clamp(self):
        # study-scale lambda=0.5 pushes the raw upper endpoint past 1
        interval = bsv_bounds(rates_from(0.6, 0.6 - 0.257), STUDY_PROBS, "full", 0.5, BINARY)
        assert interval.pre_clamp_hi > 1
        assert interval.hi == 1.0
        assert interval.clamped_hi and not interval.clamped_lo
        assert interval.lo == pytest.approx(-0.69, abs=0.01)

    def test_negative_lambda(self):
        with pytest.raises(NegativeLambda):
            bsv_bounds(rates_from(0.5, 0.5), STUDY_PROBS, "full", -0.1, BINARY)

    def test_intersect_support_stays_sharp(self):
        rates = rates_from(0.95, 0.5)
        probs = DesignProbs(p_z1=0.1, p_w1_given_z1=0.5, p_w0_given_z0=0.5)
        sharp = bsv_bounds(rates, probs, "full", 0.2, BINARY, intersect_support=True)
        raw = bsv_bounds(rates, probs, "full", 0.2, BINARY)
        # raw upper shift escapes the support (0.95 + 0.2 > 1); sharp clips it
        assert sharp.pre_clamp_hi < raw.pre_clamp_hi
        assert sharp.hi <= 1.0 and not sharp.clamped_hi

    def test_improvement_flag(self):
        rates = rates_from(0.6, 0.6 - 0.257)
        assert bsv_improves(rates, 0.3, BINARY) is True
        assert bsv_improves(rates, 0.5, BINARY) is False
        assert bsv_improves(rates_from(0.9, 0.2), 0.0, BINARY) is True  # |d| < 1
        assert bsv_bounds(rates, STUDY_PROBS, "full", 0.3, BINARY).improves is True

    def test_improving_interval_inside_worst_case(self):
        rates = rates_from(0.6, 0.45)
        probs = DesignProbs(p_z1=0.1, p_w1_given_z1=0.5, p_w0_given_z0=0.5)
        assert bsv_improves(rates, 0.2, BINARY)
        bsv = bsv_bounds(rates, probs, "full", 0.2, BINARY)
        worst = worst_case_bounds(rates, probs, "full", BINARY)
        assert worst.pre_clamp_lo <= bsv.pre_clamp_lo
        assert bsv.pre_clamp_hi <= worst.pre_clamp_hi

    def test_raw_reduced_can_escape_reduced_worst_case(self):
        # documented scope limit: with a residual mass much smaller than P(Z=0),
        # the raw reduced arithmetic can exceed the reduced worst case even
        # though the (full-framework) improvement condition holds
        rates = rates_from(0.95, 0.5, q0=0.5)
        probs = DesignProbs(p_z1=0.1, p_w1_given_z1=0.5, p_w0_given_z0=0.9)
        assert bsv_improves(rates, 0.2, BINARY)
        raw = bsv_bounds(rates, probs, "reduced", 0.2, BINARY)
        worst = worst_case_bounds(rates, probs, "reduced", BINARY)
        assert raw.pre_clamp_hi > worst.pre_clamp_hi
        sharp = bsv_bounds(rates, probs, "reduced", 0.2, BINARY, intersect_support=True)
        assert sharp.pre_clamp_hi <= worst.pre_clamp_hi


class TestMtr:
    def test_maximal_monotone_effect(self):
        # census, every treated unit passes and every control unit fails
        probs = DesignProbs(p_z1=1.0, p_w1_given_z1=0.5, p_w0_given_z0=0.5)
        _, mtr_max = mtr_bounds(rates_from(1.0, 0.0), probs, "full")
        assert mtr_max.lo == 0
        assert mtr_max.hi == pytest.approx(1.0)

    def test_reconstructed_sample_scope(self):
        rates = rates_from(0.6, 0.6 - 0.257)
        mtr_min, mtr_max = mtr_bounds(rates, STUDY_PROBS, "full")
        assert mtr_min.hi == pytest.approx(0.034, abs=0.01)
        assert mtr_max.hi == pytest.approx(0.97, abs=0.01)
        assert mtr_min.lo == 0
        assert mtr_max.lo == 0

    def test_reconstructed_population_scope(self):
        rates = rates_from(0.6, 0.6 - 0.257, q0=0.91)
        mtr_min, _ = mtr_bounds(rates, STUDY_PROBS, "reduced")
        sample_part = mtr_bounds(rates, STUDY_PROBS, "full")[0].hi
        assert mtr_min.hi == pytest.approx(sample_part + 0.09 * STUDY_PROBS.p_w0_z0)
        assert mtr_min.hi == pytest.approx(0.07, abs=0.02)

    def test_variant_ordering(self):
        rates = rates_from(0.7, 0.5, q0=0.8)
        for framework in ("full", "reduced"):
            mtr_min, mtr_max = mtr_bounds(rates, STUDY_PROBS, framework)
            assert mtr_min.hi <= mtr_max.hi
            assert mtr_max.hi <= 1.0

    def test_rates_of_a_binary_frame(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0), (0, None, None)])
        probs = design_probs(frame, 0.5)
        _, mtr_max = mtr_bounds(empirical_rates(frame), probs, "full")
        assert mtr_max.hi > 0

    def test_rejects_continuous_outcomes(self):
        frame = make_frame([(1, 1, 2.0), (1, 0, 0.5)], support=CONTINUOUS)
        probs = design_probs(frame, 0.5)
        with pytest.raises(NonBinaryOutcome):
            mtr_bounds(empirical_rates(frame), probs, "full")

    def test_rejects_rates_not_flagged_binary(self):
        rates = EmpiricalRates(e_y1_w1z1=0.6, e_y0_w0z1=0.4, e_y0_w0z0=0.5, binary=False)
        with pytest.raises(NonBinaryOutcome):
            mtr_bounds(rates, STUDY_PROBS, "full")

    def test_fail_rates_are_one_minus_the_control_means(self):
        rates = rates_from(0.7, 0.3, q0=0.9)
        mtr_min, _ = mtr_bounds(rates, STUDY_PROBS, "reduced")
        sample_part = (1 - 0.3) * STUDY_PROBS.p_w0_z1 + 0.7 * STUDY_PROBS.p_w1_z1
        assert mtr_min.hi == sample_part + (1 - 0.9) * STUDY_PROBS.p_w0_z0

    def test_population_scope_needs_fail_rate(self):
        with pytest.raises(MissingPopulationOutcome):
            mtr_bounds(rates_from(0.6, 0.4), STUDY_PROBS, "reduced")


class TestClampRange:
    def test_all_intervals_inside_feasible_range(self, rng):
        support = OutcomeSupport(-2.0, 3.0)
        floor, ceil = support.y_lo - support.y_hi, support.y_hi - support.y_lo
        for _ in range(50):
            rates = rates_from(rng.uniform(-2, 3), rng.uniform(-2, 3), rng.uniform(-2, 3))
            probs = DesignProbs(rng.uniform(0.01, 1.0), rng.uniform(0, 1), rng.uniform(0, 1))
            lam = rng.uniform(0, 8)
            candidates = [
                worst_case_bounds(rates, probs, "full", support),
                worst_case_bounds(rates, probs, "reduced", support),
                bsv_bounds(rates, probs, "full", lam, support),
                bsv_bounds(rates, probs, "reduced", lam, support),
            ]
            for interval in candidates:
                assert floor <= interval.lo <= interval.hi <= ceil


def _exact_mean(values):
    return sum(map(Fraction, values.tolist())) / len(values)


class TestBoxCells:
    def test_worst_case_is_sharp_bsv_at_the_support_range(self, rng):
        """Worst case and BSV share one box of non-sampled cell means: with
        lambda the support range, the clipped BSV bands are the whole support."""
        checked = 0
        for _ in range(200):
            y_lo = round(float(rng.uniform(-5, 5)), 1)
            y_hi = y_lo + round(float(rng.uniform(0.5, 100)), 1)

            def outcome():  # a support end half the time, so an arm mean can sit on it
                if rng.random() < 0.5:
                    return [y_lo, y_hi][int(rng.integers(2))]
                return float(rng.uniform(y_lo, y_hi))

            spec = [(1, 1, outcome()), (1, 0, outcome())]
            spec += [(1, int(rng.integers(2)), outcome()) for _ in range(rng.integers(0, 6))]
            spec += [(0, None, outcome() if rng.random() < 0.5 else None)
                     for _ in range(rng.integers(0, 8))]
            frame = make_frame(spec, OutcomeSupport(y_lo, y_hi))
            share = float(rng.uniform(0, 1))
            # exact means of the outcomes themselves: a float sum can round a
            # mean past a support end
            e1, e0 = _exact_mean(frame.y[frame.treated]), _exact_mean(frame.y[frame.control])
            q0 = _exact_mean(frame.y[frame.z0_bearing]) if frame.z0_bearing.any() else None
            exact = rates_from(e1, e0, q0)
            for number in (Fraction, float):
                rates = exact if number is Fraction else empirical_rates(frame)
                probs = design_probs(frame, share, number)
                support = OutcomeSupport(number(y_lo), number(y_hi))
                lam = support.y_hi - support.y_lo
                frameworks = ("full", "reduced") if rates.e_y0_w0z0 is not None else ("full",)
                for framework in frameworks:
                    worst = worst_case_bounds(rates, probs, framework, support)
                    sharp = bsv_bounds(rates, probs, framework, lam, support,
                                       intersect_support=True)
                    pairs = ((worst.pre_clamp_lo, sharp.pre_clamp_lo),
                             (worst.pre_clamp_hi, sharp.pre_clamp_hi))
                    for w, b in pairs:
                        if number is Fraction:
                            assert w == b
                        else:
                            assert abs(w - b) <= 1e-12
                    checked += 1
        assert checked >= 400


def _three_strata_frame():
    # logits will separate cleanly on x1
    spec, x = [], []
    layout = [
        # (z, w, y, x1) per stratum: each stratum viable
        (1, 1, 1.0, 0.0), (1, 0, 0.0, 0.1), (0, None, 1.0, 0.2), (0, None, None, 0.3),
        (1, 1, 0.0, 1.0), (1, 0, 1.0, 1.1), (0, None, 0.0, 1.2), (0, None, None, 1.3),
        (1, 1, 1.0, 2.0), (1, 0, 1.0, 2.1), (0, None, 1.0, 2.2), (0, None, None, 2.3),
    ]
    for z, w, y, x1 in layout:
        spec.append((z, w, y))
        x.append((x1,))
    return make_frame(spec, covariates=("x1",), x=x)


class TestStratified:
    def test_single_stratum_equals_whole_frame(self):
        frame = _three_strata_frame()
        logits = frame.covariate_column("x1")
        assignment = strata_for_frame(frame, logits, 1)
        result = stratified_bounds(frame, assignment, [BoundSpec("worst_case", "full")],
                                   p_w0_given_z0=0.5)
        whole = worst_case_bounds(empirical_rates(frame), design_probs(frame, 0.5),
                                  "full", frame.support)
        (only,) = result.strata[0].results
        assert (only.lo, only.hi) == (whole.lo, whole.hi)

    def test_sparse_stratum_interval(self):
        # 343 units, two sampled (one per arm, both passing): d = 0
        spec = [(1, 1, 1.0), (1, 0, 1.0)] + [(0, None, None)] * 341
        frame = make_frame(spec)
        interval = worst_case_bounds(empirical_rates(frame), design_probs(frame, 0.5),
                                     "full", frame.support)
        assert round(interval.lo, 2) == -0.99
        assert round(interval.hi, 2) == 0.99

    def test_per_stratum_matches_direct_evaluation(self):
        frame = _three_strata_frame()
        logits = frame.covariate_column("x1")
        assignment = strata_for_frame(frame, logits, 3)
        result = stratified_bounds(frame, assignment, [BoundSpec("worst_case", "reduced")],
                                   p_w0_given_z0=0.5)
        from pibgen.stratify import stratum_frames

        for piece, stratum in zip(stratum_frames(frame, assignment), result.strata):
            direct = worst_case_bounds(
                empirical_rates(piece.frame), design_probs(piece.frame, 0.5),
                "reduced", frame.support,
            )
            assert [(r.lo, r.hi) for r in stratum.results] == [(direct.lo, direct.hi)]

    def test_nonviable_stratum_skipped(self):
        spec = [(1, 1, 1.0, 0.0), (1, 0, 0.0, 0.1), (0, None, None, 0.2),
                (0, None, None, 1.0), (0, None, None, 1.1), (0, None, None, 1.2)]
        frame = make_frame([(z, w, y) for z, w, y, _ in spec],
                           covariates=("x1",), x=[(row[3],) for row in spec])
        logits = frame.covariate_column("x1")
        assignment = strata_for_frame(frame, logits, 2)
        result = stratified_bounds(frame, assignment, [BoundSpec("worst_case", "full")],
                                   p_w0_given_z0=0.5)
        assert [s.viable for s in result.strata] == [True, False]
        assert result.strata[1].skip_reason is not None

    def test_stratum_without_population_outcomes_is_skipped(self):
        # stratum 2 has sampled arms but no outcome-bearing z=0 unit
        layout = [
            (1, 1, 1.0, 0.0), (1, 0, 0.0, 0.1), (0, None, 1.0, 0.2),
            (1, 1, 1.0, 1.0), (1, 0, 0.0, 1.1), (0, None, None, 1.2),
        ]
        frame = make_frame([(z, w, y) for z, w, y, _ in layout],
                           covariates=("x1",), x=[(row[3],) for row in layout])
        logits = frame.covariate_column("x1")
        assignment = strata_for_frame(frame, logits, 2)
        result = stratified_bounds(frame, assignment, [BoundSpec("worst_case", "reduced")],
                                   p_w0_given_z0=0.5)
        assert result.strata[0].viable
        assert not result.strata[1].viable
        assert "business-as-usual" in result.strata[1].skip_reason

    def test_pooled_off_by_default_and_weighted_when_on(self):
        frame = _three_strata_frame()
        logits = frame.covariate_column("x1")
        assignment = strata_for_frame(frame, logits, 3)
        specs = [BoundSpec("worst_case", "full")]
        off = stratified_bounds(frame, assignment, specs, p_w0_given_z0=0.5)
        assert off.pooled == ()
        on = stratified_bounds(frame, assignment, specs, p_w0_given_z0=0.5, pooled=True)
        expected_lo = sum(
            (n / frame.n_units) * s.results[0].pre_clamp_lo
            for n, s in zip(assignment.tallies.units, on.strata)
        )
        (pooled,) = on.pooled
        assert pooled.pre_clamp_lo == pytest.approx(expected_lo)

    def test_pooled_full_bsv_at_lambda_zero_is_the_subclassification_estimate(self, rng):
        # each stratum's lambda = 0 interval is its arm-mean contrast, and both
        # weigh the strata by population share
        checked = 0
        for _ in range(300):
            frame = random_binary_frame(rng, max_units=20, labeled=False)
            k = min(int(rng.integers(2, 5)), frame.n_units)
            assignment = strata_for_frame(frame, rng.normal(size=frame.n_units), k)
            if not all(assignment.tallies.viable(g) for g in range(k)):
                continue
            (pooled,) = stratified_bounds(frame, assignment, [BoundSpec("bsv", "full", 0.0)],
                                          pooled=True).pooled
            estimate = subclass_estimate(frame, assignment).estimate
            assert abs(pooled.lo - estimate) <= 1e-12
            assert abs(pooled.hi - estimate) <= 1e-12
            checked += 1
        assert checked >= 50
