"""Enumeration oracles and their exact agreement with the closed forms."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pibgen import bounds, oracle
from pibgen.errors import DataError, EmptyArm, MissingPopulationOutcome
from pibgen.frame import BINARY, DesignProbs, EmpiricalRates, convert, empirical_rates
from pibgen.oracle import EXACT_BINARY
from pibgen.stratify import strata_for_frame, stratum_frames

from conftest import binary_frame, make_frame, random_binary_frame


class TestWorstCaseEnumeration:
    def test_four_unit_frame_matches_closed_form(self):
        frame = binary_frame(1, 1, 1, 0, n_z0_free=2)
        rates, probs = oracle.exact_inputs(frame)
        enum = oracle.enumerate_worst_case(frame, "full")
        closed = bounds.worst_case_bounds(rates, probs, "full", EXACT_BINARY)
        assert enum.lo == closed.pre_clamp_lo == 0
        assert enum.hi == closed.pre_clamp_hi == 1
        assert enum.n_completions == 16

    def test_census_frame_collapses_to_a_point(self):
        frame = binary_frame(2, 1, 2, 1)
        enum = oracle.enumerate_worst_case(frame, "full")
        assert enum.lo == enum.hi
        assert enum.n_completions == 1

    def test_reduced_enumeration_nested_inside_full(self, rng):
        for _ in range(50):
            frame = random_binary_frame(rng, labeled=False, min_z0=1)
            if not frame.z0_bearing.any():
                continue
            full = oracle.enumerate_worst_case(frame, "full")
            reduced = oracle.enumerate_worst_case(frame, "reduced")
            assert full.lo <= reduced.lo
            assert reduced.hi <= full.hi

    def test_matches_closed_form_on_random_frames(self, rng):
        for _ in range(60):
            frame = random_binary_frame(rng, labeled=False)
            rates, probs = oracle.exact_inputs(frame)
            enum = oracle.enumerate_worst_case(frame, "full")
            closed = bounds.worst_case_bounds(rates, probs, "full", EXACT_BINARY)
            assert (enum.lo, enum.hi) == (closed.pre_clamp_lo, closed.pre_clamp_hi)
            if frame.z0_bearing.any():
                enum = oracle.enumerate_worst_case(frame, "reduced")
                closed = bounds.worst_case_bounds(rates, probs, "reduced", EXACT_BINARY)
                assert (enum.lo, enum.hi) == (closed.pre_clamp_lo, closed.pre_clamp_hi)

    def test_rejects_continuous_frames(self):
        from conftest import CONTINUOUS

        frame = make_frame([(1, 1, 1.5), (1, 0, 0.5), (0, None, None)], support=CONTINUOUS)
        with pytest.raises(DataError):
            oracle.enumerate_worst_case(frame, "full")

    def test_missing_arm_is_reported_before_non_binary_outcomes(self):
        from conftest import CONTINUOUS

        frame = make_frame([(1, 1, 1.5), (1, 1, 0.5), (0, None, None)], support=CONTINUOUS)
        for check in (oracle.enumerate_worst_case, oracle.enumerate_mtr, oracle.exact_inputs,
                      lambda frame: empirical_rates(frame, Fraction)):
            with pytest.raises(EmptyArm) as caught:
                check(frame)
            assert caught.value.arm == "control"


class TestMtrEnumeration:
    def test_sampled_control_fail_can_move_one(self):
        # the only free motion is the control unit's treated outcome
        frame = binary_frame(1, 1, 1, 0)
        enum = oracle.enumerate_mtr(frame, "sample")
        assert enum.lo == 0
        assert enum.hi == Fraction(1, 2) + Fraction(1, 2)  # treated y0 free + control y1 free

    def test_sampled_treated_fail_is_pinned(self):
        frame = binary_frame(1, 0, 1, 1)
        enum = oracle.enumerate_mtr(frame, "sample")
        # treated y=0 forces y0=0; control y=1 forces y1=1: nothing moves
        assert enum.lo == 0
        assert enum.hi == 0

    def test_six_unit_mixed_frame_matches_closed_max_variant(self):
        frame = make_frame(
            [(1, 1, 1.0), (1, 1, 0.0), (1, 0, 0.0), (0, 0, 1.0), (0, 0, 0.0), (0, 1, None)]
        )
        rates, probs = oracle.population_inputs(frame)
        assert probs.p_w0_given_z0 == Fraction(2, 3)
        enum = oracle.enumerate_mtr(frame, "population")
        _, closed_max = bounds.mtr_bounds(rates, probs, "population")
        assert enum.hi == closed_max.pre_clamp_hi
        assert enum.lo == 0

    def test_pin_free_to_zero_matches_min_variant(self, rng):
        for _ in range(40):
            frame = random_binary_frame(rng, labeled=True)
            rates, probs = oracle.exact_inputs(frame)
            enum = oracle.enumerate_mtr(frame, "sample", pin_free_to_zero=True)
            closed_min, _ = bounds.mtr_bounds(rates, probs, "sample")
            assert enum.hi == closed_min.pre_clamp_hi

    def test_max_variant_on_random_labeled_frames(self, rng):
        for _ in range(60):
            frame = random_binary_frame(rng, labeled=True)
            rates, probs = oracle.exact_inputs(frame)
            enum = oracle.enumerate_mtr(frame, "sample")
            _, closed_max = bounds.mtr_bounds(rates, probs, "sample")
            assert enum.hi == closed_max.pre_clamp_hi
            if ((frame.z == 0) & (frame.w == 0)).any():
                rates, probs = oracle.population_inputs(frame)
                enum = oracle.enumerate_mtr(frame, "population")
                _, closed_max = bounds.mtr_bounds(rates, probs, "population")
                assert enum.hi == closed_max.pre_clamp_hi

    def test_population_scope_needs_labels(self):
        frame = binary_frame(1, 1, 1, 0, n_z0_free=1)
        with pytest.raises(DataError):
            oracle.enumerate_mtr(frame, "population")
        with pytest.raises(DataError):
            oracle.population_inputs(frame)

    def test_population_inputs_need_a_control_labeled_unit(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0), (0, 1, None)])
        assert oracle.enumerate_mtr(frame, "population").hi == 1
        with pytest.raises(MissingPopulationOutcome):
            oracle.population_inputs(frame)


class TestBsvEnumeration:
    def test_lambda_zero_is_a_point(self):
        frame = binary_frame(2, 1, 2, 1, z0_outcomes=(1, 0))
        rates, probs = oracle.exact_inputs(frame)
        enum = oracle.enumerate_bsv(rates, probs, Fraction(0), "full")
        assert enum.lo == enum.hi == rates.sate

    def test_corner_sweep_matches_sharp_closed_form(self, rng):
        for _ in range(40):
            frame = random_binary_frame(rng, labeled=False, min_z0=1)
            rates, probs = oracle.exact_inputs(frame)
            for lam in (Fraction(1, 5), Fraction(1, 2)):
                enum = oracle.enumerate_bsv(rates, probs, lam, "full")
                closed = bounds.bsv_bounds(rates, probs, "full", lam, EXACT_BINARY,
                                           intersect_support=True)
                assert (enum.lo, enum.hi) == (closed.pre_clamp_lo, closed.pre_clamp_hi)

    def test_large_lambda_hits_support_edges(self):
        frame = binary_frame(2, 2, 2, 0, n_z0_free=2)
        rates, probs = oracle.exact_inputs(frame)
        enum = oracle.enumerate_bsv(rates, probs, Fraction(5), "full")
        worst = bounds.worst_case_bounds(rates, probs, "full", EXACT_BINARY)
        # with the box clipped to the whole support, BSV degenerates to worst case
        assert (enum.lo, enum.hi) == (worst.pre_clamp_lo, worst.pre_clamp_hi)

    def test_every_corner_value_inside_closed_interval(self, rng):
        for _ in range(30):
            frame = random_binary_frame(rng, labeled=False)
            rates, probs = oracle.exact_inputs(frame)
            enum = oracle.enumerate_bsv(rates, probs, Fraction(3, 10), "full")
            closed = bounds.bsv_bounds(rates, probs, "full", Fraction(3, 10), EXACT_BINARY,
                                       intersect_support=True)
            assert closed.pre_clamp_lo <= enum.lo <= enum.hi <= closed.pre_clamp_hi


class TestPerStratum:
    def test_stratified_intervals_equal_enumeration_on_each_stratum(self, rng):
        specs = [bounds.BoundSpec("worst_case", "full"), bounds.BoundSpec("mtr", "full")]
        checked = 0
        for _ in range(150):
            frame = random_binary_frame(rng, max_units=12, labeled=False)
            logits = rng.normal(size=frame.n_units)
            k = min(int(rng.integers(2, 4)), frame.n_units)
            assignment = strata_for_frame(frame, logits, k)
            result = bounds.stratified_bounds(frame, assignment, specs)
            for piece, stratum in zip(stratum_frames(frame, assignment), result.strata):
                if not stratum.viable:
                    continue
                worst, mtr_min, mtr_max = stratum.results
                for interval, enum in (
                    (worst, oracle.enumerate_worst_case(piece.frame, "full")),
                    (mtr_min, oracle.enumerate_mtr(piece.frame, "sample", pin_free_to_zero=True)),
                    (mtr_max, oracle.enumerate_mtr(piece.frame, "sample")),
                ):
                    assert abs(interval.pre_clamp_lo - float(enum.lo)) <= 1e-12
                    assert abs(interval.pre_clamp_hi - float(enum.hi)) <= 1e-12
                checked += 1
        assert checked >= 100


def _product_sums(choice_lists) -> np.ndarray:
    """All completion sums: the outer sum over per-unit contribution choices."""
    total = np.zeros(1, dtype=np.int32)
    for choices in choice_lists:
        total = (total[:, None] + np.asarray(choices, dtype=np.int32)[None, :]).ravel()
    return total


def _units(frame):
    """(z, w, y) per row, ``None`` marking a missing arm or outcome."""
    return [(z, None if w < 0 else w, None if y != y else int(y))
            for z, w, y in zip(frame.z.tolist(), frame.w.tolist(), frame.y.tolist())]


def _brute_worst_case(frame, framework):
    """Every completion of the z=0 units listed, sampled units fixed at their
    arm means."""
    choice_lists = []
    for z, _, y in _units(frame):
        if z == 1:
            continue
        if framework == "reduced" and y is not None:
            choice_lists.append([y1 - y for y1 in (0, 1)])
        else:
            choice_lists.append([y1 - y0 for y0 in (0, 1) for y1 in (0, 1)])
    sums = _product_sums(choice_lists)
    y, treated, control = frame.y, frame.treated, frame.control
    fixed = frame.n_sample * (Fraction(int(y[treated].sum()), int(treated.sum()))
                              - Fraction(int(y[control].sum()), int(control.sum())))
    return ((fixed + int(sums.min())) / frame.n_units,
            (fixed + int(sums.max())) / frame.n_units, sums.size)


def _brute_mtr(frame, scope, pin_free_to_zero):
    """Every monotone completion of every unit listed."""
    def pairs(y0_options, y1_options):
        return [(y0, y1) for y0 in y0_options for y1 in y1_options if y1 >= y0]

    free = [(0, 0)] if pin_free_to_zero else pairs((0, 1), (0, 1))
    choice_lists = []
    for z, w, y in _units(frame):
        if z == 1:
            options = pairs((0, 1), (y,)) if w == 1 else pairs((y,), (0, 1))
        elif scope == "population" and w == 0:
            options = pairs((y,), (0, 1))
        else:
            options = free
        choice_lists.append([y1 - y0 for y0, y1 in options])
    sums = _product_sums(choice_lists)
    return (Fraction(int(sums.min()), frame.n_units), Fraction(int(sums.max()), frame.n_units),
            sums.size)


@st.composite
def small_binary_frames(draw):
    """Binary frames of 2-12 units with a sampled unit in each arm.  In a
    labeled frame every z=0 unit has an arm label and the control-labeled ones
    carry an outcome; otherwise z=0 units carry no label and maybe an outcome."""
    outcome = st.sampled_from([0.0, 1.0])
    sampled = [(1, 1, draw(outcome)), (1, 0, draw(outcome))]
    sampled += draw(st.lists(st.tuples(st.just(1), st.sampled_from([0, 1]), outcome),
                             max_size=4))
    labeled = draw(st.booleans())
    z0_rows = st.one_of(st.tuples(st.just(0), st.just(0), outcome),
                         st.tuples(st.just(0), st.just(1), st.none() | outcome))
    if not labeled:
        z0_rows = st.tuples(st.just(0), st.none(), st.none() | outcome)
    rest = draw(st.lists(z0_rows, max_size=12 - len(sampled)))
    return make_frame(draw(st.permutations(sampled + rest))), labeled


@settings(max_examples=300, deadline=None)
@given(small_binary_frames())
def test_extreme_sums_equal_brute_force_enumeration(drawn):
    frame, labeled = drawn
    for framework in ("full", "reduced"):
        enum = oracle.enumerate_worst_case(frame, framework)
        assert (enum.lo, enum.hi, enum.n_completions) == _brute_worst_case(frame, framework)
    for scope in ("sample", "population") if labeled else ("sample",):
        for pin in (False, True):
            enum = oracle.enumerate_mtr(frame, scope, pin_free_to_zero=pin)
            assert (enum.lo, enum.hi, enum.n_completions) == _brute_mtr(frame, scope, pin)


UNIT = st.fractions(0, 1, max_denominator=1000)
LAMBDAS = st.fractions(0, Fraction(3, 2), max_denominator=1000)
FRAMEWORKS = st.sampled_from(["full", "reduced"])


@st.composite
def rational_inputs(draw):
    """Exact arm means, BAU mean and design probabilities, P(Z=1) in (0, 1]."""
    rates = EmpiricalRates(e_y1_w1z1=draw(UNIT), e_y0_w0z1=draw(UNIT), e_y0_w0z0=draw(UNIT),
                           binary=True)
    probs = DesignProbs(p_z1=draw(UNIT.filter(bool)), p_w1_given_z1=draw(UNIT),
                        p_w0_given_z0=draw(UNIT))
    return rates, probs


@settings(max_examples=300, deadline=None)
@given(rational_inputs(), LAMBDAS, FRAMEWORKS)
def test_box_sweep_equals_the_split_mass_formula(inputs, lam, framework):
    rates, probs = inputs
    box = oracle.enumerate_box(rates, probs, (0, 1), (0, 1), framework)
    worst = bounds.worst_case_bounds(rates, probs, framework, EXACT_BINARY)
    assert (box.lo, box.hi) == (worst.pre_clamp_lo, worst.pre_clamp_hi)
    sharp = bounds.bsv_bounds(rates, probs, framework, lam, EXACT_BINARY, intersect_support=True)
    enum = oracle.enumerate_bsv(rates, probs, lam, framework)
    assert (enum.lo, enum.hi) == (sharp.pre_clamp_lo, sharp.pre_clamp_hi)


@settings(max_examples=300, deadline=None)
@given(rational_inputs(), LAMBDAS, LAMBDAS, FRAMEWORKS)
def test_width_collapse_and_nesting_identities_are_exact(inputs, lam_a, lam_b, framework):
    rates, probs = inputs
    small, large = sorted((lam_a, lam_b))
    # the bounded mass: both non-sampled means in the full framework, and in
    # the reduced one the treated mean plus the unpinned control remainder
    mass = 2 * probs.p_z0 if framework == "full" else probs.p_z0 + probs.p_w1_z0
    worst = bounds.worst_case_bounds(rates, probs, framework, EXACT_BINARY)
    assert worst.pre_clamp_width == mass
    inner, outer = (bounds.bsv_bounds(rates, probs, framework, lam, EXACT_BINARY)
                    for lam in (small, large))
    assert inner.pre_clamp_width == 2 * small * mass
    assert outer.pre_clamp_lo <= inner.pre_clamp_lo <= inner.pre_clamp_hi <= outer.pre_clamp_hi
    sharp = bounds.bsv_bounds(rates, probs, framework, small, EXACT_BINARY,
                              intersect_support=True)
    assert worst.pre_clamp_lo <= sharp.pre_clamp_lo <= sharp.pre_clamp_hi <= worst.pre_clamp_hi
    if framework == "full":
        point = bounds.bsv_bounds(rates, probs, "full", Fraction(0), EXACT_BINARY)
        assert point.lo == point.hi == rates.sate


def _every_interval(rates, probs, lam, support) -> dict:
    """Each whole-frame interval of the engine, keyed by form and framework."""
    intervals = {}
    for framework in ("full", "reduced"):
        intervals["worst", framework] = bounds.worst_case_bounds(rates, probs, framework, support)
        intervals["paper", framework] = bounds.bsv_bounds(rates, probs, framework, lam, support)
        intervals["sharp", framework] = bounds.bsv_bounds(rates, probs, framework, lam, support,
                                                          intersect_support=True)
    for scope in ("sample", "population"):
        intervals["mtr min", scope], intervals["mtr max", scope] = bounds.mtr_bounds(
            rates, probs, scope)
    return intervals


def _inside(inner, outer) -> bool:
    return (outer.pre_clamp_lo <= inner.pre_clamp_lo <= inner.pre_clamp_hi <= outer.pre_clamp_hi
            and outer.lo <= inner.lo <= inner.hi <= outer.hi)


@settings(max_examples=300, deadline=None)
@given(rational_inputs(), LAMBDAS)
def test_framework_nesting_clamping_and_float_agreement_are_exact(inputs, lam):
    rates, probs = inputs
    exact = _every_interval(rates, probs, lam, EXACT_BINARY)
    for interval in exact.values():
        assert interval.lo == max(interval.pre_clamp_lo, -1)
        assert interval.hi == min(interval.pre_clamp_hi, 1)
        assert interval.clamped_lo == (interval.pre_clamp_lo < -1)
        assert interval.clamped_hi == (interval.pre_clamp_hi > 1)
    # pinning the business-as-usual mean narrows the full framework's box,
    # and under BSV it does when that mean lies in the control band
    assert _inside(exact["worst", "reduced"], exact["worst", "full"])
    if abs(rates.e_y0_w0z0 - rates.e_y0_w0z1) <= lam:
        assert _inside(exact["paper", "reduced"], exact["paper", "full"])
    rounded = _every_interval(convert(rates), convert(probs), float(lam), BINARY)
    for key, interval in exact.items():
        for end in ("lo", "hi", "pre_clamp_lo", "pre_clamp_hi"):
            assert abs(getattr(rounded[key], end) - getattr(interval, end)) <= 1e-12, (key, end)
