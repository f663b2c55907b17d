"""Enumeration oracles and their exact agreement with the closed forms."""

from fractions import Fraction

import pytest

from pibgen import bounds, oracle
from pibgen.errors import ConfigError, DataError, ObservedViolation, TooLarge
from pibgen.frame import BINARY, StudyFrame, UnitRecord
from pibgen.oracle import EXACT_BINARY

from conftest import binary_frame, make_frame, random_binary_frame


def exact_inputs(frame, p_w0_given_z0=None):
    share = p_w0_given_z0
    if share is None:
        z0 = frame.z0_units()
        share = oracle.bearing_share(frame) if z0 else Fraction(1, 2)
    return oracle.exact_rates(frame), oracle.exact_design_probs(frame, share)


class TestWorstCaseEnumeration:
    def test_four_unit_frame_matches_closed_form(self):
        frame = binary_frame(1, 1, 1, 0, n_z0_free=2)
        rates, probs = exact_inputs(frame, Fraction(1, 2))
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
            rates, probs = exact_inputs(frame)
            enum = oracle.enumerate_worst_case(frame, "full")
            closed = bounds.worst_case_bounds(rates, probs, "full", EXACT_BINARY)
            assert (enum.lo, enum.hi) == (closed.pre_clamp_lo, closed.pre_clamp_hi)
            if frame.z0_bearing.any():
                enum = oracle.enumerate_worst_case(frame, "reduced")
                closed = bounds.worst_case_bounds(rates, probs, "reduced", EXACT_BINARY)
                assert (enum.lo, enum.hi) == (closed.pre_clamp_lo, closed.pre_clamp_hi)

    def test_too_many_units(self):
        frame = binary_frame(7, 3, 6, 2)
        with pytest.raises(TooLarge):
            oracle.enumerate_worst_case(frame, "full")

    def test_rejects_continuous_frames(self):
        from conftest import CONTINUOUS

        frame = make_frame([(1, 1, 1.5), (1, 0, 0.5), (0, None, None)], support=CONTINUOUS)
        with pytest.raises(DataError):
            oracle.enumerate_worst_case(frame, "full")


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
        rates, probs = exact_inputs(frame, Fraction(2, 3))
        enum = oracle.enumerate_mtr(frame, "population")
        _, closed_max = bounds.mtr_bounds(_pop_rates(frame, rates), probs, "population")
        assert enum.hi == closed_max.pre_clamp_hi
        assert enum.lo == 0

    def test_pin_free_to_zero_matches_min_variant(self, rng):
        for _ in range(40):
            frame = random_binary_frame(rng, labeled=True)
            rates, probs = exact_inputs(frame, Fraction(1, 2))
            enum = oracle.enumerate_mtr(frame, "sample", pin_free_to_zero=True)
            closed_min, _ = bounds.mtr_bounds(rates, probs, "sample")
            assert enum.hi == closed_min.pre_clamp_hi

    def test_max_variant_on_random_labeled_frames(self, rng):
        for _ in range(60):
            frame = random_binary_frame(rng, labeled=True)
            z0 = frame.z0_units()
            share = Fraction(sum(1 for u in z0 if u.w == 0), len(z0)) if z0 else Fraction(1, 2)
            rates, probs = exact_inputs(frame, share)
            enum = oracle.enumerate_mtr(frame, "sample")
            _, closed_max = bounds.mtr_bounds(rates, probs, "sample")
            assert enum.hi == closed_max.pre_clamp_hi
            if z0 and any(u.w == 0 for u in z0):
                enum = oracle.enumerate_mtr(frame, "population")
                _, closed_max = bounds.mtr_bounds(_pop_rates(frame, rates), probs, "population")
                assert enum.hi == closed_max.pre_clamp_hi

    def test_observed_violation_via_known_pairs(self):
        frame = binary_frame(1, 1, 1, 0, n_z0_free=1)
        with pytest.raises(ObservedViolation):
            oracle.enumerate_mtr(frame, "sample", known_pairs={"u2": (1, 0)})

    def test_known_pair_contradicting_observation(self):
        frame = binary_frame(1, 1, 1, 0)
        # u0 is the treated unit with observed y=1; pinning y1=0 contradicts it
        with pytest.raises(ConfigError):
            oracle.enumerate_mtr(frame, "sample", known_pairs={"u0": (0, 0)})

    def test_population_scope_needs_labels(self):
        frame = binary_frame(1, 1, 1, 0, n_z0_free=1)
        with pytest.raises(DataError):
            oracle.enumerate_mtr(frame, "population")


def _pop_rates(frame, rates):
    """Exact rates whose z=0 mean runs over control-labeled units only."""
    from pibgen.frame import EmpiricalRates

    w0 = [u for u in frame.z0_units() if u.w == 0]
    q0 = Fraction(int(sum(u.y for u in w0)), len(w0))
    return EmpiricalRates(
        e_y1_w1z1=rates.e_y1_w1z1,
        e_y0_w0z1=rates.e_y0_w0z1,
        e_y0_w0z0=q0,
        pass1_w1z1=rates.pass1_w1z1,
        fail0_w0z1=rates.fail0_w0z1,
        fail0_w0z0=1 - q0,
    )


class TestBsvEnumeration:
    def test_lambda_zero_is_a_point(self):
        frame = binary_frame(2, 1, 2, 1, z0_outcomes=(1, 0))
        rates, probs = exact_inputs(frame)
        enum = oracle.enumerate_bsv(rates, probs, Fraction(0), "full")
        assert enum.lo == enum.hi == rates.sate

    def test_corner_sweep_matches_sharp_closed_form(self, rng):
        for _ in range(40):
            frame = random_binary_frame(rng, labeled=False, min_z0=1)
            rates, probs = exact_inputs(frame)
            for lam in (Fraction(1, 5), Fraction(1, 2)):
                enum = oracle.enumerate_bsv(rates, probs, lam, "full")
                closed = bounds.bsv_bounds(rates, probs, "full", lam, EXACT_BINARY,
                                           intersect_support=True)
                assert (enum.lo, enum.hi) == (closed.pre_clamp_lo, closed.pre_clamp_hi)

    def test_large_lambda_hits_support_edges(self):
        frame = binary_frame(2, 2, 2, 0, n_z0_free=2)
        rates, probs = exact_inputs(frame, Fraction(1, 2))
        enum = oracle.enumerate_bsv(rates, probs, Fraction(5), "full")
        worst = bounds.worst_case_bounds(rates, probs, "full", EXACT_BINARY)
        # with the box clipped to the whole support, BSV degenerates to worst case
        assert (enum.lo, enum.hi) == (worst.pre_clamp_lo, worst.pre_clamp_hi)

    def test_every_corner_value_inside_closed_interval(self, rng):
        for _ in range(30):
            frame = random_binary_frame(rng, labeled=False)
            rates, probs = exact_inputs(frame)
            enum = oracle.enumerate_bsv(rates, probs, Fraction(3, 10), "full")
            closed = bounds.bsv_bounds(rates, probs, "full", Fraction(3, 10), EXACT_BINARY,
                                       intersect_support=True)
            assert closed.pre_clamp_lo <= enum.lo <= enum.hi <= closed.pre_clamp_hi


class TestCompletionTable:
    def test_valid_completion_scored_inside_bounds(self):
        frame = binary_frame(1, 1, 1, 0, n_z0_free=2)
        pairs = {"u0": (0, 1.0), "u1": (0.0, 1), "u2": (0, 0), "u3": (1, 1)}
        table = oracle.resolve_completion(frame, pairs)
        assert table.taus["u0"] == 1
        assert table.implied_pate == Fraction(1, 2)
        enum = oracle.enumerate_worst_case(frame, "full")
        assert enum.lo <= table.implied_pate <= enum.hi

    def test_contradiction_with_observed_arm(self):
        frame = binary_frame(1, 1, 1, 0)
        with pytest.raises(DataError):
            oracle.resolve_completion(frame, {"u0": (0, 0), "u1": (0.0, 1)})

    def test_business_as_usual_pins_y0(self):
        frame = binary_frame(1, 1, 1, 0, z0_outcomes=(1,))
        with pytest.raises(DataError):
            oracle.resolve_completion(frame, {"u0": (0, 1.0), "u1": (0.0, 0), "u2": (0, 1)})
        table = oracle.resolve_completion(frame, {"u0": (0, 1.0), "u1": (0.0, 0),
                                                  "u2": (1.0, 1)})
        assert table.taus["u2"] == 0

    def test_monotone_check(self):
        frame = binary_frame(1, 1, 1, 0, n_z0_free=1)
        with pytest.raises(ObservedViolation):
            oracle.resolve_completion(frame, {"u0": (0, 1.0), "u1": (0.0, 0), "u2": (1, 0)},
                                      require_monotone=True)

    def test_sharpness_witness_attains_enumerated_max(self):
        # the all-gain monotone completion is a witness for the upper bound
        frame = binary_frame(1, 1, 1, 0, n_z0_free=2)
        witness = {"u0": (0, 1.0), "u1": (0.0, 1), "u2": (0, 1), "u3": (0, 1)}
        table = oracle.resolve_completion(frame, witness, require_monotone=True)
        enum = oracle.enumerate_mtr(frame, "sample")
        assert table.implied_pate == enum.hi


class TestSlotCap:
    def test_slot_cap_triggers(self):
        # 12 units: 1 treated + 1 control + 10 free z0 units = 20 slots: fine
        frame = binary_frame(1, 1, 1, 0, n_z0_free=10)
        oracle.enumerate_worst_case(frame, "full")
        units = list(frame.units) + [
            UnitRecord(id=f"extra{i}", z=0, w=None, y=None) for i in range(3)
        ]
        big = StudyFrame.from_units(units, BINARY)
        with pytest.raises(TooLarge):
            oracle.enumerate_worst_case(big, "full")
