"""Ingestion, design probabilities, and empirical rates."""

import io

import numpy as np
import pytest

from pibgen.errors import (
    BadIndicator,
    DuplicateColumn,
    DuplicateId,
    EmptyArm,
    EmptySample,
    MissingColumn,
    MissingCovariate,
    MissingOutcome,
    NotUtf8,
    OutcomeOutOfSupport,
)
from pibgen.frame import (
    BINARY,
    ColumnMap,
    OutcomeSupport,
    StudyFrame,
    design_probs,
    empirical_rates,
    load_frame,
    load_two_frames,
    tallies,
)

from conftest import CONTINUOUS, make_frame

CSV3 = """id,in_sample,treatment,outcome
a,1,1,1
b,1,0,0
c,0,,
"""


class TestLoadFrame:
    def test_minimal_three_row_frame(self):
        frame = load_frame(CSV3, BINARY)
        assert frame.n_units == 3
        assert frame.n_sample == 2
        assert frame.w[0] == 1 and frame.y[0] == 1.0
        assert frame.z[2] == 0 and np.isnan(frame.y[2])

    def test_row_order_preserved(self):
        frame = load_frame(CSV3, BINARY)
        assert frame.ids.tolist() == ["a", "b", "c"]

    def test_outcome_out_of_support(self):
        bad = CSV3.replace("a,1,1,1", "a,1,1,1.5")
        with pytest.raises(OutcomeOutOfSupport) as err:
            load_frame(bad, BINARY)
        assert err.value.row == 1

    def test_bad_indicator(self):
        bad = CSV3.replace("b,1,0,0", "b,2,0,0")
        with pytest.raises(BadIndicator):
            load_frame(bad, BINARY)

    def test_sampled_row_missing_treatment(self):
        bad = CSV3.replace("b,1,0,0", "b,1,,0")
        with pytest.raises(BadIndicator):
            load_frame(bad, BINARY)

    def test_sampled_row_missing_outcome(self):
        bad = CSV3.replace("b,1,0,0", "b,1,0,")
        with pytest.raises(MissingOutcome):
            load_frame(bad, BINARY)

    def test_missing_sample_column(self):
        with pytest.raises(MissingColumn):
            load_frame("id,treatment,outcome\na,1,1\n", BINARY)

    def test_missing_covariate_value(self):
        text = "id,in_sample,treatment,outcome,x1\na,1,1,1,0.5\nb,1,0,0,\n"
        with pytest.raises(MissingCovariate) as err:
            load_frame(text, BINARY)
        assert err.value.row == 2

    def test_unmapped_columns_become_covariates(self):
        text = "id,in_sample,treatment,outcome,x1,x2\na,1,1,1,0.5,2\nb,1,0,0,1.5,3\n"
        frame = load_frame(text, BINARY)
        assert frame.covariate_names == ("x1", "x2")
        assert frame.X[0].tolist() == [0.5, 2.0]

    def test_column_remapping(self):
        text = "school,selected,arm,passed\na,1,1,1\nb,1,0,0\n"
        columns = ColumnMap(id="school", in_sample="selected", treatment="arm",
                            outcome="passed")
        frame = load_frame(text, BINARY, columns)
        assert frame.n_sample == 2

    def test_auto_ids_without_id_column(self):
        text = "in_sample,treatment,outcome\n1,1,1\n1,0,0\n"
        frame = load_frame(text, BINARY)
        assert frame.ids.tolist() == ["row1", "row2"]

    def test_duplicate_ids_rejected(self):
        text = "id,in_sample,treatment,outcome\na,1,1,1\na,1,0,0\n"
        with pytest.raises(DuplicateId):
            load_frame(text, BINARY)

    def test_stream_source(self):
        frame = load_frame(io.StringIO(CSV3), BINARY)
        assert frame.n_units == 3

    @pytest.mark.parametrize("as_bytes", [True, False])
    def test_leading_bom_is_stripped(self, as_bytes):
        text = "\ufeffid,in_sample,treatment,outcome\na,1,1,1\nb,1,0,0\nc,0,,\n"
        frame = load_frame(text.encode("utf-8") if as_bytes else text, BINARY)
        assert frame.ids.tolist() == ["a", "b", "c"]
        assert frame.covariate_names == ()

    def test_bytes_that_are_not_utf8_are_a_data_error(self):
        text = "id,in_sample,treatment,outcome\ncaf\xe9,1,1,1\nb,1,0,0\n"
        with pytest.raises(NotUtf8, match="^CSV data is not UTF-8 text: invalid continuation"):
            load_frame(text.encode("latin-1"), BINARY)

    def test_statewide_shaped_file(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        assert frame.n_units == 1029
        assert frame.n_sample == 56
        probs = design_probs(frame, 0.5)
        assert probs.p_z1 == 56 / 1029

    def test_two_file_mode(self):
        sample = "id,treatment,outcome\ns1,1,1\ns2,0,0\n"
        population = "id,outcome\np1,1\np2,\n"
        frame = load_two_frames(sample, population, BINARY)
        assert frame.n_units == 4
        assert frame.n_sample == 2
        assert frame.z.tolist() == [1, 1, 0, 0]
        assert frame.y[2] == 1.0 and np.isnan(frame.y[3])

    def test_two_file_mode_covariates_must_match(self):
        sample = "id,treatment,outcome,x1\ns1,1,1,0.2\ns2,0,0,0.4\n"
        population = "id,outcome\np1,1\n"
        with pytest.raises(MissingColumn):
            load_two_frames(sample, population, BINARY)

    def test_categorical_one_hot_with_reference_level(self):
        text = (
            "id,in_sample,treatment,outcome,region,size\n"
            "a,1,1,1,north,10\n"
            "b,1,0,0,south,20\n"
            "c,0,,,west,30\n"
            "d,0,,,north,40\n"
        )
        columns = ColumnMap(categorical=(("region", "north"),))
        frame = load_frame(text, BINARY, columns)
        assert frame.covariate_names == ("region=south", "region=west", "size")
        assert frame.X[0].tolist() == [0.0, 0.0, 10.0]
        assert frame.X[1].tolist() == [1.0, 0.0, 20.0]
        assert frame.X[2].tolist() == [0.0, 1.0, 30.0]

    def test_categorical_levels_shared_across_two_files(self):
        sample = "id,treatment,outcome,region\ns1,1,1,north\ns2,0,0,south\n"
        population = "id,region\np1,west\np2,north\n"
        columns = ColumnMap(categorical=(("region", "north"),))
        frame = load_two_frames(sample, population, BINARY, columns)
        assert frame.covariate_names == ("region=south", "region=west")
        assert frame.X[3].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("two_files", [False, True], ids=["one-file", "two-files"])
    def test_categorical_column_missing_from_the_header_is_an_error(self, two_files):
        columns = ColumnMap(categorical=(("regoin", "north"),))
        with pytest.raises(MissingColumn, match="'regoin'"):
            if two_files:
                load_two_frames("id,treatment,outcome,region\ns1,1,1,north\ns2,0,0,south\n",
                                "id,region\np1,west\n", BINARY, columns)
            else:
                load_frame("id,in_sample,treatment,outcome,region\na,1,1,1,north\n"
                           "b,1,0,0,south\nc,0,,,west\n", BINARY, columns)

    def test_categorical_column_that_is_no_covariate_is_ignored(self):
        text = "id,in_sample,treatment,outcome,region,size\na,1,1,1,north,10\nb,1,0,0,south,20\n"
        columns = ColumnMap(covariates=("size",), categorical=(("region", "north"),))
        assert load_frame(text, BINARY, columns).covariate_names == ("size",)

    def test_missing_categorical_value_is_error(self):
        text = "id,in_sample,treatment,outcome,region\na,1,1,1,north\nb,1,0,0,\n"
        columns = ColumnMap(categorical=(("region", "north"),))
        with pytest.raises(MissingCovariate):
            load_frame(text, BINARY, columns)


class TestDesignProbs:
    def test_statewide_treated_share(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        probs = design_probs(frame, 0.5)
        assert probs.p_w1_given_z1 == 34 / 56
        assert round(probs.p_w1_given_z1, 2) == 0.61

    def test_census(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0)])
        assert design_probs(frame, 0.5).p_z1 == 1.0

    def test_two_of_eight(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0)] + [(0, None, None)] * 6)
        probs = design_probs(frame, 0.5)
        assert probs.p_z1 == 0.25
        assert probs.p_w0_given_z0 == 0.5

    def test_exact_integer_count(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0), (0, None, None)])
        probs = design_probs(frame, 0.5)
        assert probs.p_z1 * frame.n_units == 2

    def test_empty_sample(self):
        frame = make_frame([(0, None, None), (0, None, None)])
        with pytest.raises(EmptySample):
            design_probs(frame, 0.5)


class TestEmpiricalRates:
    def test_hand_means(self):
        frame = make_frame(
            [(1, 1, 1.0), (1, 1, 1.0), (1, 1, 0.0), (1, 0, 0.0), (1, 0, 1.0)]
        )
        rates = empirical_rates(frame)
        assert rates.e_y1_w1z1 == pytest.approx(2 / 3)
        assert rates.e_y0_w0z1 == pytest.approx(1 / 2)
        assert rates.e_y0_w0z0 is None

    def test_constant_outcome(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 1.0), (0, None, 1.0)])
        rates = empirical_rates(frame)
        assert (rates.e_y1_w1z1, rates.e_y0_w0z1, rates.e_y0_w0z0) == (1.0, 1.0, 1.0)

    def test_population_mean_excludes_sample(self):
        # 91 passing and 9 failing z=0 units -> 0.91 regardless of sample outcomes
        spec = [(1, 1, 0.0), (1, 0, 0.0)]
        spec += [(0, None, 1.0)] * 91 + [(0, None, 0.0)] * 9
        rates = empirical_rates(make_frame(spec))
        assert rates.e_y0_w0z0 == pytest.approx(0.91)

    def test_reduced_lower_bound_identity(self):
        # the reduced-framework lower bound equals d*P(Z=1) - q0*p - r
        from pibgen.bounds import worst_case_bounds

        spec = [(1, 1, 1.0), (1, 0, 0.0)] + [(0, None, 1.0)] * 6 + [(0, None, None)] * 2
        frame = make_frame(spec)
        rates = empirical_rates(frame)
        probs = design_probs(frame, 0.75)  # p = 0.75 * 0.8 = 0.6 = bearing mass
        interval = worst_case_bounds(rates, probs, "reduced", frame.support)
        d = rates.sate
        p = probs.p_w0_z0
        r = probs.p_w1_z0
        assert interval.pre_clamp_lo == pytest.approx(d * probs.p_z1 - rates.e_y0_w0z0 * p - r)

    def test_binary_rate_fields(self):
        frame = make_frame([(1, 1, 1.0), (1, 1, 0.0), (1, 0, 0.0), (0, None, 1.0)])
        rates = empirical_rates(frame)
        assert rates.binary is True
        assert rates.e_y0_w0z0 == 1.0

    def test_continuous_frame_has_no_binary_rates(self):
        frame = make_frame([(1, 1, 2.5), (1, 0, -1.0)], support=CONTINUOUS)
        rates = empirical_rates(frame)
        assert rates.binary is False

    def test_permutation_invariance(self, rng):
        spec = [(1, 1, 1.0), (1, 1, 0.0), (1, 0, 1.0), (1, 0, 0.0),
                (0, None, 1.0), (0, None, None)]
        base = empirical_rates(make_frame(spec))
        for _ in range(10):
            perm = [spec[i] for i in rng.permutation(len(spec))]
            shuffled = empirical_rates(make_frame(perm))
            assert shuffled == base

    def test_binary_rates_are_count_ratios(self, rng):
        from fractions import Fraction

        from conftest import random_binary_frame

        for _ in range(20):
            frame = random_binary_frame(rng, labeled=False)
            rates = empirical_rates(frame)
            treated = frame.y[frame.treated].tolist()
            assert rates.e_y1_w1z1 == pytest.approx(
                float(Fraction(int(sum(treated)), len(treated)))
            )

    def test_empty_arm(self):
        frame = make_frame([(1, 1, 1.0), (0, None, None)])
        with pytest.raises(EmptyArm):
            empirical_rates(frame)


class TestSupport:
    def test_inverted_support_rejected(self):
        from pibgen.errors import ConfigError

        with pytest.raises(ConfigError):
            OutcomeSupport(1.0, 0.0)

    def test_binary_detection(self):
        assert tallies(make_frame([(1, 1, 1.0), (1, 0, 0.0)])).is_binary(0)
        fractional = make_frame([(1, 1, 0.5), (1, 0, 0.0)])
        assert not tallies(fractional).is_binary(0)


class TestColumns:
    def test_columns_and_missing_markers(self):
        frame = load_frame(CSV3, BINARY)
        assert frame.ids.tolist() == ["a", "b", "c"]
        assert frame.z.dtype == np.int8 and frame.z.tolist() == [1, 1, 0]
        assert frame.w.dtype == np.int8 and frame.w.tolist() == [1, 0, -1]
        assert frame.y[:2].tolist() == [1.0, 0.0] and np.isnan(frame.y[2])
        assert frame.X.shape == (3, 0)

    def test_covariate_columns_are_contiguous(self):
        text = "id,in_sample,treatment,outcome,x1,x2\na,1,1,1,0.5,2\nb,1,0,0,1.5,3\n"
        frame = load_frame(text, BINARY)
        assert frame.covariate_column("x2").tolist() == [2.0, 3.0]
        assert frame.covariate_column("x2").flags["C_CONTIGUOUS"]

    def test_covariate_moments_are_taken_once_per_frame(self):
        text = "id,in_sample,treatment,outcome,x1,x2\na,1,1,1,0.5,2\nb,1,0,0,1.5,3\nc,0,,,1,7\n"
        frame = load_frame(text, BINARY)
        col = frame.covariate_column("x2")
        moments = frame.covariate_moments("x2")
        assert moments == (col.mean(), col.std())
        assert frame.covariate_moments("x2") is moments
        assert frame.take(np.array([0, 1])).covariate_moments("x2") == (2.5, 0.5)

    def test_take_keeps_the_given_row_order(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0), (0, None, None), (0, None, 1.0)])
        sub = frame.take(np.array([3, 0]))
        assert sub.ids.tolist() == ["u3", "u0"]
        assert sub.support == frame.support

    @pytest.mark.parametrize("bad, error, row", [
        ((2, 1, 1.0), BadIndicator, "u1"),
        ((1, None, 1.0), BadIndicator, "u1"),
        ((1, 1, None), MissingOutcome, "u1"),
        ((0, None, 1.5), OutcomeOutOfSupport, "u1"),
    ])
    def test_constructor_errors_name_the_unit(self, bad, error, row):
        with pytest.raises(error) as err:
            make_frame([(1, 1, 1.0), bad, (3, 1, 1.0)])
        assert err.value.row == row

    def test_duplicate_id_comes_after_the_checks_of_earlier_units(self):
        columns = [["a", "a", "b"], [1, 1, 2], [1, 0, 0], [1.0, 0.0, 0.0]]
        with pytest.raises(DuplicateId):
            StudyFrame(*columns, (), BINARY)
        with pytest.raises(BadIndicator):
            StudyFrame(*(column[::-1] for column in columns), (), BINARY)

    def test_first_bad_row_wins_across_kinds_of_check(self):
        header = "id,in_sample,treatment,outcome,x1\n"
        with pytest.raises(MissingOutcome) as err:
            load_frame(header + "a,1,1,,0.5\nb,1,0,0,oops\n", BINARY)
        assert err.value.row == 1
        with pytest.raises(MissingCovariate) as err:
            load_frame(header + "a,1,1,1,oops\nb,1,0,,0.5\n", BINARY)
        assert err.value.row == 1

    def test_blank_lines_hold_no_row(self):
        frame = load_frame("id,in_sample,treatment,outcome\na,1,1,1\n\nb,1,0,0\n", BINARY)
        assert frame.ids.tolist() == ["a", "b"]
        with pytest.raises(MissingOutcome) as err:
            load_frame("id,in_sample,treatment,outcome\na,1,1,1\n\nb,1,0,\n", BINARY)
        assert err.value.row == 2

    def test_short_row_reads_as_blank_cells(self):
        with pytest.raises(MissingCovariate) as err:
            load_frame("id,in_sample,treatment,outcome,x1\na,1,1,1,0.5\nb,0\n", BINARY)
        assert err.value.row == 2 and err.value.name == "x1"

    def test_duplicate_header_name(self):
        with pytest.raises(DuplicateColumn) as err:
            load_frame("id,in_sample,treatment,outcome,x1,x1\na,1,1,1,0.2,0.3\n", BINARY)
        assert err.value.name == "x1"
        with pytest.raises(DuplicateColumn):
            load_two_frames("id,treatment,outcome\ns1,1,1\n", "id,id\np1,p1\n", BINARY)

    def test_continuous_rates_sum_left_to_right(self):
        # the means add the outcomes in row order, one at a time, bit for bit
        # (a plain loop: Python 3.12's sum is compensated and rounds otherwise)
        def sum(values):
            total = 0.0
            for value in values:
                total += value
            return total

        rng = np.random.default_rng(2016)
        rows = ["id,in_sample,treatment,outcome"]
        for i in range(1000):
            z = int(rng.random() < 0.3)
            w = int(rng.random() < 0.5) if z else ""
            rows.append(f"u{i},{z},{w},{rng.uniform(0, 100):.6f}")
        frame = load_frame("\n".join(rows) + "\n", OutcomeSupport(0.0, 100.0))
        rates = empirical_rates(frame)
        for w, mean in ((1, rates.e_y1_w1z1), (0, rates.e_y0_w0z1)):
            values = frame.y[(frame.z == 1) & (frame.w == w)].tolist()
            assert mean == sum(values) / len(values)
        values = frame.y[frame.z == 0].tolist()
        assert rates.e_y0_w0z0 == sum(values) / len(values)
