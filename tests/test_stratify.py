"""Quantile stratification of the population by propensity logit."""

import numpy as np
import pytest

from pibgen.errors import TooManyStrata
from pibgen.frame import BINARY, load_frame
from pibgen.propensity import fit_propensity, logit_scores
from pibgen.report import rows_csv
from pibgen.stratify import (
    make_strata,
    strata_for_frame,
    stratum_frames,
    stratum_summary_rows,
)

from conftest import make_frame


def logit_array(values):
    return np.asarray(values, dtype=float)


class TestMakeStrata:
    def test_single_stratum(self):
        breakpoints, labels = make_strata(logit_array([0.3, -0.5, 2.0]), 1)
        assert set(labels.tolist()) == {1}
        assert breakpoints == ()

    def test_hand_quantiles_one_to_nine(self):
        breakpoints, labels = make_strata(logit_array(range(1, 10)), 3)
        groups = {j: [i + 1 for i, s in enumerate(labels) if s == j]
                  for j in (1, 2, 3)}
        assert groups[1] == [1, 2, 3]
        assert groups[2] == [4, 5, 6]
        assert groups[3] == [7, 8, 9]
        assert breakpoints == (3.0, 6.0)

    def test_tie_at_breakpoint_goes_low(self):
        # breakpoint at 2.0; the duplicate 2.0 stays in the lower stratum
        _, labels = make_strata(logit_array([1.0, 2.0, 2.0, 5.0]), 2)
        strata = labels.tolist()
        assert strata == [1, 1, 1, 2]

    def test_monotone_in_logit(self, rng):
        values = rng.normal(size=40)
        _, labels = make_strata(logit_array(values), 5)
        pairs = sorted(zip(values, labels.tolist()))
        strata = [s for _, s in pairs]
        assert strata == sorted(strata)

    def test_balanced_sizes(self, rng):
        values = rng.normal(size=53)  # distinct with probability 1
        _, labels = make_strata(logit_array(values), 4)
        sizes = np.bincount(labels)[1:]
        assert sum(sizes) == 53
        assert max(sizes) - min(sizes) <= 1

    def test_tied_values_skew_sizes_by_at_most_the_tie_count(self):
        # four copies of the breakpoint value pull them all into stratum 1
        values = [1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 4.0, 5.0]
        breakpoints, labels = make_strata(logit_array(values), 2)
        sizes = np.bincount(labels)[1:]
        assert sum(sizes) == 8
        ties_at_breakpoint = values.count(breakpoints[0])
        assert max(sizes) - min(sizes) <= 1 + ties_at_breakpoint

    def test_too_many_strata(self):
        with pytest.raises(TooManyStrata):
            make_strata(logit_array([1.0, 1.0, 1.0]), 2)


class TestStatewideShaped:
    def test_three_equal_strata(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        model = fit_propensity(frame, frame.covariate_names)
        assignment = strata_for_frame(frame, logit_scores(model, frame), 3)
        for size in assignment.tallies.units:
            assert abs(size - 343) <= 1
        assert sum(assignment.tallies.units) == 1029


class TestStratumFrames:
    def _frame(self):
        spec = [(1, 1, 1.0), (1, 0, 0.0), (0, None, 1.0), (0, None, None),
                (1, 1, 0.0), (0, None, None)]
        x = [(0.1,), (0.2,), (0.3,), (1.1,), (1.2,), (1.3,)]
        return make_frame(spec, covariates=("a",), x=x)

    def test_partition_is_exact(self):
        frame = self._frame()
        assignment = strata_for_frame(frame, frame.covariate_column("a"), 2)
        pieces = stratum_frames(frame, assignment)
        ids = sorted(uid for piece in pieces for uid in piece.frame.ids.tolist())
        assert ids == sorted(frame.ids.tolist())
        assert sum(p.frame.n_units for p in pieces) == frame.n_units

    def test_viability_flags(self):
        frame = self._frame()
        assignment = strata_for_frame(frame, frame.covariate_column("a"), 2)
        # stratum 1 has one treated + one control; stratum 2 only a treated unit
        assert assignment.tallies.viable(0)
        assert not assignment.tallies.viable(1)
        assert assignment.tallies.treated == (1, 1)
        assert assignment.tallies.control == (1, 0)

    def test_subframes_inherit_support_and_covariates(self):
        frame = self._frame()
        assignment = strata_for_frame(frame, frame.covariate_column("a"), 2)
        for piece in stratum_frames(frame, assignment):
            assert piece.frame.support == frame.support
            assert piece.frame.covariate_names == frame.covariate_names


class TestSummaryExport:
    def test_rows_and_csv(self):
        frame_spec = [(1, 1, 1.0), (1, 0, 0.0), (0, None, None), (0, None, None)]
        x = [(0.0,), (1.0,), (2.0,), (3.0,)]
        frame = make_frame(frame_spec, covariates=("a",), x=x)
        assignment = strata_for_frame(frame, frame.covariate_column("a"), 2)
        rows = stratum_summary_rows(assignment)
        assert rows[0]["logit_lo"] == float("-inf")
        assert rows[-1]["logit_hi"] == float("inf")
        assert [r["stratum"] for r in rows] == [1, 2]
        text = rows_csv(rows)
        header = text.splitlines()[0]
        assert header == ("stratum,logit_lo,logit_hi,n_population,"
                          "n_sample_treated,n_sample_control,viable")
        assert len(text.splitlines()) == 3
