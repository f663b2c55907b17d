"""Generated-input properties of the columnar frame: float statistics agree
with their exact ``Fraction`` versions, stratum slicing partitions the rows,
and per-stratum tallies give the statistics of each stratum's sub-frame."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pibgen.frame import BINARY, OutcomeSupport, StudyFrame, design_probs, empirical_rates
from pibgen.errors import NonBinaryOutcome
from pibgen.points import naive_sate, subclass_estimate
from pibgen.stratify import merge_nonviable, strata_for_frame, stratum_frames

from conftest import plugin_variance

TOL = 1e-12
CONTINUOUS = OutcomeSupport(-2.0, 3.0)


@st.composite
def frames(draw, binary=None):
    """Frames with at least one sampled unit in each arm, binary or continuous
    outcomes, some non-sampled units with outcomes and one covariate."""
    if binary is None:
        binary = draw(st.booleans())
    support = BINARY if binary else CONTINUOUS
    outcome = (st.sampled_from([0.0, 1.0]) if binary else
               st.floats(support.y_lo, support.y_hi, allow_nan=False, allow_infinity=False))
    sampled = [(1, 1, draw(outcome)), (1, 0, draw(outcome))]
    sampled += draw(st.lists(st.tuples(st.just(1), st.sampled_from([0, 1]), outcome),
                             max_size=15))
    rest = draw(st.lists(st.tuples(st.just(0), st.none(), st.none() | outcome), max_size=25))
    rows = draw(st.permutations(sampled + rest))
    x = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    z = [z for z, _, _ in rows]
    w = [-1 if w is None else w for _, w, _ in rows]
    y = [np.nan if y is None else y for _, _, y in rows]
    return StudyFrame([f"u{i}" for i in range(len(rows))], z, w, y,
                      np.array(x, dtype=float)[:, None], support, ("x1",))


def _close(a, b) -> bool:
    return (a is None and b is None) or abs(a - float(b)) <= TOL


@settings(max_examples=150, deadline=None)
@given(frames(), st.fractions(0, 1, max_denominator=20))
def test_float_statistics_agree_with_exact_fractions(frame, p_w0_given_z0):
    if frame.is_binary:
        rates_f, rates_x = empirical_rates(frame), empirical_rates(frame, Fraction)
        for name in rates_f.__dataclass_fields__:
            assert _close(getattr(rates_f, name), getattr(rates_x, name)), name
    else:  # exact arithmetic is the oracles' binary domain
        with pytest.raises(NonBinaryOutcome):
            empirical_rates(frame, Fraction)
    probs_f = design_probs(frame, float(p_w0_given_z0))
    probs_x = design_probs(frame, p_w0_given_z0, Fraction)
    for name in probs_f.__dataclass_fields__:
        assert _close(getattr(probs_f, name), getattr(probs_x, name)), name


def _strata(frame, k):
    logits = frame.covariate_column("x1")
    return strata_for_frame(frame, logits, min(k, len(np.unique(logits))))


@settings(max_examples=150, deadline=None)
@given(frames(), st.integers(1, 5))
def test_stratum_frames_partition_the_rows_in_row_order(frame, k):
    assignment = _strata(frame, k)
    pieces = stratum_frames(frame, assignment)
    row_of = {uid: i for i, uid in enumerate(frame.ids.tolist())}
    rows = [[row_of[uid] for uid in piece.frame.ids.tolist()] for piece in pieces]
    assert sorted(r for piece_rows in rows for r in piece_rows) == list(range(frame.n_units))
    for piece, piece_rows in zip(pieces, rows):
        assert piece_rows == sorted(piece_rows)
        assert (assignment.labels[piece_rows] == piece.index).all()
        for name in ("ids", "z", "w", "y", "X"):
            np.testing.assert_array_equal(getattr(piece.frame, name),
                                          getattr(frame, name)[piece_rows])
        g, t = piece.index - 1, assignment.tallies
        assert t.treated[g] == int(np.count_nonzero(piece.frame.treated))
        assert t.control[g] == int(np.count_nonzero(piece.frame.control))
        assert piece.frame.n_units == t.units[g]


@settings(max_examples=150, deadline=None)
@given(frames(), st.integers(1, 5), st.fractions(0, 1, max_denominator=20))
def test_stratum_tallies_give_the_statistics_of_each_sub_frame(frame, k, p_w0_given_z0):
    assignment = _strata(frame, k)
    t = assignment.tallies
    for piece in stratum_frames(frame, assignment):
        g, sub = piece.index - 1, piece.frame
        for number, p in ((float, float(p_w0_given_z0)), (Fraction, p_w0_given_z0)):
            if sub.n_sample:
                assert t.design_probs(g, p, number) == design_probs(sub, p, number)
            if t.viable(g) and (number is float or t.is_binary(g)):
                assert t.empirical_rates(g, number) == empirical_rates(sub, number)
        if t.viable(g):  # the means add each stratum's outcomes in row order
            rates = t.empirical_rates(g)
            assert rates.e_y1_w1z1 == _row_order_mean(sub.y[sub.treated])
            assert rates.e_y0_w0z1 == _row_order_mean(sub.y[sub.control])
            if sub.z0_bearing.any():
                assert rates.e_y0_w0z0 == _row_order_mean(sub.y[sub.z0_bearing])
        if sub.n_sample:  # sd:pooled reads this plug-in variance
            sampled = sub.y[sub.z == 1].tolist()
            assert t.ss_sampled[g] / len(sampled) == plugin_variance(sampled)


def _row_order_mean(values) -> float:
    total = 0.0
    for value in values.tolist():
        total += value
    return total / len(values)


@settings(max_examples=150, deadline=None)
@given(frames(), st.integers(1, 5))
def test_subclassification_strata_equal_naive_on_each_sub_frame(frame, k):
    assignment = merge_nonviable(_strata(frame, k), frame)
    per_stratum = subclass_estimate(frame, assignment).details["per_stratum"]
    for piece, stratum in zip(stratum_frames(frame, assignment), per_stratum):
        naive = naive_sate(piece.frame)
        assert (stratum["estimate"], stratum["se"]) == (naive.estimate, naive.se)
        # the plug-in SE is the per-unit two-pass variance, bit for bit
        treated = piece.frame.y[piece.frame.treated]
        control = piece.frame.y[piece.frame.control]
        assert naive.se == math.sqrt(plugin_variance(treated) / len(treated)
                                     + plugin_variance(control) / len(control))
        if frame.is_binary:  # exact sums: the pairwise numpy means agree too
            assert naive.estimate == float(treated.mean() - control.mean())


@settings(max_examples=150, deadline=None)
@given(frames(), st.integers(1, 5))
def test_merged_strata_are_cut_at_their_breakpoints(frame, k):
    # integer logits tie, so some strata start empty and merge away
    assignment = merge_nonviable(_strata(frame, k), frame)
    logits = frame.covariate_column("x1")
    labels = np.searchsorted(np.array(assignment.breakpoints), logits, side="left") + 1
    np.testing.assert_array_equal(labels, assignment.labels)
