"""Generated-input properties of the columnar frame: float statistics agree
with their exact ``Fraction`` versions, and stratum slicing partitions the rows."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pibgen.frame import BINARY, OutcomeSupport, StudyFrame, UnitRecord, design_probs, empirical_rates
from pibgen.stratify import strata_for_frame, stratum_frames

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
    units = [UnitRecord(f"u{i}", z, w, y, (float(xi),))
             for i, ((z, w, y), xi) in enumerate(zip(rows, x))]
    return StudyFrame.from_units(units, support, ("x1",))


def _close(a, b) -> bool:
    return (a is None and b is None) or abs(a - float(b)) <= TOL


@settings(max_examples=150, deadline=None)
@given(frames(), st.fractions(0, 1, max_denominator=20))
def test_float_statistics_agree_with_exact_fractions(frame, p_w0_given_z0):
    rates_f, rates_x = empirical_rates(frame), empirical_rates(frame, Fraction)
    for name in rates_f.__dataclass_fields__:
        assert _close(getattr(rates_f, name), getattr(rates_x, name)), name
    probs_f = design_probs(frame, float(p_w0_given_z0))
    probs_x = design_probs(frame, p_w0_given_z0, Fraction)
    for name in probs_f.__dataclass_fields__:
        assert _close(getattr(probs_f, name), getattr(probs_x, name)), name


@settings(max_examples=150, deadline=None)
@given(frames(), st.integers(1, 5))
def test_stratum_frames_partition_the_rows_in_row_order(frame, k):
    logits = frame.covariate_column("x1")
    k = min(k, len(np.unique(logits)))
    assignment = strata_for_frame(frame, logits, k)
    pieces = stratum_frames(frame, assignment)
    row_of = {uid: i for i, uid in enumerate(frame.ids.tolist())}
    rows = [[row_of[uid] for uid in piece.frame.ids.tolist()] for piece in pieces]
    assert sorted(r for piece_rows in rows for r in piece_rows) == list(range(frame.n_units))
    for piece, piece_rows in zip(pieces, rows):
        assert piece_rows == sorted(piece_rows)
        assert (assignment.labels[piece_rows] == piece.index).all()
        assert piece.frame.units == tuple(frame.units[r] for r in piece_rows)
        assert piece.n_sample_treated == int(np.count_nonzero(piece.frame.treated))
        assert piece.n_sample_control == int(np.count_nonzero(piece.frame.control))
        assert piece.frame.n_units == assignment.counts_population[piece.index - 1]
