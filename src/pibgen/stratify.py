"""Quantile partition of the population by sampling-propensity logit.

Breakpoints are the j/k empirical quantiles of the logit distribution over all
N units (the ceil(j*N/k)-th order statistic), units with a logit exactly at a
breakpoint go to the lower stratum, and the lowest stratum is closed below.

Only this module builds a ``StratumAssignment``: ``strata_for_frame`` cuts the
strata and ``merge_nonviable`` collapses those that lack a sampled arm.  A run
builds its assignment once and every per-stratum result reads it, by 0-based
group through ``assignment.tallies``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TooManyStrata, UndefinedLogit
from .frame import StudyFrame, Tallies, tallies


@dataclass(frozen=True, eq=False)
class StratumAssignment:
    k: int
    breakpoints: tuple[float, ...]
    labels: np.ndarray  # 1-based stratum index of each row, in row order
    tallies: Tallies  # the frame's statistics per stratum, stratum j at j - 1


def make_strata(logits, k: int) -> tuple[tuple[float, ...], np.ndarray]:
    """Split rows into k logit strata: the breakpoints and the 1-based stratum
    label of every row.

    ``logits`` holds one propensity logit per row.  Stratum sizes differ by at
    most one plus any ties sitting exactly on a breakpoint.  A NaN logit has
    no stratum: the first one raises ``UndefinedLogit`` naming its row.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ConfigError(f"stratum count must be an integer >= 1, got {k!r}")
    logits = np.asarray(logits, dtype=float)
    values = np.sort(logits)
    n = len(values)
    if n and np.isnan(values[-1]):  # NaN sorts last
        raise UndefinedLogit(int(np.flatnonzero(np.isnan(logits))[0]))
    distinct = int(np.count_nonzero(values[1:] != values[:-1])) + 1 if n else 0
    if k > distinct:
        raise TooManyStrata(k, distinct)
    breakpoints = tuple(values[math.ceil(j * n / k) - 1].item() for j in range(1, k))
    # the first breakpoint at or above a logit names its stratum
    labels = np.searchsorted(np.array(breakpoints), logits, side="left") + 1
    return breakpoints, labels


def _check_covers(frame: StudyFrame, rows: int):
    if rows != frame.n_units:
        raise ConfigError(f"expected one value per row of the frame ({frame.n_units}), "
                          f"got {rows}")


def strata_for_frame(frame: StudyFrame, logits, k: int) -> StratumAssignment:
    """Assign every row of the frame to one of k logit strata and tally each.

    ``UndefinedLogit`` for a NaN logit names the unit by its id."""
    _check_covers(frame, len(logits))
    try:
        breakpoints, labels = make_strata(logits, k)
    except UndefinedLogit as err:
        raise UndefinedLogit(frame.ids[err.unit]) from None
    return StratumAssignment(k, breakpoints, labels, tallies(frame, labels, k))


def merge_nonviable(assignment: StratumAssignment, frame: StudyFrame) -> StratumAssignment:
    """Collapse each non-viable stratum into its lower neighbor (the first
    stratum merges upward) until every stratum has both sampled arms.

    A stratum stays apart when it and the merged stratum below it have both
    arms; that merged stratum has them exactly when all strata below do.
    """
    t = assignment.tallies
    arms_below = np.minimum(np.cumsum(t.treated), np.cumsum(t.control))
    opens = [g == 0 or (t.viable(g) and arms_below[g - 1] > 0) for g in range(assignment.k)]
    if all(opens):
        return assignment
    relabel = np.cumsum([0] + opens)  # merged stratum of each 1-based stratum
    labels, k = relabel[assignment.labels], int(relabel[-1])
    # the breakpoint below stratum g + 1 survives only where that stratum opens
    kept = tuple(b for b, keep in zip(assignment.breakpoints, opens[1:]) if keep)
    return StratumAssignment(k, kept, labels, tallies(frame, labels, k))


@dataclass(frozen=True, eq=False)
class StratumPiece:
    index: int
    frame: StudyFrame


def stratum_frames(frame: StudyFrame, assignment: StratumAssignment) -> list[StratumPiece]:
    """Slice the frame into per-stratum sub-frames (support and covariate names
    inherited, rows in frame order), each built and checked like any frame.

    No estimator calls this: they read ``assignment.tallies``.  The sub-frames
    are the reference API, imported from ``pibgen.stratify``: the tallies are
    tested against them, and the enumeration oracles take a stratum's rows as one.
    """
    _check_covers(frame, len(assignment.labels))
    pieces = []
    for j in range(1, assignment.k + 1):
        rows = np.flatnonzero(assignment.labels == j)
        columns = (frame.ids[rows], frame.z[rows], frame.w[rows], frame.y[rows], frame.X[rows])
        pieces.append(StratumPiece(j, StudyFrame(*columns, frame.support, frame.covariate_names)))
    return pieces


def stratum_counts(assignment: StratumAssignment) -> list[dict]:
    """Each stratum's number, its population and sampled-arm counts, and
    whether it has both sampled arms: the report's one writer of these."""
    t = assignment.tallies
    return [{"stratum": g + 1, "n_population": t.units[g], "n_sample_treated": t.treated[g],
             "n_sample_control": t.control[g], "viable": t.viable(g)}
            for g in range(assignment.k)]


def stratum_summary_rows(assignment: StratumAssignment) -> list[dict]:
    """The per-stratum layout, one row per stratum (the data behind a
    logit-distribution plot; plotting itself is out of scope)."""
    ends = (-math.inf, *assignment.breakpoints, math.inf)
    return [{"stratum": g + 1, "logit_lo": ends[g], "logit_hi": ends[g + 1], **counts}
            for g, counts in enumerate(stratum_counts(assignment))]
