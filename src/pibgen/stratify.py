"""Quantile partition of the population by sampling-propensity logit.

Breakpoints are the j/k empirical quantiles of the logit distribution over all
N units (the ceil(j*N/k)-th order statistic), units with a logit exactly at a
breakpoint go to the lower stratum, and the lowest stratum is closed below.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TooManyStrata
from .frame import StudyFrame, Tallies, tallies


@dataclass(frozen=True, eq=False)
class StratumAssignment:
    k: int
    breakpoints: tuple[float, ...]
    labels: np.ndarray  # 1-based stratum index of each row, in row order
    tallies: Tallies  # the frame's statistics per stratum, stratum j at j - 1

    @property
    def counts_population(self) -> tuple[int, ...]:
        return self.tallies.units

    @property
    def counts_sample_treated(self) -> tuple[int, ...]:
        return self.tallies.treated

    @property
    def counts_sample_control(self) -> tuple[int, ...]:
        return self.tallies.control

    def viable(self, j: int) -> bool:
        return self.tallies.viable(j - 1)


def make_strata(logits, k: int) -> tuple[tuple[float, ...], np.ndarray]:
    """Split rows into k logit strata: the breakpoints and the 1-based stratum
    label of every row.

    ``logits`` holds one propensity logit per row.  Stratum sizes differ by at
    most one plus any ties sitting exactly on a breakpoint.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ConfigError(f"stratum count must be an integer >= 1, got {k!r}")
    logits = np.asarray(logits, dtype=float)
    values = np.sort(logits)
    n = len(values)
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
    """Assign every row of the frame to one of k logit strata and tally each."""
    _check_covers(frame, len(logits))
    breakpoints, labels = make_strata(logits, k)
    return StratumAssignment(k, breakpoints, labels, tallies(frame, labels, k))


@dataclass(frozen=True, eq=False)
class StratumPiece:
    index: int
    frame: StudyFrame


def stratum_frames(frame: StudyFrame, assignment: StratumAssignment) -> list[StratumPiece]:
    """Slice the frame into per-stratum sub-frames (support and covariate names
    inherited, rows in frame order).

    No estimator calls this: they read ``assignment.tallies``.  The sub-frames
    are the reference API: the tallies are tested against them, and the
    enumeration oracles take a stratum's rows as one.
    """
    _check_covers(frame, len(assignment.labels))
    labels = assignment.labels
    return [StratumPiece(index=j, frame=frame.take(np.flatnonzero(labels == j)))
            for j in range(1, assignment.k + 1)]


def stratum_summary_rows(assignment: StratumAssignment) -> list[dict]:
    rows = []
    for j in range(1, assignment.k + 1):
        lo = assignment.breakpoints[j - 2] if j > 1 else float("-inf")
        hi = assignment.breakpoints[j - 1] if j <= len(assignment.breakpoints) else float("inf")
        rows.append(
            {
                "stratum": j,
                "logit_lo": lo,
                "logit_hi": hi,
                "n_population": assignment.counts_population[j - 1],
                "n_sample_treated": assignment.counts_sample_treated[j - 1],
                "n_sample_control": assignment.counts_sample_control[j - 1],
                "viable": assignment.viable(j),
            }
        )
    return rows


def stratum_summary_csv(assignment: StratumAssignment) -> str:
    """CSV export of the per-stratum layout (the data behind a logit-distribution
    plot; plotting itself is out of scope)."""
    rows = stratum_summary_rows(assignment)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
