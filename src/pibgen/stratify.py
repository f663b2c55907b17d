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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, TooManyStrata
from .frame import StudyFrame


@dataclass(frozen=True, eq=False)
class StratumAssignment:
    k: int
    breakpoints: tuple[float, ...]
    labels: np.ndarray  # 1-based stratum index of each row, in row order
    counts_population: tuple[int, ...]
    counts_sample_treated: tuple[int, ...]
    counts_sample_control: tuple[int, ...]

    def viable(self, j: int) -> bool:
        return self.counts_sample_treated[j - 1] >= 1 and self.counts_sample_control[j - 1] >= 1


def stratum_counts(labels, k: int) -> tuple[int, ...]:
    """Rows per stratum 1..k, from 1-based stratum labels."""
    return tuple(np.bincount(labels, minlength=k + 1)[1:].tolist())


def make_strata(logits, k: int) -> StratumAssignment:
    """Assign every row to one of k logit strata.

    ``logits`` holds one propensity logit per row.  Population stratum sizes
    differ by at most one plus any ties sitting exactly on a breakpoint.
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
    return StratumAssignment(
        k=k,
        breakpoints=breakpoints,
        labels=labels,
        counts_population=stratum_counts(labels, k),
        counts_sample_treated=(0,) * k,  # filled by with_frame_counts
        counts_sample_control=(0,) * k,
    )


def with_frame_counts(assignment: StratumAssignment, frame: StudyFrame) -> StratumAssignment:
    """Recompute the per-stratum sample-arm counts from a frame."""
    return replace(
        assignment,
        counts_sample_treated=stratum_counts(assignment.labels[frame.treated], assignment.k),
        counts_sample_control=stratum_counts(assignment.labels[frame.control], assignment.k),
    )


def _check_covers(frame: StudyFrame, rows: int):
    if rows != frame.n_units:
        raise ConfigError(f"expected one value per row of the frame ({frame.n_units}), "
                          f"got {rows}")


def strata_for_frame(frame: StudyFrame, logits, k: int) -> StratumAssignment:
    _check_covers(frame, len(logits))
    return with_frame_counts(make_strata(logits, k), frame)


@dataclass(frozen=True, eq=False)
class StratumPiece:
    index: int
    frame: StudyFrame
    n_sample_treated: int
    n_sample_control: int

    @property
    def viable(self) -> bool:
        return self.n_sample_treated >= 1 and self.n_sample_control >= 1


def stratum_frames(frame: StudyFrame, assignment: StratumAssignment) -> list[StratumPiece]:
    """Slice the frame into per-stratum sub-frames (support and covariate names
    inherited, rows in frame order), flagging strata that lack a sampled arm as
    non-viable."""
    _check_covers(frame, len(assignment.labels))
    labels = assignment.labels
    treated = stratum_counts(labels[frame.treated], assignment.k)
    control = stratum_counts(labels[frame.control], assignment.k)
    return [
        StratumPiece(index=j, frame=frame.take(np.flatnonzero(labels == j)),
                     n_sample_treated=treated[j - 1], n_sample_control=control[j - 1])
        for j in range(1, assignment.k + 1)
    ]


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
