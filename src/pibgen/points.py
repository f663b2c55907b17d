"""Point estimators of the PATE under sampling ignorability: the unweighted
sample contrast, normalized inverse-propensity weighting, and propensity-score
subclassification.

The IPW estimator is the ratio (Hajek) form, invariant to rescaling of the
weights, with a nonparametric bootstrap standard error.  Bootstrap replicates
draw their generators from per-replicate children of the master seed, so the
result is identical no matter how replicates are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyArm, NonViableStratum, UnfittedModel, ZeroPropensity
from .frame import StudyFrame
from .propensity import PropensityModel, propensity_scores
from .stratify import StratumAssignment, stratum_counts, stratum_frames, with_frame_counts


@dataclass(frozen=True)
class PointEstimate:
    method: str  # "naive" | "ipw" | "subclassification"
    estimate: float
    se: float | None  # None when the bootstrap has fewer than two replicates
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "estimate": self.estimate,
            "se": self.se,
            "details": self.details,
        }


@dataclass(frozen=True)
class BootstrapOptions:
    reps: int = 1000
    seed: int = 0


def plugin_variance(values) -> float:
    """Variance with denominator n, summed in plain Python."""
    n = len(values)
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values) / n


def naive_sate(frame: StudyFrame) -> PointEstimate:
    """Difference in sampled arm means with a plug-in two-sample SE."""
    treated = frame.y[frame.treated]
    control = frame.y[frame.control]
    if len(treated) == 0:
        raise EmptyArm("treated")
    if len(control) == 0:
        raise EmptyArm("control")
    estimate = float(treated.mean() - control.mean())
    se = math.sqrt(plugin_variance(treated) / len(treated)
                   + plugin_variance(control) / len(control))
    return PointEstimate(
        method="naive",
        estimate=estimate,
        se=se,
        details={"n_treated": len(treated), "n_control": len(control)},
    )


def _hajek_contrast(y, w, weights) -> float:
    t = w == 1
    return float(
        np.sum(y[t] * weights[t]) / np.sum(weights[t])
        - np.sum(y[~t] * weights[~t]) / np.sum(weights[~t])
    )


def _replicate_seed(master: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=master, spawn_key=(rep,)))


def ipw_estimate(
    frame: StudyFrame,
    model: PropensityModel,
    options: BootstrapOptions = BootstrapOptions(),
) -> PointEstimate:
    """Normalized inverse-propensity-weighted contrast over sampled units.

    Each sampled unit is weighted by the inverse of its fitted selection
    probability; the SE comes from an arm-stratified nonparametric bootstrap,
    deterministic given the seed.
    """
    if not model.converged:
        raise UnfittedModel()
    sampled = frame.z == 1
    scores = propensity_scores(model, frame)[sampled]
    w = frame.w[sampled]
    if not np.any(w == 1):
        raise EmptyArm("treated")
    if not np.any(w == 0):
        raise EmptyArm("control")
    nonpositive = np.flatnonzero(scores <= 0)
    if nonpositive.size:
        raise ZeroPropensity(frame.ids[sampled][nonpositive[0]])
    y = frame.y[sampled]
    weights = 1.0 / scores
    estimate = _hajek_contrast(y, w, weights)

    treated_idx = np.flatnonzero(w == 1)
    control_idx = np.flatnonzero(w == 0)

    def one_rep(rep: int) -> float:
        rng = _replicate_seed(options.seed, rep)
        t = treated_idx[rng.integers(0, len(treated_idx), size=len(treated_idx))]
        c = control_idx[rng.integers(0, len(control_idx), size=len(control_idx))]
        idx = np.concatenate([t, c])
        return _hajek_contrast(y[idx], w[idx], weights[idx])

    reps = np.array([one_rep(rep) for rep in range(options.reps)])
    se = float(reps.std(ddof=1)) if options.reps > 1 else None
    return PointEstimate(
        method="ipw",
        estimate=estimate,
        se=se,
        details={
            "normalized": True,
            "bootstrap_reps": options.reps,
            "seed": options.seed,
            "weight_range": [float(weights.min()), float(weights.max())],
        },
    )


def subclass_estimate(frame: StudyFrame, assignment: StratumAssignment) -> PointEstimate:
    """Population-share weighted average of within-stratum naive contrasts."""
    pieces = stratum_frames(frame, assignment)
    bad = [p.index for p in pieces if not p.viable]
    if bad:
        raise NonViableStratum(bad)
    total = frame.n_units
    estimate = 0.0
    var = 0.0
    per_stratum = []
    for piece in pieces:
        est = naive_sate(piece.frame)
        share = piece.frame.n_units / total
        estimate += share * est.estimate
        var += share**2 * est.se**2
        per_stratum.append(
            {"stratum": piece.index, "share": share, "estimate": est.estimate, "se": est.se}
        )
    return PointEstimate(
        method="subclassification",
        estimate=estimate,
        se=math.sqrt(var),
        details={"k": assignment.k, "per_stratum": per_stratum},
    )


def merge_nonviable(assignment: StratumAssignment, frame: StudyFrame) -> StratumAssignment:
    """Collapse each non-viable stratum into its lower neighbor (the first
    stratum merges upward) until every stratum has both sampled arms."""
    current = assignment
    while current.k > 1:
        bad = [j for j in range(1, current.k + 1) if not current.viable(j)]
        if not bad:
            return current
        j = bad[0]
        target = j - 1 if j > 1 else 2
        merged = np.where(current.labels == j, target, current.labels)
        # compact the strata that still hold rows to 1..k
        present = np.unique(merged)
        labels = np.searchsorted(present, merged) + 1
        k = len(present)
        kept = [b for i, b in enumerate(current.breakpoints, start=1) if i != min(j, target)]
        current = with_frame_counts(
            StratumAssignment(
                k=k,
                breakpoints=tuple(kept),
                labels=labels,
                counts_population=stratum_counts(labels, k),
                counts_sample_treated=(0,) * k,
                counts_sample_control=(0,) * k,
            ),
            frame,
        )
    return current
