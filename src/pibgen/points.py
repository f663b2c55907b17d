"""Point estimators of the PATE under sampling ignorability: the unweighted
sample contrast, normalized inverse-propensity weighting, and propensity-score
subclassification.

Subclassification reads the tallies of a ``StratumAssignment`` built by
``stratify`` (merged there when asked) and refuses one with a non-viable
stratum.  The IPW estimator is the ratio (Hajek) form, invariant to rescaling of the
weights, with a nonparametric bootstrap standard error.  Each bootstrap
replicate draws from its own generator, a child of the master seed; the
replicates are then evaluated in memory-bounded batches, so the standard
error does not depend on the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyArm, NonViableStratum, UnfittedModel, ZeroPropensity
from .frame import StudyFrame, Tallies, tallies
from .propensity import PropensityModel, propensity_scores
from .stratify import StratumAssignment
from .stratify import stratum_frames  # noqa: F401 (perfbench/tracing.py wraps it)


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


def _arm_contrast(t: Tallies, g: int) -> tuple[float, float]:
    """Group ``g``'s difference in sampled arm means and its plug-in
    two-sample SE."""
    rates = t.empirical_rates(g)
    n1, n0 = t.treated[g], t.control[g]
    return rates.sate, math.sqrt(t.ss_treated[g] / n1 / n1 + t.ss_control[g] / n0 / n0)


def naive_sate(frame: StudyFrame) -> PointEstimate:
    """Difference in sampled arm means with a plug-in two-sample SE."""
    t = tallies(frame)
    estimate, se = _arm_contrast(t, 0)
    return PointEstimate(
        method="naive",
        estimate=estimate,
        se=se,
        details={"n_treated": t.treated[0], "n_control": t.control[0]},
    )


def _hajek_contrast(y, w, weights) -> float:
    t = w == 1
    return float(
        np.sum(y[t] * weights[t]) / np.sum(weights[t])
        - np.sum(y[~t] * weights[~t]) / np.sum(weights[~t])
    )


# drawn rows per batch of bootstrap replicates: bounds the position and gather
# matrices, which for all replicates at once would raise peak memory at large N
_BATCH_ROWS = 1 << 16


def _bootstrap_contrasts(y, weights, treated, control, reps: int, seed: int,
                         *, batch_rows: int) -> np.ndarray:
    """Hajek contrast of each arm-stratified bootstrap replicate.

    Replicate ``r`` draws from the ``r``-th child of ``seed``: the treated
    positions first, then the control ones.  A batch of replicates is then
    evaluated at once, each row summing the same products in the same order as
    a one-replicate sum, so the contrasts do not depend on ``batch_rows``.
    """
    wy = y * weights
    wy_t, w_t = wy[treated], weights[treated]
    wy_c, w_c = wy[control], weights[control]
    n_t, n_c = len(treated), len(control)
    batch = max(1, batch_rows // (n_t + n_c))
    master = np.random.SeedSequence(entropy=seed)
    contrasts = np.empty(reps)
    for start in range(0, reps, batch):
        children = master.spawn(min(batch, reps - start))
        t = np.empty((len(children), n_t), dtype=np.int64)
        c = np.empty((len(children), n_c), dtype=np.int64)
        for i, child in enumerate(children):
            rng = np.random.Generator(np.random.PCG64(child))
            t[i] = rng.integers(0, n_t, size=n_t)
            c[i] = rng.integers(0, n_c, size=n_c)
        contrasts[start:start + len(children)] = (
            wy_t[t].sum(axis=1) / w_t[t].sum(axis=1) - wy_c[c].sum(axis=1) / w_c[c].sum(axis=1)
        )
    return contrasts


def ipw_estimate(frame: StudyFrame, model: PropensityModel, *, reps: int = 1000,
                 seed: int = 0) -> PointEstimate:
    """Normalized inverse-propensity-weighted contrast over sampled units.

    Each sampled unit is weighted by the inverse of its fitted selection
    probability; the SE comes from an arm-stratified nonparametric bootstrap
    of ``reps`` replicates, deterministic given the seed.
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

    contrasts = _bootstrap_contrasts(y, weights, np.flatnonzero(w == 1), np.flatnonzero(w == 0),
                                     reps, seed, batch_rows=_BATCH_ROWS)
    se = float(contrasts.std(ddof=1)) if reps > 1 else None
    return PointEstimate(
        method="ipw",
        estimate=estimate,
        se=se,
        details={
            "normalized": True,
            "bootstrap_reps": reps,
            "seed": seed,
            "weight_range": [float(weights.min()), float(weights.max())],
        },
    )


def subclass_estimate(frame: StudyFrame, assignment: StratumAssignment) -> PointEstimate:
    """Population-share weighted average of within-stratum naive contrasts."""
    t = assignment.tallies
    bad = [g + 1 for g in range(assignment.k) if not t.viable(g)]
    if bad:
        raise NonViableStratum(bad)
    estimate = 0.0
    var = 0.0
    per_stratum = []
    for g in range(assignment.k):
        est, se = _arm_contrast(t, g)
        share = t.units[g] / frame.n_units
        estimate += share * est
        var += share**2 * se**2
        per_stratum.append({"stratum": g + 1, "share": share, "estimate": est, "se": se})
    return PointEstimate(
        method="subclassification",
        estimate=estimate,
        se=math.sqrt(var),
        details={"k": assignment.k, "per_stratum": per_stratum},
    )

