"""Point estimators of the PATE under sampling ignorability: the unweighted
sample contrast, normalized inverse-propensity weighting, and propensity-score
subclassification.

Subclassification reads the tallies of a ``StratumAssignment`` built by
``stratify`` (merged there when asked) and refuses one with a non-viable
stratum.  The IPW estimator is the ratio (Hajek) form, invariant to rescaling of the
weights, with a nonparametric bootstrap standard error.  The replicates come
from one generator seeded by ``seed``: each draws a row of uniforms, one per
sampled unit, and a uniform ``u`` picks position ``floor(u * n)`` of its arm,
whose units are taken in id order.  The replicates are evaluated in
memory-bounded batches, so the standard error depends on neither the batch
size nor the row order.
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


# drawn positions per batch of bootstrap replicates: bounds the uniforms, the
# positions and the gathered weights, which for all replicates at once would
# raise peak memory at large N
_BATCH_ROWS = 1 << 16


def _positions(u, n: int) -> np.ndarray:
    """Position ``floor(u * n)`` in an arm of ``n`` units for each uniform
    ``u`` in [0, 1), scaling ``u`` in place.

    ``u`` is a multiple of 2**-53 below 1, so ``u * n`` rounds below ``n`` and
    each position has probability within ``n / 2**53`` of ``1 / n``.
    """
    u *= n
    return u.astype(np.intp)  # truncation is the floor: u >= 0


def _bootstrap_contrasts(y, weights, treated, control, reps: int, seed: int,
                         *, batch_rows: int) -> np.ndarray:
    """Hajek contrast of each arm-stratified bootstrap replicate.

    One ``np.random.default_rng(seed)`` draws a row of ``n_t + n_c`` uniforms
    per replicate, the treated arm's columns first, and ``_positions`` maps
    each uniform to a position in its arm.  The rows are drawn in order and a
    batch of them is evaluated at once, each row summing the same products in
    the same order as a one-replicate sum, so the contrasts do not depend on
    ``batch_rows``.
    """
    wy = y * weights
    wy_t, w_t = wy[treated], weights[treated]
    wy_c, w_c = wy[control], weights[control]
    n_t, n_c = len(treated), len(control)
    batch = max(1, batch_rows // (n_t + n_c))
    rng = np.random.default_rng(seed)
    contrasts = np.empty(reps)
    for start in range(0, reps, batch):
        rows = min(batch, reps - start)
        u = rng.random((rows, n_t + n_c))
        t, c = _positions(u[:, :n_t], n_t), _positions(u[:, n_t:], n_c)
        contrasts[start:start + rows] = (
            wy_t[t].sum(axis=1) / w_t[t].sum(axis=1) - wy_c[c].sum(axis=1) / w_c[c].sum(axis=1)
        )
    return contrasts


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or NaN: check_finite reports it
def ipw_estimate(frame: StudyFrame, model: PropensityModel, *, reps: int = 1000,
                 seed: int = 0) -> PointEstimate:
    """Normalized inverse-propensity-weighted contrast over sampled units.

    Each sampled unit is weighted by the inverse of its fitted selection
    probability; the SE comes from an arm-stratified nonparametric bootstrap
    of ``reps`` replicates, deterministic given the seed.  The bootstrap draws
    positions within each arm with the arm's units in id order, so the SE
    depends on neither the row order nor the batch size.
    """
    if not model.converged:
        raise UnfittedModel()
    sampled = frame.z == 1
    scores = propensity_scores(model, frame)[sampled]
    ids, w = frame.ids[sampled], frame.w[sampled]
    if not np.any(w == 1):
        raise EmptyArm("treated")
    if not np.any(w == 0):
        raise EmptyArm("control")
    nonpositive = np.flatnonzero(scores <= 0)
    if nonpositive.size:
        raise ZeroPropensity(ids[nonpositive[0]])
    y = frame.y[sampled]
    weights = 1.0 / scores
    estimate = _hajek_contrast(y, w, weights)

    treated, control = (arm[np.argsort(ids[arm], kind="stable")]
                        for arm in (np.flatnonzero(w == 1), np.flatnonzero(w == 0)))
    contrasts = _bootstrap_contrasts(y, weights, treated, control, reps, seed,
                                     batch_rows=_BATCH_ROWS)
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

