"""Exhaustive verifiers for the closed-form bounds on binary frames.

Every unobserved potential outcome is a free slot; a completion assigns each
slot a value consistent with everything observed.  Randomization identifies
both sampled arm means, so in the worst-case oracles sampled units enter
through those means and the free slots all belong to z=0 units.

A completion's PATE is a sum of one term per unit, y1 - y0, in {-1, 0, 1}.
Units complete independently, so the extreme completion sums are the sums of
the per-unit extreme terms, and the verifiers read those from the frame's
columns without listing the completions (4^k of them for k free units); the
work is linear in the frame size, and no frame is too large to check.

All arithmetic is ``fractions.Fraction`` over integer counts, so equality
against a closed form evaluated on rational inputs is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    EmptyArm,
    MissingPopulationOutcome,
    NegativeLambda,
    NonBinaryOutcome,
)
from .frame import (
    DesignProbs,
    EmpiricalRates,
    OutcomeSupport,
    StudyFrame,
    design_probs,
    empirical_rates,
)

# integer endpoints keep Fraction arithmetic exact (float endpoints would not)
EXACT_BINARY = OutcomeSupport(0, 1)


def exact_rates(frame: StudyFrame) -> EmpiricalRates:
    """Arm means as exact fractions of integer counts."""
    _require_binary(frame)
    return empirical_rates(frame, Fraction)


def exact_design_probs(frame: StudyFrame, p_w0_given_z0: Fraction) -> DesignProbs:
    return design_probs(frame, p_w0_given_z0, Fraction)


def bearing_share(frame: StudyFrame) -> Fraction:
    """Fraction of z=0 units carrying a business-as-usual outcome — the
    non-sampled mass whose control outcome the data identify.  Feeding this as
    P(W=0|Z=0) makes the reduced closed form and the enumeration describe the
    same information set."""
    n_z0 = frame.n_units - frame.n_sample
    if not n_z0:
        raise MissingPopulationOutcome()
    return Fraction(int(np.count_nonzero(frame.z0_bearing)), n_z0)


def _require_binary(frame: StudyFrame):
    if not frame.treated.any():
        raise EmptyArm("treated")
    if not frame.control.any():
        raise EmptyArm("control")
    if not frame.is_binary:
        raise NonBinaryOutcome("enumeration oracles require a binary frame")


@dataclass(frozen=True)
class Enumeration:
    lo: Fraction
    hi: Fraction
    n_completions: int


def _extreme_sums(y0, y1, monotone: bool = False) -> tuple[int, int, int]:
    """The least and greatest sum of the per-unit effects y1 - y0 over every
    completion, and the number of completions.

    ``y0`` and ``y1`` hold each unit's pinned potential outcome, NaN where it
    is free in {0, 1}; ``monotone`` drops the pairs with y1 < y0.  Each unit
    chooses its pair independently of the others, so each extreme sum adds up
    the units' own extreme effects.
    """
    def may_be(y, v):
        return np.isnan(y) | (y == v)

    pair = {(a, b): may_be(y0, a) & may_be(y1, b) for a in (0, 1) for b in (0, 1)}
    if monotone:
        pair[1, 0] = np.zeros_like(pair[1, 0])
    counts = sum(mask.astype(np.int64) for mask in pair.values())
    values, repeats = np.unique(counts, return_counts=True)
    n_completions = math.prod(int(v) ** int(r) for v, r in zip(values, repeats))

    minus, zero, plus = pair[1, 0], pair[0, 0] | pair[1, 1], pair[0, 1]
    lo = np.where(minus, -1, np.where(zero, 0, 1)).sum()
    hi = np.where(plus, 1, np.where(zero, 0, -1)).sum()
    return int(lo), int(hi), n_completions


def _fixed_sample_part(frame: StudyFrame) -> Fraction:
    rates = exact_rates(frame)
    return frame.n_sample * (rates.e_y1_w1z1 - rates.e_y0_w0z1)


def enumerate_worst_case(frame: StudyFrame, framework: str = "full") -> Enumeration:
    """Exact PATE range over every completion consistent with the observations.

    Full framework: both potential outcomes of every z=0 unit are free in
    {0,1}.  Reduced framework: a z=0 unit carrying a business-as-usual outcome
    has its control potential outcome pinned to it.
    """
    _require_binary(frame)
    if framework not in ("full", "reduced"):
        raise ConfigError(f"framework must be 'full' or 'reduced', got {framework!r}")
    z0 = frame.z == 0
    free = np.full(int(np.count_nonzero(z0)), np.nan)
    y0 = frame.y[z0] if framework == "reduced" else free
    lo, hi, n_completions = _extreme_sums(y0, free)
    fixed = _fixed_sample_part(frame)
    n_total = frame.n_units
    return Enumeration(lo=(fixed + lo) / n_total, hi=(fixed + hi) / n_total,
                       n_completions=n_completions)


def enumerate_mtr(
    frame: StudyFrame,
    scope: str = "sample",
    pin_free_to_zero: bool = False,
) -> Enumeration:
    """Exact PATE range over monotone completions (treated outcome never below
    the control outcome for any unit).

    Population scope consumes the hypothetical arm labels on z=0 units: a
    control-labeled unit must carry its business-as-usual outcome, which pins
    its control potential outcome; a treated-labeled unit is fully free.  With
    ``pin_free_to_zero`` the fully free units are held at zero effect, which
    realizes the reporting convention behind the min variant of the closed
    form.
    """
    _require_binary(frame)
    if scope not in ("sample", "population"):
        raise ConfigError(f"scope must be 'sample' or 'population', got {scope!r}")
    y, z, w = frame.y, frame.z, frame.w
    y0 = np.where(frame.control, y, np.nan)
    y1 = np.where(frame.treated, y, np.nan)
    free = z == 0
    if scope == "population":
        unlabeled = np.flatnonzero(free & (w == -1))
        if unlabeled.size:
            raise DataError("population-scope enumeration needs an arm label for z=0 unit "
                            f"{frame.ids[unlabeled[0]]!r}")
        w0 = free & (w == 0)
        missing = np.flatnonzero(w0 & np.isnan(y))
        if missing.size:
            raise MissingPopulationOutcome(f"z=0 unit {frame.ids[missing[0]]!r} labeled control")
        y0 = np.where(w0, y, y0)
        free &= w == 1  # treated-labeled, nothing observed about its counterfactuals
    if pin_free_to_zero:
        y0, y1 = np.where(free, 0.0, y0), np.where(free, 0.0, y1)
    lo, hi, n_completions = _extreme_sums(y0, y1, monotone=True)
    return Enumeration(lo=Fraction(lo, frame.n_units), hi=Fraction(hi, frame.n_units),
                       n_completions=n_completions)


def enumerate_bsv(
    rates: EmpiricalRates,
    probs: DesignProbs,
    lam,
    framework: str = "full",
    support: OutcomeSupport = EXACT_BINARY,
) -> Enumeration:
    """Exact PATE range over the box of unknown non-sampled expectations.

    Each unknown expectation lies within lam of its sample arm mean and inside
    the outcome support; the PATE is linear in them, so the extremes sit at
    corners of the box and a full corner sweep is exhaustive.
    """
    if lam < 0:
        raise NegativeLambda(lam)
    if framework not in ("full", "reduced"):
        raise ConfigError(f"framework must be 'full' or 'reduced', got {framework!r}")
    e1, e0 = rates.e_y1_w1z1, rates.e_y0_w0z1

    def box(center):
        return (
            max(support.y_lo, center - lam),
            min(support.y_hi, center + lam),
        )

    u1 = box(e1)  # applies to E(Y(1)|., Z=0) on both assignment arms
    u0 = box(e0)
    values = []
    if framework == "full":
        for a in u1:           # E(Y(1)|W=1, Z=0)
            for b in u1:       # E(Y(1)|W=0, Z=0)
                for c in u0:   # E(Y(0)|W=1, Z=0)
                    for d in u0:  # E(Y(0)|W=0, Z=0)
                        ey1 = e1 * probs.p_z1 + a * probs.p_w1_z0 + b * probs.p_w0_z0
                        ey0 = e0 * probs.p_z1 + c * probs.p_w1_z0 + d * probs.p_w0_z0
                        values.append(ey1 - ey0)
    else:
        if rates.e_y0_w0z0 is None:
            raise MissingPopulationOutcome()
        pinned = rates.e_y0_w0z0 * probs.p_w0_z0
        for a in u1:
            for b in u1:
                for c in u0:   # E(Y(0)|W=1, Z=0), carrying the residual mass
                    ey1 = e1 * probs.p_z1 + a * probs.p_w1_z0 + b * probs.p_w0_z0
                    ey0 = e0 * probs.p_z1 + pinned + c * probs.p_w1_z0
                    values.append(ey1 - ey0)
    return Enumeration(lo=min(values), hi=max(values), n_completions=len(values))
