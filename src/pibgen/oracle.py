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

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .bounds import check_framework, check_scope
from .errors import DataError, MissingPopulationOutcome, NegativeLambda
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
    """Arm means as exact fractions of integer counts.  It is every oracle's
    one precondition: it raises ``EmptyArm`` for a frame without a sampled
    unit in each arm, then ``NonBinaryOutcome`` for outcomes other than 0/1."""
    return empirical_rates(frame, Fraction)


def exact_design_probs(frame: StudyFrame, p_w0_given_z0: Fraction) -> DesignProbs:
    return design_probs(frame, p_w0_given_z0, Fraction)


def exact_inputs(frame: StudyFrame) -> tuple[EmpiricalRates, DesignProbs]:
    """Exact inputs of the information set the unit-level oracles describe:
    P(W=0|Z=0) is the share of z=0 units carrying a business-as-usual outcome,
    the mass ``enumerate_worst_case(frame, "reduced")`` pins; 1/2 without one,
    where only the full framework applies and the split does not enter."""
    n_bearing = int(np.count_nonzero(frame.z0_bearing))
    share = Fraction(n_bearing, frame.n_units - frame.n_sample) if n_bearing else Fraction(1, 2)
    return exact_rates(frame), exact_design_probs(frame, share)


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


def enumerate_worst_case(frame: StudyFrame, framework: str = "full") -> Enumeration:
    """Exact PATE range over every completion consistent with the observations.

    Full framework: both potential outcomes of every z=0 unit are free in
    {0,1}.  Reduced framework: a z=0 unit carrying a business-as-usual outcome
    has its control potential outcome pinned to it.
    """
    rates = exact_rates(frame)
    check_framework(framework)
    z0 = frame.z == 0
    free = np.full(int(np.count_nonzero(z0)), np.nan)
    y0 = frame.y[z0] if framework == "reduced" else free
    lo, hi, n_completions = _extreme_sums(y0, free)
    fixed = frame.n_sample * rates.sate
    n_total = frame.n_units
    return Enumeration(lo=(fixed + lo) / n_total, hi=(fixed + hi) / n_total,
                       n_completions=n_completions)


def _population_arms(frame: StudyFrame):
    """Masks of the control- and treated-labeled z=0 units; population scope
    needs every z=0 unit labeled, and each control-labeled one's outcome."""
    z0 = frame.z == 0
    unlabeled = np.flatnonzero(z0 & (frame.w == -1))
    if unlabeled.size:
        raise DataError("population-scope enumeration needs an arm label for z=0 unit "
                        f"{frame.ids[unlabeled[0]]!r}")
    w0 = z0 & (frame.w == 0)
    missing = np.flatnonzero(w0 & np.isnan(frame.y))
    if missing.size:
        raise MissingPopulationOutcome(f"z=0 unit {frame.ids[missing[0]]!r} labeled control")
    return w0, z0 & (frame.w == 1)


def population_inputs(frame: StudyFrame) -> tuple[EmpiricalRates, DesignProbs]:
    """Exact inputs of the population-scope MTR closed form that
    ``enumerate_mtr(frame, "population")`` describes: the z=0 control mean and
    P(W=0|Z=0) run over the control-labeled z=0 units."""
    w0, _ = _population_arms(frame)
    n_w0 = int(np.count_nonzero(w0))
    if not n_w0:
        raise MissingPopulationOutcome("the population-scope monotone bound")
    rates = replace(exact_rates(frame), e_y0_w0z0=Fraction(int(frame.y[w0].sum()), n_w0))
    return rates, exact_design_probs(frame, Fraction(n_w0, frame.n_units - frame.n_sample))


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
    exact_rates(frame)  # the precondition; the bounds read the frame's columns
    check_scope(scope)
    y = frame.y
    y0 = np.where(frame.control, y, np.nan)
    y1 = np.where(frame.treated, y, np.nan)
    free = frame.z == 0
    if scope == "population":
        w0, free = _population_arms(frame)  # free: nothing observed about its counterfactuals
        y0 = np.where(w0, y, y0)
    if pin_free_to_zero:
        y0, y1 = np.where(free, 0.0, y0), np.where(free, 0.0, y1)
    lo, hi, n_completions = _extreme_sums(y0, y1, monotone=True)
    return Enumeration(lo=Fraction(lo, frame.n_units), hi=Fraction(hi, frame.n_units),
                       n_completions=n_completions)


def enumerate_box(rates: EmpiricalRates, probs: DesignProbs, box1, box0,
                  framework: str = "full") -> Enumeration:
    """Exact PATE range when the four non-sampled cell means E(Y(a)|W=w, Z=0)
    range over ``(lo, hi)`` boxes, ``box1`` for a=1 and ``box0`` for a=0; the
    reduced framework pins E(Y(0)|W=0, Z=0) at the business-as-usual mean.
    The PATE is linear in the cell means, so a sweep of the box corners is
    exhaustive.  It is the oracle side of ``bounds._split_mass``."""
    check_framework(framework)
    if framework == "reduced" and rates.e_y0_w0z0 is None:
        raise MissingPopulationOutcome()
    box00 = box0 if framework == "full" else (rates.e_y0_w0z0,)
    sample_part = (rates.e_y1_w1z1 - rates.e_y0_w0z1) * probs.p_z1
    p1, p0 = probs.p_w1_z0, probs.p_w0_z0
    values = [sample_part + (y1_w1 - y0_w1) * p1 + (y1_w0 - y0_w0) * p0
              for y1_w1, y1_w0, y0_w1, y0_w0 in itertools.product(box1, box1, box0, box00)]
    return Enumeration(lo=min(values), hi=max(values), n_completions=len(values))


def enumerate_bsv(rates: EmpiricalRates, probs: DesignProbs, lam,
                  framework: str = "full") -> Enumeration:
    """Exact PATE range when each non-sampled cell mean lies within lam of its
    sample arm mean and inside the binary support [0, 1]: ``enumerate_box``
    over the clipped lam bands."""
    if lam < 0:
        raise NegativeLambda(lam)

    def band(center):
        return max(0, center - lam), min(1, center + lam)

    return enumerate_box(rates, probs, band(rates.e_y1_w1z1), band(rates.e_y0_w0z1), framework)
