"""Brute-force verifiers for the closed-form bounds on small binary frames.

Every unobserved potential outcome of a non-sampled unit is a free slot; a
completion assigns each slot a value consistent with everything observed.  The
verifiers materialize every completion, score the implied PATE of each, and
return the exact min/max as rationals.  Randomization identifies both sampled
arm means, so sampled units enter through those means and the free slots all
belong to z=0 units.

All arithmetic is ``fractions.Fraction`` over integer counts, so equality
against a closed form evaluated on rational inputs is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    MissingPopulationOutcome,
    NegativeLambda,
    NonBinaryOutcome,
    ObservedViolation,
    TooLarge,
)
from .frame import (
    DesignProbs,
    EmpiricalRates,
    OutcomeSupport,
    StudyFrame,
    design_probs,
    empirical_rates,
)

MAX_UNITS = 12
MAX_FREE_SLOTS = 24

# integer endpoints keep Fraction arithmetic exact (float endpoints would not)
EXACT_BINARY = OutcomeSupport(0, 1)


def exact_rates(frame: StudyFrame) -> EmpiricalRates:
    """Arm means as exact fractions of integer counts."""
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


def _require_small_binary(frame: StudyFrame):
    if not frame.is_binary:
        raise NonBinaryOutcome("enumeration oracles require a binary frame")
    if frame.n_units > MAX_UNITS:
        raise TooLarge(f"{frame.n_units} units > {MAX_UNITS}")
    if frame.n_sample == 0 or not frame.sample_outcomes(1) or not frame.sample_outcomes(0):
        raise DataError("enumeration needs at least one sampled unit in each arm")


def _product_sums(choice_lists) -> np.ndarray:
    """All completion sums: the outer sum over per-unit contribution choices."""
    slots = sum(np.log2(len(c)) for c in choice_lists)
    if slots > MAX_FREE_SLOTS:
        raise TooLarge(f"{slots:.0f} free potential-outcome slots > {MAX_FREE_SLOTS}")
    total = np.zeros(1, dtype=np.int16)
    for choices in choice_lists:
        arr = np.asarray(choices, dtype=np.int16)
        total = (total[:, None] + arr[None, :]).ravel()
    return total


@dataclass(frozen=True)
class Enumeration:
    lo: Fraction
    hi: Fraction
    n_completions: int


@dataclass(frozen=True)
class CompletionTable:
    """One fully resolved assignment of both potential outcomes to every unit."""

    pairs: dict  # unit id -> (y0, y1)
    taus: dict  # unit id -> y1 - y0
    implied_pate: Fraction


def resolve_completion(
    frame: StudyFrame,
    pairs: dict,
    *,
    require_monotone: bool = False,
    use_z0_outcomes: bool = True,
) -> CompletionTable:
    """Validate a hypothesized completion against the observations and score it.

    Every unit needs a (y0, y1) pair; sampled units' realized arms must match,
    and (unless ``use_z0_outcomes`` is off) a z=0 unit's business-as-usual
    outcome pins its y0.  With ``require_monotone`` a pair with y1 < y0 raises
    ObservedViolation.
    """
    taus = {}
    total = Fraction(0)
    for u in frame.units:
        if u.id not in pairs:
            raise DataError(f"completion is missing unit {u.id!r}")
        y0, y1 = pairs[u.id]
        if require_monotone and y1 < y0:
            raise ObservedViolation(u.id, y0, y1)
        if u.z == 1 and u.w == 1 and y1 != u.y:
            raise DataError(f"completion contradicts unit {u.id!r}: observed y(1)={u.y}")
        if u.z == 1 and u.w == 0 and y0 != u.y:
            raise DataError(f"completion contradicts unit {u.id!r}: observed y(0)={u.y}")
        if use_z0_outcomes and u.z == 0 and u.y is not None and y0 != u.y:
            raise DataError(
                f"completion contradicts unit {u.id!r}: business-as-usual y(0)={u.y}"
            )
        taus[u.id] = y1 - y0
        total += Fraction(y1 - y0)
    return CompletionTable(
        pairs=dict(pairs),
        taus=taus,
        implied_pate=total / frame.n_units,
    )


def _fixed_sample_part(frame: StudyFrame) -> Fraction:
    rates = exact_rates(frame)
    return frame.n_sample * (rates.e_y1_w1z1 - rates.e_y0_w0z1)


def enumerate_worst_case(frame: StudyFrame, framework: str = "full") -> Enumeration:
    """Exact PATE range over every completion consistent with the observations.

    Full framework: both potential outcomes of every z=0 unit are free in
    {0,1}.  Reduced framework: a z=0 unit carrying a business-as-usual outcome
    has its control potential outcome pinned to it.
    """
    _require_small_binary(frame)
    if framework not in ("full", "reduced"):
        raise ConfigError(f"framework must be 'full' or 'reduced', got {framework!r}")
    choice_lists = []
    for u in frame.z0_units():
        if framework == "reduced" and u.y is not None:
            y0 = int(u.y)
            choice_lists.append([y1 - y0 for y1 in (0, 1)])
        else:
            choice_lists.append([y1 - y0 for y0 in (0, 1) for y1 in (0, 1)])
    sums = _product_sums(choice_lists)
    fixed = _fixed_sample_part(frame)
    n_total = frame.n_units
    return Enumeration(
        lo=(fixed + int(sums.min())) / n_total,
        hi=(fixed + int(sums.max())) / n_total,
        n_completions=int(sums.size),
    )


def _mtr_pair_choices(y0_options, y1_options):
    return [(y0, y1) for y0 in y0_options for y1 in y1_options if y1 >= y0]


def enumerate_mtr(
    frame: StudyFrame,
    scope: str = "sample",
    known_pairs: dict | None = None,
    pin_free_to_zero: bool = False,
) -> Enumeration:
    """Exact PATE range over monotone completions (treated outcome never below
    the control outcome for any unit).

    Population scope consumes the hypothetical arm labels on z=0 units: a
    control-labeled unit must carry its business-as-usual outcome, which pins
    its control potential outcome; a treated-labeled unit is fully free.  With
    ``pin_free_to_zero`` the fully free units are held at zero effect, which
    realizes the reporting convention behind the min variant of the closed
    form.  ``known_pairs`` pins complete (y0, y1) pairs by unit id; a pinned
    pair with y1 < y0 is an observable contradiction of monotonicity.
    """
    _require_small_binary(frame)
    if scope not in ("sample", "population"):
        raise ConfigError(f"scope must be 'sample' or 'population', got {scope!r}")
    known_pairs = known_pairs or {}
    choice_lists = []
    for u in frame.units:
        if u.id in known_pairs:
            y0, y1 = known_pairs[u.id]
            if y1 < y0:
                raise ObservedViolation(u.id, y0, y1)
            observed_y0 = u.y if (u.z == 1 and u.w == 0) else None
            observed_y1 = u.y if (u.z == 1 and u.w == 1) else None
            if u.z == 0 and scope == "population" and u.w == 0:
                observed_y0 = u.y
            if observed_y1 is not None and y1 != observed_y1:
                raise ConfigError(f"pinned pair for {u.id!r} contradicts its observed outcome")
            if observed_y0 is not None and y0 != observed_y0:
                raise ConfigError(f"pinned pair for {u.id!r} contradicts its observed outcome")
            choice_lists.append([y1 - y0])
            continue
        if u.z == 1:
            if u.w == 1:
                pairs = _mtr_pair_choices((0, 1), (int(u.y),))
            else:
                pairs = _mtr_pair_choices((int(u.y),), (0, 1))
        elif scope == "sample":
            pairs = [(0, 0)] if pin_free_to_zero else _mtr_pair_choices((0, 1), (0, 1))
        else:
            if u.w is None:
                raise DataError(
                    f"population-scope enumeration needs an arm label for z=0 unit {u.id!r}"
                )
            if u.w == 0:
                if u.y is None:
                    raise MissingPopulationOutcome(
                        f"z=0 unit {u.id!r} labeled control"
                    )
                pairs = _mtr_pair_choices((int(u.y),), (0, 1))
            else:
                # treated-labeled, nothing observed about its counterfactuals
                pairs = [(0, 0)] if pin_free_to_zero else _mtr_pair_choices((0, 1), (0, 1))
        choice_lists.append([y1 - y0 for y0, y1 in pairs])
    sums = _product_sums(choice_lists)
    n_total = frame.n_units
    return Enumeration(
        lo=Fraction(int(sums.min()), n_total),
        hi=Fraction(int(sums.max()), n_total),
        n_completions=int(sums.size),
    )


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
