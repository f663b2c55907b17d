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

All arithmetic is exact over integer counts, so equality against a closed
form evaluated on rational inputs is exact.  The mass-level oracle
``enumerate_box`` builds its cells (a mass and the ``(E Y(1), E Y(0))``
vertices of each group of units) from its own definition, apart from the
closed forms' cells, and ``sweep`` lists every choice of one vertex per cell.
It puts every term on one common denominator, so each choice's PATE is a sum
of integers; only the extremes become ``fractions.Fraction``s.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds
from .errors import MissingPopulationOutcome, NegativeLambda
from .frame import (
    BINARY,
    DesignProbs,
    EmpiricalRates,
    OutcomeSupport,
    StudyFrame,
    convert,
    design_probs,
    empirical_rates,
)

# integer endpoints keep Fraction arithmetic exact (float endpoints would not)
EXACT_BINARY = OutcomeSupport(0, 1)
VERIFY_LAMBDAS = (Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1))
_BINARY_VALUES = np.array([[0.0], [1.0]])  # (value, unit)
_EFFECT = np.array([[[0], [1]], [[-1], [0]]])  # y1 - y0 by (y0, y1, unit)


@functools.lru_cache(maxsize=1)  # ``checks`` asks for one frame's rates up to 7 times
def exact_rates(frame: StudyFrame) -> EmpiricalRates:
    """Arm means as exact fractions of integer counts.  It is every oracle's
    one precondition: it raises ``EmptyArm`` for a frame without a sampled
    unit in each arm, then ``NonBinaryOutcome`` for outcomes other than 0/1.
    The rates come from the frame's cached tallies, so keeping the last
    frame's rates adds no staleness; a raised error is not kept."""
    return empirical_rates(frame, Fraction)


def exact_design_probs(frame: StudyFrame, p_w0_given_z0: Fraction) -> DesignProbs:
    return design_probs(frame, p_w0_given_z0, Fraction)


def exact_inputs(frame: StudyFrame) -> tuple[EmpiricalRates, DesignProbs]:
    """Exact inputs of the information set the unit-level oracles describe:
    P(W=0|Z=0) is the share of z=0 units carrying a business-as-usual outcome,
    the mass ``enumerate_worst_case`` and ``enumerate_mtr`` pin in the reduced
    framework; 1/2 without one, where only the full framework applies and the
    split does not enter."""
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
    def may_be(y):  # (value, unit): whether the unit's outcome may take the value
        return np.isnan(y) | (y == _BINARY_VALUES)

    allowed = may_be(y0)[:, None] & may_be(y1)[None, :]  # (y0, y1, unit)
    if monotone:
        allowed[1, 0] = False
    repeats = np.bincount(allowed.sum(axis=(0, 1)))  # units by their number of allowed pairs
    n_completions = math.prod(k ** int(r) for k, r in enumerate(repeats))
    # a unit without an allowed pair adds 1 to the least sum and -1 to the greatest
    lo = np.where(allowed, _EFFECT, 1).min(axis=(0, 1)).sum()
    hi = np.where(allowed, _EFFECT, -1).max(axis=(0, 1)).sum()
    return int(lo), int(hi), n_completions


def enumerate_worst_case(frame: StudyFrame, framework: str = "full") -> Enumeration:
    """Exact PATE range over every completion consistent with the observations.

    Full framework: both potential outcomes of every z=0 unit are free in
    {0,1}.  Reduced framework: a z=0 unit carrying a business-as-usual outcome
    has its control potential outcome pinned to it.
    """
    rates = exact_rates(frame)
    bounds.check_framework(framework)
    z0 = frame.z == 0
    free = np.full(int(np.count_nonzero(z0)), np.nan)
    y0 = frame.y[z0] if framework == "reduced" else free
    lo, hi, n_completions = _extreme_sums(y0, free)
    fixed = frame.n_sample * rates.sate
    return Enumeration(lo=(fixed + lo) / frame.n_units, hi=(fixed + hi) / frame.n_units,
                       n_completions=n_completions)


def enumerate_mtr(
    frame: StudyFrame,
    framework: str = "full",
    pin_free_to_zero: bool = False,
) -> Enumeration:
    """Exact PATE range over monotone completions (treated outcome never below
    the control outcome for any unit).

    Sampled units have their observed potential outcome pinned.  Full
    framework: every z=0 unit is fully free.  Reduced framework: a z=0 unit
    carrying a business-as-usual outcome has its control potential outcome
    pinned to it, as in ``enumerate_worst_case``, and the others are fully
    free.  With ``pin_free_to_zero`` the fully free units are held at zero
    effect, which realizes the reporting convention behind the min variant of
    the closed form.
    """
    exact_rates(frame)  # the precondition; the bounds read the frame's columns
    bounds.check_framework(framework)
    y = frame.y
    y0 = np.where(frame.control, y, np.nan)
    y1 = np.where(frame.treated, y, np.nan)
    free = frame.z == 0
    if framework == "reduced":
        y0 = np.where(frame.z0_bearing, y, y0)
        free = free & ~frame.z0_bearing
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
    It builds the cells from that definition: the sampled one at the arm means,
    and one per arm W=w of z=0 units holding the corners of its (E Y(1), E Y(0))
    box, whatever the framework.  It is the oracle side of the closed forms'
    ``bounds.cell_extremes``, and does not share their cells."""
    bounds.check_framework(framework)
    if framework == "reduced" and rates.e_y0_w0z0 is None:
        raise MissingPopulationOutcome()
    box00 = box0 if framework == "full" else (rates.e_y0_w0z0,)
    return sweep([(probs.p_z1, [(rates.e_y1_w1z1, rates.e_y0_w0z1)]),
                  (probs.p_w1_z0, list(itertools.product(box1, box0))),
                  (probs.p_w0_z0, list(itertools.product(box1, box00)))])


def sweep(cells) -> Enumeration:
    """Exact PATE range over every choice of one vertex per cell, each cell a
    ``(mass, vertices)`` pair with ``(E Y(1), E Y(0))`` vertices.  Every term
    mass x (y1 - y0) goes on one common denominator, the least common multiple
    of the terms' denominators, so each choice's PATE is a sum of integers."""
    terms = [[_term(mass, y1, y0) for y1, y0 in vertices] for mass, vertices in cells]
    denominator = math.lcm(*(d for cell in terms for _, d in cell))
    sums = [0]
    for cell in terms:
        effects = [n * (denominator // d) for n, d in cell]
        sums = [s + effect for s in sums for effect in effects]
    return Enumeration(lo=Fraction(min(sums), denominator), hi=Fraction(max(sums), denominator),
                       n_completions=len(sums))


def _term(mass, y1, y0) -> tuple[int, int]:
    """``mass * (y1 - y0)`` as an unreduced (numerator, denominator) pair of ints."""
    try:
        return (mass.numerator * (y1.numerator * y0.denominator - y0.numerator * y1.denominator),
                mass.denominator * y1.denominator * y0.denominator)
    except AttributeError:  # a float has no numerator, and its sums would not be exact
        raise TypeError("exact oracle inputs are ints or Fractions, "
                        f"got {mass!r}, {y1!r} and {y0!r}") from None


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


def agrees(float_interval, exact_interval, enumeration: Enumeration) -> bool:
    """The pass rule of a check: before clamping, the exact interval equals the
    enumeration, and the float one lies within 1e-12 of it."""
    return (exact_interval.pre_clamp_lo == enumeration.lo
            and exact_interval.pre_clamp_hi == enumeration.hi
            and abs(float_interval.pre_clamp_lo - float(enumeration.lo)) <= 1e-12
            and abs(float_interval.pre_clamp_hi - float(enumeration.hi)) <= 1e-12)


def checks(frame: StudyFrame):
    """Yield (name, float interval, exact interval, enumeration) for each
    closed form ``bounds`` holds at the call, on the exact inputs of the
    information set the oracles describe and on those inputs rounded once."""
    rates, probs = exact_inputs(frame)
    rounded = convert(rates), convert(probs)
    # the reduced framework needs business-as-usual outcomes among z=0 units
    frameworks = ("full", "reduced") if rates.e_y0_w0z0 is not None else ("full",)
    for framework in frameworks:
        yield (f"worst_case {framework}", bounds.worst_case_bounds(*rounded, framework, BINARY),
               bounds.worst_case_bounds(rates, probs, framework, EXACT_BINARY),
               enumerate_worst_case(frame, framework))
    for lam in VERIFY_LAMBDAS:
        for framework in frameworks:
            yield (f"bsv {framework} lambda={lam}",
                   bounds.bsv_bounds(*rounded, framework, float(lam), BINARY,
                                     intersect_support=True),
                   bounds.bsv_bounds(rates, probs, framework, lam, EXACT_BINARY,
                                     intersect_support=True),
                   enumerate_bsv(rates, probs, lam, framework))
    for framework in frameworks:
        floats = bounds.mtr_bounds(*rounded, framework)
        exacts = bounds.mtr_bounds(rates, probs, framework)
        for i, variant in ((1, "max"), (0, "min")):  # mtr_bounds gives (min, max)
            yield (f"mtr {exacts[i].spec.scope} {variant}-variant", floats[i], exacts[i],
                   enumerate_mtr(frame, framework, pin_free_to_zero=variant == "min"))
