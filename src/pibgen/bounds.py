"""Interval estimates of the population average treatment effect (PATE).

Three assumption regimes are supported, each in a full-interval form (only the
experimental sample is informative) and a reduced-interval form (the population
frame additionally identifies the business-as-usual control mean among
non-sampled units):

* worst case: unknown expectations among non-sampled units are replaced by the
  outcome support endpoints;
* bounded sample variation (BSV): non-sampled expectations differ from the
  observed sample arm means by at most ``lam``;
* monotone treatment response (MTR): every unit's treated outcome is at least
  its control outcome, so the lower bound is 0 (binary outcomes only).

Every regime is a list of cells, groups of units each with a mass and the
``(E Y(1), E Y(0))`` vertices of the set its means may take, and one rule
(``cell_extremes``) sums each cell's mass times the least and greatest
y1 - y0 over its vertices.  With randomization (worst case, BSV) the sampled
cell is the point of the arm means, and the non-sampled cells range over a
box: the support for the worst case, the ``lam`` band around the arm means
for BSV.

All arithmetic is plain Python (+, -, *, min, max) so the functions evaluate
exactly on ``fractions.Fraction`` inputs; the enumeration oracles rely on that.
The closed forms return bare intervals tagged with their ``BoundSpec``, clamped
to ``[y_lo - y_hi, y_hi - y_lo]`` beside the unclamped values the width
identities use.  This module writes no report data: ``cli`` builds each entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, MissingPopulationOutcome, NegativeLambda, NonBinaryOutcome
from .frame import DesignProbs, EmpiricalRates, OutcomeSupport, StudyFrame
from .frame import design_probs, empirical_rates  # noqa: F401 (perfbench/tracing.py wraps them)

FRAMEWORKS = ("full", "reduced")
ASSUMPTIONS = ("worst_case", "bsv", "mtr")


@dataclass(frozen=True)
class BoundSpec:
    """One cell of the report grid: an assumption in a framework, with its
    lambda for BSV.  ``scope`` is the label the report and ``verify`` give an
    MTR interval: "sample" in the full framework, "population" in the reduced."""

    assumption: str
    framework: str = "full"
    lam: float | None = None

    def __post_init__(self):
        if self.assumption not in ASSUMPTIONS:
            raise ConfigError(f"assumption must be one of {ASSUMPTIONS}, got {self.assumption!r}")
        check_framework(self.framework)
        if self.assumption == "bsv" and self.lam is None:
            raise ConfigError("bsv bounds need a lambda value")

    @property
    def scope(self) -> str:
        return "sample" if self.framework == "full" else "population"


@dataclass(frozen=True)
class PateInterval:
    """The interval one ``spec`` gives, clamped to the feasible range and before."""

    lo: float
    hi: float
    pre_clamp_lo: float
    pre_clamp_hi: float
    spec: BoundSpec
    variant: str | None = None  # MTR: "min" or "max"
    improves: bool | None = None  # BSV: the no-clip condition of ``bsv_improves``

    @property
    def clamped_lo(self) -> bool:
        return self.lo != self.pre_clamp_lo

    @property
    def clamped_hi(self) -> bool:
        return self.hi != self.pre_clamp_hi

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def pre_clamp_width(self):
        return self.pre_clamp_hi - self.pre_clamp_lo


def _clamp(lo, hi, support: OutcomeSupport, spec: BoundSpec, **tags) -> PateInterval:
    return PateInterval(max(lo, support.y_lo - support.y_hi), min(hi, support.y_hi - support.y_lo),
                        lo, hi, spec, **tags)


def check_framework(framework):
    if framework not in FRAMEWORKS:
        raise ConfigError(f"framework must be one of {FRAMEWORKS}, got {framework!r}")


def cell_extremes(cells):
    """The least and greatest PATE over the cells, each a ``(mass, vertices)``
    pair: its share of the population and the ``(E Y(1), E Y(0))`` vertices of
    the convex set its means may take.  The PATE sums mass x (y1 - y0), linear
    on each cell's set, so each extreme adds up the cells' own extreme vertices.
    """
    lo = hi = None  # the first cell starts each sum: 0 + x would cost a Fraction addition
    for mass, vertices in cells:
        effects = [y1 - y0 for y1, y0 in vertices]
        low = mass * min(effects)
        high = mass * max(effects) if len(effects) > 1 else low  # a point: one product
        lo, hi = (low, high) if lo is None else (lo + low, hi + high)
    return lo, hi


def _box_interval(rates: EmpiricalRates, probs: DesignProbs, spec: BoundSpec,
                  ends1, ends0, support: OutcomeSupport, **tags) -> PateInterval:
    """The interval when the non-sampled means E(Y(1)|Z=0) and E(Y(0)|Z=0)
    range over the ``(lo, hi)`` pairs ``ends1`` and ``ends0``.  Randomization
    puts the sampled cell, of mass P(Z=1), at the arm means.  The full
    framework has one non-sampled cell, of mass P(Z=0); the reduced one splits
    it by arm and pins E Y(0) of the W=0 cell at the business-as-usual rate."""
    box = [(y1, y0) for y1 in ends1 for y0 in ends0]
    cells = [(probs.p_z1, [(rates.e_y1_w1z1, rates.e_y0_w0z1)])]
    if spec.framework == "full":
        cells.append((probs.p_z0, box))
    else:
        if rates.e_y0_w0z0 is None:
            raise MissingPopulationOutcome()
        cells += [(probs.p_w1_z0, box), (probs.p_w0_z0, [(y1, rates.e_y0_w0z0) for y1 in ends1])]
    return _clamp(*cell_extremes(cells), support, spec, **tags)


def worst_case_bounds(rates: EmpiricalRates, probs: DesignProbs, framework: str,
                      support: OutcomeSupport) -> PateInterval:
    """Bounds with no assumption beyond treatment randomization: both
    non-sampled means range over the whole outcome support.  (BSV at
    lam = y_hi - y_lo gives the same box exactly on fractions, but in float
    the clipped ``e - lam`` can miss a support end by an ulp.)"""
    ends = (support.y_lo, support.y_hi)
    return _box_interval(rates, probs, BoundSpec("worst_case", framework), ends, ends, support)


def bsv_improves(rates: EmpiricalRates, lam, support: OutcomeSupport) -> bool:
    """The paper's no-clip condition: the observed arm-mean difference ``d``
    shifted by 2*lam stays strictly inside ``±(y_hi - y_lo)`` on both sides.

    It does not test sharpness: an arm mean shifted by lam can still leave the
    support, and then the reported interval is wider than the sharp one.  On
    the bundled data both lam = 0.3 intervals pass and neither is sharp."""
    if lam < 0:
        raise NegativeLambda(lam)
    d, shift = rates.sate, 2 * lam
    rng = support.y_hi - support.y_lo
    return (d + shift < rng) and (d - shift > -rng)


def bsv_bounds(rates: EmpiricalRates, probs: DesignProbs, framework: str, lam,
               support: OutcomeSupport, *, intersect_support: bool = False) -> PateInterval:
    """Bounds under bounded sample variation with tolerance ``lam``.

    Each non-sampled potential-outcome mean ranges over the band of width
    ``lam`` around its sample arm mean.  With ``intersect_support=True`` each
    band is first clipped to the outcome support, which yields the sharp
    interval the corner-enumeration oracle reproduces; the default leaves the
    raw arithmetic intact (so the 4*lam*P(Z=0) width identity holds pre-clamp)
    and only the final interval is clamped.
    """
    improves = bsv_improves(rates, lam, support)

    def band(e):
        lo, hi = e - lam, e + lam
        if intersect_support:
            y_lo, y_hi = support.y_lo, support.y_hi
            return min(y_hi, max(y_lo, lo)), min(y_hi, max(y_lo, hi))
        return lo, hi

    return _box_interval(rates, probs, BoundSpec("bsv", framework, lam), band(rates.e_y1_w1z1),
                         band(rates.e_y0_w0z1), support, improves=improves)


def mtr_bounds(rates: EmpiricalRates, probs: DesignProbs,
               framework: str = "full") -> tuple[PateInterval, PateInterval]:
    """Bounds assuming outcomes never decrease under treatment (binary only).

    The paper's form does not use randomization, so each sampled arm is a cell:
    treated, of mass P(W=1, Z=1), with E Y(1) = e1 and E Y(0) in [0, e1];
    control, of mass P(W=0, Z=1), with E Y(0) = e0 and E Y(1) in [e0, 1].  So
    the upper end can exceed the worst case's.  The reduced framework adds the
    cell of z=0 units that carry a business-as-usual outcome, of mass
    P(W=0, Z=0), with E Y(0) pinned at their mean.  The cell nothing is
    observed of (the z=0 units, or in the reduced framework those without an
    outcome) is the triangle 0 <= E Y(0) <= E Y(1) <= 1 in the max variant and
    the point (0, 0) in the min variant, which holds it at zero effect.
    Returns the ``(min, max)`` pair, each tagged by its ``variant``.
    """
    spec = BoundSpec("mtr", framework)
    if not rates.binary:
        raise NonBinaryOutcome("monotone-response bounds need binary pass/fail rates")
    support = OutcomeSupport(0, 1)  # integer endpoints stay exact under Fraction inputs
    e1, e0 = rates.e_y1_w1z1, rates.e_y0_w0z1
    cells = [(probs.p_w0_z1, [(e0, e0), (1, e0)]), (probs.p_w1_z1, [(e1, 0), (e1, e1)])]
    free = probs.p_z0
    if framework == "reduced":
        q0 = rates.e_y0_w0z0
        if q0 is None:
            raise MissingPopulationOutcome()
        cells.append((probs.p_w0_z0, [(q0, q0), (1, q0)]))
        free = probs.p_w1_z0
    lo, hi = cell_extremes(cells)  # the observed cells' part, shared by both variants

    def variant(name, vertices):
        free_lo, free_hi = cell_extremes([(free, vertices)])
        return _clamp(lo + free_lo, hi + free_hi, support, spec, variant=name)

    return variant("min", [(0, 0)]), variant("max", [(0, 0), (1, 0), (1, 1)])


# --- bound specifications --------------------------------------------------------


def bound_specs(assumptions, frameworks, lambdas=()) -> list[BoundSpec]:
    """Expand assumption x framework x lambda into specs, in report order:
    assumptions outermost, then frameworks, then lambdas (BSV only)."""
    return [
        BoundSpec(assumption, framework, lam)
        for assumption in assumptions
        for framework in frameworks
        # bsv without lambdas yields a lam=None spec, which BoundSpec rejects
        for lam in (lambdas if assumption == "bsv" else (None,)) or (None,)
    ]


def compute_bounds(spec: BoundSpec, rates: EmpiricalRates, probs: DesignProbs,
                   support: OutcomeSupport) -> tuple[PateInterval, ...]:
    """Evaluate one spec: one interval for worst case and BSV, the ``(min,
    max)`` variant pair for MTR."""
    if spec.assumption == "worst_case":
        return (worst_case_bounds(rates, probs, spec.framework, support),)
    if spec.assumption == "bsv":
        return (bsv_bounds(rates, probs, spec.framework, spec.lam, support),)
    return mtr_bounds(rates, probs, spec.framework)


# --- per-stratum evaluation ----------------------------------------------------


@dataclass(frozen=True)
class StratumBounds:
    """One stratum's intervals and their input set, or why it was skipped.
    Its counts are in the ``assignment.tallies`` the intervals came from."""

    results: tuple[PateInterval, ...]
    skip_reason: str | None
    rates: EmpiricalRates | None
    probs: DesignProbs | None

    @property
    def viable(self) -> bool:
        return self.skip_reason is None


@dataclass(frozen=True)
class StratifiedBounds:
    strata: tuple[StratumBounds, ...]
    pooled: tuple[PateInterval, ...] = ()
    # each spec with no pooled intervals, the first stratum (from 1) without its own, and why
    unpooled: tuple[tuple[BoundSpec, int, str], ...] = ()


def stratified_bounds(
    frame: StudyFrame,
    assignment,
    specs,
    *,
    p_w0_given_z0: float = 0.5,
    pooled: bool = False,
) -> StratifiedBounds:
    """Evaluate every bound spec inside each propensity stratum.

    Each stratum's rates and probabilities come from its tallies
    (``assignment.tallies``); the assumed P(W=0|Z=0) is inherited globally.
    Strata without a sampled treated or control unit are skipped and flagged.
    A spec that needs business-as-usual outcomes the stratum lacks is dropped
    from that stratum; a stratum where every spec is dropped is skipped.  The
    optional pooled intervals are the population-share weighted sums of the
    per-stratum endpoints, one set per spec that every stratum evaluated: the
    PATE range when randomization identifies each stratum's arm means.  Each
    other spec is ``unpooled``, with the first stratum that lacks it and why.
    """
    t = assignment.tallies
    per_stratum = []
    per_spec = [[] for _ in specs]  # (population share, intervals) per stratum
    lacking = {}  # spec index -> (stratum, reason) of the first stratum without it
    no_bau = "no business-as-usual outcomes among its z=0 units"
    for g in range(assignment.k):
        results, s_rates, s_probs = [], None, None
        if t.viable(g):
            s_rates, s_probs = t.empirical_rates(g), t.design_probs(g, p_w0_given_z0)
            for i, spec in enumerate(specs):
                try:
                    intervals = compute_bounds(spec, s_rates, s_probs, frame.support)
                except MissingPopulationOutcome:
                    lacking.setdefault(i, (g + 1, no_bau))
                    continue
                per_spec[i].append((t.units[g] / frame.n_units, intervals))
                results.extend(intervals)
            reason = None if results else no_bau
        else:
            reason = ("no sampled treated unit" if t.treated[g] == 0
                      else "no sampled control unit")
            for i in range(len(specs)):
                lacking.setdefault(i, (g + 1, reason))
        per_stratum.append(StratumBounds(tuple(results), reason, s_rates, s_probs))
    if not pooled:
        return StratifiedBounds(strata=tuple(per_stratum))
    pooled_results = [interval for i, pieces in enumerate(per_spec) if i not in lacking
                      for interval in _pool(pieces, frame.support)]
    unpooled = [(specs[i], *lacking[i]) for i in sorted(lacking)]
    return StratifiedBounds(tuple(per_stratum), tuple(pooled_results), tuple(unpooled))


def _pool(pieces, support) -> list[PateInterval]:
    """Population-share weighted endpoints, interval by interval across strata."""
    pooled = []
    for j, first in enumerate(pieces[0][1]):
        lo = sum(share * intervals[j].pre_clamp_lo for share, intervals in pieces)
        hi = sum(share * intervals[j].pre_clamp_hi for share, intervals in pieces)
        pooled.append(_clamp(lo, hi, support, first.spec, variant=first.variant))
    return pooled
