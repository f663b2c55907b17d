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

Worst case and BSV share one split-mass formula (``_split_mass``):
randomization fixes the sampled part of each potential-outcome mean, and the
non-sampled means range over a box, the support for the worst case and the
``lam`` band around the arm means for BSV.

All arithmetic is plain Python (+, -, *, min, max) so the functions evaluate
exactly on ``fractions.Fraction`` inputs; the enumeration oracles rely on that.
Final intervals are clamped to the logically feasible range
``[y_lo - y_hi, y_hi - y_lo]`` with flags, and the unclamped values are kept
for the width identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    ConfigError,
    MissingPopulationOutcome,
    NegativeLambda,
    NonBinaryOutcome,
)
from .frame import DesignProbs, EmpiricalRates, OutcomeSupport, StudyFrame
from .frame import design_probs, empirical_rates  # noqa: F401 (perfbench/tracing.py wraps them)

FRAMEWORKS = ("full", "reduced")
ASSUMPTIONS = ("worst_case", "bsv", "mtr")
MTR_SCOPES = ("sample", "population")
SPEC_TAGS = ("assumption", "framework", "lam", "variant", "scope")  # what a pooled interval copies


@dataclass(frozen=True)
class PateInterval:
    lo: float
    hi: float
    pre_clamp_lo: float
    pre_clamp_hi: float
    clamped_lo: bool
    clamped_hi: bool
    assumption: str
    framework: str
    lam: float | None = None
    variant: str | None = None
    scope: str | None = None
    improves: bool | None = None
    inputs: dict = field(default_factory=dict)

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def pre_clamp_width(self):
        return self.pre_clamp_hi - self.pre_clamp_lo

    def to_json(self) -> dict:
        doc = {
            "assumption": self.assumption,
            "framework": self.framework,
            "lo": float(self.lo),
            "hi": float(self.hi),
            "clamped": {"lo": self.clamped_lo, "hi": self.clamped_hi},
            "pre_clamp": {"lo": float(self.pre_clamp_lo), "hi": float(self.pre_clamp_hi)},
            "inputs": self.inputs,
        }
        if self.lam is not None:
            doc["lambda"] = float(self.lam)
        if self.variant is not None:
            doc["variant"] = self.variant
        if self.scope is not None:
            doc["scope"] = self.scope
        if self.improves is not None:
            doc["improves"] = self.improves
        return doc


def _snapshot(rates: EmpiricalRates, probs: DesignProbs, support: OutcomeSupport) -> dict:
    return {
        "e_y1_w1z1": float(rates.e_y1_w1z1),
        "e_y0_w0z1": float(rates.e_y0_w0z1),
        "e_y0_w0z0": None if rates.e_y0_w0z0 is None else float(rates.e_y0_w0z0),
        "p_z1": float(probs.p_z1),
        "p_w1_given_z1": float(probs.p_w1_given_z1),
        "p_w0_given_z0": float(probs.p_w0_given_z0),
        "support": [float(support.y_lo), float(support.y_hi)],
    }


def _clamp(lo, hi, support: OutcomeSupport, **tags) -> PateInterval:
    floor = support.y_lo - support.y_hi
    ceil = support.y_hi - support.y_lo
    lo_c = max(lo, floor)
    hi_c = min(hi, ceil)
    return PateInterval(
        lo=lo_c,
        hi=hi_c,
        pre_clamp_lo=lo,
        pre_clamp_hi=hi,
        clamped_lo=lo_c != lo,
        clamped_hi=hi_c != hi,
        **tags,
    )


def check_framework(framework):
    if framework not in FRAMEWORKS:
        raise ConfigError(f"framework must be one of {FRAMEWORKS}, got {framework!r}")


def check_scope(scope):
    if scope not in MTR_SCOPES:
        raise ConfigError(f"scope must be one of {MTR_SCOPES}, got {scope!r}")


def _split_mass(rates: EmpiricalRates, probs: DesignProbs, framework: str,
                box1, box0, support: OutcomeSupport, **tags) -> PateInterval:
    """The interval when each non-sampled potential-outcome mean ranges over a
    box: ``box1`` for E(Y(1)|Z=0) and ``box0`` for E(Y(0)|Z=0), each a
    ``(lo, hi)`` pair.

    Randomization identifies the sampled part of each mean by its arm mean, so
    each mean is that part on the mass P(Z=1) plus the box on the non-sampled
    mass.  The reduced framework pins the control mean on the mass
    P(W=0, Z=0) at the observed business-as-usual rate and bounds only the
    remainder, P(W=1, Z=0).
    """
    check_framework(framework)
    e1, e0 = rates.e_y1_w1z1, rates.e_y0_w0z1
    e1_lo = e1 * probs.p_z1 + box1[0] * probs.p_z0
    e1_hi = e1 * probs.p_z1 + box1[1] * probs.p_z0
    if framework == "full":
        e0_lo = e0 * probs.p_z1 + box0[0] * probs.p_z0
        e0_hi = e0 * probs.p_z1 + box0[1] * probs.p_z0
    else:
        if rates.e_y0_w0z0 is None:
            raise MissingPopulationOutcome()
        pinned = rates.e_y0_w0z0 * probs.p_w0_z0
        e0_lo = e0 * probs.p_z1 + pinned + box0[0] * probs.p_w1_z0
        e0_hi = e0 * probs.p_z1 + pinned + box0[1] * probs.p_w1_z0
    return _clamp(e1_lo - e0_hi, e1_hi - e0_lo, support, framework=framework,
                  inputs=_snapshot(rates, probs, support), **tags)


def worst_case_bounds(
    rates: EmpiricalRates,
    probs: DesignProbs,
    framework: str,
    support: OutcomeSupport,
) -> PateInterval:
    """Bounds with no assumption beyond treatment randomization: both
    non-sampled means range over the whole outcome support.  (BSV at
    lam = y_hi - y_lo gives the same box exactly on fractions, but in float
    the clipped ``e - lam`` can miss a support end by an ulp.)"""
    ends = (support.y_lo, support.y_hi)
    return _split_mass(rates, probs, framework, ends, ends, support, assumption="worst_case")


def bsv_improves(rates: EmpiricalRates, lam, support: OutcomeSupport) -> bool:
    """The paper's no-clip condition: the observed arm-mean difference ``d``
    shifted by 2*lam stays strictly inside ``±(y_hi - y_lo)`` on both sides.

    It does not test sharpness: an arm mean shifted by lam can still leave the
    support, and then the reported interval is wider than the sharp one.  On
    the bundled data both lam = 0.3 intervals pass and neither is sharp."""
    if lam < 0:
        raise NegativeLambda(lam)
    d = rates.sate
    rng = support.y_hi - support.y_lo
    return (d + 2 * lam < rng) and (d - 2 * lam > -rng)


def bsv_bounds(
    rates: EmpiricalRates,
    probs: DesignProbs,
    framework: str,
    lam,
    support: OutcomeSupport,
    *,
    intersect_support: bool = False,
) -> PateInterval:
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
        ends = (e - lam, e + lam)
        if intersect_support:
            ends = tuple(min(support.y_hi, max(support.y_lo, v)) for v in ends)
        return ends

    return _split_mass(rates, probs, framework, band(rates.e_y1_w1z1), band(rates.e_y0_w0z1),
                       support, assumption="bsv", lam=lam, improves=improves)


def mtr_bounds(rates: EmpiricalRates, probs: DesignProbs,
               scope: str = "sample") -> tuple[PateInterval, PateInterval]:
    """Bounds assuming outcomes never decrease under treatment (binary only).

    The lower bound is 0 by assumption.  The upper bound counts the mass that
    could still move: sampled control fails and sampled treated passes, plus,
    in population scope, business-as-usual fails among non-sampled control-arm
    mass.  On 0/1 outcomes a pass rate is the arm mean and a fail rate is one
    minus it.  The unobservable non-sampled treated-arm contribution is set to 0
    in the min variant and to its full mass in the max variant; the result is
    the ``(min, max)`` pair, each interval tagged by its ``variant``.
    """
    check_scope(scope)
    if not rates.binary:
        raise NonBinaryOutcome("monotone-response bounds need binary pass/fail rates")
    support = OutcomeSupport(0, 1)  # integer endpoints stay exact under Fraction inputs
    sample_part = (1 - rates.e_y0_w0z1) * probs.p_w0_z1 + rates.e_y1_w1z1 * probs.p_w1_z1
    if scope == "sample":
        min_hi = sample_part
        max_hi = sample_part + probs.p_z0
    else:
        if rates.e_y0_w0z0 is None:
            raise MissingPopulationOutcome("the population-scope monotone bound")
        min_hi = sample_part + (1 - rates.e_y0_w0z0) * probs.p_w0_z0
        max_hi = min_hi + probs.p_w1_z0
    framework = "full" if scope == "sample" else "reduced"
    zero = 0 * min_hi  # exact zero of whatever numeric type flows through
    common = dict(
        assumption="mtr",
        framework=framework,
        scope=scope,
        inputs=_snapshot(rates, probs, support),
    )
    return (
        _clamp(zero, min_hi, support, variant="min", **common),
        _clamp(zero, max_hi, support, variant="max", **common),
    )


# --- bound specifications --------------------------------------------------------


@dataclass(frozen=True)
class BoundSpec:
    """One cell of the report grid: an assumption in a framework, with its
    lambda for BSV.  MTR runs in sample scope in the full framework and in
    population scope in the reduced one."""

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
    return mtr_bounds(rates, probs, spec.scope)


# --- per-stratum evaluation ----------------------------------------------------


@dataclass(frozen=True)
class StratumBounds:
    index: int
    n_population: int
    n_sample_treated: int
    n_sample_control: int
    viable: bool
    results: tuple[PateInterval, ...] = ()
    skip_reason: str | None = None

    def to_json(self) -> dict:
        return {
            "stratum": self.index,
            "n_population": self.n_population,
            "n_sample_treated": self.n_sample_treated,
            "n_sample_control": self.n_sample_control,
            "viable": self.viable,
            "results": [r.to_json() for r in self.results] if self.viable else None,
            "skip_reason": self.skip_reason,
        }


@dataclass(frozen=True)
class StratifiedBounds:
    strata: tuple[StratumBounds, ...]
    pooled: tuple[PateInterval, ...] = ()


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
    PATE range when randomization identifies each stratum's arm means.
    """
    t = assignment.tallies
    per_stratum = []
    per_spec = [[] for _ in specs]  # (population share, intervals) per stratum
    for g in range(assignment.k):
        results = []
        if t.viable(g):
            s_rates = t.empirical_rates(g)
            s_probs = t.design_probs(g, p_w0_given_z0)
            for i, spec in enumerate(specs):
                try:
                    intervals = compute_bounds(spec, s_rates, s_probs, frame.support)
                except MissingPopulationOutcome:
                    continue
                per_spec[i].append((t.units[g] / frame.n_units, intervals))
                results.extend(intervals)
            reason = None if results else "no business-as-usual outcomes among its z=0 units"
        else:
            reason = ("no sampled treated unit" if t.treated[g] == 0
                      else "no sampled control unit")
        per_stratum.append(StratumBounds(g + 1, t.units[g], t.treated[g], t.control[g],
                                         viable=reason is None, results=tuple(results),
                                         skip_reason=reason))
    complete = [pieces for pieces in per_spec if pooled and pieces and len(pieces) == assignment.k]
    pooled_results = [interval for pieces in complete for interval in _pool(pieces, frame.support)]
    return StratifiedBounds(strata=tuple(per_stratum), pooled=tuple(pooled_results))


def _pool(pieces, support) -> list[PateInterval]:
    """Population-share weighted endpoints, interval by interval across strata."""
    pooled = []
    for j, first in enumerate(pieces[0][1]):
        lo = sum(share * intervals[j].pre_clamp_lo for share, intervals in pieces)
        hi = sum(share * intervals[j].pre_clamp_hi for share, intervals in pieces)
        tags = {tag: getattr(first, tag) for tag in SPEC_TAGS}
        pooled.append(_clamp(lo, hi, support, inputs={"pooled": True, "strata": len(pieces)},
                             **tags))
    return pooled
