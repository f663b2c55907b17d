"""Data-driven choices of the bounded-variation tolerance lambda.

Two rules plus a fixed value: covariate balance (ASMD, optionally aggregated
over several covariates) and a margin-of-error style multiple of the sample
outcome standard deviation (pooled or the more conservative per-arm maximum).
ASMD values above one are returned as-is; the bounds engine's improvement flag
reports when such a lambda buys nothing over the worst case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, EmptySample, NegativeLambda, UnknownCovariate
from .frame import StudyFrame, tallies
from .propensity import BalanceRow

ASMD_AGGREGATES = ("max", "mean", "single")
ARM_RULES = ("pooled", "max_arm")


@dataclass(frozen=True)
class LambdaSpec:
    mode: str  # "fixed" | "asmd" | "outcome_sd"
    value: float | None = None
    covariates: tuple[str, ...] = ()
    aggregate: str = "max"
    multiplier: float = 2.0
    arm_rule: str = "pooled"

    def __post_init__(self):
        if self.mode == "fixed":
            if self.value is None:
                raise ConfigError("fixed lambda needs a value")
            if not math.isfinite(self.value):
                raise ConfigError(f"lambda must be finite, got {self.value}")
            if self.value < 0:
                raise NegativeLambda(self.value)
        elif self.mode == "asmd":
            if self.aggregate not in ASMD_AGGREGATES:
                raise ConfigError(f"aggregate must be one of {ASMD_AGGREGATES}")
            if self.aggregate == "single" and len(self.covariates) != 1:
                raise ConfigError("aggregate 'single' needs exactly one covariate")
        elif self.mode == "outcome_sd":
            if self.arm_rule not in ARM_RULES:
                raise ConfigError(f"arm_rule must be one of {ARM_RULES}")
            if not math.isfinite(self.multiplier):
                raise ConfigError(f"lambda multiplier must be finite, got {self.multiplier}")
            if self.multiplier < 0:
                raise NegativeLambda(self.multiplier)
        else:
            raise ConfigError(f"unknown lambda mode {self.mode!r}")

    def label(self) -> str:
        if self.mode == "fixed":
            return f"fixed:{_text(self.value)}"
        if self.mode == "asmd":
            if self.covariates:
                return f"asmd:{self.aggregate}:{','.join(self.covariates)}"
            return f"asmd:{self.aggregate}"
        multiplier = "" if self.multiplier == 2 else f":{_text(self.multiplier)}"
        return f"sd:{self.arm_rule}{multiplier}"


def _text(number: float) -> str:
    """``number`` in ``:g`` form when that parses back to it, else its ``repr``."""
    text = f"{number:g}"
    return text if float(text) == number else repr(number)


def resolve_lambda(spec: LambdaSpec, frame: StudyFrame,
                   balance: tuple[BalanceRow, ...] | None) -> float:
    """Turn a lambda rule into a number for the BSV bounds; only an asmd rule
    reads ``balance``, the rows ``compute_balance`` returns."""
    if spec.mode == "fixed":
        return float(spec.value)
    if spec.mode == "asmd":
        asmds = {row.covariate: row.asmd for row in balance}
        names = spec.covariates or tuple(asmds)
        if not names:
            raise ConfigError("asmd lambda rule needs at least one covariate")
        for name in names:
            if name not in asmds:
                raise UnknownCovariate(name, asmds)
        values = [asmds[name] for name in names]
        if spec.aggregate == "mean":
            return sum(values) / len(values)
        if spec.aggregate == "single":
            return values[0]
        return max(values)
    t = tallies(frame)  # the outcome-SD rules: plug-in variances of the sample
    n_sample = t.treated[0] + t.control[0]
    if not n_sample:
        raise EmptySample()
    if spec.arm_rule == "pooled":
        return spec.multiplier * math.sqrt(t.ss_sampled[0] / n_sample)
    arms = ((t.ss_control[0], t.control[0]), (t.ss_treated[0], t.treated[0]))
    return spec.multiplier * math.sqrt(max(ss / n for ss, n in arms if n))


def lambda_report(frame: StudyFrame, balance: tuple[BalanceRow, ...]) -> list[dict]:
    """All rule outputs side by side, each resolved as ``--lambda`` resolves
    it: one row per covariate ASMD, the mean and max aggregates (when there
    are covariates), and the pooled / max-arm outcome-SD rules."""
    specs = [LambdaSpec(mode="asmd", aggregate="single", covariates=(row.covariate,))
             for row in balance]
    if balance:
        specs += [LambdaSpec(mode="asmd", aggregate=aggregate) for aggregate in ("mean", "max")]
    specs += [LambdaSpec(mode="outcome_sd", arm_rule=arm_rule) for arm_rule in ARM_RULES]
    return [{"rule": spec.label(), "value": resolve_lambda(spec, frame, balance)}
            for spec in specs]


def parse_lambda_expr(expr: str) -> LambdaSpec:
    """Parse a CLI lambda expression.

    Accepted forms: a number or ``fixed:NUMBER``, ``asmd:AGG[:cov1,cov2]``,
    ``sd:pooled``, ``sd:max_arm`` (optionally ``sd:RULE:MULTIPLIER``).  Every
    ``LambdaSpec.label()`` is one of them.
    """
    expr = expr.strip()
    parts = expr.split(":")
    if parts[0] in ("asmd", "sd") and len(parts) > 3:
        raise ConfigError(f"bad lambda expression {expr!r}: more than three ':' fields")
    if parts[0] == "asmd":
        if len(parts) < 2:
            raise ConfigError(f"bad lambda expression {expr!r}: asmd needs an aggregate")
        covs = tuple(c for c in parts[2].split(",") if c) if len(parts) > 2 else ()
        return LambdaSpec(mode="asmd", aggregate=parts[1], covariates=covs)
    if parts[0] == "sd":
        if len(parts) < 2:
            raise ConfigError(f"bad lambda expression {expr!r}: sd needs an arm rule")
        multiplier = _number(expr, parts[2]) if len(parts) > 2 else 2.0
        return LambdaSpec(mode="outcome_sd", arm_rule=parts[1], multiplier=multiplier)
    if len(parts) == 1 or (parts[0] == "fixed" and len(parts) == 2):
        return LambdaSpec(mode="fixed", value=_number(expr, parts[-1]))
    raise ConfigError(f"bad lambda expression {expr!r}")


def _number(expr: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad lambda expression {expr!r}: {text!r} is not a number")
