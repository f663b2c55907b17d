"""Partially identified and point estimates of population average treatment
effects when generalizing a randomized experiment to a self-selected
population."""

from .bounds import (
    BoundSpec,
    PateInterval,
    StratifiedBounds,
    bound_specs,
    bsv_bounds,
    bsv_improves,
    compute_bounds,
    mtr_bounds,
    stratified_bounds,
    worst_case_bounds,
)
from .frame import (
    BINARY,
    ColumnMap,
    DesignProbs,
    EmpiricalRates,
    OutcomeSupport,
    StudyFrame,
    design_probs,
    empirical_rates,
    load_frame,
    load_two_frames,
)
from .lambda_select import LambdaSpec, lambda_report, parse_lambda_expr, resolve_lambda
from .oracle import enumerate_bsv, enumerate_mtr, enumerate_worst_case
from .points import (
    BootstrapOptions,
    PointEstimate,
    ipw_estimate,
    naive_sate,
    subclass_estimate,
)
from .propensity import (
    BalanceReport,
    PropensityModel,
    asmd,
    compute_balance,
    fit_propensity,
    logit_scores,
    model_from_json,
    model_to_json,
    propensity_scores,
)
from .stratify import StratumAssignment, make_strata, strata_for_frame, stratum_frames

__version__ = "0.1.0"

__all__ = [
    "BINARY",
    "BalanceReport",
    "BootstrapOptions",
    "BoundSpec",
    "ColumnMap",
    "DesignProbs",
    "EmpiricalRates",
    "LambdaSpec",
    "OutcomeSupport",
    "PateInterval",
    "PointEstimate",
    "PropensityModel",
    "StratifiedBounds",
    "StratumAssignment",
    "StudyFrame",
    "asmd",
    "bound_specs",
    "bsv_bounds",
    "bsv_improves",
    "compute_balance",
    "compute_bounds",
    "design_probs",
    "empirical_rates",
    "enumerate_bsv",
    "enumerate_mtr",
    "enumerate_worst_case",
    "fit_propensity",
    "ipw_estimate",
    "lambda_report",
    "load_frame",
    "load_two_frames",
    "logit_scores",
    "make_strata",
    "model_from_json",
    "model_to_json",
    "mtr_bounds",
    "naive_sate",
    "parse_lambda_expr",
    "propensity_scores",
    "resolve_lambda",
    "strata_for_frame",
    "stratified_bounds",
    "stratum_frames",
    "subclass_estimate",
    "worst_case_bounds",
]
