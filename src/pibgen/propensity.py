"""Logistic sampling-propensity model and covariate balance diagnostics.

The model regresses the selection indicator z on covariates by Newton/IRLS
maximum likelihood.  Covariates are standardized internally for conditioning
and the coefficients are reported on the original scale.  Every evaluation of
the model (each Newton step, ``binomial_loglik``, ``binomial_score``) is one
``_logistic`` call.  Fitting is deterministic and the fitted model is immutable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    EmptySample,
    NoConvergence,
    Separation,
    SingularDesign,
    ZeroVariance,
)
from .frame import StudyFrame


_TOLERANCE = 1e-8
_MAX_ITER = 100


@dataclass(frozen=True)
class PropensityModel:
    intercept: float
    coefficients: dict  # covariate name -> original-scale coefficient
    converged: bool
    iterations: int
    final_gradient_norm: float
    loglik_trace: tuple[float, ...] = field(default=(), repr=False)


def _sigmoid(eta, tail=None):
    """1 / (1 + exp(-eta)), both branches over 1 + exp(-|eta|) (``tail``): no overflow."""
    if tail is None:
        tail = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, tail) / (1.0 + tail)


def _logistic(design, beta, z):
    """The model at ``beta``: the logits ``eta``, the probabilities ``mu`` and
    the Bernoulli log-likelihood of ``z``, from one exp(-|eta|).  The
    log-likelihood takes log(1 + e^eta) as max(eta, 0) + log1p(exp(-|eta|))."""
    eta = design @ beta
    tail = np.exp(-np.abs(eta))
    ll = float(np.sum(z * eta - np.maximum(eta, 0.0) - np.log1p(tail)))
    return eta, _sigmoid(eta, tail), ll


def binomial_loglik(beta, design, z) -> float:
    """Bernoulli log-likelihood of z given the design matrix."""
    return _logistic(design, beta, z)[2]


def binomial_score(beta, design, z) -> np.ndarray:
    """Gradient of ``binomial_loglik`` with respect to beta."""
    return design.T @ (z - _logistic(design, beta, z)[1])


def _standardized_design(frame: StudyFrame, covariates):
    design = np.ones((frame.n_units, 1 + len(covariates)))
    means, sds = [], []
    for j, name in enumerate(covariates, start=1):
        mean, sd = frame.covariate_moments(name)
        if sd == 0:
            raise SingularDesign(f"covariate {name!r} is constant")
        design[:, j] = (frame.covariate_column(name) - mean) / sd
        means.append(mean)
        sds.append(sd)
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise SingularDesign("collinear covariates")
    return design, np.array(means), np.array(sds)


def fit_propensity(frame: StudyFrame, covariates) -> PropensityModel:
    """Maximum-likelihood logistic fit of sample membership on covariates.

    Newton steps with step-halving keep the log-likelihood non-decreasing
    up to a slack of 1e-12·max(1, |ll|); convergence is declared when the max-norm of the gradient
    on the standardized scale falls to ``_TOLERANCE`` (1e-8), and
    ``NoConvergence`` is raised after ``_MAX_ITER`` (100) steps without it.
    """
    covariates = tuple(covariates)
    z = frame.z.astype(float)
    if not z.size:
        raise EmptySample()
    if z.min() == z.max():
        raise SingularDesign("selection indicator takes a single value")
    design, means, sds = _standardized_design(frame, covariates)
    beta = np.zeros(design.shape[1])
    eta, mu, ll = _logistic(design, beta, z)
    trace = [ll]
    # one gradient test per iterate; the one after _MAX_ITER steps is the last
    for iterations in itertools.count():
        grad = design.T @ (z - mu)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= _TOLERANCE:
            _check_saturation(beta, eta, mu, z, covariates)
            break
        if iterations >= _MAX_ITER:
            raise NoConvergence(_MAX_ITER, grad_norm)
        weights = mu * (1.0 - mu)
        hess = design.T @ (design * weights[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            _raise_separation(beta, covariates)
        # step-halving: never accept a decrease in the objective, up to a
        # slack relative to its size (an absolute one falls below one ulp of a
        # large-N log-likelihood and stalls the fit); when no halving passes,
        # the last, smallest step is taken untested
        slack = 1e-12 * max(1.0, abs(ll))
        for halvings in range(51):
            trial = beta + 0.5 ** halvings * step
            evaluated = _logistic(design, trial, z)
            if evaluated[2] >= ll - slack:
                break
        beta, (eta, mu, ll) = trial, evaluated
        trace.append(ll)
        if float(np.max(np.abs(beta))) > 30.0:
            # standardized coefficients this large mean the likelihood is
            # drifting to a perfect-separation boundary
            _raise_separation(beta, covariates)

    # back-transform to the original covariate scale
    coef_std = beta[1:]
    intercept = float(beta[0] - np.sum(coef_std * means / sds))
    return PropensityModel(
        intercept=intercept,
        coefficients={name: float(b) for name, b in zip(covariates, coef_std / sds)},
        converged=True,
        iterations=iterations,
        final_gradient_norm=grad_norm,
        loglik_trace=tuple(trace),
    )


def _check_saturation(beta, eta, mu, z, covariates):
    """Complete separation drives the gradient to zero with the fit saturated at
    the labels; a converged fit that classifies every unit perfectly is one."""
    margins = (2 * z - 1) * eta
    if len(beta) > 1 and float(margins.min()) > 0 and float(np.max(np.abs(z - mu))) < 1e-4:
        _raise_separation(beta, covariates)


def _raise_separation(beta, covariates):
    norm = float(np.linalg.norm(beta))
    direction = beta / norm if norm > 0 else beta
    names = ["intercept", *covariates]
    raise Separation({name: round(float(v), 4) for name, v in zip(names, direction)})


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or NaN: check_finite reports it
def logit_scores(model: PropensityModel, frame: StudyFrame) -> np.ndarray:
    """Propensity logit of each row: the intercept plus the covariate terms,
    added one coefficient at a time in the model's order."""
    columns = [(b, frame.covariate_column(name)) for name, b in model.coefficients.items()]
    eta = np.full(frame.n_units, float(model.intercept))
    for b, column in columns:
        eta += b * column
    return eta


def propensity_scores(model: PropensityModel, frame: StudyFrame) -> np.ndarray:
    """Fitted selection probability of each row."""
    return _sigmoid(logit_scores(model, frame))


# --- balance diagnostics -------------------------------------------------------


@dataclass(frozen=True)
class BalanceRow:
    covariate: str
    sample_mean: float
    population_mean: float
    population_sd: float
    asmd: float


def _balance_row(frame: StudyFrame, covariate: str) -> BalanceRow:
    col = frame.covariate_column(covariate)
    sample = col[frame.z == 1]
    if len(sample) == 0:  # before any moment: an empty column has none
        raise EmptySample()
    population_mean, sigma = frame.covariate_moments(covariate)
    if sigma == 0:
        raise ZeroVariance(f"covariate {covariate!r}")
    sample_mean = sample.mean()
    return BalanceRow(
        covariate=covariate,
        sample_mean=float(sample_mean),
        population_mean=float(population_mean),
        population_sd=float(sigma),
        asmd=float(abs(population_mean - sample_mean) / sigma),
    )


def compute_balance(frame: StudyFrame, covariates=None) -> tuple[BalanceRow, ...]:
    """One row per covariate (default: the frame's), in order.  Its ``asmd`` is
    |population mean - sample mean| / population SD: the population moments run
    over all N units (denominator-N SD), the sample mean over the z=1 units."""
    names = tuple(covariates) if covariates is not None else frame.covariate_names
    return tuple(_balance_row(frame, name) for name in names)


# --- model files ---------------------------------------------------------------


# a model file's fields: the ``propensity`` command writes them, ``--model`` reads them
MODEL_FIELDS = ("intercept", "coefficients", "converged", "iterations")


def model_from_json(text: str) -> PropensityModel:
    """The model a model file holds.  Each of its ``MODEL_FIELDS`` must have its
    JSON type: a number for the intercept and each coefficient, true or false
    for ``converged``, and a non-negative integer for ``iterations``."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc["coefficients"], dict):
        raise TypeError("the model and its 'coefficients' must be JSON objects")
    if not isinstance(doc["converged"], bool):
        raise TypeError(f"'converged' must be true or false, got {doc['converged']!r}")
    iterations = doc["iterations"]
    if type(iterations) is not int or iterations < 0:  # JSON true and false are bools
        raise TypeError(f"'iterations' must be a non-negative integer, got {iterations!r}")
    for name, value in [("intercept", doc["intercept"]), *doc["coefficients"].items()]:
        if type(value) not in (int, float):
            raise TypeError(f"{name!r} must be a number, got {value!r}")
    intercept = float(doc["intercept"])
    coefficients = {k: float(v) for k, v in doc["coefficients"].items()}
    if not np.all(np.isfinite([intercept, *coefficients.values()])):
        raise ConfigError("model file has a non-finite intercept or coefficient")
    return PropensityModel(
        intercept=intercept,
        coefficients=coefficients,
        converged=doc["converged"],
        iterations=iterations,
        final_gradient_norm=float("nan"),
    )
