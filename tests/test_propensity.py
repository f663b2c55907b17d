"""Logistic selection model fitting and balance diagnostics."""

import importlib.util
import math
import pathlib
import warnings

import numpy as np
import pytest

from pibgen import propensity
from pibgen.errors import (
    NoConvergence,
    Separation,
    SingularDesign,
    UnknownCovariate,
    ZeroVariance,
)
from pibgen.frame import BINARY, StudyFrame, load_frame
from pibgen.propensity import (
    MODEL_FIELDS,
    binomial_loglik,
    binomial_score,
    compute_balance,
    fit_propensity,
    logit_scores,
    model_from_json,
    propensity_scores,
)
from pibgen.report import to_json


def frame_with_x(z_values, x_matrix, names):
    """Sampled units alternate treated/control with outcome 1; the rest carry
    neither an arm nor an outcome."""
    z = np.asarray(z_values)
    w = np.where(z == 1, (np.arange(len(z)) + 1) % 2, -1)
    y = np.where(z == 1, 1.0, np.nan)
    ids = [f"u{i}" for i in range(len(z))]
    return StudyFrame(ids, z, w, y, x_matrix, BINARY, names)


class TestFit:
    def test_intercept_only_equals_sample_fraction(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        model = fit_propensity(frame, [])
        expected = math.log((56 / 1029) / (1 - 56 / 1029))
        assert model.intercept == pytest.approx(expected, abs=1e-8)
        scores = propensity_scores(model, frame)
        assert all(s == pytest.approx(56 / 1029, abs=1e-10) for s in scores)

    def test_convergence_is_tested_once_after_the_last_step(self, statewide_path, monkeypatch):
        frame = load_frame(statewide_path, BINARY)
        model = fit_propensity(frame, frame.covariate_names)
        monkeypatch.setattr(propensity, "_MAX_ITER", model.iterations)
        exact = fit_propensity(frame, frame.covariate_names)
        assert (exact.intercept, exact.coefficients) == (model.intercept, model.coefficients)
        assert exact.iterations == model.iterations
        monkeypatch.setattr(propensity, "_MAX_ITER", model.iterations - 1)
        with pytest.raises(NoConvergence):
            fit_propensity(frame, frame.covariate_names)

    def test_mean_score_equals_sampling_rate(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        model = fit_propensity(frame, frame.covariate_names)
        scores = propensity_scores(model, frame)
        assert np.mean(scores) == pytest.approx(56 / 1029, abs=1e-10)

    def test_coefficient_recovery_monte_carlo(self):
        rng = np.random.default_rng(7)
        n = 50_000
        x1 = rng.normal(0.0, 1.0, n)
        p = 1 / (1 + np.exp(-(-3.0 + 1.2 * x1)))
        z = (rng.random(n) < p).astype(int)
        frame = StudyFrame([str(i) for i in range(n)], z, np.where(z == 1, np.arange(n) % 2, -1),
                           np.where(z == 1, 1.0, np.nan), x1[:, None], BINARY, ("x1",))
        model = fit_propensity(frame, ["x1"])
        assert model.converged
        assert model.intercept == pytest.approx(-3.0, abs=0.05)
        assert model.coefficients["x1"] == pytest.approx(1.2, abs=0.05)

    def test_constant_covariate_is_singular(self):
        frame = frame_with_x([1, 1, 0, 0], [(1.0,), (1.0,), (1.0,), (1.0,)], ["c"])
        with pytest.raises(SingularDesign):
            fit_propensity(frame, ["c"])

    def test_collinear_covariates_are_singular(self):
        x = [(0.1, 0.2), (0.4, 0.8), (0.3, 0.6), (0.9, 1.8)]
        frame = frame_with_x([1, 1, 0, 0], x, ["a", "b"])
        with pytest.raises(SingularDesign):
            fit_propensity(frame, ["a", "b"])

    def test_constant_z_is_singular(self):
        frame = frame_with_x([1, 1, 1, 1], [(0.1,), (0.2,), (0.3,), (0.4,)], ["a"])
        with pytest.raises(SingularDesign):
            fit_propensity(frame, ["a"])

    def test_perfect_separation_raises_with_direction(self):
        x = [(2.0,), (3.0,), (-2.0,), (-3.0,)]
        frame = frame_with_x([1, 1, 0, 0], x, ["a"])
        with pytest.raises(Separation) as err:
            fit_propensity(frame, ["a"])
        assert "a" in err.value.direction

    def test_separation_drift_past_the_coefficient_cap(self, monkeypatch):
        # separated rows, but the gradient is still above tolerance when a
        # standardized coefficient passes 30, so the fit stops on the cap
        raised = []

        def record(beta, covariates):
            raised.append(beta)
            separation(beta, covariates)

        def converged(*args):
            raise AssertionError("the gradient reached tolerance before the cap")

        separation = propensity._raise_separation
        monkeypatch.setattr(propensity, "_raise_separation", record)
        monkeypatch.setattr(propensity, "_check_saturation", converged)
        frame = frame_with_x([0, 0, 1, 1], [(0.0,), (1.0,), (2.0,), (3.0,)], ["a"])
        with pytest.raises(Separation):
            fit_propensity(frame, ["a"])
        assert len(raised) == 1 and np.max(np.abs(raised[0])) > 30

    def test_singular_hessian_is_separation(self, monkeypatch, statewide_path):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        frame = load_frame(statewide_path, BINARY)
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(Separation) as err:
            fit_propensity(frame, frame.covariate_names)
        assert set(err.value.direction) == {"intercept", *frame.covariate_names}

    def test_step_halving_rejects_a_newton_step_that_lowers_the_loglik(self, monkeypatch):
        # two high-leverage rows make full Newton steps overshoot the optimum
        calls = []

        def counted(*args):
            calls.append(args)
            return logistic(*args)

        logistic = propensity._logistic
        monkeypatch.setattr(propensity, "_logistic", counted)
        x = [(-1.0, -1.0), (0.0, -2.0), (-1.0, -1.0), (-1.0, 1.0), (61.0, 79.0), (-1.0, 0.0),
             (-59.0, -5.0), (0.0, -2.0)]
        frame = frame_with_x([0, 1, 1, 1, 1, 1, 1, 0], x, ["a", "b"])
        model = fit_propensity(frame, ["a", "b"])
        assert model.converged
        # one evaluation at the start and one per accepted step; the rest are halvings
        assert len(calls) > 1 + model.iterations
        trace = model.loglik_trace
        assert len(trace) == 1 + model.iterations
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_when_no_halving_passes_the_smallest_step_is_taken_untested(self, monkeypatch):
        # every trial reads a lower log-likelihood than the step before it, so
        # each Newton step tries 2^0 ... 2^-50 of itself and takes the last
        betas, steps = [], []

        def falling(design, beta, z):
            betas.append(beta)
            eta, mu, _ = logistic(design, beta, z)
            return eta, mu, -float(len(betas))

        def recorded(hess, grad):
            steps.append(solve(hess, grad))
            return steps[-1]

        logistic, solve = propensity._logistic, np.linalg.solve
        monkeypatch.setattr(propensity, "_logistic", falling)
        monkeypatch.setattr(np.linalg, "solve", recorded)
        monkeypatch.setattr(propensity, "_MAX_ITER", 2)
        rng = np.random.default_rng(5)
        frame = frame_with_x([1, 0] * 10, [(float(v),) for v in rng.normal(size=20)], ["a"])
        with pytest.raises(NoConvergence):
            fit_propensity(frame, ["a"])
        assert len(betas) == 1 + 2 * 51 and len(steps) == 2
        for k, step in enumerate(steps):
            start, accepted = betas[51 * k], betas[51 * (k + 1)]
            assert np.array_equal(accepted, start + 2.0**-50 * step)

    def test_no_convergence_when_budget_too_small(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = [(float(v),) for v in rng.normal(size=40)]
        z = [int(rng.random() < 0.4) for _ in range(40)]
        z[0], z[1] = 1, 0
        frame = frame_with_x(z, x, ["a"])
        monkeypatch.setattr(propensity, "_MAX_ITER", 1)
        monkeypatch.setattr(propensity, "_TOLERANCE", 1e-12)
        with pytest.raises(NoConvergence) as err:
            fit_propensity(frame, ["a"])
        assert str(err.value).startswith("no convergence after 1 iterations")

    def test_converges_on_population_scale_frame(self):
        # at N=100,000 one ulp of the log-likelihood exceeds 1e-12, so an
        # absolute step-acceptance slack stalled this fit short of tolerance
        path = pathlib.Path(__file__).parents[1] / "perfbench" / "synth.py"
        spec = importlib.util.spec_from_file_location("synth", path)
        synth = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(synth)
        cols = synth.generate(n=100_000, n_sample=5_000, n_treated=3_036, seed=12)
        names = ("pretest", "enroll", "frl", "title1")
        x = np.column_stack([getattr(cols, name) for name in names]).tolist()
        model = fit_propensity(frame_with_x(cols.sampled.tolist(), x, names), names)
        assert model.converged
        assert model.iterations <= 10

    def test_loglik_trace_is_monotone(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        model = fit_propensity(frame, frame.covariate_names)
        trace = model.loglik_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        assert model.final_gradient_norm <= 1e-8

    def test_gradient_matches_central_differences(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        cols = [np.asarray(frame.covariate_column(c)) for c in frame.covariate_names]
        design = np.column_stack([np.ones(frame.n_units)]
                                 + [(c - c.mean()) / c.std() for c in cols])
        z = frame.z.astype(float)
        rng = np.random.default_rng(99)
        h = 1e-6
        for _ in range(10):
            beta = rng.normal(0, 0.5, design.shape[1])
            grad = binomial_score(beta, design, z)
            for j in range(len(beta)):
                e = np.zeros_like(beta)
                e[j] = h
                fd = (binomial_loglik(beta + e, design, z)
                      - binomial_loglik(beta - e, design, z)) / (2 * h)
                denom = max(abs(fd), 1.0)
                assert abs(grad[j] - fd) / denom <= 1e-5

    def test_evaluator_matches_its_reference_forms(self, statewide_path):
        # the sigmoid is the old masked two-branch form bit for bit (a NaN in
        # gives a NaN out, whose sign no output shows); the log-likelihood is
        # the logaddexp form within 1e-12 at 10 random betas, each also scaled
        # to |eta| = 800
        def masked_sigmoid(eta):
            out = np.empty_like(eta)
            pos = eta >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
            ex = np.exp(eta[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        frame = load_frame(statewide_path, BINARY)
        design = propensity._standardized_design(frame, frame.covariate_names)[0]
        z = frame.z.astype(float)
        points = np.array([0.0, 1e-300, 36.0, 709.0, 745.0, math.inf])
        logits = [points, -points]
        for draw in range(10):
            beta = np.random.default_rng(draw).normal(0, 0.5, design.shape[1])
            logits.append(design @ beta)
            for b in (beta, beta * (800.0 / np.max(np.abs(design @ beta)))):
                eta = design @ b
                reference = np.sum(z * eta - np.logaddexp(0.0, eta))
                assert binomial_loglik(b, design, z) == pytest.approx(reference, rel=1e-12, abs=0)
        eta = np.concatenate(logits)
        assert propensity._sigmoid(eta).tobytes() == masked_sigmoid(eta).tobytes()
        assert np.isnan(propensity._sigmoid(np.array([math.nan]))).all()


class TestScores:
    def test_zero_model_gives_half(self):
        frame = frame_with_x([1, 0], [(0.3,), (0.8,)], ["a"])
        model = fit_propensity(frame, [])
        # intercept-only on a 50/50 split: logit 0, score 0.5
        assert model.intercept == pytest.approx(0.0, abs=1e-9)
        assert all(v == pytest.approx(0.5) for v in propensity_scores(model, frame))

    def test_hand_dot_product(self):
        from pibgen.propensity import PropensityModel

        model = PropensityModel(intercept=0.5, coefficients={"a": 2.0, "b": -1.0},
                                converged=True, iterations=0, final_gradient_norm=0.0)
        frame = frame_with_x([1, 0], [(1.0, 3.0), (2.0, 0.5)], ["a", "b"])
        logits = logit_scores(model, frame)
        assert logits[0] == pytest.approx(0.5 + 2.0 * 1.0 - 1.0 * 3.0)
        assert logits[1] == pytest.approx(0.5 + 2.0 * 2.0 - 1.0 * 0.5)

    def test_logits_match_the_per_unit_scalar_loop_bit_for_bit(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        model = fit_propensity(frame, frame.covariate_names)
        slots = [(frame.covariate_index(name), b) for name, b in model.coefficients.items()]
        expected = []
        for x in frame.X.tolist():
            eta = model.intercept
            for j, b in slots:
                eta += b * x[j]
            expected.append(eta)
        logits = logit_scores(model, frame)
        assert logits.tolist() == expected
        assert propensity_scores(model, frame).shape == (frame.n_units,)

    def test_logits_that_overflow_are_infinite_without_a_warning(self):
        from pibgen.propensity import PropensityModel

        model = PropensityModel(intercept=0.0, coefficients={"a": 1e308, "b": 1e308},
                                converged=True, iterations=0, final_gradient_norm=0.0)
        frame = frame_with_x([1, 0, 0], [(3.0, 0.0), (-3.0, 0.0), (3.0, -3.0)], ["a", "b"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logits = logit_scores(model, frame)
        assert logits[0] == math.inf and logits[1] == -math.inf and math.isnan(logits[2])

    def test_missing_covariate(self):
        from pibgen.propensity import PropensityModel

        model = PropensityModel(intercept=0.0, coefficients={"missing": 1.0},
                                converged=True, iterations=0, final_gradient_norm=0.0)
        frame = frame_with_x([1, 0], [(1.0,), (2.0,)], ["a"])
        with pytest.raises(UnknownCovariate):
            logit_scores(model, frame)


def row_asmd(frame, covariate):
    """The ASMD of one covariate, from its balance row."""
    (row,) = compute_balance(frame, [covariate])
    return row.asmd


class TestAsmd:
    def test_perfect_balance_is_zero(self):
        x = [(1.0,), (3.0,), (1.0,), (3.0,)]
        frame = frame_with_x([1, 1, 0, 0], x, ["a"])
        assert row_asmd(frame, "a") == pytest.approx(0.0)

    def test_direct_formula(self):
        # population mean 0, population sd 1, sample mean 0.5
        root6 = math.sqrt(6.0)
        x = [(0.5,), (0.5,), ((-1 + root6) / 2,), ((-1 - root6) / 2,)]
        frame = frame_with_x([1, 1, 0, 0], x, ["a"])
        col = np.array([row[0] for row in x])
        assert col.mean() == pytest.approx(0.0, abs=1e-12)
        assert col.std() == pytest.approx(1.0, abs=1e-9)
        assert row_asmd(frame, "a") == pytest.approx(0.5, abs=1e-9)

    def test_affine_invariance(self, rng):
        x = rng.normal(size=12)
        z = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        base = frame_with_x(z, [(float(v),) for v in x], ["a"])
        scaled = frame_with_x(z, [(float(5.0 * v - 3.0),) for v in x], ["a"])
        assert row_asmd(base, "a") == pytest.approx(row_asmd(scaled, "a"), abs=1e-12)

    def test_zero_variance(self):
        frame = frame_with_x([1, 0], [(2.0,), (2.0,)], ["a"])
        with pytest.raises(ZeroVariance):
            row_asmd(frame, "a")

    def test_balance_report_rows(self):
        x = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        frame = frame_with_x([1, 1, 0, 0], x, ["a", "b"])
        rows = compute_balance(frame)
        assert [r.covariate for r in rows] == ["a", "b"]
        assert rows == compute_balance(frame, ["a"]) + compute_balance(frame, ["b"])


class TestJsonRoundTrip:
    def test_round_trip(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        model = fit_propensity(frame, ["pretest", "frl"])
        text = to_json({name: getattr(model, name) for name in MODEL_FIELDS})
        back = model_from_json(text)
        assert back.intercept == model.intercept
        assert back.coefficients == model.coefficients
        assert back.converged and back.iterations == model.iterations
