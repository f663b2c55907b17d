"""Acceptance suite: one test per criterion, each printing a PASS line with the
measured quantities.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import pathlib
import time

import numpy as np
import pytest

from pibgen import bounds, oracle, points
from pibgen.cli import VERIFY_LAMBDAS, main
from pibgen.data import synthetic_path
from pibgen.frame import (
    BINARY,
    DesignProbs,
    EmpiricalRates,
    OutcomeSupport,
    convert,
    design_probs,
    empirical_rates,
    load_frame,
)
from pibgen.oracle import EXACT_BINARY
from pibgen.points import BootstrapOptions, ipw_estimate, naive_sate, subclass_estimate
from pibgen.propensity import (
    PropensityModel,
    binomial_loglik,
    binomial_score,
    fit_propensity,
    propensity_scores,
)
from pibgen.stratify import strata_for_frame

from conftest import make_frame, random_binary_frame

GOLDEN = pathlib.Path(__file__).parent / "golden"
TOL = 1e-12


def _rates(e1, e0, q0=None):
    return EmpiricalRates(e_y1_w1z1=e1, e_y0_w0z1=e0, e_y0_w0z0=q0, binary=True)


def test_criterion_1_oracle_equivalence(rng):
    started = time.monotonic()
    n_frames = 0
    n_checks = 0
    while n_frames < 200:
        frame = random_binary_frame(rng, max_units=10, labeled=True)
        n_frames += 1
        rates_x, probs_x = oracle.exact_inputs(frame)
        rates_f, probs_f = convert(rates_x), convert(probs_x)

        def agree(float_interval, exact_interval, enum):
            assert exact_interval.pre_clamp_lo == enum.lo
            assert exact_interval.pre_clamp_hi == enum.hi
            assert abs(float_interval.pre_clamp_lo - float(enum.lo)) <= TOL
            assert abs(float_interval.pre_clamp_hi - float(enum.hi)) <= TOL

        enum = oracle.enumerate_worst_case(frame, "full")
        agree(bounds.worst_case_bounds(rates_f, probs_f, "full", BINARY),
              bounds.worst_case_bounds(rates_x, probs_x, "full", EXACT_BINARY), enum)
        n_checks += 1
        if rates_x.e_y0_w0z0 is not None:
            enum = oracle.enumerate_worst_case(frame, "reduced")
            agree(bounds.worst_case_bounds(rates_f, probs_f, "reduced", BINARY),
                  bounds.worst_case_bounds(rates_x, probs_x, "reduced", EXACT_BINARY), enum)
            n_checks += 1
        for lam in VERIFY_LAMBDAS:
            enum = oracle.enumerate_bsv(rates_x, probs_x, lam, "full")
            agree(
                bounds.bsv_bounds(rates_f, probs_f, "full", float(lam), BINARY,
                                  intersect_support=True),
                bounds.bsv_bounds(rates_x, probs_x, "full", lam, EXACT_BINARY,
                                  intersect_support=True),
                enum,
            )
            n_checks += 1
            if rates_x.e_y0_w0z0 is not None:
                enum = oracle.enumerate_bsv(rates_x, probs_x, lam, "reduced")
                agree(
                    bounds.bsv_bounds(rates_f, probs_f, "reduced", float(lam), BINARY,
                                      intersect_support=True),
                    bounds.bsv_bounds(rates_x, probs_x, "reduced", lam, EXACT_BINARY,
                                      intersect_support=True),
                    enum,
                )
                n_checks += 1
        enum = oracle.enumerate_mtr(frame, "sample")
        agree(bounds.mtr_bounds(rates_f, probs_f, "sample")[1],
              bounds.mtr_bounds(rates_x, probs_x, "sample")[1], enum)
        n_checks += 1
        # the generator labels every z=0 unit and gives outcomes exactly to the
        # control-labeled ones, so the population scope applies whenever one exists
        if ((frame.z == 0) & (frame.w == 0)).any():
            rates_p, probs_p = oracle.population_inputs(frame)
            enum = oracle.enumerate_mtr(frame, "population")
            agree(bounds.mtr_bounds(convert(rates_p), convert(probs_p), "population")[1],
                  bounds.mtr_bounds(rates_p, probs_p, "population")[1],
                  enum)
            n_checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"PASS criterion 1: {n_checks} oracle equivalences over {n_frames} frames, "
          f"exact + 1e-12, {elapsed:.2f}s")


def test_criterion_2_width_identities(rng):
    n_checks = 0
    for _ in range(200):
        frame = random_binary_frame(rng, max_units=10, labeled=True)
        rates = empirical_rates(frame)
        probs = design_probs(frame, float(rng.uniform(0.05, 0.95)))
        full = bounds.worst_case_bounds(rates, probs, "full", BINARY)
        assert abs(full.pre_clamp_width - 2 * probs.p_z0) <= TOL
        n_checks += 1
        if rates.e_y0_w0z0 is not None:
            reduced = bounds.worst_case_bounds(rates, probs, "reduced", BINARY)
            assert abs(reduced.pre_clamp_width - (probs.p_z0 + probs.p_w1_z0)) <= TOL
            n_checks += 1
    support = OutcomeSupport(-2.0, 3.0)
    for _ in range(100):
        rates = _rates(rng.uniform(-2, 3), rng.uniform(-2, 3), rng.uniform(-2, 3))
        probs = DesignProbs(rng.uniform(0.01, 1.0), rng.uniform(0, 1), rng.uniform(0, 1))
        full = bounds.worst_case_bounds(rates, probs, "full", support)
        assert abs(full.pre_clamp_width - 2 * probs.p_z0 * support.width) <= TOL
        reduced = bounds.worst_case_bounds(rates, probs, "reduced", support)
        expected = (probs.p_z0 + probs.p_w1_z0) * support.width
        assert abs(reduced.pre_clamp_width - expected) <= TOL
        n_checks += 2
    print(f"PASS criterion 2: {n_checks} width identities within 1e-12")


def test_criterion_3_lambda_collapse(rng):
    for _ in range(200):
        frame = random_binary_frame(rng, max_units=10, labeled=True)
        rates = empirical_rates(frame)
        probs = design_probs(frame, 0.5)
        interval = bounds.bsv_bounds(rates, probs, "full", 0.0, BINARY)
        sate = naive_sate(frame).estimate
        assert interval.width == 0.0
        assert abs(interval.lo - sate) <= TOL
        assert abs(interval.hi - sate) <= TOL
    print("PASS criterion 3: lambda=0 collapses to the naive SATE on 200 frames (1e-12)")


def test_criterion_4_nesting_suite(rng):
    violations = 0
    cases = 1000
    for _ in range(cases):
        e1, e0 = rng.uniform(0, 1, size=2)
        probs = DesignProbs(
            p_z1=float(rng.uniform(0.02, 0.98)),
            p_w1_given_z1=float(rng.uniform(0.05, 0.95)),
            p_w0_given_z0=float(rng.uniform(0.05, 0.95)),
        )
        lam1, lam2 = sorted(rng.uniform(0, 1.2, size=2))
        q0_free = float(rng.uniform(0, 1))
        q0_consistent = float(rng.uniform(max(0.0, e0 - lam1), min(1.0, e0 + lam1)))
        free = _rates(e1, e0, q0_free)
        consistent = _rates(e1, e0, q0_consistent)

        for fw, rates in (("full", free), ("reduced", free)):
            inner = bounds.bsv_bounds(rates, probs, fw, lam1, BINARY)
            outer = bounds.bsv_bounds(rates, probs, fw, lam2, BINARY)
            if not (outer.pre_clamp_lo <= inner.pre_clamp_lo + TOL
                    and inner.pre_clamp_hi <= outer.pre_clamp_hi + TOL):
                violations += 1

        full_wc = bounds.worst_case_bounds(free, probs, "full", BINARY)
        reduced_wc = bounds.worst_case_bounds(free, probs, "reduced", BINARY)
        if not (full_wc.pre_clamp_lo <= reduced_wc.pre_clamp_lo + TOL
                and reduced_wc.pre_clamp_hi <= full_wc.pre_clamp_hi + TOL):
            violations += 1
        full_bsv = bounds.bsv_bounds(consistent, probs, "full", lam1, BINARY)
        reduced_bsv = bounds.bsv_bounds(consistent, probs, "reduced", lam1, BINARY)
        if not (full_bsv.pre_clamp_lo <= reduced_bsv.pre_clamp_lo + TOL
                and reduced_bsv.pre_clamp_hi <= full_bsv.pre_clamp_hi + TOL):
            violations += 1

        if bounds.bsv_improves(free, lam1, BINARY):
            if not (full_wc.pre_clamp_lo <= full_bsv.pre_clamp_lo + TOL
                    and full_bsv.pre_clamp_hi <= full_wc.pre_clamp_hi + TOL):
                violations += 1
        sharp_reduced = bounds.bsv_bounds(consistent, probs, "reduced", lam1, BINARY,
                                          intersect_support=True)
        reduced_wc_c = bounds.worst_case_bounds(consistent, probs, "reduced", BINARY)
        if not (reduced_wc_c.pre_clamp_lo <= sharp_reduced.pre_clamp_lo + TOL
                and sharp_reduced.pre_clamp_hi <= reduced_wc_c.pre_clamp_hi + TOL):
            violations += 1

        mtr_min, mtr_max = bounds.mtr_bounds(free, probs, "population")
        if mtr_min.lo != 0 or mtr_max.lo != 0:
            violations += 1
        if not mtr_min.hi <= mtr_max.hi + TOL:
            violations += 1
    assert violations == 0
    print(f"PASS criterion 4: nesting suite, {cases} randomized cases, 0 violations")


def test_criterion_5_study_scale_reconstruction():
    started = time.monotonic()
    probs = DesignProbs(p_z1=56 / 1029, p_w1_given_z1=34 / 56, p_w0_given_z0=0.5)
    subjects = {
        # back-solved inputs: arm-mean difference d and business-as-usual mean q0
        "ELA": dict(rates=_rates(0.600, 0.343, q0=0.91),
                    tr_full=(-0.93, 0.96), tr_reduced=(-0.89, 0.54),
                    bsv=(0.3, (-0.31, 0.83)), mtr_min_hi=0.07),
        "Math": dict(rates=_rates(0.500, 0.291, q0=0.86),
                     tr_full=(-0.93, 0.96), tr_reduced=(-0.87, 0.55),
                     bsv=(0.1, (0.02, 0.40)), mtr_min_hi=0.09),
    }
    for subject, spec in subjects.items():
        rates = spec["rates"]
        full = bounds.worst_case_bounds(rates, probs, "full", BINARY)
        assert full.lo == pytest.approx(spec["tr_full"][0], abs=0.02)
        assert full.hi == pytest.approx(spec["tr_full"][1], abs=0.02)
        reduced = bounds.worst_case_bounds(rates, probs, "reduced", BINARY)
        assert reduced.lo == pytest.approx(spec["tr_reduced"][0], abs=0.02)
        assert reduced.hi == pytest.approx(spec["tr_reduced"][1], abs=0.02)
        lam, target = spec["bsv"]
        bsv = bounds.bsv_bounds(rates, probs, "full", lam, BINARY)
        assert bsv.lo == pytest.approx(target[0], abs=0.02)
        assert bsv.hi == pytest.approx(target[1], abs=0.02)
        mtr_min, _ = bounds.mtr_bounds(rates, probs, "population")
        assert mtr_min.hi == pytest.approx(spec["mtr_min_hi"], abs=0.02)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"PASS criterion 5: study-scale reconstruction within +/-0.02, {elapsed:.3f}s")


def test_criterion_6_propensity_numerics():
    frame = load_frame(synthetic_path(), BINARY)

    # gradient vs central finite differences
    cols = [np.asarray(frame.covariate_column(c)) for c in frame.covariate_names]
    design = np.column_stack([np.ones(frame.n_units)]
                             + [(c - c.mean()) / c.std() for c in cols])
    z = frame.z.astype(float)
    check_rng = np.random.default_rng(17)
    h = 1e-6
    worst_rel = 0.0
    for _ in range(10):
        beta = check_rng.normal(0, 0.5, design.shape[1])
        grad = binomial_score(beta, design, z)
        for j in range(len(beta)):
            e = np.zeros_like(beta)
            e[j] = h
            fd = (binomial_loglik(beta + e, design, z)
                  - binomial_loglik(beta - e, design, z)) / (2 * h)
            rel = abs(grad[j] - fd) / max(abs(fd), 1.0)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-5

    intercept_only = fit_propensity(frame, [])
    scores = propensity_scores(intercept_only, frame)
    mean_gap = abs(np.mean(scores) - 56 / 1029)
    assert mean_gap <= 1e-10

    rng = np.random.default_rng(7)
    n = 50_000
    x1 = rng.normal(0.0, 1.0, n)
    p = 1 / (1 + np.exp(-(-3.0 + 1.2 * x1)))
    zz = (rng.random(n) < p).astype(int)
    from pibgen.frame import StudyFrame

    synth = StudyFrame([str(i) for i in range(n)], zz, np.where(zz == 1, np.arange(n) % 2, -1),
                       np.where(zz == 1, 1.0, np.nan), x1[:, None], BINARY, ("x1",))
    model = fit_propensity(synth, ["x1"])
    assert model.intercept == pytest.approx(-3.0, abs=0.05)
    assert model.coefficients["x1"] == pytest.approx(1.2, abs=0.05)
    print(f"PASS criterion 6: gradient rel err {worst_rel:.2e} <= 1e-5, "
          f"mean-score gap {mean_gap:.1e} <= 1e-10, recovery "
          f"({model.intercept:.3f}, {model.coefficients['x1']:.3f}) within +/-0.05")


def test_criterion_7_point_estimator_coherence(monkeypatch):
    spec = [(1, 1, 1.0), (1, 1, 0.0), (1, 1, 1.0), (1, 0, 0.0), (1, 0, 1.0),
            (0, None, None), (0, None, None)]
    x = [(0.1,), (0.2,), (0.3,), (0.4,), (0.5,), (0.6,), (0.7,)]
    frame = make_frame(spec, covariates=("a",), x=x)

    naive = naive_sate(frame)
    assignment = strata_for_frame(frame, frame.covariate_column("a"), 1)
    sub = subclass_estimate(frame, assignment)
    assert sub.estimate == naive.estimate

    constant = PropensityModel(intercept=-1.0, coefficients={}, converged=True,
                               iterations=0, final_gradient_norm=0.0)
    ipw = ipw_estimate(frame, constant, BootstrapOptions(reps=100, seed=4))
    assert ipw.estimate == naive.estimate

    # one replicate per batch, seven per batch, all in one batch, and a rerun
    runs = []
    for batch_rows in (1, 35, 1 << 16, 1 << 16):
        monkeypatch.setattr(points, "_BATCH_ROWS", batch_rows)
        runs.append(ipw_estimate(frame, constant, BootstrapOptions(reps=500, seed=99)))
    ses = {r.se for r in runs}
    assert len(ses) == 1
    print(f"PASS criterion 7: k=1 subclass == naive == constant-weight IPW "
          f"({naive.estimate:.6f}); bootstrap SE identical over batch sizes and reruns "
          f"({runs[0].se:.10f})")


GOLDEN_ARGS = [
    "--data", synthetic_path(),
    "--framework", "both",
    "--assumption", "worst", "--assumption", "bsv", "--assumption", "mtr",
    "--lambda", "0.3", "--lambda", "asmd:max",
    "--strata", "3", "--pw0z0", "0.5", "--seed", "20240311", "--reps", "300",
]


def test_criterion_8_cli_determinism(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["analyze", *GOLDEN_ARGS, "--format", "json", "--out", str(out_a)]) == 0
    assert main(["analyze", *GOLDEN_ARGS, "--format", "json", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    golden_json = (GOLDEN / "analyze.json").read_bytes()
    assert out_a.read_bytes() == golden_json

    out_md = tmp_path / "report.md"
    assert main(["analyze", *GOLDEN_ARGS, "--format", "md", "--out", str(out_md)]) == 0
    assert out_md.read_bytes() == (GOLDEN / "analyze.md").read_bytes()

    document = json.loads(golden_json)
    assert document["meta"]["seed"] == 20240311
    print("PASS criterion 8: analyze JSON byte-identical across runs and equal to "
          "the golden files (json + md)")
