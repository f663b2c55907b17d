"""Point estimators: naive contrast, normalized IPW, subclassification."""

import math
import pathlib
import random
import tracemalloc

import numpy as np
import pytest

from pibgen import points
from pibgen.errors import EmptyArm, NonViableStratum, UnfittedModel, ZeroPropensity
from pibgen.frame import BINARY, OutcomeSupport, StudyFrame, load_frame
from pibgen.points import (
    _bootstrap_contrasts,
    _hajek_contrast,
    _positions,
    ipw_estimate,
    naive_sate,
    subclass_estimate,
)
from pibgen.propensity import PropensityModel, fit_propensity
from pibgen.stratify import merge_nonviable
from pibgen.stratify import strata_for_frame

from conftest import make_frame, plugin_variance


def constant_model(intercept=0.0):
    return PropensityModel(intercept=intercept, coefficients={}, converged=True,
                           iterations=0, final_gradient_norm=0.0)


class TestNaive:
    def test_no_effect(self):
        frame = make_frame([(1, 1, 1.0), (1, 1, 0.0), (1, 0, 1.0), (1, 0, 0.0)])
        assert naive_sate(frame).estimate == pytest.approx(0.0)

    def test_hand_formula(self):
        frame = make_frame(
            [(1, 1, 1.0), (1, 1, 1.0), (1, 1, 0.0), (1, 1, 1.0), (1, 0, 0.0), (1, 0, 1.0)]
        )
        est = naive_sate(frame)
        assert est.estimate == pytest.approx(0.75 - 0.5)
        assert est.se == pytest.approx(math.sqrt(0.1875 / 4 + 0.25 / 2))

    def test_se_is_the_two_pass_plugin_variance_bit_for_bit(self):
        # deviations whose squares under x ** 2 and x * x give SEs a bit apart
        frame = make_frame([(1, 1, 61.7), (1, 1, 23.2), (1, 0, 99.4), (1, 0, 3.4)],
                           support=OutcomeSupport(0.0, 100.0))
        treated, control = frame.y[frame.treated], frame.y[frame.control]
        assert naive_sate(frame).se == math.sqrt(plugin_variance(treated) / len(treated)
                                                 + plugin_variance(control) / len(control))

    def test_report_formatting_three_decimals(self):
        from pibgen.report import render_markdown

        document = {
            "meta": {"input": "x.csv", "seed": 0},
            "point_estimates": [{"method": "naive", "estimate": 0.0481, "se": 0.0377}],
        }
        text = render_markdown(document)
        assert "0.048 (0.038)" in text


class TestIpw:
    def test_constant_scores_reduce_to_naive(self):
        frame = make_frame(
            [(1, 1, 1.0), (1, 1, 0.0), (1, 0, 1.0), (1, 0, 0.0), (0, None, None)]
        )
        est = ipw_estimate(frame, constant_model(-2.0), reps=10, seed=1)
        assert est.estimate == naive_sate(frame).estimate

    def test_hand_weighted_means(self):
        # two units per arm with scores 0.5 and 0.25 -> weights 2 and 4
        frame = StudyFrame(["t1", "t2", "c1", "c2"], [1, 1, 1, 1], [1, 1, 0, 0],
                           [1.0, 0.0, 1.0, 0.0], [(0.0,), (1.0,), (0.0,), (1.0,)], BINARY, ("x",))
        model = PropensityModel(intercept=0.0, coefficients={"x": -math.log(3.0)},
                                converged=True, iterations=1, final_gradient_norm=0.0)
        # s(0) = 0.5 -> weight 2; s(1) = 0.25 -> weight 4
        est = ipw_estimate(frame, model, reps=5, seed=0)
        expected = (2 * 1.0 + 4 * 0.0) / 6 - (2 * 1.0 + 4 * 0.0) / 6
        assert est.estimate == pytest.approx(expected)

    def test_seeded_bootstrap_reproducible(self):
        frame = make_frame(
            [(1, 1, 1.0), (1, 1, 0.0), (1, 1, 1.0), (1, 0, 0.0), (1, 0, 1.0), (0, None, None)]
        )
        a = ipw_estimate(frame, constant_model(), reps=500, seed=42)
        b = ipw_estimate(frame, constant_model(), reps=500, seed=42)
        assert a.se == b.se
        c = ipw_estimate(frame, constant_model(), reps=500, seed=43)
        assert a.se != c.se

    def test_unfitted_model_rejected(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0)])
        bad = PropensityModel(intercept=0.0, coefficients={}, converged=False,
                              iterations=0, final_gradient_norm=1.0)
        with pytest.raises(UnfittedModel):
            ipw_estimate(frame, bad)

    def test_zero_propensity_rejected(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0)])
        with pytest.raises(ZeroPropensity):
            # intercept so negative the score underflows to 0.0
            ipw_estimate(frame, constant_model(-800.0))


def per_replicate_contrasts(y, w, weights, reps, seed):
    """The bootstrap as a plain loop: one generator, one row of uniforms and
    one contrast per replicate."""
    treated = np.flatnonzero(w == 1)
    control = np.flatnonzero(w == 0)
    n_t, n_c = len(treated), len(control)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(reps):
        u = rng.random(n_t + n_c)
        t = treated[[math.floor(x * n_t) for x in u[:n_t]]]
        c = control[[math.floor(x * n_c) for x in u[n_t:]]]
        idx = np.concatenate([t, c])
        out.append(_hajek_contrast(y[idx], w[idx], weights[idx]))
    return np.array(out)


class TestBatchedBootstrap:
    # arm sizes on both sides of numpy's 8-element unrolled and 128-element pairwise sums
    @pytest.mark.parametrize("n_treated, n_control", [(1, 3), (3, 9), (9, 1), (200, 9), (1, 200)])
    @pytest.mark.parametrize("replicates_per_batch", [1, 4, 23])
    def test_equals_the_per_replicate_loop_bit_for_bit(self, n_treated, n_control,
                                                       replicates_per_batch):
        reps, seed = 23, 20240311
        rng = np.random.default_rng(n_treated * 1000 + n_control)
        w = rng.permutation(np.repeat([1, 0], [n_treated, n_control]))
        y = rng.uniform(0.0, 100.0, size=w.size)
        weights = 1.0 / rng.uniform(0.01, 0.9, size=w.size)
        batched = _bootstrap_contrasts(
            y, weights, np.flatnonzero(w == 1), np.flatnonzero(w == 0), reps, seed,
            batch_rows=replicates_per_batch * w.size,
        )
        reference = per_replicate_contrasts(y, w, weights, reps, seed)
        assert batched.tolist() == reference.tolist()


def arms(n_treated, n_control, seed):
    """Shuffled arm labels, outcomes and inverse-propensity weights."""
    rng = np.random.default_rng(seed)
    w = rng.permutation(np.repeat([1, 0], [n_treated, n_control]))
    y = rng.uniform(0.0, 100.0, size=w.size)
    weights = 1.0 / rng.uniform(0.01, 0.9, size=w.size)
    return y, w, weights


def bootstrap(y, w, weights, reps, seed, batch_rows=points._BATCH_ROWS):
    return _bootstrap_contrasts(y, weights, np.flatnonzero(w == 1), np.flatnonzero(w == 0),
                                reps, seed, batch_rows=batch_rows)


class TestBootstrapDraws:
    """The bootstrap's draws: one generator, a uniform ``u`` picks position
    ``floor(u * n)`` of its arm, and the arms are taken in id order."""

    # the 0.1% points of chi-squared with n - 1 degrees of freedom
    @pytest.mark.parametrize("n, bound", [(2, 10.83), (7, 22.46), (34, 63.87), (200, 267.5)])
    def test_positions_are_uniform_over_the_arm(self, n, bound):
        draws = 500 * n
        counts = np.bincount(_positions(np.random.default_rng(n).random(draws), n), minlength=n)
        assert len(counts) == n
        expected = draws / n
        assert np.sum((counts - expected) ** 2 / expected) < bound

    def test_the_largest_uniform_picks_the_last_position(self):
        # every arm size to 2**16, then each power of two to 2**53 and its neighbours
        powers = 2 ** np.arange(16, 54, dtype=np.int64)
        n = np.concatenate([np.arange(1, 2**16), powers - 1, powers, powers + 1])
        n = n[n < 2**53]
        u = np.full(len(n), np.nextafter(1.0, 0.0))
        assert _positions(u, n).tolist() == (n - 1).tolist()
        assert _positions(np.zeros(len(n)), n).tolist() == [0] * len(n)

    def test_negative_seed_rejected(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0), (0, None, None)])
        with pytest.raises(ValueError):
            ipw_estimate(frame, constant_model(), reps=10, seed=-1)

    def test_se_does_not_depend_on_the_row_order(self, statewide_path, tmp_path):
        header, *rows = pathlib.Path(statewide_path).read_text().splitlines(keepends=True)
        random.Random(7).shuffle(rows)
        shuffled_path = tmp_path / "shuffled.csv"
        shuffled_path.write_text(header + "".join(rows))
        frame, shuffled = load_frame(statewide_path, BINARY), load_frame(shuffled_path, BINARY)
        assert shuffled.ids.tolist() != frame.ids.tolist()
        model = fit_propensity(frame, frame.covariate_names)  # one model: the same weights
        se = ipw_estimate(frame, model, reps=300, seed=20240311).se
        assert ipw_estimate(shuffled, model, reps=300, seed=20240311).se == se

    def test_peak_memory_does_not_grow_with_the_replicates(self):
        # 300 units per replicate: 218 replicates per batch at _BATCH_ROWS
        y, w, weights = arms(200, 100, 1)

        def peak(reps):
            tracemalloc.start()
            try:
                bootstrap(y, w, weights, reps, 7)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50_000) <= 1.5 * peak(500)


class TestSubclassification:
    def _frame(self):
        spec = [(1, 1, 1.0), (1, 0, 0.0), (0, None, None),
                (1, 1, 1.0), (1, 0, 1.0), (0, None, None)]
        x = [(0.0,), (0.1,), (0.2,), (1.0,), (1.1,), (1.2,)]
        return make_frame(spec, covariates=("a",), x=x)

    def test_single_stratum_equals_naive(self):
        frame = self._frame()
        assignment = strata_for_frame(frame, frame.covariate_column("a"), 1)
        sub = subclass_estimate(frame, assignment)
        naive = naive_sate(frame)
        assert sub.estimate == naive.estimate
        assert sub.se == pytest.approx(naive.se)

    def test_hand_weighted_two_strata(self):
        frame = self._frame()
        assignment = strata_for_frame(frame, frame.covariate_column("a"), 2)
        sub = subclass_estimate(frame, assignment)
        # strata contrasts are 1.0 and 0.0 with equal population shares
        assert sub.estimate == pytest.approx(0.5 * 1.0 + 0.5 * 0.0)
        shares = [row["share"] for row in sub.details["per_stratum"]]
        assert sum(shares) == pytest.approx(1.0)

    def test_nonviable_stratum_aborts(self):
        spec = [(1, 1, 1.0), (1, 0, 0.0), (0, None, None), (0, None, None)]
        x = [(0.0,), (0.1,), (1.0,), (1.1,)]
        frame = make_frame(spec, covariates=("a",), x=x)
        assignment = strata_for_frame(frame, frame.covariate_column("a"), 2)
        with pytest.raises(NonViableStratum) as err:
            subclass_estimate(frame, assignment)
        assert err.value.indices == [2]

    def test_merge_nonviable_recovers(self):
        spec = [(1, 1, 1.0), (1, 0, 0.0), (0, None, None), (0, None, None)]
        x = [(0.0,), (0.1,), (1.0,), (1.1,)]
        frame = make_frame(spec, covariates=("a",), x=x)
        assignment = strata_for_frame(frame, frame.covariate_column("a"), 2)
        merged = merge_nonviable(assignment, frame)
        assert merged.k == 1
        est = subclass_estimate(frame, merged)
        assert est.estimate == naive_sate(frame).estimate

    def test_merge_middle_stratum_into_lower_neighbor(self):
        # stratum 2 lacks sampled units; it folds into stratum 1, keeping 3 viable -> 2
        spec = [(1, 1, 1.0), (1, 0, 0.0), (0, None, None),
                (0, None, None), (0, None, None), (0, None, None),
                (1, 1, 0.0), (1, 0, 1.0), (0, None, None)]
        x = [(0.0,), (0.1,), (0.2,), (1.0,), (1.1,), (1.2,),
             (2.0,), (2.1,), (2.2,)]
        frame = make_frame(spec, covariates=("a",), x=x)
        assignment = strata_for_frame(frame, frame.covariate_column("a"), 3)
        assert [assignment.tallies.viable(g) for g in range(3)] == [True, False, True]
        merged = merge_nonviable(assignment, frame)
        assert merged.k == 2
        assert all(merged.tallies.viable(g) for g in range(2))
        assert sum(merged.tallies.units) == frame.n_units


class TestSanity:
    def test_estimates_inside_logical_range(self, rng):
        from conftest import random_binary_frame

        for _ in range(25):
            frame = random_binary_frame(rng, labeled=False)
            est = naive_sate(frame)
            assert -1.0 <= est.estimate <= 1.0

    def test_bootstrap_se_tracks_plugin_se(self):
        rng = np.random.default_rng(3)
        n1, n0 = 120, 120
        spec = [(1, 1, float(rng.integers(0, 2))) for _ in range(n1)]
        spec += [(1, 0, float(rng.integers(0, 2))) for _ in range(n0)]
        spec += [(0, None, None)] * 60
        frame = make_frame(spec)
        plug = naive_sate(frame)
        boot = ipw_estimate(frame, constant_model(), reps=2000, seed=11)
        assert boot.estimate == pytest.approx(plug.estimate)
        assert boot.se == pytest.approx(plug.se, rel=0.15)


@pytest.mark.parametrize("arm", [1, 0], ids=["no-treated", "no-control"])
def test_ipw_without_a_sampled_arm_is_a_data_error(arm):
    frame = make_frame([(1, 1 - arm, 1.0), (1, 1 - arm, 0.0), (0, None, None)])
    with pytest.raises(EmptyArm) as exc:
        ipw_estimate(frame, constant_model(), reps=0)
    name = "treated" if arm else "control"
    assert str(exc.value) == f"no sampled units in the {name} arm"
