"""Point estimators: naive contrast, normalized IPW, subclassification."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pibgen import points
from pibgen.errors import NonViableStratum, UnfittedModel, ZeroPropensity
from pibgen.frame import BINARY, OutcomeSupport, StudyFrame, load_frame
from pibgen.points import (
    _bootstrap_contrasts,
    _child_states,
    _hajek_contrast,
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
    """The bootstrap as a plain loop: one generator, two draws, one contrast per replicate."""
    treated = np.flatnonzero(w == 1)
    control = np.flatnonzero(w == 0)
    out = []
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        t = treated[rng.integers(0, len(treated), size=len(treated))]
        c = control[rng.integers(0, len(control), size=len(control))]
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


# seeds of one, two, three and 42 32-bit words, on both sides of a word boundary
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 1, 10**400]


class TestBootstrapDraws:
    """The bootstrap's draws, made without a generator per replicate, against
    the installed numpy's own ``SeedSequence``, ``PCG64`` and ``Generator``."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**130)),
           n_treated=st.one_of(st.sampled_from([1, 2]), st.integers(1, 300)),
           n_control=st.one_of(st.sampled_from([1, 2]), st.integers(1, 300)),
           reps=st.integers(1, 9), per_batch=st.sampled_from([1, 4, None]))
    def test_equal_numpys_generators(self, seed, n_treated, n_control, reps, per_batch):
        y, w, weights = arms(n_treated, n_control, seed % 1000)
        per_batch = per_batch or reps
        batched = bootstrap(y, w, weights, reps, seed, batch_rows=per_batch * w.size)
        assert batched.tolist() == per_replicate_contrasts(y, w, weights, reps, seed).tolist()

    @pytest.mark.parametrize("seed", EDGE_SEEDS + [20240311])
    def test_child_states_are_pcg64s_seeded_by_the_children(self, seed):
        children = np.random.SeedSequence(seed).spawn(40)
        assert _child_states(seed, 0, 40) == [np.random.PCG64(c).state for c in children]
        assert _child_states(seed, 17, 5) == [np.random.PCG64(c).state for c in children[17:22]]

    def test_negative_seed_rejected_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError):
            _child_states(-1, 0, 1)

    def test_rejected_draw_is_redrawn_by_numpy(self, monkeypatch):
        # at these arm sizes replicate 37 is the one whose words hold a draw
        # numpy's 32-bit Lemire rule rejects
        reps, seed = 300, 20240311
        y, w, weights = arms(3036, 1964, 5)
        redrawn = []
        draws = points._numpy_draws

        def spy(rng, n_t, n_c):
            redrawn.append(rng.bit_generator.state)
            return draws(rng, n_t, n_c)

        monkeypatch.setattr(points, "_numpy_draws", spy)
        contrasts = bootstrap(y, w, weights, reps, seed)
        assert redrawn == [_child_states(seed, 37, 1)[0]]
        assert contrasts.tolist() == per_replicate_contrasts(y, w, weights, reps, seed).tolist()

    def test_one_generator_per_call_not_per_replicate(self, monkeypatch, statewide_path):
        built = {"PCG64": 0, "SeedSequence": 0}

        def counting(cls):
            def __init__(self, *args, **kwargs):
                built[cls.__name__] += 1
                cls.__init__(self, *args, **kwargs)

            # named as numpy's class: PCG64's state setter checks the name
            return type(cls.__name__, (cls,), {"__init__": __init__})

        frame = load_frame(statewide_path, BINARY)
        model = fit_propensity(frame, frame.covariate_names)
        for cls in (np.random.PCG64, np.random.SeedSequence):
            monkeypatch.setattr(np.random, cls.__name__, counting(cls))
        assert ipw_estimate(frame, model, reps=300, seed=20240311).se is not None
        assert built["PCG64"] == 1
        assert built["SeedSequence"] <= 1

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
