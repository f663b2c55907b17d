import numpy as np
import pytest

from pibgen.frame import BINARY, OutcomeSupport, StudyFrame


def make_frame(spec, support=BINARY, covariates=(), x=None):
    """Build a frame from (z, w, y) triples, ``None`` marking a missing arm or
    outcome; ids are assigned positionally."""
    z = [z for z, _, _ in spec]
    w = [-1 if w is None else w for _, w, _ in spec]
    y = [np.nan if y is None else y for _, _, y in spec]
    X = x if x is not None else ()
    return StudyFrame([f"u{i}" for i in range(len(spec))], z, w, y, X, support, covariates)


def plugin_variance(values) -> float:
    """Variance with denominator n, summed in plain Python: the two-pass
    reference the tallies' centred sums of squares are checked against."""
    n = len(values)
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values) / n


def binary_frame(n_treated, treated_passes, n_control, control_passes,
                 z0_outcomes=(), n_z0_free=0):
    """Binary frame from counts; z0_outcomes become outcome-bearing z=0 units."""
    spec = []
    spec += [(1, 1, 1.0)] * treated_passes
    spec += [(1, 1, 0.0)] * (n_treated - treated_passes)
    spec += [(1, 0, 1.0)] * control_passes
    spec += [(1, 0, 0.0)] * (n_control - control_passes)
    spec += [(0, None, float(y)) for y in z0_outcomes]
    spec += [(0, None, None)] * n_z0_free
    return make_frame(spec)


def random_binary_frame(rng, max_units=10, labeled=True, min_z0=0):
    """Random small binary frame: >=1 sampled unit per arm; every z=0 unit gets
    a hypothetical arm label, and control-labeled z=0 units carry outcomes."""
    n_units = int(rng.integers(2 + min_z0, max_units + 1))
    n_treated = int(rng.integers(1, n_units - min_z0))
    n_control = int(rng.integers(1, n_units - n_treated - min_z0 + 1))
    n_z0 = n_units - n_treated - n_control
    spec = []
    for _ in range(n_treated):
        spec.append((1, 1, float(rng.integers(0, 2))))
    for _ in range(n_control):
        spec.append((1, 0, float(rng.integers(0, 2))))
    for _ in range(n_z0):
        if labeled:
            w = int(rng.integers(0, 2))
            y = float(rng.integers(0, 2)) if w == 0 else None
            spec.append((0, w, y))
        else:
            bearing = rng.random() < 0.5
            spec.append((0, None, float(rng.integers(0, 2)) if bearing else None))
    return make_frame(spec)


@pytest.fixture
def rng():
    return np.random.default_rng(20240311)


@pytest.fixture
def statewide_path():
    from pibgen.data import synthetic_path

    return synthetic_path()


CONTINUOUS = OutcomeSupport(-2.0, 3.0)
