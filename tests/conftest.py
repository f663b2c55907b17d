import numpy as np
import pytest
from hypothesis import strategies as st

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
    """Variance with denominator n, added in row order by a plain loop: the
    two-pass reference the tallies' centred sums of squares are checked
    against.  (Python's ``sum`` of floats is compensated from 3.12 on, so it
    would not add in row order.)"""
    total = 0.0
    for v in values:
        total += v
    mean = total / len(values)
    squares = 0.0
    for v in values:
        squares += (v - mean) ** 2
    return squares / len(values)


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


# cells that break validation, lie past float range or at its edges, or are
# parsed after stripping the space around them
HOSTILE_CELLS = ("", "nan", "inf", "-inf", "x", "2", "-1", "0.5", "1e308", "-1e308", "1e-320")
COVARIATE_VALUES = ("-1.5", "-0.5", "0", "0.5", "1", "2")


@st.composite
def frame_texts(draw, max_perturbations=2):
    """CSV text of a frame that loads, then 0 to ``max_perturbations``
    perturbations.

    The frame holds 4-20 pairs of rows, a sampled and a non-sampled unit with
    the same covariates x1 and x2, and up to 20 more rows at those points.  The
    first three pairs sit at affinely independent points, so no hyperplane
    separates the sampled units from the others and the propensity fit
    converges.  The first two sampled units are treated and control.  A
    perturbation replaces a cell with a hostile one or pads it with a space,
    drops or repeats a row, or adds a covariate column.
    """
    outcome = st.sampled_from(["0", "1"])
    points = [("0", "0"), ("1", "0"), ("0", "1")]
    points += draw(st.lists(st.tuples(st.sampled_from(COVARIATE_VALUES),
                                      st.sampled_from(COVARIATE_VALUES)), min_size=1, max_size=17))
    arm, z0_outcome = st.sampled_from(["0", "1"]), st.sampled_from(["", "0", "1"])
    rows = []
    for i, (x1, x2) in enumerate(points):
        rows.append(["1", str(1 - i) if i < 2 else draw(arm), draw(outcome), x1, x2])
        rows.append(["0", "", draw(z0_outcome), x1, x2])
    # more rows at those points make the sampled share, and so the logit, vary
    for x1, x2 in draw(st.lists(st.sampled_from(points), max_size=20)):
        rows.append(["1", draw(arm), draw(outcome), x1, x2] if draw(st.booleans())
                    else ["0", "", draw(z0_outcome), x1, x2])
    rows = [[f"u{i}", *row] for i, row in enumerate(draw(st.permutations(rows)))]
    header = ["id", "in_sample", "treatment", "outcome", "x1", "x2"]
    for _ in range(draw(st.integers(0, max_perturbations))):
        kind = draw(st.sampled_from(["cell", "pad", "drop", "repeat", "column"]))
        i = draw(st.integers(0, len(rows) - 1))
        if kind in ("cell", "pad"):
            j = draw(st.integers(0, len(header) - 1))
            rows[i][j] = (draw(st.sampled_from(HOSTILE_CELLS)) if kind == "cell"
                          else draw(st.sampled_from([f" {rows[i][j]}", f"{rows[i][j]} "])))
        elif kind == "drop":
            del rows[i]
        elif kind == "repeat":
            rows.insert(i, list(rows[i]))
        else:
            header.append(f"x{len(header) - 3}")
            for row in rows:
                row.append(draw(st.sampled_from(COVARIATE_VALUES)))
    return "".join(",".join(row) + "\n" for row in [header, *rows])
