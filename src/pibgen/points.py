"""Point estimators of the PATE under sampling ignorability: the unweighted
sample contrast, normalized inverse-propensity weighting, and propensity-score
subclassification.

Subclassification reads the tallies of a ``StratumAssignment`` built by
``stratify`` (merged there when asked) and refuses one with a non-viable
stratum.  The IPW estimator is the ratio (Hajek) form, invariant to rescaling of the
weights, with a nonparametric bootstrap standard error.  Replicate ``r``
draws exactly what numpy's ``Generator(PCG64(child))`` would draw for the
``r``-th child of ``SeedSequence(seed)``, but without building those objects:
the children's PCG64 states come from numpy's seeding hash run on arrays, one
``PCG64`` is set to each state and yields its raw words in one call, and
numpy's 32-bit bounded-integer rule turns the words into positions.  The rare
replicate with a draw that rule rejects is drawn again by numpy's own
``Generator``.  Tests check the draws against the installed numpy.  The
replicates are evaluated in memory-bounded batches, so the standard error
does not depend on the batch size.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyArm, NonViableStratum, UnfittedModel, ZeroPropensity
from .frame import StudyFrame, Tallies, tallies
from .propensity import PropensityModel, propensity_scores
from .stratify import StratumAssignment
from .stratify import stratum_frames  # noqa: F401 (perfbench/tracing.py wraps it)


@dataclass(frozen=True)
class PointEstimate:
    method: str  # "naive" | "ipw" | "subclassification"
    estimate: float
    se: float | None  # None when the bootstrap has fewer than two replicates
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "estimate": self.estimate,
            "se": self.se,
            "details": self.details,
        }


def _arm_contrast(t: Tallies, g: int) -> tuple[float, float]:
    """Group ``g``'s difference in sampled arm means and its plug-in
    two-sample SE."""
    rates = t.empirical_rates(g)
    n1, n0 = t.treated[g], t.control[g]
    return rates.sate, math.sqrt(t.ss_treated[g] / n1 / n1 + t.ss_control[g] / n0 / n0)


def naive_sate(frame: StudyFrame) -> PointEstimate:
    """Difference in sampled arm means with a plug-in two-sample SE."""
    t = tallies(frame)
    estimate, se = _arm_contrast(t, 0)
    return PointEstimate(
        method="naive",
        estimate=estimate,
        se=se,
        details={"n_treated": t.treated[0], "n_control": t.control[0]},
    )


def _hajek_contrast(y, w, weights) -> float:
    t = w == 1
    return float(
        np.sum(y[t] * weights[t]) / np.sum(weights[t])
        - np.sum(y[~t] * weights[~t]) / np.sum(weights[~t])
    )


# drawn rows per batch of bootstrap replicates: bounds the child states, the
# raw words and the position and gather matrices, which for all replicates at
# once would raise peak memory at large N
_BATCH_ROWS = 1 << 16

_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's LCG multiplier (PCG_DEFAULT_MULTIPLIER_128, numpy/random/src/pcg64)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words, each a Python int or a
    uint64 array of them."""
    r = ((_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32)) & _M32
    return r ^ (r >> 16)


def _hasher(hash_const: int, mult: int):
    """SeedSequence's word hash: ``hashmix`` with ``INIT_A``/``MULT_A``, the
    ``generate_state`` loop with ``INIT_B``/``MULT_B``.  Each call hashes one
    word, a Python int or a uint64 array of them, with the next constant."""

    def hash_word(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ (value >> 16)

    return hash_word


def _child_states(seed: int, first: int, count: int) -> list[dict]:
    """``np.random.PCG64(child).state`` for children ``first`` to
    ``first + count - 1`` of ``np.random.SeedSequence(seed)``.

    Children differ only in their spawn key, the last word of their entropy,
    so the pool is hashed once up to that word, in Python ints, and the rest
    of the hash runs on uint64 arrays of 32-bit words, one element per child.
    PCG64's 128-bit seeding step then runs in the Python ints its ``state``
    setter takes.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    # get_assembled_entropy: the seed's 32-bit words, low first, padded with
    # zeros to the pool size of 4 because a spawn key follows
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    # the spawn key (r,) is one word while r < 2**32
    keys = np.arange(first, first + count, dtype=np.uint64)
    # mix_entropy: fill the pool, cross-mix it, then mix in the later words
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:] + [keys]:
        pool = [_mix(word_dst, hashmix(word)) for word_dst in pool]
    # generate_state(4, np.uint64): eight hashed words, read as little-endian
    # pairs v0..v3
    hash_state = _hasher(_INIT_B, _MULT_B)
    out = [hash_state(pool[i % 4]) for i in range(8)]
    v = [(out[k] | out[k + 1] << 32).tolist() for k in (0, 2, 4, 6)]
    # pcg64_set_seed: initstate = v0:v1 and initseq = v2:v3 (high:low), then
    # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1 and
    # state = (inc + initstate) * multiplier + inc, all mod 2**128
    states = []
    for v0, v1, v2, v3 in zip(*v):
        inc = ((v2 << 64 | v3) << 1 | 1) & _M128
        state = ((inc + (v0 << 64 | v1)) * _PCG_MULT + inc) & _M128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _lemire_positions(words, n: int):
    """Positions ``Generator.integers(0, n, size=n)`` makes from ``words``, one
    row per replicate, and which rows hold a draw numpy would reject.

    numpy's buffered_bounded_lemire_uint32: a 32-bit word ``u`` gives the
    position ``u * n >> 32`` unless the low half of ``u * n`` is below
    ``2**32 % n``; then numpy draws again.  With ``n == 1`` numpy draws no word.
    """
    if n == 1:
        return np.zeros((len(words), 1), dtype=np.int64), np.zeros(len(words), dtype=bool)
    m = words.astype(np.uint64) * np.uint64(n)
    return (m >> 32).view(np.int64), ((m & _M32) < (1 << 32) % n).any(axis=1)


def _numpy_draws(rng, n_t: int, n_c: int):
    """Both arms' positions as numpy's own ``Generator`` draws them."""
    return rng.integers(0, n_t, size=n_t), rng.integers(0, n_c, size=n_c)


def _bootstrap_contrasts(y, weights, treated, control, reps: int, seed: int,
                         *, batch_rows: int) -> np.ndarray:
    """Hajek contrast of each arm-stratified bootstrap replicate.

    Replicate ``r`` draws what ``Generator(PCG64(SeedSequence(seed).spawn(
    reps)[r]))`` draws with ``integers(0, n)``: the treated positions first,
    then the control ones.  The draws are made without those objects: one
    ``PCG64`` is set to each child's state and gives its raw words in one
    call, and numpy's 32-bit rule maps them to positions; a row with a draw
    numpy would reject is drawn again through numpy's ``Generator``.  A batch
    of replicates is then evaluated at once, each row summing the same
    products in the same order as a one-replicate sum, so the contrasts do not
    depend on ``batch_rows``.
    """
    wy = y * weights
    wy_t, w_t = wy[treated], weights[treated]
    wy_c, w_c = wy[control], weights[control]
    n_t, n_c = len(treated), len(control)
    batch = max(1, batch_rows // (n_t + n_c))
    # 32-bit words per arm: integers(0, 1) draws none
    d_t, d_c = (n if n > 1 else 0 for n in (n_t, n_c))
    steps = (d_t + d_c + 1) // 2
    bitgen = np.random.PCG64(0)  # set to each replicate's child state in turn
    rng = np.random.Generator(bitgen)
    contrasts = np.empty(reps)
    for start in range(0, reps, batch):
        states = _child_states(seed, start, min(batch, reps - start))
        raw = np.empty((len(states), steps), dtype=np.uint64)
        for i, state in enumerate(states):
            bitgen.state = state
            raw[i] = bitgen.random_raw(steps)
        # PCG64's next_uint32 gives a word's low half, then its high half, and
        # the control arm's draws follow straight on from the treated arm's
        words = raw.astype("<u8", copy=False).view("<u4")
        t, rejected_t = _lemire_positions(words[:, :d_t], n_t)
        c, rejected_c = _lemire_positions(words[:, d_t:d_t + d_c], n_c)
        for i in np.flatnonzero(rejected_t | rejected_c):
            bitgen.state = states[i]
            t[i], c[i] = _numpy_draws(rng, n_t, n_c)
        contrasts[start:start + len(states)] = (
            wy_t[t].sum(axis=1) / w_t[t].sum(axis=1) - wy_c[c].sum(axis=1) / w_c[c].sum(axis=1)
        )
    return contrasts


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or NaN: check_finite reports it
def ipw_estimate(frame: StudyFrame, model: PropensityModel, *, reps: int = 1000,
                 seed: int = 0) -> PointEstimate:
    """Normalized inverse-propensity-weighted contrast over sampled units.

    Each sampled unit is weighted by the inverse of its fitted selection
    probability; the SE comes from an arm-stratified nonparametric bootstrap
    of ``reps`` replicates, deterministic given the seed.  The bootstrap draws
    positions within each arm, taken in frame (file) order, so the SE depends
    on the row order: the same units in another order give another SE.
    """
    if not model.converged:
        raise UnfittedModel()
    sampled = frame.z == 1
    scores = propensity_scores(model, frame)[sampled]
    w = frame.w[sampled]
    if not np.any(w == 1):
        raise EmptyArm("treated")
    if not np.any(w == 0):
        raise EmptyArm("control")
    nonpositive = np.flatnonzero(scores <= 0)
    if nonpositive.size:
        raise ZeroPropensity(frame.ids[sampled][nonpositive[0]])
    y = frame.y[sampled]
    weights = 1.0 / scores
    estimate = _hajek_contrast(y, w, weights)

    contrasts = _bootstrap_contrasts(y, weights, np.flatnonzero(w == 1), np.flatnonzero(w == 0),
                                     reps, seed, batch_rows=_BATCH_ROWS)
    se = float(contrasts.std(ddof=1)) if reps > 1 else None
    return PointEstimate(
        method="ipw",
        estimate=estimate,
        se=se,
        details={
            "normalized": True,
            "bootstrap_reps": reps,
            "seed": seed,
            "weight_range": [float(weights.min()), float(weights.max())],
        },
    )


def subclass_estimate(frame: StudyFrame, assignment: StratumAssignment) -> PointEstimate:
    """Population-share weighted average of within-stratum naive contrasts."""
    t = assignment.tallies
    bad = [g + 1 for g in range(assignment.k) if not t.viable(g)]
    if bad:
        raise NonViableStratum(bad)
    estimate = 0.0
    var = 0.0
    per_stratum = []
    for g in range(assignment.k):
        est, se = _arm_contrast(t, g)
        share = t.units[g] / frame.n_units
        estimate += share * est
        var += share**2 * se**2
        per_stratum.append({"stratum": g + 1, "share": share, "estimate": est, "se": se})
    return PointEstimate(
        method="subclassification",
        estimate=estimate,
        se=math.sqrt(var),
        details={"k": assignment.k, "per_stratum": per_stratum},
    )

