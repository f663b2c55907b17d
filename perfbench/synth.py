"""Statewide synthetic frame generator, with the frame size as a parameter.

This is the model of ``tools/make_synthetic_dataset.py``: school covariates,
self-selection by Gumbel-perturbed logit, a randomised treated subset of the
sample, and a binary pass/fail outcome with a modest treatment lift.  At the
tool's defaults it writes ``src/pibgen/data/statewide_synthetic.csv`` byte for
byte (``perfbench/selftest.py`` checks this), so a larger frame is the bundled
model at scale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

BUNDLED = {"n": 1029, "n_sample": 56, "n_treated": 34, "seed": 20160412}
HEADER = ["id", "in_sample", "treatment", "outcome", "pretest", "enroll", "frl", "title1"]


@dataclass(frozen=True)
class Columns:
    """The generated frame as columns; ``treatment`` is -1 for non-sampled units."""

    pretest: np.ndarray
    enroll: np.ndarray
    frl: np.ndarray
    title1: np.ndarray
    sampled: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray


def generate(n: int, n_sample: int, n_treated: int, seed: int) -> Columns:
    rng = np.random.default_rng(seed)
    pretest = rng.normal(0.0, 1.0, n).round(4)
    enroll = rng.lognormal(5.8, 0.45, n).round(1)
    frl = rng.beta(2.2, 3.0, n).round(4)
    title1 = (rng.random(n) < 0.35 + 0.3 * frl).astype(int)

    sel_logit = -3.2 + 0.55 * pretest - 0.4 * title1 + 0.3 * (frl - frl.mean())
    keys = sel_logit + rng.gumbel(0.0, 1.0, n)
    sampled = np.zeros(n, dtype=int)
    sampled[np.argsort(-keys)[:n_sample]] = 1

    treatment = np.full(n, -1, dtype=int)
    sample_idx = np.flatnonzero(sampled == 1)
    treated_idx = rng.choice(sample_idx, size=n_treated, replace=False)
    treatment[sample_idx] = 0
    treatment[treated_idx] = 1

    base = 1 / (1 + np.exp(-(0.9 + 0.8 * pretest - 0.6 * frl)))
    lift = np.clip(base + 0.12, 0, 1)
    # one uniform per unit in row order, as the tool's per-unit loop draws them
    draws = rng.random(n)
    outcome = (draws < np.where(treatment == 1, lift, base)).astype(int)
    return Columns(pretest, enroll, frl, title1, sampled, treatment, outcome)


def write_csv(cols: Columns, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for i in range(len(cols.sampled)):
            t = cols.treatment[i]
            writer.writerow(
                [f"sch{i + 1:04d}", cols.sampled[i], "" if t < 0 else str(t), str(cols.outcome[i]),
                 cols.pretest[i], cols.enroll[i], cols.frl[i], cols.title1[i]]
            )
