"""Command-line front end.

Pipeline: ingest -> propensity -> strata -> lambda -> bounds -> point
estimates, emitted as JSON (full precision), CSV, or Markdown.  Subcommands
expose the individual stages; ``verify`` runs the enumeration oracles against
the closed-form engine on a binary frame.

Exit codes: 0 success, 1 verification mismatch, 2 data error, 3 config error,
4 internal error (a fault in pibgen; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import traceback
from dataclasses import asdict
from fractions import Fraction
from functools import cache, cached_property, partial

from . import bounds as bounds_mod
from . import oracle as oracle_mod
from .errors import ConfigError, DataError, NonViableStratum, PibgenError
from .frame import (
    ColumnMap,
    OutcomeSupport,
    convert,
    design_probs,
    empirical_rates,
    load_frame,
    load_two_frames,
    tallies,
)
from .lambda_select import lambda_report, parse_lambda_expr, resolve_lambda
from .points import ipw_estimate, naive_sate, subclass_estimate
from .propensity import (
    compute_balance,
    fit_propensity,
    logit_scores,
    model_from_json,
    model_to_json,
)
from .report import check_finite, render_csv, render_markdown, rows_csv, rows_md, to_json
from .stratify import merge_nonviable, strata_for_frame, stratum_summary_rows

FORMATS = ("json", "csv", "md")
FRAMEWORKS = ("full", "reduced", "both")
ASSUMPTION_ALIASES = {"worst": "worst_case", "worst_case": "worst_case", "bsv": "bsv", "mtr": "mtr"}
# past this many bootstrap replicates the SE's Monte Carlo error is far below
# the 3 decimals a report prints
MAX_REPS = 1_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(3)


COMMANDS = {
    "analyze": "full report: intervals, stratified intervals, point estimates",
    "propensity": "fit the sampling propensity model and print it as JSON",
    "strata": "print the stratum layout as a table",
    "lambda": "print the candidate lambda values as a table",
    "bounds": "whole-frame interval estimates only",
    "points": "point estimates only",
    "verify": "check the closed-form engine against the enumeration oracles",
}


# Each option once: its config key, its default, and the declaration of its
# flag, which is the key with '-' for '_'; '{default}' in a help text is the default
OPTIONS = {
    "data": (None, dict(help="combined CSV with an in-sample column")),
    "sample": (None, dict(help="sample-only CSV (rows become z=1)")),
    "population": (None, dict(help="non-sampled population CSV (rows become z=0)")),
    "sample_col": ("in_sample", dict(help="in-sample indicator column (default {default})")),
    "treatment_col": ("treatment", dict(help="treatment column (default {default})")),
    "outcome_col": ("outcome", dict(help="outcome column (default {default})")),
    "id_col": ("id", dict(help="id column (default {default}; absent = row numbers)")),
    "support": ("0,1", dict(help="outcome support as 'lo,hi' (default {default}; write "
                                 "--support=-2,3 for a negative lower bound)")),
    "covariates": (None, dict(help="comma-separated covariate columns (default: all)")),
    "exclude": (None, dict(help="comma-separated columns to drop from the default "
                                "covariate set")),
    "categorical": ([], dict(action="append", metavar="COL=REF",
                             help="one-hot encode COL with reference level REF (repeatable)")),
    "strata": (5, dict(type=int, help="stratum count k (default {default})")),
    "pw0z0": (0.5, dict(type=float,
                        help="assumed P(W=0|Z=0) for the reduced framework (default {default})")),
    "lambda": ([], dict(action="append", metavar="EXPR", help="lambda value or rule "
                        "(repeatable), e.g. 0.3, asmd:max:x1,x2, sd:pooled")),
    "framework": ("full", dict(choices=FRAMEWORKS)),
    "assumption": (["worst"], dict(action="append", choices=sorted(ASSUMPTION_ALIASES),
                                   help="repeatable; default {default[0]}")),
    "seed": (None, dict(type=int, help="master seed (env PIBGEN_SEED as fallback)")),
    "reps": (1000, dict(type=int, help=f"bootstrap replicates, at most {MAX_REPS:,} "
                        "(default {default})")),
    "pooled": (False, dict(action="store_true",
                           help="add the population-share pooled interval across strata")),
    "merge_strata": (False, dict(action="store_true", help="collapse non-viable strata into "
                                 "a neighbor instead of skipping")),
    "model": (None, dict(help="propensity model JSON to load instead of fitting")),
    "format": ("md", dict(choices=FORMATS)),
    "out": (None, dict(help="write output here instead of stdout")),
}
_DEFAULTS = {key: default for key, (default, _) in OPTIONS.items()}


def build_parser() -> _Parser:
    """A new parser; ``main`` builds one per process (see ``_parser``)."""
    # a flag left out is absent from the namespace, so the config value shows through
    p = _Parser(prog="pibgen", description=__doc__, argument_default=argparse.SUPPRESS)
    p.add_argument("command", choices=COMMANDS,
                   help="; ".join(f"{name}: {text}" for name, text in COMMANDS.items()))
    p.add_argument("--config", help="JSON config file; flags override its values")
    for key, (default, declaration) in OPTIONS.items():
        if "help" in declaration:
            declaration = {**declaration, "help": declaration["help"].format(default=default)}
        p.add_argument(f"--{key.replace('_', '-')}", **declaration)
    return p


@cache
def _parser() -> _Parser:
    """The process's one parser: it keeps no state between ``parse_args`` calls,
    and building it costs more than most of a call's own work."""
    return build_parser()


def _merge_config(args) -> dict:
    config = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(config, dict):
            raise ConfigError(f"config file {path!r} does not hold a JSON object")
        unknown = set(config) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return {**_DEFAULTS, **config, **vars(args)}


def _parse_support(value) -> OutcomeSupport:
    parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        lo, hi = (float(part) for part in parts)
    except (TypeError, ValueError):
        raise ConfigError(f"--support expects 'lo,hi', got {value!r}")
    return OutcomeSupport(lo, hi)


def _column_names(options, key) -> tuple[str, ...] | None:
    value = options[key]
    if value is None:
        return None
    if isinstance(value, str):
        return tuple(c for c in value.split(",") if c)
    if isinstance(value, (list, tuple)) and all(isinstance(c, str) for c in value):
        return tuple(value)
    raise ConfigError(f"--{key} expects comma-separated column names, got {value!r}")


def _categorical(items) -> tuple:
    if not isinstance(items, (list, tuple)):
        raise ConfigError(f"--categorical expects a list of COL=REF items, got {items!r}")
    pairs = []
    for item in items:
        if isinstance(item, (list, tuple)) and len(item) == 2:
            pairs.append(tuple(item))
        elif isinstance(item, str) and "=" in item:
            pairs.append(tuple(item.split("=", 1)))
        else:
            raise ConfigError(f"--categorical expects COL=REF, got {item!r}")
    return tuple(pairs)


def _load(options) -> tuple:
    support = _parse_support(options["support"])
    for key in ("id_col", "sample_col", "treatment_col", "outcome_col"):
        if not isinstance(options[key], str):
            raise ConfigError(f"--{key.replace('_', '-')} expects a column name, "
                              f"got {options[key]!r}")
    columns = ColumnMap(
        id=options["id_col"],
        in_sample=options["sample_col"],
        treatment=options["treatment_col"],
        outcome=options["outcome_col"],
        covariates=_column_names(options, "covariates"),
        exclude=_column_names(options, "exclude") or (),
        categorical=_categorical(options["categorical"]),
    )
    for key in ("data", "sample", "population", "model"):
        if options[key] is not None and not isinstance(options[key], str):
            raise ConfigError(f"--{key} expects a file path, got {options[key]!r}")
    keys = ("data",) if options["data"] else ("sample", "population")
    if not all(options[key] for key in keys):
        raise ConfigError("provide --data, or both --sample and --population")
    try:
        frame = (load_frame if len(keys) == 1 else load_two_frames)(
            *(options[key] for key in keys), support, columns)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {exc.filename!r}: {exc.strerror}")
    return frame, "+".join(os.path.basename(options[key]) for key in keys)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_request(options):
    """Check every analysis option before any file is read, and leave each one
    resolved in ``options``: the seed with its PIBGEN_SEED fallback, the
    assumptions by canonical name and each ``--lambda`` expression parsed."""
    for key in ("strata", "reps"):
        if not _is_int(options[key]):
            raise ConfigError(f"--{key} must be an integer, got {options[key]!r}")
    if options["strata"] < 1:
        raise ConfigError("--strata must be >= 1")
    if options["reps"] < 0:
        raise ConfigError("--reps must be >= 0")
    if options["reps"] > MAX_REPS:
        raise ConfigError(f"--reps must be <= {MAX_REPS:,}, got {options['reps']}")
    seed = options["seed"]
    if seed is None:  # PIBGEN_SEED is the fallback, 0 when it is unset or empty
        seed = os.environ.get("PIBGEN_SEED") or 0
        with contextlib.suppress(ValueError):
            seed = int(seed)
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"--seed (or PIBGEN_SEED) must be a non-negative integer, got {seed!r}")
    options["seed"] = seed
    for key in ("pooled", "merge_strata"):
        if not isinstance(options[key], bool):
            raise ConfigError(f"--{key.replace('_', '-')} expects true or false, "
                              f"got {options[key]!r}")
    pw0z0 = options["pw0z0"]
    if isinstance(pw0z0, bool) or not isinstance(pw0z0, (int, float)):
        raise ConfigError(f"--pw0z0 must be a real number, got {pw0z0!r}")
    if not 0 <= pw0z0 <= 1:  # NaN included
        raise ConfigError(f"--pw0z0 must be in [0, 1], got {pw0z0!r}")
    for key, choices in (("framework", FRAMEWORKS), ("format", FORMATS)):
        if not isinstance(options[key], str) or options[key] not in choices:
            raise ConfigError(f"--{key} must be one of {', '.join(choices)}, "
                              f"got {options[key]!r}")
    names = options["assumption"]
    if not isinstance(names, list):
        raise ConfigError(f"--assumption expects a list of names, got {names!r}")
    for name in names:
        if not isinstance(name, str) or name not in ASSUMPTION_ALIASES:
            raise ConfigError(f"--assumption must be one of {sorted(ASSUMPTION_ALIASES)}, "
                              f"got {name!r}")
    if not names:
        raise ConfigError("at least one --assumption is required")
    options["assumption"] = [ASSUMPTION_ALIASES[name] for name in names]
    exprs = options["lambda"]
    if isinstance(exprs, (str, float, int)):
        exprs = [exprs]
    elif not isinstance(exprs, list):
        raise ConfigError(f"--lambda expects an expression or a list of them, got {exprs!r}")
    options["lambda"] = [parse_lambda_expr(str(expr)) for expr in exprs]


# Each subcommand's document is a view: the keys it shows, in build order.
VIEWS = {
    "analyze": ("meta", "frame", "design", "rates", "propensity", "balance", "lambda_report",
                "lambda_values", "intervals", "stratum_intervals", "point_estimates", "notes"),
    "bounds": ("meta", "frame", "intervals"),
    "points": ("meta", "point_estimates", "notes"),
}


class _Pipeline:
    """The analysis stages over one loaded frame.  Each stage runs at most
    once, when the first document key that needs it is built."""

    def __init__(self, options):
        self.options = options
        self.frame, self.source = _load(options)

    @cached_property
    def probs(self):
        return design_probs(self.frame, self.options["pw0z0"])

    @cached_property
    def rates(self):
        return empirical_rates(self.frame)

    @cached_property
    def model(self):
        if not self.options["model"]:
            return fit_propensity(self.frame, self.frame.covariate_names)
        try:
            with open(self.options["model"], encoding="utf-8") as fh:
                model = model_from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"cannot read model file: {exc}")
        for name in model.coefficients:  # each must name a covariate of the frame
            self.frame.covariate_index(name)
        return model

    @cached_property
    def balance(self):
        # a loaded model names its covariates; a fitted one uses the frame's
        names = tuple(self.model.coefficients) if self.options["model"] else None
        return compute_balance(self.frame, names)

    @cached_property
    def lambdas(self):
        # only an asmd rule reads the balance table, and so the model
        return [{"label": spec.label(), "value": resolve_lambda(
                    spec, self.frame, self.balance if spec.mode == "asmd" else None)}
                for spec in self.options["lambda"]]

    @cached_property
    def specs(self):
        framework = self.options["framework"]
        frameworks = ["full", "reduced"] if framework == "both" else [framework]
        return bounds_mod.bound_specs(self.options["assumption"], frameworks,
                                      [lam["value"] for lam in self.lambdas])

    @cached_property
    def intervals(self):
        return [interval for spec in self.specs
                for interval in bounds_mod.compute_bounds(spec, self.rates, self.probs,
                                                          self.frame.support)]

    @cached_property
    def assignment(self):
        """The run's one stratum layout: every per-stratum result reads it."""
        logits = logit_scores(self.model, self.frame)
        assignment = strata_for_frame(self.frame, logits, self.options["strata"])
        if not self.options["merge_strata"]:
            return assignment
        merged = merge_nonviable(assignment, self.frame)
        if merged.k != assignment.k:
            print(f"warning: merged non-viable strata, k={assignment.k} -> {merged.k}",
                  file=sys.stderr)
        return merged

    @cached_property
    def stratified(self):
        return bounds_mod.stratified_bounds(
            self.frame, self.assignment, self.specs,
            p_w0_given_z0=self.options["pw0z0"], pooled=self.options["pooled"],
        )

    @cached_property
    def points(self):
        """The three estimators, plus the reason subclassification is unavailable."""
        frame, options = self.frame, self.options
        points = [naive_sate(frame).to_json()]
        points.append(ipw_estimate(frame, self.model, reps=options["reps"],
                                   seed=options["seed"]).to_json())
        try:
            points.append(subclass_estimate(frame, self.assignment).to_json())
        except NonViableStratum as exc:
            return points, str(exc)
        return points, None

    def document(self, keys) -> dict:
        sections = {
            "meta": self._meta,
            "frame": self._frame,
            "design": lambda: asdict(self.probs),
            "rates": lambda: {
                "e_y1_w1z1": self.rates.e_y1_w1z1,
                "e_y0_w0z1": self.rates.e_y0_w0z1,
                "e_y0_w0z0": self.rates.e_y0_w0z0,
            },
            "propensity": lambda: self.model.to_json(),
            "balance": lambda: [asdict(row) for row in self.balance.rows],
            "lambda_report": lambda: lambda_report(self.frame, self.balance),
            "lambda_values": lambda: self.lambdas,
            "intervals": lambda: [interval.to_json() for interval in self.intervals],
            "stratum_intervals": self._stratum_intervals,
            "point_estimates": lambda: self.points[0],
            "notes": lambda: self._notes(keys),
        }
        return {key: sections[key]() for key in keys}

    def _meta(self):
        options = self.options
        return {
            "tool": "pibgen",
            "format_version": 1,
            "input": self.source,
            "seed": options["seed"],
            "options": {
                "strata": options["strata"],
                "pw0z0": options["pw0z0"],
                "framework": options["framework"],
                "assumptions": options["assumption"],
                "reps": options["reps"],
            },
        }

    def _frame(self):
        t, support = tallies(self.frame), self.frame.support
        return {
            "n_units": t.units[0],
            "n_sample": t.treated[0] + t.control[0],
            "n_sample_treated": t.treated[0],
            "n_sample_control": t.control[0],
            "support": [support.y_lo, support.y_hi],
        }

    def _stratum_intervals(self):
        block = {"k": self.assignment.k,
                 "strata": [stratum.to_json() for stratum in self.stratified.strata]}
        if self.stratified.pooled:
            note = ("population-share weighted across strata: the PATE range when "
                    "randomization identifies each stratum's arm means")
            block["pooled"] = [{**interval.to_json(), "note": note}
                               for interval in self.stratified.pooled]
        return block

    def _notes(self, keys):
        notes = {"subclassification_error": self.points[1]}
        if "intervals" in keys:
            notes["clamped_intervals"] = sum(
                int(i.clamped_lo) + int(i.clamped_hi) for i in self.intervals
            )
        if "stratum_intervals" in keys:
            notes["non_viable_strata"] = [
                s.index for s in self.stratified.strata if not s.viable
            ]
        return notes


def _emit(document: dict, options, table=None) -> str:
    """The document in the chosen format; in CSV and Markdown a ``table`` of
    rows stands for a document that holds only that table.  A NaN or infinity
    in the document is a ``NonFiniteResult`` in every format: JSON checks as it
    writes, and the other formats check first."""
    fmt = options["format"]
    if fmt == "json":
        return to_json(document)
    check_finite(document)
    if fmt == "csv":
        return render_csv(document) if table is None else rows_csv(table)
    return render_markdown(document) if table is None else rows_md(table)


# --- verify ---------------------------------------------------------------------


# verify checks the sharp BSV bounds at each of these λ
VERIFY_LAMBDAS = (Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1))


def _verify_checks(frame):
    """Yield (name, (float engine interval, rational engine interval), oracle
    enumeration) comparisons on the information set the oracles describe."""
    def engine_pair(closed_form, *exact_args):
        """``closed_form`` on the exact inputs rounded once to float, as a float
        tally of 0/1 outcomes gives them, and then on the exact inputs."""
        rounded = (arg if isinstance(arg, str) else float(arg) if isinstance(arg, Fraction)
                   else convert(arg) for arg in exact_args)
        return closed_form(*rounded), closed_form(*exact_args)

    rates, probs = oracle_mod.exact_inputs(frame)
    exact = oracle_mod.EXACT_BINARY
    # the reduced framework needs business-as-usual outcomes among z=0 units
    frameworks = ("full", "reduced") if rates.e_y0_w0z0 is not None else ("full",)
    for framework in frameworks:
        yield (f"worst_case {framework}",
               engine_pair(bounds_mod.worst_case_bounds, rates, probs, framework, exact),
               oracle_mod.enumerate_worst_case(frame, framework))
    sharp_bsv = partial(bounds_mod.bsv_bounds, intersect_support=True)
    for lam in VERIFY_LAMBDAS:
        for framework in frameworks:
            yield (f"bsv {framework} lambda={lam}",
                   engine_pair(sharp_bsv, rates, probs, framework, lam, exact),
                   oracle_mod.enumerate_bsv(rates, probs, lam, framework))
    scopes = [("sample", rates, probs)]
    with contextlib.suppress(DataError):  # a frame the population scope does not fit
        scopes.append(("population", *oracle_mod.population_inputs(frame)))
    for scope, rates, probs in scopes:
        (min_f, max_f), (min_x, max_x) = engine_pair(bounds_mod.mtr_bounds, rates, probs, scope)
        yield (f"mtr {scope} max-variant", (max_f, max_x), oracle_mod.enumerate_mtr(frame, scope))
        yield (f"mtr {scope} min-variant", (min_f, min_x),
               oracle_mod.enumerate_mtr(frame, scope, pin_free_to_zero=True))


def cmd_verify(options) -> tuple[str, int]:
    """The verify log and its exit code: 0 when every check passes, 1 on any
    mismatch, each mismatch followed by the frame as a counterexample."""
    frame, _ = _load(options)
    lines, failures = [], 0
    for name, (engine, exact_engine), enum in _verify_checks(frame):
        exact_ok = exact_engine.pre_clamp_lo == enum.lo and exact_engine.pre_clamp_hi == enum.hi
        float_ok = (abs(engine.pre_clamp_lo - float(enum.lo)) <= 1e-12
                    and abs(engine.pre_clamp_hi - float(enum.hi)) <= 1e-12)
        if exact_ok and float_ok:
            lines.append(f"ok {name}: [{float(enum.lo):.6f}, {float(enum.hi):.6f}]")
            continue
        failures += 1
        lines += [
            f"MISMATCH {name}",
            f"  engine (float):    [{engine.pre_clamp_lo!r}, {engine.pre_clamp_hi!r}]",
            f"  engine (rational): [{exact_engine.pre_clamp_lo}, {exact_engine.pre_clamp_hi}]",
            f"  enumeration:       [{enum.lo}, {enum.hi}]",
            "  frame:",
        ]
        lines += [f"    id={uid} z={z} w={None if w < 0 else w} y={None if y != y else y}"
                  for uid, z, w, y in zip(frame.ids.tolist(), frame.z.tolist(),
                                          frame.w.tolist(), frame.y.tolist())]
    lines.append(f"{failures} mismatch(es)" if failures else "all oracle checks passed")
    return "\n".join(lines) + "\n", 1 if failures else 0


# --- entry point ------------------------------------------------------------------


def _run(args) -> int:
    options = _merge_config(args)
    out_path = options["out"]
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"--out expects a file path, got {out_path!r}")

    def write(text: str) -> None:
        if not out_path:
            sys.stdout.write(text)
            return
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out_path!r}: {exc.strerror}")

    if args.command == "verify":
        text, code = cmd_verify(options)
        write(text)
        return code
    if args.command != "propensity":
        _check_request(options)
    stages = _Pipeline(options)
    if args.command == "propensity":
        write(model_to_json(stages.model) + "\n")
    elif args.command == "strata":
        table = stratum_summary_rows(stages.assignment)  # open outer ends -inf and inf
        rows = [dict(row) for row in table]
        rows[0]["logit_lo"] = rows[-1]["logit_hi"] = None  # JSON has no infinity
        write(_emit({"strata": rows}, options, table))
    elif args.command == "lambda":
        rows = lambda_report(stages.frame, stages.balance)
        write(_emit({"lambda_report": rows}, options, rows))
    else:
        write(_emit(stages.document(VIEWS[args.command]), options))
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PibgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault in pibgen itself, not in the input or the options
        print(f"internal error: {traceback.format_exc()}", file=sys.stderr, end="")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
