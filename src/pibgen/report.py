"""Analysis report rendering: ``cli`` assembles the document, this module writes it.

The JSON document is the single source of truth (full precision, deterministic
key order); the Markdown and CSV emitters are pure views over it and never
recompute anything.  Markdown rounds interval endpoints to 2 decimals and
point estimates to 3, matching the usual table conventions for this kind of
analysis.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .errors import NonFiniteResult


def check_finite(node, path=""):
    """``node`` itself once every number in it is finite; otherwise
    ``NonFiniteResult`` names the first one that is not, in insertion order,
    by its key path.  ``to_json`` makes this check as it writes; the Markdown
    and CSV views call it first."""
    if isinstance(node, float) and not math.isfinite(node):
        raise NonFiniteResult(path, node)
    if isinstance(node, dict):
        for key, value in node.items():
            check_finite(value, f"{path}.{key}" if path else key)
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            check_finite(value, f"{path}[{i}]")
    return node


_INF = math.inf
_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__


def _encode(node, indent: str) -> str:
    """``json.dumps(node, indent=2, sort_keys=True)`` for a dict, list or tuple
    whose closing bracket follows ``indent`` (a newline and its spaces), except
    that a NaN or infinity raises ``ValueError``; as in the stdlib, a non-``str``
    key or a value of a type JSON lacks raises ``TypeError``.  With ``indent`` set
    the stdlib leaves its C encoder for a Python one that makes a call per value;
    this walk writes each scalar in its container's loop instead."""
    inner = indent + "  "
    if isinstance(node, dict):
        if not node:
            return "{}"
        keys = sorted(node)
        values = map(node.__getitem__, keys)
    else:
        if not node:
            return "[]"
        keys, values = None, node
    parts = []
    for value in values:
        if isinstance(value, float):
            if not -_INF < value < _INF:  # NaN fails both comparisons
                raise ValueError(f"out of range float value: {value!r}")
            parts.append(_float_repr(value))
        elif isinstance(value, str):
            parts.append(_encode_str(value))
        elif isinstance(value, (dict, list, tuple)):
            parts.append(_encode(value, inner))
        elif value is True:
            parts.append("true")
        elif value is False:
            parts.append("false")
        elif value is None:
            parts.append("null")
        elif isinstance(value, int):
            parts.append(_int_repr(value))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if keys is None:
        return f"[{inner}{(',' + inner).join(parts)}{indent}]"
    parts = [f"{_encode_str(key)}: {text}" for key, text in zip(keys, parts)]
    return f"{{{inner}{(',' + inner).join(parts)}{indent}}}"


def to_json(document: dict) -> str:
    """Strict JSON, byte for byte ``json.dumps(document, indent=2,
    sort_keys=True) + "\\n"``, written by ``_encode`` alone.  A NaN or infinity is
    not written: it raises ``NonFiniteResult``, naming the first one in the
    document's own order.  A non-``str`` key or a non-JSON value is a ``TypeError``."""
    try:
        return _encode(document, "\n") + "\n"
    except ValueError:
        check_finite(document)
        raise


# magnitudes from here on print in exponent form, so a huge support cannot
# fill a table cell with hundreds of digits; no golden value reaches it
_EXPONENT_FROM = 1e6


def _f2(x) -> str:
    return f"{x:.2e}" if abs(x) >= _EXPONENT_FROM else f"{x:.2f}"


def _f3(x) -> str:
    if x is None:
        return "n/a"
    return f"{x:.3e}" if abs(x) >= _EXPONENT_FROM else f"{x:.3f}"


def _interval_cell(entry: dict) -> str:
    flag = ""
    if entry["clamped"]["lo"] or entry["clamped"]["hi"]:
        flag = " *"
    return f"[{_f2(entry['lo'])}, {_f2(entry['hi'])}]{flag}"


def _md_table(headers, rows) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


def _describe(entry: dict) -> tuple[str, str, str]:
    assumption = {"worst_case": "treatment randomization",
                  "bsv": "bounded sample variation",
                  "mtr": "monotone treatment response"}[entry["assumption"]]
    framework = entry.get("scope") or entry["framework"]
    extra = ""
    if "lambda" in entry:
        extra = f"lambda={entry['lambda']:g}"
    if "variant" in entry:
        extra = f"{entry['variant']} variant"
    return assumption, framework, extra


def _section(title, headers, rows, *after) -> list[str]:
    lines = [f"## {title}", "", *_md_table(headers, rows), ""]
    return lines + [*after, ""] if after else lines


def render_markdown(document: dict) -> str:
    lines = ["# PATE analysis report", ""]
    meta = document["meta"]
    lines.append(f"- input: {meta['input']}")
    lines.append(f"- seed: {meta['seed']}")
    frame = document.get("frame")
    if frame:
        lines.append(
            f"- units: {frame['n_units']} total, {frame['n_sample']} sampled "
            f"({frame['n_sample_treated']} treated / {frame['n_sample_control']} control)"
        )
        lines.append(f"- outcome support: [{frame['support'][0]:g}, {frame['support'][1]:g}]")
    lines.append("")

    if document.get("intervals"):
        note = {True: "sharp and improving", False: "does not improve on worst case"}
        rows = [(*_describe(entry), _interval_cell(entry), note.get(entry.get("improves"), ""))
                for entry in document["intervals"]]
        lines += _section("Interval estimates (whole frame)",
                          ["Assumption", "Framework", "Detail", "Interval", "Note"], rows,
                          "`*` endpoint clamped to the feasible range.")

    strata_block = document.get("stratum_intervals")
    if strata_block:
        rows = []
        for stratum in strata_block["strata"]:
            if not stratum["viable"]:
                rows.append((stratum["stratum"], stratum["n_population"], "-", "-",
                             f"skipped: {stratum['skip_reason']}"))
                continue
            for entry in stratum["results"]:
                assumption, framework, extra = _describe(entry)
                rows.append((stratum["stratum"], stratum["n_population"],
                             f"{assumption} ({framework})", extra, _interval_cell(entry)))
        lines += _section(f"Interval estimates by propensity stratum (k={strata_block['k']})",
                          ["Stratum", "N", "Assumption", "Detail", "Interval"], rows)
        if strata_block.get("pooled"):
            lines.append("Pooled across strata (population-share weighted; the PATE range "
                         "when randomization identifies each stratum's arm means):")
            lines.append("")
            rows = [(*_describe(entry), _interval_cell(entry)) for entry in strata_block["pooled"]]
            lines += _md_table(["Assumption", "Framework", "Detail", "Interval"], rows)
            lines.append("")

    if document.get("point_estimates"):
        lines += _section("Point estimates under sampling ignorability",
                          ["Method", "Estimate (SE)"],
                          [(p["method"], f"{_f3(p['estimate'])} ({_f3(p['se'])})")
                           for p in document["point_estimates"]])

    if document.get("balance"):
        lines += _section("Covariate balance",
                          ["Covariate", "Sample mean", "Population mean", "Population SD", "ASMD"],
                          [(b["covariate"], _f3(b["sample_mean"]), _f3(b["population_mean"]),
                            _f3(b["population_sd"]), _f3(b["asmd"])) for b in document["balance"]])

    if document.get("lambda_report"):
        lines += _section("Candidate lambda values", ["Rule", "Value"],
                          [(r["rule"], _f3(r["value"])) for r in document["lambda_report"]])

    prop = document.get("propensity")
    if prop:
        lines.append("## Propensity model")
        lines.append("")
        lines.append(f"- converged: {prop['converged']} in {prop['iterations']} iterations")
        lines.append(f"- intercept: {prop['intercept']:.6g}")
        for name, b in prop["coefficients"].items():
            lines.append(f"- {name}: {b:.6g}")
        lines.append("")

    notes = document.get("notes") or {}
    items = []
    if notes.get("non_viable_strata"):
        items.append(f"non-viable strata skipped: {notes['non_viable_strata']}")
    for item in notes.get("pooled_omitted", []):
        assumption, framework, extra = _describe(item)
        items.append(f"no pooled {assumption} ({', '.join(filter(None, [framework, extra]))}) "
                     f"interval: stratum {item['stratum']} has {item['reason']}")
    if notes.get("subclassification_error"):
        items.append(f"subclassification unavailable: {notes['subclassification_error']}")
    if notes.get("clamped_intervals"):
        items.append(f"{notes['clamped_intervals']} interval endpoint(s) clamped")
    if items:
        lines.append("## Notes")
        lines.append("")
        lines += [f"- {item}" for item in items]
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def rows_csv(rows: list[dict]) -> str:
    """Same-keyed rows as CSV, header first; a cell with a comma is quoted."""
    return _csv(list(rows[0]), [row.values() for row in rows])


def rows_md(rows: list[dict]) -> str:
    """The header and cells of ``rows_csv`` as a Markdown table."""
    return "\n".join(_md_table(list(rows[0]), [row.values() for row in rows])) + "\n"


def render_csv(document: dict) -> str:
    """Flat delimited view: one row per interval or point estimate."""
    rows = []

    def interval_row(section, stratum, entry):
        rows.append(
            [section, stratum, entry["assumption"],
             entry.get("scope") or entry["framework"],
             entry.get("lambda", ""), entry.get("variant", ""),
             repr(entry["lo"]), repr(entry["hi"]),
             int(entry["clamped"]["lo"]), int(entry["clamped"]["hi"]), "", "", ""]
        )

    for entry in document.get("intervals", []):
        interval_row("whole_frame", "", entry)
    block = document.get("stratum_intervals") or {}
    for stratum in block.get("strata", []):
        if stratum["viable"]:
            for entry in stratum["results"]:
                interval_row("stratum", stratum["stratum"], entry)
    for entry in block.get("pooled", []):
        interval_row("pooled", "", entry)
    for p in document.get("point_estimates", []):
        rows.append(
            ["point", "", "", "", "", "", "", "", "", "", p["method"],
             repr(p["estimate"]), "" if p["se"] is None else repr(p["se"])]
        )
    return _csv(["section", "stratum", "assumption", "framework", "lambda", "variant",
                 "lo", "hi", "clamped_lo", "clamped_hi", "method", "estimate", "se"], rows)
