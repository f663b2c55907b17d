"""Data model for combined sample + population frames, CSV ingestion, and the
empirical quantities (design probabilities, arm means) every estimator consumes.

A frame holds every unit in the inference population.  Sampled units (z=1)
carry a treatment indicator and a realized outcome; non-sampled units (z=0)
may carry a business-as-usual outcome and, for oracle use only, a hypothetical
arm label.  Frames are immutable after construction and all operations here
are pure reads.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields

from .errors import (
    BadIndicator,
    ConfigError,
    DuplicateId,
    EmptyArm,
    EmptySample,
    MissingColumn,
    MissingCovariate,
    MissingOutcome,
    NonFiniteValue,
    OutcomeOutOfSupport,
    UnknownCovariate,
)


@dataclass(frozen=True)
class OutcomeSupport:
    """Known lower and upper bound of the outcome; binary outcomes use (0, 1)."""

    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not (math.isfinite(self.y_lo) and math.isfinite(self.y_hi)):
            raise ConfigError(f"outcome support must be finite, got [{self.y_lo}, {self.y_hi}]")
        if not self.y_lo < self.y_hi:
            raise ConfigError(f"outcome support needs y_lo < y_hi, got [{self.y_lo}, {self.y_hi}]")

    @property
    def width(self) -> float:
        return self.y_hi - self.y_lo

    @property
    def is_binary(self) -> bool:
        return self.y_lo == 0 and self.y_hi == 1

    def contains(self, y) -> bool:
        return self.y_lo <= y <= self.y_hi


BINARY = OutcomeSupport(0.0, 1.0)


@dataclass(frozen=True)
class UnitRecord:
    """One unit (school): selection indicator z, arm w, outcome y, covariates x.

    ``x`` is aligned with the owning frame's ``covariate_names``.  For z=0
    units, ``w`` is an optional hypothetical arm label consumed only by the
    enumeration oracle, and ``y`` is an optional business-as-usual outcome.
    """

    id: str
    z: int
    w: int | None
    y: float | None
    x: tuple[float, ...] = ()


@dataclass(frozen=True)
class StudyFrame:
    units: tuple[UnitRecord, ...]
    support: OutcomeSupport
    covariate_names: tuple[str, ...] = ()

    def __post_init__(self):
        seen = set()
        for u in self.units:
            if u.id in seen:
                raise DuplicateId(u.id)
            seen.add(u.id)
            if u.z not in (0, 1):
                raise BadIndicator(u.id, "z", u.z)
            if u.w is not None and u.w not in (0, 1):
                raise BadIndicator(u.id, "w", u.w)
            if u.z == 1 and u.w is None:
                raise BadIndicator(u.id, "w", None)
            if u.z == 1 and u.y is None:
                raise MissingOutcome(u.id)
            if u.y is not None and not self.support.contains(u.y):
                raise OutcomeOutOfSupport(u.id, u.y, self.support.y_lo, self.support.y_hi)
            if len(u.x) != len(self.covariate_names):
                raise MissingCovariate(u.id, "<covariate vector length mismatch>")

    # -- sizes ---------------------------------------------------------------

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_sample(self) -> int:
        return sum(1 for u in self.units if u.z == 1)

    def sample_outcomes(self, w: int) -> list[float]:
        return [u.y for u in self.units if u.z == 1 and u.w == w]

    def z0_units(self) -> list[UnitRecord]:
        return [u for u in self.units if u.z == 0]

    def z0_outcomes(self) -> list[float]:
        return [u.y for u in self.units if u.z == 0 and u.y is not None]

    @property
    def is_binary(self) -> bool:
        if not self.support.is_binary:
            return False
        return all(u.y in (0.0, 1.0) for u in self.units if u.y is not None)

    def covariate_index(self, name: str) -> int:
        try:
            return self.covariate_names.index(name)
        except ValueError:
            raise UnknownCovariate(name, self.covariate_names)

    def covariate_column(self, name: str) -> list[float]:
        j = self.covariate_index(name)
        return [u.x[j] for u in self.units]


@dataclass(frozen=True)
class DesignProbs:
    """Selection and assignment probabilities feeding the bound formulas.

    ``p_z1`` and ``p_w1_given_z1`` are exact empirical fractions;
    ``p_w0_given_z0`` is an assumption about how non-sampled units would have
    been assigned, not an observable.
    """

    p_z1: float
    p_w1_given_z1: float
    p_w0_given_z0: float

    def __post_init__(self):
        for name in ("p_z1", "p_w1_given_z1", "p_w0_given_z0"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.p_z1 <= 0:
            raise ConfigError("p_z1 must be positive")

    @property
    def p_z0(self):
        return 1 - self.p_z1

    @property
    def p_w1_z1(self):
        """Joint P(W=1, Z=1)."""
        return self.p_w1_given_z1 * self.p_z1

    @property
    def p_w0_z1(self):
        return (1 - self.p_w1_given_z1) * self.p_z1

    @property
    def p_w0_z0(self):
        return self.p_w0_given_z0 * self.p_z0

    @property
    def p_w1_z0(self):
        """Residual population mass: P(W=1, Z=0) = 1 - P(Z=1) - P(W=0, Z=0)."""
        return 1 - self.p_z1 - self.p_w0_z0


@dataclass(frozen=True)
class EmpiricalRates:
    """Plug-in arm means. ``e_y0_w0z0`` is the business-as-usual mean over
    outcome-bearing z=0 units and is absent when no such unit exists.  The
    binary pass/fail rates are populated only for binary frames."""

    e_y1_w1z1: float
    e_y0_w0z1: float
    e_y0_w0z0: float | None = None
    pass1_w1z1: float | None = None
    fail0_w0z1: float | None = None
    fail0_w0z0: float | None = None

    @property
    def sate(self):
        return self.e_y1_w1z1 - self.e_y0_w0z1


def convert(record):
    """Copy of an ``EmpiricalRates`` or ``DesignProbs`` with every present
    value cast to ``float``."""
    values = (getattr(record, f.name) for f in fields(record))
    return type(record)(*(None if v is None else float(v) for v in values))


def design_probs(frame: StudyFrame, assumed_p_w0_given_z0, number=float) -> DesignProbs:
    """Empirical P(Z=1) and P(W=1|Z=1) as ``number`` (``float``, or ``Fraction``
    for exact values); the z=0 assignment split is assumed."""
    n = frame.n_sample
    if n == 0:
        raise EmptySample()
    n1 = sum(1 for u in frame.units if u.z == 1 and u.w == 1)
    return DesignProbs(
        p_z1=number(n) / frame.n_units,
        p_w1_given_z1=number(n1) / n,
        p_w0_given_z0=number(assumed_p_w0_given_z0),
    )


def empirical_rates(frame: StudyFrame, number=float) -> EmpiricalRates:
    """Arm means over sampled units, plus the z=0 business-as-usual mean when
    present, as ``number`` (``float``, or ``Fraction`` for exact values).

    The z=0 mean averages exactly the non-sampled units that carry outcomes;
    sampled units are never included.
    """
    treated = frame.sample_outcomes(1)
    control = frame.sample_outcomes(0)
    if not treated:
        raise EmptyArm("treated")
    if not control:
        raise EmptyArm("control")
    e1 = number(sum(treated)) / len(treated)
    e0 = number(sum(control)) / len(control)
    z0 = frame.z0_outcomes()
    q0 = number(sum(z0)) / len(z0) if z0 else None
    if frame.is_binary:
        return EmpiricalRates(
            e_y1_w1z1=e1,
            e_y0_w0z1=e0,
            e_y0_w0z0=q0,
            pass1_w1z1=e1,
            fail0_w0z1=1 - e0,
            fail0_w0z0=None if q0 is None else 1 - q0,
        )
    return EmpiricalRates(e_y1_w1z1=e1, e_y0_w0z1=e0, e_y0_w0z0=q0)


# --- CSV ingestion ------------------------------------------------------------

@dataclass(frozen=True)
class ColumnMap:
    """Mapping from reserved column roles to header names.

    ``covariates=None`` means every unmapped, unexcluded column is a covariate.
    An absent ``id`` column auto-numbers rows.  Empty string means missing.
    ``categorical`` maps a column name to its reference level; the column is
    one-hot encoded into ``name=level`` indicators for every other observed
    level, with the reference level dropped.
    """

    id: str = "id"
    in_sample: str = "in_sample"
    treatment: str = "treatment"
    outcome: str = "outcome"
    covariates: tuple[str, ...] | None = None
    exclude: tuple[str, ...] = ()
    categorical: tuple[tuple[str, str], ...] = ()

    def categorical_map(self) -> dict:
        return dict(self.categorical)


def _parse_indicator(raw: str, row: int, column: str, *, allow_missing: bool) -> int | None:
    raw = raw.strip()
    if raw == "":
        if allow_missing:
            return None
        raise BadIndicator(row, column, raw)
    if raw in ("0", "1"):
        return int(raw)
    raise BadIndicator(row, column, raw)


def _resolve_covariates(header, columns: ColumnMap):
    if columns.covariates is not None:
        for name in columns.covariates:
            if name not in header:
                raise MissingColumn(name)
        return tuple(columns.covariates)
    reserved = {columns.id, columns.in_sample, columns.treatment, columns.outcome}
    reserved.update(columns.exclude)
    return tuple(name for name in header if name not in reserved)


def _covariate_layout(header, columns: ColumnMap, all_rows):
    """Expand raw covariate columns into the encoded layout.

    Numeric columns pass through; a declared categorical column becomes one
    indicator per observed non-reference level (levels discovered over every
    row supplied, so merged files share one encoding).
    """
    raw = _resolve_covariates(header, columns)
    categorical = columns.categorical_map()
    names, layout = [], []
    for col in raw:
        if col in categorical:
            reference = str(categorical[col])
            levels = sorted(
                {(row.get(col) or "").strip() for row in all_rows}
                - {"", reference}
            )
            if not levels:
                # only the reference level observed: no indicators, but the
                # value must still be present in every row
                layout.append(("require", col, None))
            for level in levels:
                names.append(f"{col}={level}")
                layout.append(("cat", col, level))
        else:
            names.append(col)
            layout.append(("num", col, None))
    return tuple(names), tuple(layout)


def _read_rows(source):
    """Accept a path (str without newline), CSV text/bytes, or an open stream."""
    if isinstance(source, bytes):
        source = source.decode("utf-8-sig")
    if isinstance(source, str):
        if "\n" in source:
            fh = io.StringIO(source.removeprefix("\ufeff"))
        else:
            fh = open(source, newline="", encoding="utf-8-sig")
    else:
        fh = source
    try:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return rows, list(reader.fieldnames or [])
    finally:
        if fh is not source and isinstance(fh, io.TextIOWrapper):
            fh.close()


def load_frame(
    source,
    support: OutcomeSupport,
    columns: ColumnMap = ColumnMap(),
) -> StudyFrame:
    """Read a combined frame (z column distinguishes sample from population).

    ``source`` may be a path, CSV text/bytes, or an open text stream.  Row
    order is preserved; sampled rows missing a treatment or outcome are
    rejected, as is any missing covariate value.
    """
    rows, header = _read_rows(source)
    if columns.in_sample not in header:
        raise MissingColumn(columns.in_sample)
    names, layout = _covariate_layout(header, columns, rows)
    units = _build_units(rows, header, support, columns, layout,
                         fixed_z=None, id_prefix="row")
    return StudyFrame(units=tuple(units), support=support, covariate_names=names)


def load_two_frames(
    sample_source,
    population_source,
    support: OutcomeSupport,
    columns: ColumnMap = ColumnMap(),
) -> StudyFrame:
    """Merge a sample file (rows become z=1) with a population file holding the
    non-sampled remainder (rows become z=0), tagging z automatically."""
    s_rows, s_header = _read_rows(sample_source)
    p_rows, p_header = _read_rows(population_source)
    raw = _resolve_covariates(s_header, columns)
    for name in raw:
        if name not in p_header:
            raise MissingColumn(name)
    names, layout = _covariate_layout(s_header, columns, s_rows + p_rows)
    s_units = _build_units(s_rows, s_header, support, columns, layout,
                           fixed_z=1, id_prefix="s")
    p_units = _build_units(p_rows, p_header, support, columns, layout,
                           fixed_z=0, id_prefix="p")
    return StudyFrame(units=tuple(s_units + p_units), support=support,
                      covariate_names=names)


def _build_units(rows, header, support, columns, layout, *, fixed_z, id_prefix):
    if fixed_z == 1:  # a pure sample file needs treatment and outcome columns
        for required in (columns.treatment, columns.outcome):
            if required not in header:
                raise MissingColumn(required)
    units = []
    for i, raw in enumerate(rows, start=1):
        if fixed_z is None:
            z = _parse_indicator(raw.get(columns.in_sample, ""), i, columns.in_sample,
                                 allow_missing=False)
        else:
            z = fixed_z
        w = None
        if columns.treatment in header:
            w = _parse_indicator(raw.get(columns.treatment) or "", i, columns.treatment,
                                 allow_missing=True)
        if z == 1 and w is None:
            if columns.treatment not in header:
                raise MissingColumn(columns.treatment)
            raise BadIndicator(i, columns.treatment, "")
        y = None
        y_raw = (raw.get(columns.outcome) or "").strip()
        if y_raw != "":
            try:
                y = float(y_raw)
            except ValueError:
                raise OutcomeOutOfSupport(i, y_raw, support.y_lo, support.y_hi)
            if not support.contains(y):
                raise OutcomeOutOfSupport(i, y, support.y_lo, support.y_hi)
        if z == 1 and y is None:
            if columns.outcome not in header:
                raise MissingColumn(columns.outcome)
            raise MissingOutcome(i)
        x = []
        for kind, name, level in layout:
            v = (raw.get(name) or "").strip()
            if v == "":
                raise MissingCovariate(i, name)
            if kind == "cat":
                x.append(1.0 if v == level else 0.0)
            elif kind == "num":
                try:
                    value = float(v)
                except ValueError:
                    raise MissingCovariate(i, name)
                if not math.isfinite(value):
                    raise NonFiniteValue(i, name, v)
                x.append(value)
        unit_id = (raw.get(columns.id) or "").strip() or f"{id_prefix}{i}"
        units.append(UnitRecord(id=unit_id, z=z, w=w, y=y, x=tuple(x)))
    return units
