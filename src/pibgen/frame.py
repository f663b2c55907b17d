"""Data model for combined sample + population frames, CSV ingestion, and the
per-group tallies (counts, sums and centred sums of squares) that every design
probability, arm mean and plug-in variance an estimator or lambda rule
consumes is computed from.

A frame holds every unit in the inference population.  Sampled units (z=1)
carry a treatment indicator and a realized outcome; non-sampled units (z=0)
may carry a business-as-usual outcome and, for oracle use only, a hypothetical
arm label.  The frame is a set of numpy columns, parsed and checked once;
frames are immutable after construction and all operations here are pure
reads.

A CSV file's columns are parsed in one pass of numpy's C text reader, which
reads a numeric covariate straight to float64 with the value ``float()`` gives
its cell, so no Python object is made per numeric cell.  Quoted text, a file
the reader refuses (a blank or malformed number, a row short of a used
column), and a file with a number that is not finite (an error, which quotes
the cell) go through the ``csv`` module instead.  Each file is parsed once,
by one reader or the other, and either way the frame and every error are the
same.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, islice, repeat

import numpy as np

from .errors import (
    BadIndicator,
    ConfigError,
    CovariateOverflow,
    DataError,
    DuplicateColumn,
    DuplicateId,
    EmptyArm,
    EmptySample,
    MissingColumn,
    MissingCovariate,
    MissingOutcome,
    NonBinaryOutcome,
    NonFiniteValue,
    NotUtf8,
    OutcomeOutOfSupport,
    UnknownCovariate,
    UnreadableCsv,
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


BINARY = OutcomeSupport(0.0, 1.0)


class StudyFrame:
    """A validated frame held as columns, one row per unit.

    * ``ids``: object array of unit ids (str), unique;
    * ``z``: int8 selection indicator, 0 or 1;
    * ``w``: int8 arm, 0 or 1, and -1 where missing (required when z=1);
    * ``y``: float outcome inside ``support``, NaN where missing (required when
      z=1);
    * ``X``: float covariates, one column per name in ``covariate_names``,
      stored column-major so each covariate column is contiguous.

    The checks run once, when the frame is built; the first bad row raises the
    typed error its first failing check gives, naming the unit id.  Columns are
    read-only views (a write raises ``ValueError``), not copies: a column may
    share memory with the array it was given, which stays writable.
    """

    def __init__(self, ids, z, w, y, X, support: OutcomeSupport, covariate_names=()):
        ids = np.asarray(ids, dtype=object)
        z, w, y = np.asarray(z), np.asarray(w), np.asarray(y, dtype=float)
        names = tuple(covariate_names)
        X = np.asarray(X, dtype=float)
        if X.size == 0:
            X = X.reshape(len(ids), len(names))
        if not len(ids) == len(z) == len(w) == len(y) or X.shape != (len(ids), len(names)):
            raise DataError("frame columns differ in length")
        _raise_first(_invalid_units(ids, z, w, y, support))
        z, w, X = z.astype(np.int8, copy=False), w.astype(np.int8, copy=False), np.asfortranarray(X)
        self.ids, self.z, self.w, self.y, self.X = map(_read_only, (ids, z, w, y, X))
        self.support, self.covariate_names = support, names
        self._moments = {}  # covariate index -> (mean, SD), each taken on first use

    # -- row masks and sizes ----------------------------------------------------

    @cached_property
    def treated(self) -> np.ndarray:
        """Mask of the sampled treated rows."""
        return (self.z == 1) & (self.w == 1)

    @cached_property
    def control(self) -> np.ndarray:
        """Mask of the sampled control rows."""
        return (self.z == 1) & (self.w == 0)

    @cached_property
    def z0_bearing(self) -> np.ndarray:
        """Mask of the non-sampled rows that carry a business-as-usual outcome."""
        return (self.z == 0) & ~np.isnan(self.y)

    @property
    def n_units(self) -> int:
        return len(self.ids)

    @property
    def n_sample(self) -> int:
        return int(np.count_nonzero(self.z))

    @cached_property
    def _totals(self) -> Tallies:
        return _tally(self, np.ones(self.n_units, dtype=np.intp), 1)

    def covariate_moments(self, name: str) -> tuple[float, float]:
        """Population mean and SD (denominator N) of a covariate column;
        ``CovariateOverflow`` when either is too large for a float."""
        j = self.covariate_index(name)
        if j not in self._moments:
            col = self.X[:, j]
            with np.errstate(over="ignore", invalid="ignore"):
                mean, sd = col.mean(), col.std()
            if not (np.isfinite(mean) and np.isfinite(sd)):
                raise CovariateOverflow(name)
            self._moments[j] = mean, sd
        return self._moments[j]

    def covariate_index(self, name: str) -> int:
        try:
            return self.covariate_names.index(name)
        except ValueError:
            raise UnknownCovariate(name, self.covariate_names)

    def covariate_column(self, name: str) -> np.ndarray:
        return self.X[:, self.covariate_index(name)]


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that refuses writes; ``array`` itself stays writable."""
    view = array.view()
    view.flags.writeable = False
    return view


def _raise_first(checks):
    """Raise the error of the first bad row.  ``checks`` pairs a mask of the
    rows that fail a check with the error for such a row, in the order one row
    is checked, so the first bad row gets the error of its first failing check."""
    first = None
    for mask, error in checks:
        rows = np.flatnonzero(mask)
        if rows.size and (first is None or rows[0] < first[0]):
            first = (int(rows[0]), error)
    if first is not None:
        raise first[1](first[0])


def _repeats(ids) -> np.ndarray:
    """Mask of the rows whose id an earlier row already has."""
    mask = np.zeros(len(ids), dtype=bool)
    if len(set(ids)) < len(ids):
        seen = set()
        for i, uid in enumerate(ids):
            mask[i] = uid in seen
            seen.add(uid)
    return mask


def _invalid_units(ids, z, w, y, support):
    sampled = z == 1
    missing = np.isnan(y)
    lo, hi = support.y_lo, support.y_hi
    return [
        (_repeats(ids), lambda i: DuplicateId(ids[i])),
        ((z != 0) & ~sampled, lambda i: BadIndicator(ids[i], "z", z[i].item())),
        ((w != -1) & (w != 0) & (w != 1), lambda i: BadIndicator(ids[i], "w", w[i].item())),
        (sampled & (w == -1), lambda i: BadIndicator(ids[i], "w", None)),
        (sampled & missing, lambda i: MissingOutcome(ids[i])),
        (~missing & ~((y >= lo) & (y <= hi)),
         lambda i: OutcomeOutOfSupport(ids[i], y[i].item(), lo, hi)),
    ]


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
    outcome-bearing z=0 units and is absent when no such unit exists.
    ``binary`` tells whether every outcome is 0 or 1 on a binary support; then
    each mean is also a pass rate, and one minus it the fail rate."""

    e_y1_w1z1: float
    e_y0_w0z1: float
    e_y0_w0z0: float | None = None
    binary: bool = False

    @property
    def sate(self):
        return self.e_y1_w1z1 - self.e_y0_w0z1


def convert(record):
    """Copy of an ``EmpiricalRates`` or ``DesignProbs`` with every present
    number cast to ``float``; a flag stays a bool."""
    values = (getattr(record, f.name) for f in fields(record))
    return type(record)(*(v if v is None or isinstance(v, bool) else float(v) for v in values))


@dataclass(frozen=True, eq=False)
class Tallies:
    """Sufficient statistics of groups of rows, one entry per group.

    Every design probability, arm mean and plug-in variance an estimator or
    lambda rule reads is a closed form in these counts and sums.  Sums add in
    row order within a group, so a group's tallies equal those of a frame
    holding only its rows.
    """

    units: tuple[int, ...]
    treated: tuple[int, ...]  # sampled treated rows
    control: tuple[int, ...]  # sampled control rows
    y_treated: tuple[float, ...]  # outcome sum of the sampled treated rows
    y_control: tuple[float, ...]
    z0_bearing: tuple[int, ...]  # non-sampled rows that carry an outcome
    y_z0: tuple[float, ...]
    nonbinary: tuple[int, ...]  # outcomes other than 0 and 1
    ss_treated: tuple[float, ...]  # centred sum of squares of the treated outcomes
    ss_control: tuple[float, ...]
    ss_sampled: tuple[float, ...]  # of all sampled outcomes, both arms together
    binary_support: bool

    def viable(self, g: int) -> bool:
        """Whether group ``g`` has a sampled unit in each arm."""
        return self.treated[g] >= 1 and self.control[g] >= 1

    def is_binary(self, g: int) -> bool:
        return self.binary_support and not self.nonbinary[g]

    def design_probs(self, g: int, assumed_p_w0_given_z0, number=float) -> DesignProbs:
        """Empirical P(Z=1) and P(W=1|Z=1) of group ``g`` as ``number``; the z=0
        assignment split is assumed."""
        n = self.treated[g] + self.control[g]
        if n == 0:
            raise EmptySample()
        return DesignProbs(
            p_z1=number(n) / self.units[g],
            p_w1_given_z1=number(self.treated[g]) / n,
            p_w0_given_z0=number(assumed_p_w0_given_z0),
        )

    def empirical_rates(self, g: int, number=float) -> EmpiricalRates:
        """Arm means of group ``g``, plus its z=0 business-as-usual mean when
        present, as ``number``.  Exact (non-float) rates are the one check that
        a group fits the enumeration oracles: both sampled arms, then 0/1
        outcomes on the binary support."""
        if not self.treated[g]:
            raise EmptyArm("treated")
        if not self.control[g]:
            raise EmptyArm("control")
        binary = self.is_binary(g)
        if number is not float and not binary:
            raise NonBinaryOutcome("enumeration oracles require a binary frame")
        e1 = number(self.y_treated[g]) / self.treated[g]
        e0 = number(self.y_control[g]) / self.control[g]
        q0 = number(self.y_z0[g]) / self.z0_bearing[g] if self.z0_bearing[g] else None
        return EmpiricalRates(e1, e0, q0, binary)


def tallies(frame: StudyFrame, labels=None, k: int = 1) -> Tallies:
    """Tallies of each group 1..k, given the 1-based group label of every row;
    without labels, of the whole frame as one group (cached on the frame)."""
    if labels is None:
        return frame._totals
    return _tally(frame, np.asarray(labels), k)


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or NaN: check_finite reports it
def _tally(frame: StudyFrame, labels, k: int) -> Tallies:
    y, bins = frame.y, k + 1  # bin 0 holds no label

    def count(mask):
        return np.bincount(labels[mask], minlength=bins)[1:]

    def total(mask):
        return np.bincount(labels[mask], weights=y[mask], minlength=bins)[1:]

    def centred_squares(mask, sums, counts):
        groups = labels[mask]
        deviations = y[mask] - (sums / np.maximum(counts, 1))[groups - 1]
        # C pow, as Python's ** squares a float in a two-pass plug-in variance;
        # deviations * deviations rounds differently for about 1 value in 1,000
        squares = np.float_power(deviations, 2)
        return np.bincount(groups, weights=squares, minlength=bins)[1:]

    treated, control, z0 = frame.treated, frame.control, frame.z0_bearing
    sampled = frame.z == 1
    n_treated, n_control = count(treated), count(control)
    y_treated, y_control = total(treated), total(control)
    return Tallies(
        units=tuple(np.bincount(labels, minlength=bins)[1:].tolist()),
        treated=tuple(n_treated.tolist()),
        control=tuple(n_control.tolist()),
        y_treated=tuple(y_treated.tolist()),
        y_control=tuple(y_control.tolist()),
        z0_bearing=tuple(count(z0).tolist()),
        y_z0=tuple(total(z0).tolist()),
        nonbinary=tuple(count(~np.isnan(y) & (y != 0) & (y != 1)).tolist()),
        ss_treated=tuple(centred_squares(treated, y_treated, n_treated).tolist()),
        ss_control=tuple(centred_squares(control, y_control, n_control).tolist()),
        ss_sampled=tuple(centred_squares(sampled, total(sampled), n_treated + n_control).tolist()),
        binary_support=frame.support.is_binary,
    )


def design_probs(frame: StudyFrame, assumed_p_w0_given_z0, number=float) -> DesignProbs:
    """Empirical P(Z=1) and P(W=1|Z=1) as ``number`` (``float``, or ``Fraction``
    for exact values); the z=0 assignment split is assumed."""
    return tallies(frame).design_probs(0, assumed_p_w0_given_z0, number)


def empirical_rates(frame: StudyFrame, number=float) -> EmpiricalRates:
    """Arm means over sampled units, plus the z=0 business-as-usual mean when
    present, as ``number`` (``float``, or ``Fraction`` for exact values).

    The z=0 mean averages exactly the non-sampled units that carry outcomes;
    sampled units are never included.  ``binary`` is set only when every
    outcome is 0 or 1 on a binary support.
    """
    return tallies(frame).empirical_rates(0, number)


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


def _read_table(source, file=None) -> _Table:
    """Read a path (``os.PathLike``, or a ``str`` whatever it holds) or an open
    text stream.  A path is read as UTF-8 text; a leading BOM is dropped from
    either.  ``file`` names the file of a two-file load in the table's errors."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            return _Table(_read_text(fh), file)
    return _Table(_read_text(source).removeprefix("\ufeff"), file)


# a quote needs csv; numpy's reader, not float(), takes \x1c-\x1f round a number for space
_CSV_ONLY = '"\x1c\x1d\x1e\x1f'
_ROW_TEXT = re.compile(r"[^\r\n]")  # a character of a line that holds a row


class _Table:
    """A CSV text's header, and once read, a map of its columns.

    ``read`` parses the columns a frame uses in one pass of numpy's text
    reader, a numeric column straight to floats and any other as its cell text.
    Text holding a quote, text the reader refuses (a blank or bad number, a row
    short of a used column) and text with a number that is not finite (an
    error, which quotes its cell) are read by ``csv`` instead, every column as
    its cell text.  Either way the text is then dropped.  A blank line holds no
    row; a short row's missing cells are blank; a long row's extra cells are
    dropped.
    """

    def __init__(self, text, file=None):
        self.file = file
        self.columns, self.n_rows = {}, None  # name -> column, and the row count, once read
        self._text, self._body = text, 0  # the text until it is read; where its rows start
        if any(c in text for c in _CSV_ONLY):
            self.header = self._split()
        else:
            first = next(_lines(text), "")
            self._body = len(first)
            line = first.rstrip("\r\n")
            self.header = line.split(",") if line else []
        for j, name in enumerate(self.header):
            if name in self.header[:j]:
                raise DuplicateColumn(name, file)

    def read(self, names, numeric):
        """Fill ``columns`` with the columns of the header named in ``names``,
        those in ``numeric`` as floats where numpy's reader reads the text."""
        if self._text is not None and not self._read_numpy(names, numeric):
            self._split()

    def _read_numpy(self, names, numeric) -> bool:
        """Whether numpy's reader read the named columns, every number finite."""
        used = [j for j, name in enumerate(self.header) if name in names]
        if not used or not _ROW_TEXT.search(self._text, self._body):
            return False  # no row: the reader warns
        kinds = [float if self.header[j] in numeric else object for j in used]
        try:
            rows = np.loadtxt(_lines(self._text, self._body), np.dtype([("", k) for k in kinds]),
                              delimiter=",", usecols=used, comments=None, quotechar=None, ndmin=1)
        except ValueError:  # a cell that is no number, a row short of a used column, ...
            return False
        columns = {}
        for j, field, kind in zip(used, rows.dtype.names, kinds):
            if kind is float and not np.isfinite(rows[field]).all():
                return False  # an error, which quotes its cell's text
            columns[self.header[j]] = rows[field] if kind is float else rows[field].tolist()
        self.columns, self.n_rows, self._text = columns, len(rows), None
        return True

    def cells(self, name):
        """The column read for ``name``; a column the header lacks is all blank."""
        return self.columns[name] if name in self.header else [""] * self.n_rows

    def _split(self):
        """Read every column of the text with ``csv`` and drop the text; the header."""
        header, columns, self.n_rows = _split_csv(self._text, self.file)
        self.columns, self._text = dict(zip(header, columns)), None
        return header


def _lines(text, start=0):
    """The lines of ``text`` from index ``start``, as ``io.StringIO`` splits them."""
    return chain.from_iterable(_blocks(text, start=start))


def _blocks(text, size=1 << 16, start=0):
    """``text`` from index ``start`` as streams of about ``size`` characters
    that end at a line end, so a reader reads it without a second copy of the
    whole text."""
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        yield io.StringIO(text[start:end], newline="")
        start = end


def _read_text(stream) -> str:
    read = getattr(stream, "read", None)  # a source without one (bytes, say) is no stream
    try:
        text = stream if read is None else read()
    except UnicodeDecodeError as exc:
        name = getattr(stream, "name", None)  # an open file's name is its path
        raise NotUtf8(f"data file {name!r}" if isinstance(name, str) else "CSV data", exc.reason)
    if not isinstance(text, str):
        raise ConfigError(
            f"a data source is a path or an open text stream, got {type(text).__name__}")
    return text


def _split_csv(text, file=None):
    """The header, columns and row count of any CSV text, read by ``csv``.  The
    field size limit is lifted to the text's length for the read, so no cell
    is too long."""
    reader = csv.reader(_lines(text))
    limit = csv.field_size_limit(max(csv.field_size_limit(), len(text)))
    try:
        header = next(reader, [])
        width, columns, n_rows = len(header), [[] for _ in header], 0
        records = filter(None, reader)  # a blank line holds no row
        while rows := list(islice(records, 8192)):  # a block at a time, not every row list at once
            if min(map(len, rows)) < width:  # a short row reads as blank cells
                rows = [row + [""] * (width - len(row)) for row in rows]
            for j, column in enumerate(columns):
                column += [row[j] for row in rows]
            n_rows += len(rows)
    except csv.Error as exc:
        raise UnreadableCsv(reader.line_num, str(exc), file) from None
    finally:
        csv.field_size_limit(limit)
    return header, columns, n_rows


def _resolve_covariates(header, columns: ColumnMap, file=None):
    """The covariate columns of a file with ``header``, before encoding.  A
    declared covariate or categorical column missing from the header is an
    error; a categorical column that is no covariate is ignored."""
    for name in [*(columns.covariates or ()), *(name for name, _ in columns.categorical)]:
        if name not in header:
            raise MissingColumn(name, file)
    if columns.covariates is not None:
        return tuple(columns.covariates)
    reserved = {columns.id, columns.in_sample, columns.treatment, columns.outcome}
    reserved.update(columns.exclude)
    return tuple(name for name in header if name not in reserved)


def _covariate_layout(raw, columns: ColumnMap, tables):
    """Read the columns a frame uses from each table, and expand the raw
    covariate columns into the encoded layout.

    Numeric columns pass through; a declared categorical column becomes one
    indicator per observed non-reference level (levels discovered over every
    table supplied, so merged files share one encoding).  One entry per raw
    column: ``(column, levels)``, ``levels`` None if numeric.
    """
    categorical = dict(columns.categorical)
    roles = {columns.id, columns.in_sample, columns.treatment, columns.outcome}
    numeric = {col for col in raw if col not in categorical} - roles  # a role's column is text
    for table in tables:
        table.read(roles | set(raw), numeric)
    names, layout = [], []
    for col in raw:
        if col in categorical:
            reference = str(categorical[col])
            levels = tuple(sorted(
                {cell.strip() for table in tables for cell in table.cells(col)}
                - {"", reference}
            ))
            names += [f"{col}={level}" for level in levels]
            layout.append((col, levels))
        else:
            names.append(col)
            layout.append((col, None))
    return tuple(names), tuple(layout)


def load_frame(
    source,
    support: OutcomeSupport,
    columns: ColumnMap = ColumnMap(),
) -> StudyFrame:
    """Read a combined frame (z column distinguishes sample from population).

    ``source`` is a path or an open text stream (wrap CSV text held in memory
    in a stream).  Row order is preserved; sampled rows missing a treatment or
    outcome are rejected, as is any missing covariate value.
    """
    table = _read_table(source)
    if columns.in_sample not in table.header:
        raise MissingColumn(columns.in_sample)
    raw = _resolve_covariates(table.header, columns)
    names, layout = _covariate_layout(raw, columns, [table])
    parsed = _parse_columns(table, support, columns, layout)
    del table  # its cells go before the frame's checks run
    return StudyFrame(*parsed, support=support, covariate_names=names)


def load_two_frames(
    sample_source,
    population_source,
    support: OutcomeSupport,
    columns: ColumnMap = ColumnMap(),
) -> StudyFrame:
    """Merge a sample file (rows become z=1) with a population file holding the
    non-sampled remainder (rows become z=0), tagging z automatically.  Each
    source is as for ``load_frame``.  The sample file's rows, repeated ids
    included, are checked before the population file's; a row error names its
    file, and an id the two files share is reported after both pass."""
    sample = _read_table(sample_source, "sample")
    population = _read_table(population_source, "population")
    raw = _resolve_covariates(sample.header, columns, "sample")
    for name in raw:
        if name not in population.header:
            raise MissingColumn(name, "population")
    for name in (columns.treatment, columns.outcome):  # a pure sample file needs these
        if name not in sample.header:
            raise MissingColumn(name, "sample")
    names, layout = _covariate_layout(raw, columns, [sample, population])
    s_cols = _parse_columns(sample, support, columns, layout, file="sample")
    p_cols = _parse_columns(population, support, columns, layout, file="population")
    del sample, population  # their cells go before the frame's checks run
    merged = [np.concatenate([s, p]) for s, p in zip(s_cols, p_cols)]
    return StudyFrame(*merged, support=support, covariate_names=names)


# a file's z value and the prefix of its auto-numbered ids (None: a combined file)
_FILE_ROLES = {None: (None, "row"), "sample": (1, "s"), "population": (0, "p")}

_INDICATOR_CODES = {"0": 0, "1": 1, "": -1}  # -1 blank; -2 (below) not an indicator


def _indicator_codes(cells) -> np.ndarray:
    codes = np.fromiter(map(_INDICATOR_CODES.get, cells, repeat(-2)), np.int8, len(cells))
    for i in np.flatnonzero(codes == -2):  # padded with whitespace, or bad
        codes[i] = _INDICATOR_CODES.get(cells[i].strip(), -2)
    return codes


def _float_cells(cells):
    """Each cell as a float (NaN where blank or unparseable) and the blank mask;
    a column numpy's reader parsed passes through, none of it blank."""
    n = len(cells)
    if isinstance(cells, np.ndarray):
        return cells, np.zeros(n, dtype=bool)
    try:
        return np.fromiter(map(float, cells), float, n), np.zeros(n, dtype=bool)
    except ValueError:  # a blank or unparseable cell
        pass
    blank = np.fromiter((not c.strip() for c in cells), bool, n)
    return np.fromiter(map(_float_or_nan, cells), float, n), blank


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _parse_columns(table, support, columns, layout, file=None):
    """The ``(ids, z, w, y, X)`` columns of a combined file, or of the
    ``"sample"`` or ``"population"`` ``file`` of a two-file load, which its row
    errors name.  Rows are checked in the order of their cells; the first bad
    row raises, numbered from 1.  A sample file's ids are checked here, before
    the population file is parsed; another clean file's ids are left to the
    frame's constructor to check, once."""
    header, n = table.header, table.n_rows
    fixed_z, id_prefix = _FILE_ROLES[file]
    checks = []

    def indicator(name, allow_missing):
        cells = table.cells(name)
        codes = _indicator_codes(cells)
        bad = codes < (-1 if allow_missing else 0)
        checks.append((bad, lambda i: BadIndicator(i + 1, name, cells[i].strip(), file)))
        return codes

    if fixed_z is None:
        z = indicator(columns.in_sample, allow_missing=False)
    else:
        z = np.full(n, fixed_z, dtype=np.int8)
    sampled = z == 1
    has_w = columns.treatment in header
    w = indicator(columns.treatment, allow_missing=True) if has_w else np.full(n, -1, np.int8)
    checks.append((sampled & (w == -1), lambda i: (
        BadIndicator(i + 1, columns.treatment, "", file) if has_w
        else MissingColumn(columns.treatment))))

    y_cells = table.cells(columns.outcome)
    y, y_blank = _float_cells(y_cells)
    checks.append((~y_blank & ~((y >= support.y_lo) & (y <= support.y_hi)),
                   lambda i: _outcome_error(i, y_cells[i], support, file)))
    has_y = columns.outcome in header
    checks.append((sampled & y_blank, lambda i: (
        MissingOutcome(i + 1, file) if has_y else MissingColumn(columns.outcome))))

    X = np.empty((n, sum(1 if levels is None else len(levels) for _, levels in layout)), order="F")
    x_columns = iter(X.T)  # X's columns, each contiguous
    for name, levels in layout:
        if levels is None:
            cells = table.cells(name)
            values, blank = _float_cells(cells)
            checks.append((blank | ~np.isfinite(values), lambda i, name=name, cells=cells:
                           _covariate_error(i, name, cells[i], file)))
            next(x_columns)[:] = values
        else:
            stripped = np.array([c.strip() for c in table.cells(name)], dtype=object)
            checks.append((stripped == "", lambda i, name=name:
                           MissingCovariate(i + 1, name, file)))
            for level in levels:
                next(x_columns)[:] = stripped == level
    ids = list(map(str.strip, table.cells(columns.id)))
    if "" in ids:  # a row without an id (or a file without the column) is numbered
        ids = [uid or f"{id_prefix}{i}" for i, uid in enumerate(ids, 1)]
    if fixed_z == 1 or any(mask.any() for mask, _ in checks):  # a repeated id may come first
        checks.insert(0, (_repeats(ids), lambda i: DuplicateId(ids[i])))
    _raise_first(checks)
    return np.array(ids, dtype=object), z, w, y, X


def _outcome_error(i, cell, support, file) -> OutcomeOutOfSupport:
    """An outcome cell outside the support, quoted as its stripped text where
    ``float()`` cannot read the cell as it stands."""
    try:
        value = float(cell)
    except ValueError:
        value = cell.strip()
    return OutcomeOutOfSupport(i + 1, value, support.y_lo, support.y_hi, file)


def _covariate_error(i, name, cell, file) -> DataError:
    """A covariate cell that ``float()`` cannot read as it stands is missing; one
    it reads is not finite, and is quoted stripped."""
    try:
        float(cell)
    except ValueError:
        return MissingCovariate(i + 1, name, file)
    return NonFiniteValue(i + 1, name, cell.strip(), file)
