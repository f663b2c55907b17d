"""Exception types. DataError maps to CLI exit code 2, ConfigError to 3."""


class PibgenError(Exception):
    pass


class DataError(PibgenError):
    """The input data violate a contract (bad rows, empty arms, ...)."""


class ConfigError(PibgenError):
    """The requested options are invalid or inconsistent."""


# --- frame ingestion ---------------------------------------------------------

class MissingColumn(DataError):
    """``file`` names the file of a two-file load, as for ``BadRow``."""

    def __init__(self, name, file=None):
        where = "header" if file is None else f"the {file} file header"
        super().__init__(f"required column {name!r} not found in {where}")
        self.name, self.file = name, file


class DuplicateColumn(DataError):
    def __init__(self, name, file=None):
        where = "the header" if file is None else f"the {file} file header"
        super().__init__(f"column {name!r} appears more than once in {where}")
        self.name, self.file = name, file


class NotUtf8(DataError):
    def __init__(self, source, reason):
        super().__init__(f"{source} is not UTF-8 text: {reason}")


class UnreadableCsv(DataError):
    """Text ``csv`` refuses to read, naming its line; ``file`` names the file
    of a two-file load."""

    def __init__(self, line, reason, file=None):
        where = f"line {line}" if file is None else f"line {line} of the {file} file"
        super().__init__(f"unreadable CSV at {where}: {reason}")
        self.line, self.file = line, file


class BadRow(DataError):
    """A bad row, numbered from 1 (by unit id in a frame built from columns);
    ``file`` names the file of a two-file load, "sample" or "population"."""

    def __init__(self, row, detail, file=None):
        where = f"row {row}" if file is None else f"row {row} of the {file} file"
        super().__init__(f"{where}: {detail}")
        self.row, self.file = row, file


class BadIndicator(BadRow):
    def __init__(self, row, column, value, file=None):
        super().__init__(row, f"column {column!r} must be 0 or 1, got {value!r}", file)


class OutcomeOutOfSupport(BadRow):
    def __init__(self, row, value, lo, hi, file=None):
        super().__init__(row, f"outcome {value!r} outside support [{lo}, {hi}]", file)


class MissingOutcome(BadRow):
    def __init__(self, row, file=None):
        super().__init__(row, "sampled unit has no outcome", file)


class MissingCovariate(BadRow):
    def __init__(self, row, name, file=None):
        super().__init__(row, f"covariate {name!r} is missing", file)
        self.name = name


class NonFiniteValue(BadRow):
    def __init__(self, row, name, value, file=None):
        super().__init__(row, f"column {name!r} must be a finite number, got {value!r}", file)
        self.name = name


class DuplicateId(DataError):
    def __init__(self, unit_id):
        super().__init__(f"duplicate unit id {unit_id!r}")


class EmptySample(DataError):
    def __init__(self):
        super().__init__("frame contains no sampled (z=1) units")


class EmptyArm(DataError):
    def __init__(self, arm):
        super().__init__(f"no sampled units in the {arm} arm")
        self.arm = arm


# --- propensity --------------------------------------------------------------

class SingularDesign(DataError):
    def __init__(self, detail):
        super().__init__(f"design matrix is rank deficient: {detail}")


class Separation(DataError):
    def __init__(self, direction):
        super().__init__(
            "sample membership is perfectly separated; likelihood is unbounded "
            f"along direction {direction}"
        )
        self.direction = direction


class NoConvergence(DataError):
    def __init__(self, max_iter, gradient_norm):
        super().__init__(
            f"no convergence after {max_iter} iterations (gradient norm {gradient_norm:.3g})"
        )
        self.max_iter = max_iter
        self.gradient_norm = gradient_norm


class ZeroVariance(DataError):
    def __init__(self, what):
        super().__init__(f"{what} has zero variance")


class CovariateOverflow(DataError):
    def __init__(self, name):
        super().__init__(f"covariate {name!r} is too large for float arithmetic: "
                         "its mean or SD overflows")
        self.name = name


class UnknownCovariate(ConfigError):
    def __init__(self, name, known):
        super().__init__(f"unknown covariate {name!r}; frame has {sorted(known)}")
        self.name = name


# --- stratification ----------------------------------------------------------

class TooManyStrata(DataError):
    def __init__(self, k, distinct):
        super().__init__(f"cannot form {k} strata from {distinct} distinct logit values")


class UndefinedLogit(DataError):
    """A unit's propensity logit is NaN: a loaded model's terms overflow to
    +inf and -inf on it, so the unit has no stratum.  ``unit`` is its row for
    ``make_strata`` and its id for ``strata_for_frame``."""

    def __init__(self, unit):
        super().__init__(f"propensity logit of unit {unit!r} is NaN: "
                         "its terms overflow to +inf and -inf")
        self.unit = unit


class NonViableStratum(DataError):
    def __init__(self, indices):
        indices = list(indices)
        super().__init__(
            f"stratum(s) {indices} lack a sampled treated or control unit"
        )
        self.indices = indices


# --- bounds ------------------------------------------------------------------

class MissingPopulationOutcome(DataError):
    def __init__(self, what="the reduced-interval framework"):
        super().__init__(f"{what} requires outcomes observed among non-sampled (z=0) units")


class NegativeLambda(ConfigError):
    def __init__(self, value):
        super().__init__(f"lambda must be >= 0, got {value}")


class NonBinaryOutcome(DataError):
    def __init__(self, detail="outcome support must be {0, 1}"):
        super().__init__(detail)


# --- point estimators --------------------------------------------------------

class ZeroPropensity(DataError):
    def __init__(self, unit_id):
        super().__init__(f"fitted selection probability is not positive for unit {unit_id!r}")


class UnfittedModel(ConfigError):
    def __init__(self):
        super().__init__("propensity model did not converge; refusing to weight with it")


# --- report ------------------------------------------------------------------

class NonFiniteResult(DataError):
    """A number about to be printed is infinite or NaN: a result too large for
    float arithmetic, reported the same way in every output format."""

    def __init__(self, path, value):
        super().__init__(f"result {path} is {value}: too large for float arithmetic")
        self.path = path
