"""Exception types. DataError maps to CLI exit code 2, ConfigError to 3."""


class PibgenError(Exception):
    pass


class DataError(PibgenError):
    """The input data violate a contract (bad rows, empty arms, ...)."""


class ConfigError(PibgenError):
    """The requested options are invalid or inconsistent."""


# --- frame ingestion ---------------------------------------------------------

class MissingColumn(DataError):
    def __init__(self, name):
        super().__init__(f"required column {name!r} not found in header")
        self.name = name


class DuplicateColumn(DataError):
    def __init__(self, name):
        super().__init__(f"column {name!r} appears more than once in the header")
        self.name = name


class BadIndicator(DataError):
    def __init__(self, row, column, value):
        super().__init__(f"row {row}: column {column!r} must be 0 or 1, got {value!r}")
        self.row = row


class OutcomeOutOfSupport(DataError):
    def __init__(self, row, value, lo, hi):
        super().__init__(f"row {row}: outcome {value!r} outside support [{lo}, {hi}]")
        self.row = row


class MissingOutcome(DataError):
    def __init__(self, row):
        super().__init__(f"row {row}: sampled unit has no outcome")
        self.row = row


class MissingCovariate(DataError):
    def __init__(self, row, name):
        super().__init__(f"row {row}: covariate {name!r} is missing")
        self.row = row
        self.name = name


class NonFiniteValue(DataError):
    def __init__(self, row, name, value):
        super().__init__(f"row {row}: column {name!r} must be a finite number, got {value!r}")
        self.row = row
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


class UnknownCovariate(ConfigError):
    def __init__(self, name, known):
        super().__init__(f"unknown covariate {name!r}; frame has {sorted(known)}")
        self.name = name


# --- stratification ----------------------------------------------------------

class TooManyStrata(DataError):
    def __init__(self, k, distinct):
        super().__init__(f"cannot form {k} strata from {distinct} distinct logit values")


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


# --- oracle ------------------------------------------------------------------

class TooLarge(DataError):
    def __init__(self, detail):
        super().__init__(f"frame too large for exhaustive enumeration: {detail}")

