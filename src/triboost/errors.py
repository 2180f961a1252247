"""Exception hierarchy shared across the library.

Every error raised by triboost derives from ``TriboostError``.  The CLI maps
the four top-level branches to distinct process exit codes, so new error
types should subclass one of them rather than the root.
"""


class TriboostError(Exception):
    """Base class for all triboost errors."""


class UsageError(TriboostError):
    """Bad command-line or API usage (exit code 2)."""


class ValidationError(TriboostError):
    """Invalid data, configuration, or arguments (exit code 3)."""


class SchemaError(ValidationError):
    """CSV header does not match the expected schema."""


class OrderingError(ValidationError):
    """Historical/future rows are interleaved or a week mixes both kinds."""


class ObjectiveError(ValidationError):
    """An objective produced unusable derivatives (e.g. non-positive Hessian)."""


class DegenerateLeafError(ValidationError):
    """Leaf weight is undefined because the Hessian sum plus lambda is zero."""


class DegenerateRatioError(ValidationError):
    """A week's prediction sum is too close to zero to form share ratios."""


class MetricError(ValidationError):
    """A metric is undefined for the given inputs (e.g. all-zero truth)."""


class ScenarioConfigError(ValidationError):
    """Scenario configuration violates its invariants."""


class ConstraintDataError(TriboostError):
    """A future week's category total is missing or invalid (exit code 4)."""


class PersistenceError(TriboostError):
    """A persisted artifact is malformed or unwritable (exit code 5)."""
