"""Exception hierarchy shared across the library, and the check of the
config dataclasses' number fields that raises it.

Every error raised by triboost derives from ``TriboostError``.  The CLI maps
the four top-level branches to distinct process exit codes, so new error
types should subclass one of them rather than the root.
"""

import numbers
from dataclasses import fields


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


def plain_number(name: str, value: object, kind: str, error: type[TriboostError]) -> int | float:
    """``value`` as the built-in its field's annotation ``kind`` names,
    ``int`` or ``float``.  Any ``numbers.Integral`` or ``numbers.Real``
    passes, numpy's included, but no ``bool``; anything else raises
    ``error`` naming ``name``.  Built-ins keep manifest echoes plain JSON."""
    integer = kind == "int"
    accepted = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise error(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return int(value) if integer else float(value)


def store_plain_numbers(config: object, error: type[TriboostError]) -> None:
    """Pass each ``int`` or ``float`` field of the frozen dataclass ``config``
    through :func:`plain_number` (its modules postpone evaluating annotations)."""
    for f in fields(config):
        if f.type in ("int", "float"):
            value = plain_number(f.name, getattr(config, f.name), f.type, error)
            object.__setattr__(config, f.name, value)
