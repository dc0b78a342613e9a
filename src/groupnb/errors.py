"""Exception types shared across the package, and the positive-integer rule.

The CLI exits 1 on InvalidConfigError, 2 on any DataError, 3 on LaneError.
"""


class GroupNBError(Exception):
    """Base class for every error raised by this package."""


class DataError(GroupNBError):
    """Base class for errors in input data, bundles and measurements."""


class ParseError(DataError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class IntegrityError(DataError):
    """Duplicate ids or internally inconsistent data."""


class SizeRangeError(DataError):
    """File size outside the admissible [0, max_size_bytes) range."""


class InsufficientClassError(DataError):
    """An operation needs both classes but one is absent."""


class InvalidConfigError(GroupNBError):
    """Configuration values violate their invariants."""


class BundleValidationError(DataError):
    """A model bundle (or a model inside it) violates its invariants."""


class EmptyBundleError(DataError):
    """The operation needs at least one trained model."""


class LaneError(GroupNBError):
    """A worker lane exited before returning its chunk."""


class MeasurementError(DataError):
    """A timing measurement cannot be interpreted."""


def positive_int(name: str, value) -> int:
    """``value`` if it is an int of at least 1 (bool excluded), else InvalidConfigError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidConfigError(f"{name} must be a positive integer, got {value!r}")
    return value
