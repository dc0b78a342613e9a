"""Exception types shared across the package."""


class GroupNBError(Exception):
    """Base class for every error raised by this package."""


class ParseError(GroupNBError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class IntegrityError(GroupNBError):
    """Duplicate ids or internally inconsistent data."""


class SizeRangeError(GroupNBError):
    """File size outside the admissible [0, max_size_bytes) range."""


class InsufficientClassError(GroupNBError):
    """An operation needs both classes but one is absent."""


class InvalidConfigError(GroupNBError):
    """Configuration values violate their invariants."""


class BundleValidationError(GroupNBError):
    """A model bundle (or a model inside it) violates its invariants."""


class EmptyBundleError(GroupNBError):
    """The operation needs at least one trained model."""


class LaneError(GroupNBError):
    """A worker lane exited before returning its chunk."""


class MeasurementError(GroupNBError):
    """A timing measurement cannot be interpreted."""
