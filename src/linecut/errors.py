"""Exception types shared across the package."""


class LinecutError(Exception):
    """Base class for all errors raised by this package."""


class InstanceEmpty(LinecutError):
    """An instance must contain at least one point."""


class InvalidProfile(LinecutError):
    """A count profile does not match its instance (length or count bounds)."""


class InvalidK(LinecutError):
    """A requested first-set size lies outside 0..n."""


class UnsupportedProblem(LinecutError):
    """The requested objective/constraint combination is not defined."""


class TooLargeForOracle(LinecutError):
    """The profile space exceeds the exhaustive oracle's cap."""


class InvalidGenSpec(LinecutError):
    """An instance-generator spec violates its bounds."""


class ParseError(LinecutError):
    """Malformed instance text."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PrecisionError(LinecutError):
    """A coordinate needs more fractional digits than the fixed-point format allows."""


class RangeError(LinecutError):
    """A scaled coordinate exceeds the supported magnitude."""


class InternalInconsistency(LinecutError):
    """Solver tables or reconstruction data violate an internal invariant."""
