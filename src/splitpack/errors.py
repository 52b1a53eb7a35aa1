"""Exception types shared across the package."""


class SplitPackError(Exception):
    """Base class for all splitpack errors."""


class InvalidParameterError(SplitPackError, ValueError):
    """A value violates an operation's precondition (non-positive area, b > a, ...)."""


class UnsupportedContainerError(SplitPackError, ValueError):
    """The container shape is outside the supported family (e.g. an acute triangle)."""


class OverCapacityError(SplitPackError, ValueError):
    """The combined circle area exceeds the container's guaranteed-packable area."""

    def __init__(self, message: str, ratio: float | None = None):
        super().__init__(message)
        self.ratio = ratio


class ConjugacyError(InvalidParameterError):
    """A pair of subcontainer parameter tuples fails the conjugatedness conditions."""


class MalformedTreeError(SplitPackError, ValueError):
    """A packing record that verify finds not well formed: e.g. hat depths that do
    not start at 1, fall below 1 or rise by more than one from the hat before, or
    input indices that are not 0..n-1, each once."""


class DocumentError(SplitPackError, ValueError):
    """An instance or packing document cannot be parsed."""
