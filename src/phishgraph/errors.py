"""Exception types shared across the pipeline.

Every error raised on purpose by this package derives from PipelineError so
callers (notably the CLI) can map failures to stable exit codes.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class InvalidAddress(PipelineError):
    """Raised when a string cannot be canonicalized into an address."""


class InvalidNumeral(PipelineError):
    """Raised when a decimal wei string contains non-digit characters."""


class InvalidTransaction(PipelineError):
    """Raised when a dataset is constructed from an invalid transaction."""


class MalformedHeader(PipelineError):
    """CSV export is missing required columns (or has no header at all)."""


class MalformedDocument(PipelineError):
    """JSON document does not have the expected envelope shape."""


class ApiError(PipelineError):
    """The remote API answered with an error envelope."""

    def __init__(self, message: str, payload: str = ""):
        super().__init__(message if not payload else f"{message}: {payload}")
        self.message = message
        self.payload = payload


class RateLimited(ApiError):
    """The remote API asked us to slow down; retry after `retry_after` s."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class NetworkError(PipelineError):
    """Transport-level failure while talking to the remote API."""


class InvalidConfig(PipelineError):
    """A configuration object violates its invariants."""


class ShapeMismatch(PipelineError):
    """Matrix/vector dimensions do not line up."""


class EmptyMask(PipelineError):
    """An operation that needs at least one selected row got none."""


class ClassAbsent(PipelineError):
    """A per-class computation found no members of one class."""


class SingleClass(ClassAbsent):
    """Training requires at least two classes in the labels."""


class TrainingDiverged(PipelineError):
    """Training produced a non-finite loss."""


class StorageError(PipelineError):
    """A binary artifact has the wrong magic, version, or is truncated."""
