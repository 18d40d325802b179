"""Exception types shared across the pipeline.

Every error raised on purpose by this package derives from PipelineError and
carries the CLI's exit code for it: 1 for an I/O or network failure, 2 for a
usage or validation error, 3 for a runtime model failure.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InvalidAddress(PipelineError):
    """Raised when a string cannot be canonicalized into an address."""

    exit_code = 2


class InvalidTransaction(PipelineError):
    """Raised when a dataset is constructed from an invalid transaction."""

    exit_code = 2


class MalformedHeader(PipelineError):
    """CSV export is missing required columns (or has no header at all)."""

    exit_code = 2


class MalformedDocument(PipelineError):
    """JSON document does not have the expected envelope shape."""

    exit_code = 2


class ApiError(PipelineError):
    """The remote API answered with an error envelope."""

    exit_code = 2

    def __init__(self, message: str, payload: str = ""):
        super().__init__(message if not payload else f"{message}: {payload}")
        self.message = message
        self.payload = payload


class RateLimited(ApiError):
    """The remote API kept asking us to slow down after every retry."""

    exit_code = 1  # a transport condition, unlike its parent


class NetworkError(PipelineError):
    """Transport-level failure while talking to the remote API."""


class InvalidConfig(PipelineError):
    """A configuration object violates its invariants."""

    exit_code = 2


class ShapeMismatch(PipelineError):
    """Matrix/vector dimensions do not line up, or a feature matrix holds a
    NaN or infinite value."""

    exit_code = 2


class EmptyMask(PipelineError):
    """An operation that needs at least one selected row got none."""

    exit_code = 2


class ClassAbsent(PipelineError):
    """A per-class computation found no members of one class."""

    exit_code = 3


class SingleClass(ClassAbsent):
    """Training requires at least two classes in the labels."""


class TrainingDiverged(PipelineError):
    """Training produced a non-finite loss or weight."""

    exit_code = 3


class StorageError(PipelineError):
    """A binary artifact has the wrong magic, version, or is truncated."""

    exit_code = 2
