"""Semantic exception hierarchy.

Public functions never raise bare ValueError/RuntimeError for contract
violations; they raise one of these so callers (and the CLI) can map
failures to exit codes.
"""


class CalibrationError(Exception):
    """Base class for all errors raised by this package."""


class _LineError(CalibrationError):
    """An error that may name the 1-based line of a file (``.line``)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DimensionError(CalibrationError):
    """Two vectors that must share a class count do not."""


class DomainError(CalibrationError):
    """A scalar argument lies outside its mathematical domain."""


class SingularityError(DomainError):
    """Evaluation at a singular point (e.g. a score of exactly 1)."""


class DegenerateError(CalibrationError):
    """The requested quantity does not exist for this parameter value."""


class InvalidSimplexError(_LineError):
    """A vector is not a probability vector within tolerance."""


class ConvergenceError(CalibrationError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


class DivergenceError(CalibrationError):
    """Training produced a non-finite loss.

    Its ``args`` are the ones it was made with, so it pickles: a synth
    worker process returns it to the caller.
    """

    def __init__(self, message: str, epoch: int):
        super().__init__(message, epoch)
        self.epoch = epoch

    def __str__(self) -> str:
        return f"{self.args[0]} (epoch {self.epoch})"


class EmptyDataError(CalibrationError):
    """A metric or fit was requested on an empty dataset."""


class ParseError(_LineError):
    """A prediction file contains a malformed row."""


class InconsistentKError(ParseError):
    """Rows of a prediction file disagree on the class count."""
