"""Exception types shared across the package, and the type check of numeric settings."""
import numbers


class KaesError(Exception):
    """Base class for all errors raised by this package."""


class TsvParseError(KaesError):
    """A data file could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ScoreValidationError(KaesError):
    """A score or prompt fell outside its declared range."""


class BinaryFormatError(KaesError):
    """A binary file (embeddings, kernel cache, codebook, model) is malformed.

    ``offset`` is the byte position at which the problem was detected, when
    known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"at byte {offset}: {message}"
        super().__init__(message)
        self.offset = offset


class KernelMismatchError(KaesError):
    """Kernel inputs do not fit: vectors and codebook of other dimensions,
    shapes or id lists that differ, no documents, or an invalid n-gram range."""


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise KaesError unless ``value`` is a real number, or an integer if
    ``integer``; a bool is neither, and numpy numbers pass."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise KaesError(f"{name} must be {'an integer' if integer else 'a number'}, "
                        f"got {value!r}")
