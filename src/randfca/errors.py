"""Exception types shared across the package, and how their messages quote input."""


class RandFcaError(Exception):
    """Base class for every error raised by this package."""


class InputError(RandFcaError, ValueError):
    """An argument violates an operation's contract."""


class SizeError(InputError):
    """A size-guarded operation was called beyond its supported range."""


class DomainError(InputError):
    """A numeric argument lies outside the mathematical domain."""


class ParseError(InputError):
    """A context file is malformed; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SerializationError(RandFcaError):
    """A value cannot be represented in the requested output format."""


class InternalError(RandFcaError):
    """An internal invariant failed; indicates a bug, not bad input."""


# Error messages quote an input text in full up to this many characters.
_QUOTE_LIMIT = 40


def quote(text: str) -> str:
    """repr of an input text for an error message; a long text is cut to
    its first _QUOTE_LIMIT characters, followed by its length."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"
