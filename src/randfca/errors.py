"""Exception types shared across the package, how messages quote input and
write exact fractions, and `integer`, the one gate through which every count
argument (a size, a sample count, an index, an exponent) is taken. The gate
writes every refusal of such a count, so each reads alike: "<what> must be an
integer", "<what> must be >= <low>", "<bounded_by> supports <what> <= <high>"
or, for an empty range, "<bounded_by> takes no <what>", each followed by
", got <the value>"."""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


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


# Error messages show a caller's value in full up to this many characters.
_QUOTE_LIMIT = 40


def quote(value: object) -> str:
    """How an error message shows a caller's value: its repr, or
    fraction_text for an int or Fraction past the int-to-str digit limit
    (for another value whose repr meets that limit, <its type name>).
    A form longer than _QUOTE_LIMIT characters (for a text, the text itself)
    is cut to its first _QUOTE_LIMIT characters, followed by its length."""
    if isinstance(value, str):
        text, show = value, repr
    else:
        try:
            text = repr(value)
        except ValueError:  # an int past the int-to-str digit limit, or holding one
            from fractions import Fraction

            numeric = isinstance(value, (int, Fraction))
            text = fraction_text(value) if numeric else f"<{type(value).__name__}>"
        show = str
    if len(text) <= _QUOTE_LIMIT:
        return show(text)
    return f"{show(text[:_QUOTE_LIMIT])}... ({len(text)} characters)"


def fraction_text(value: Fraction) -> str:
    """str(value), with each integer written through Decimal, whose
    conversion has no digit limit."""
    from decimal import Decimal

    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def integer(
    value: object, what: str, low: int | None = None, high: int | None = None, bounded_by: str = ""
) -> int:
    """`value` as an int, through operator.index, in [low, high] where given.

    A non-integer and a value below `low` are an InputError, a value above
    `high` a SizeError naming `bounded_by` (which "takes no <what>" when
    `high` < `low`, an empty range); each message quotes the value.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {quote(value)}") from None
    if low is not None and n < low:
        raise InputError(f"{what} must be >= {low}, got {quote(value)}")
    if high is not None and n > high:
        bound = f"takes no {what}" if low is not None and high < low else f"supports {what} <= {high}"
        raise SizeError(f"{bounded_by} {bound}, got {quote(value)}")
    return n
