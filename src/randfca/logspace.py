"""Log-domain scalars and numerically stable summation.

Quantities in this package (term values, context probabilities) span many
orders of magnitude, so they are carried as natural logarithms. An exact
zero is carried as log 0 = -inf, its only representation, so a product
with a zero factor is a sum that reaches -inf with no special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class LogValue:
    """The natural log of a nonnegative real; -inf is the number 0."""

    log: float

    @property
    def is_zero(self) -> bool:
        return self.log == -math.inf

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(-math.inf)

    @classmethod
    def from_log(cls, x: float) -> "LogValue":
        return cls(x)

    @classmethod
    def from_linear(cls, x: float) -> "LogValue":
        if x < 0.0:
            raise InputError(f"cannot take the log of a negative value: {x}")
        return cls(-math.inf if x == 0.0 else math.log(x))

    def exp(self) -> float:
        """Linear value; overflows to +inf instead of raising."""
        try:
            return math.exp(self.log)
        except OverflowError:
            return float("inf")


def log1mexp(x: float) -> float:
    """log(1 - exp(x)) for x <= 0, accurate near both endpoints.

    Uses expm1 for x close to 0 and log1p otherwise (the usual switch at
    -ln 2). Returns -inf at x == 0.
    """
    if x > 0.0:
        raise InputError(f"log1mexp requires x <= 0, got {x}")
    if x == 0.0:
        return float("-inf")
    if x > -_LN2:
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def log_one_minus_pow(base: float, exponent: int) -> float:
    """log(1 - base**exponent) for base in [0, 1] and integer exponent >= 0.

    Routed through :func:`log1mexp` so that base near 1 with a large
    exponent keeps full precision. Returns -inf when base**exponent == 1
    (exponent 0, or base 1).
    """
    if exponent < 0:
        raise InputError(f"exponent must be >= 0, got {exponent}")
    if not 0.0 <= base <= 1.0:
        raise InputError(f"base must be in [0, 1], got {base}")
    if exponent == 0 or base == 1.0:
        return float("-inf")
    if base == 0.0:
        return 0.0
    return log1mexp(exponent * math.log(base))


class LogSumExp:
    """Streaming log-sum-exp accumulator.

    Keeps a running maximum and rescales the partial sum online, so a
    single pass suffices. -inf inputs contribute exactly 0 and are
    accepted; the result of adding nothing (or only -inf) is the zero
    state.
    """

    __slots__ = ("_max", "_acc")

    def __init__(self) -> None:
        self._max = float("-inf")
        self._acc = 0.0

    def add(self, x: float) -> None:
        if x == float("-inf"):
            return
        if x <= self._max:
            self._acc += math.exp(x - self._max)
        else:
            self._acc = self._acc * math.exp(self._max - x) + 1.0
            self._max = x

    def result(self) -> LogValue:
        if self._acc == 0.0:
            return LogValue.zero()
        return LogValue.from_log(self._max + math.log(self._acc))


def log_sum_exp(values: Iterable[float]) -> LogValue:
    """log(sum(exp(v) for v in values)) as a :class:`LogValue`."""
    acc = LogSumExp()
    for v in values:
        acc.add(v)
    return acc.result()
