"""Log-domain scalars and numerically stable summation.

Quantities in this package (term values, context probabilities) span many
orders of magnitude, so they are carried as natural logarithms. An exact
zero is carried as log 0 = -inf, its only representation, so a product
with a zero factor is a sum that reaches -inf with no special case.
Sums of such values go through :func:`log_sum_exp`, the package's one
log-sum-exp.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import InputError

_LN2 = math.log(2.0)


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


def log_sum_exp(values: Iterable[float]) -> float:
    """log(sum(exp(v) for v in values)), in one pass.

    Keeps the largest value so far and the sum of exp(v - largest),
    rescaling the sum when a new largest value arrives. A -inf value (an
    exact zero) adds nothing; a sum of nothing is -inf.
    """
    top = -math.inf
    total = 0.0
    for x in values:
        if x == -math.inf:
            continue
        if x <= top:
            total += math.exp(x - top)
        else:
            total = total * math.exp(top - x) + 1.0
            top = x
    return top + math.log(total) if total else -math.inf
