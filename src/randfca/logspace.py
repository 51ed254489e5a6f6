"""Log-domain scalars and numerically stable summation.

Quantities in this package (term values, context probabilities) span many
orders of magnitude, so they are carried as natural logarithms. An exact
zero is carried as log 0 = -inf, its only representation, so a product
with a zero factor is a sum that reaches -inf with no special case.
Sums of such values go through :func:`log_sum_exp`, the package's one
log-sum-exp over a sequence; only the row kernel in `expectation` adds two
logs inline, the two parts of each collapsed term's bracket, since it runs
once per term.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import InputError, integer, quote

_LN2 = math.log(2.0)


def log1mexp(x: float) -> float:
    """log(1 - exp(x)) for x <= 0, accurate near both endpoints.

    Uses expm1 for x close to 0 and log1p otherwise (the usual switch at
    -ln 2). Returns -inf at x == 0, and -0.0 for an int x below the float
    range, where exp(x) is 0. NaN is refused, as is any x > 0 or any x
    that does not compare with 0.
    """
    try:
        in_domain = x <= 0.0
    except TypeError:  # x is not a number
        in_domain = False
    if not in_domain:
        raise InputError(f"log1mexp requires x <= 0, got {quote(x)}")
    if x == 0.0:
        return float("-inf")
    if x > -_LN2:
        return math.log(-math.expm1(x))
    try:
        return math.log1p(-math.exp(x))
    except OverflowError:  # an int x too large to convert to float
        return -0.0


def log_one_minus_pow(base: float, exponent: int) -> float:
    """log(1 - base**exponent) for base in [0, 1] and integer exponent >= 0.

    Routed through :func:`log1mexp` so that base near 1 with a large
    exponent keeps full precision. Returns -inf when base**exponent == 1
    (exponent 0, or base 1), and -0.0 for base < 1 with an exponent past the
    float range, where base**exponent is 0.
    """
    exponent = integer(exponent, "exponent", low=0)
    try:
        in_domain = 0.0 <= base <= 1.0
    except TypeError:  # base is not a number
        in_domain = False
    if not in_domain:
        raise InputError(f"base must be in [0, 1], got {quote(base)}")
    if exponent == 0 or base == 1.0:
        return float("-inf")
    if base == 0.0:
        return 0.0
    try:
        x = exponent * math.log(base)
    except OverflowError:  # an exponent too large to convert to float
        return -0.0
    return log1mexp(x)


def log_sum_exp(values: Iterable[float]) -> float:
    """log(sum(exp(v) for v in values)), in one pass.

    Keeps the largest value so far and the sum of exp(v - largest),
    rescaling the sum when a new largest value arrives. A -inf value (an
    exact zero) adds nothing; a sum of nothing is -inf, and a sum with +inf
    is +inf. A value that is not a number or lies past the float range is
    refused, and so is a nan, which never compares below the largest value
    so far and is caught where a new largest value is taken.
    """
    top = -math.inf
    total = 0.0
    x = values  # what the message quotes if `values` is not iterable
    try:
        for x in values:
            if x == -math.inf:
                continue
            if x <= top:
                total += math.exp(x - top)
            elif x != x:  # a nan, which compares below or above nothing
                raise InputError(f"log_sum_exp requires values other than nan, got {quote(x)}")
            else:
                total = total * math.exp(top - x) + 1.0
                top = x
    except (TypeError, OverflowError):  # OverflowError: an int past the float range
        raise InputError(f"log_sum_exp requires floats, got {quote(x)}") from None
    if total != total:  # exp(inf - inf): +inf more than once
        return math.inf
    return top + math.log(total) if total else -math.inf
