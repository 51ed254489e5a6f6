"""Growth diagnostics for the average concept count at p = q = 1/2.

Among the composition summands of the average there is a distinguished
one, at the split

    a = floor(log2 n),  b = a + (n mod 2),  c = d = floor(n/2) - a,

whose log already grows like ln(n)**2 / ln(2). Since every summand is
nonnegative, that single term lower-bounds the whole average, which is how
one sees the average grow superpolynomially (faster than any n**k, since
exp(ln(n)**2 / ln 2) = n**(ln n / ln 2)).

This module evaluates that term directly with log-gamma, which stays cheap
at n = 10**10 where summing the full formula is hopeless. `relative_gap`
gauges how far log of the term still is from its limit ln(n)**2 / ln(2),
and `threshold_holds` reports when the term alone pushes the average past
n**(ln n), i.e. when the gap has dropped below 1 - ln 2.

The split is computed with integer bit operations (bit_length, n mod 2),
never floating logs, so it is exact at powers of two.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import Sequence

from .errors import DomainError, integer, quote
from .expectation import Composition4

_LN2 = math.log(2.0)
# Beyond this, cancellation among the log-gamma terms of log_split_term
# costs more than the table's 3 decimals of the gap (absolute error in the
# log about 2e-3 at 10**12, 8.5 at 10**15).
MAX_SPLIT_N = 10**12


@dataclass(frozen=True)
class AsymptoticRow:
    """One row of the growth-diagnostic table."""

    n: int
    split: Composition4
    log_term: float
    gap: float
    exceeds_threshold: bool


def split_indices(n: int) -> Composition4:
    """The distinguished composition for a given n.

    a = floor(log2 n) via bit length (exact, unlike floating log);
    b - a = n mod 2; c = d = floor(n/2) - a, never negative, since
    floor(n/2) >= 2**(a-1) >= a.
    """
    n = integer(n, "n", low=1)
    a = n.bit_length() - 1
    b = a + (n & 1)
    c = (n >> 1) - a
    return Composition4(a, b, c, c)


def bounded_correction(n: int) -> float:
    """Log contribution of the two near-one factors at the split.

    Equals d*ln(1 - 2**-a) + c*ln(1 - 2**-b); its magnitude stays below 2
    for every n > 2, so it never disturbs the leading growth. Takes
    1 <= n <= MAX_SPLIT_N, as log_split_term does.
    """
    n = integer(n, "n", low=1, high=MAX_SPLIT_N, bounded_by="the split term")
    split = split_indices(n)
    if not split.c:
        return 0.0
    return split.d * math.log1p(-(0.5**split.a)) + split.c * math.log1p(-(0.5**split.b))


def log_split_term(n: int) -> float:
    """Natural log of the distinguished summand at p = q = 1/2.

    log multinomial(n; a, b, c, d) - n*ln2 - a*b*ln2 + bounded correction,
    with the multinomial via log-gamma, for 1 <= n <= MAX_SPLIT_N. n = 1
    is degenerate (the term is just 1/2) and triggers a warning.
    """
    n = integer(n, "n", low=1, high=MAX_SPLIT_N, bounded_by="the split term")
    if n == 1:
        warnings.warn(
            "log_split_term(1) is degenerate (the gap is undefined at n = 1)",
            RuntimeWarning,
            stacklevel=2,
        )
    split = split_indices(n)
    total = (
        math.lgamma(n + 1)
        - math.lgamma(split.a + 1)
        - math.lgamma(split.b + 1)
        - math.lgamma(split.c + 1)
        - math.lgamma(split.d + 1)
    )
    total -= n * _LN2
    total -= split.a * split.b * _LN2
    total += bounded_correction(n)
    return total


def relative_gap(n: int) -> float:
    """How far log of the split term is from its limit, relatively.

    abs(log_split_term(n) / (ln(n)**2 / ln 2) - 1); defined for n >= 2
    only, since ln(1)**2 = 0.
    """
    return table_report([n])[0].gap


def threshold_holds(n: int) -> bool:
    """True when the split term alone exceeds n**(ln n).

    Equivalent to log_split_term(n) > ln(n)**2, i.e. relative gap below
    1 - ln 2 (about 0.3069); defined for n >= 2 only.
    """
    return table_report([n])[0].exceeds_threshold


def table_report(ns: Sequence[int]) -> list[AsymptoticRow]:
    """One diagnostic row per n (each n >= 2, checked before any term is
    evaluated), from one evaluation of the split term."""
    ns = [integer(n, "n") for n in ns]
    for n in ns:
        if n < 2:
            raise DomainError(f"relative gap requires n >= 2, got {quote(n)}")
    rows = []
    for n in ns:
        log_term = log_split_term(n)
        log_n = math.log(n)
        rows.append(
            AsymptoticRow(
                n=n,
                split=split_indices(n),
                log_term=log_term,
                gap=abs(log_term / (log_n * log_n / _LN2) - 1.0),
                exceeds_threshold=log_term > log_n * log_n,
            )
        )
    return rows


def round_half_up(x: float, places: int = 3) -> float:
    """Decimal half-up rounding of the exact binary value of x; a
    non-finite x is returned unchanged."""
    if not math.isfinite(x):
        return x
    exact = Decimal(x)
    # Digits before the point, `places` after it, and one for a carry.
    context = Context(prec=max(1, exact.adjusted() + places + 2))
    return float(exact.quantize(Decimal(1).scaleb(-places), ROUND_HALF_UP, context))


DEFAULT_TABLE_NS = tuple(10**k for k in range(1, 11))
