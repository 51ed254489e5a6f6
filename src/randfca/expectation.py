"""Exact average number of concepts of a random context.

The average over the (n, p, q) model is a finite sum indexed by the
length-4 compositions (a, b, c, d) of n:

    multinomial(n; a, b, c, d)
      * p**(a+c) * (1-p)**(b+d)
      * q**(a*b) * (1 - q**a)**d * (1 - q**b)**c

with the convention x**0 = 1 throughout, so exponent-0 factors never zero
a term even at p, q in {0, 1}. The blocks have a direct reading: a objects
and b attributes form the candidate concept, c objects each miss one of
the b attributes, d attributes are each missed by one of the a objects.

For fixed (a, b) the sum over c + d = r = n - a - b is binomial, so both
evaluation paths sum the C(n+2, 2) collapsed terms over a + b <= n:

    n! / (a! b! r!) * p**a * (1-p)**b * q**(a*b)
      * (p*(1 - q**b) + (1-p)*(1 - q**a))**r

`expected_concepts` takes their logs (log-gamma factorials, the
(1 - q**k) factors via expm1/log1p, the bracket as a log-sum of its two
nonnegative parts so it never cancels, added by the two-term
`_log_add_exp`) and adds them with `logspace.log_sum_exp`, the package's
one log-sum-exp over a sequence; its report counts the
collapsed terms, `terms_evaluated` nonzero and `terms_skipped_zero` zero.
`expected_concepts_exact` gives the value as a rational, for
n <= MAX_EXACT_N = 192 and a common denominator of at most MAX_EXACT_BITS
bits. With p = u/v and q = s/t in lowest terms,
w = v - u and k = max(a, b), the collapsed term is

    C(n, a) * C(n-a, b) * u**a * w**b * s**(a*b) * B**r / (v**n * t**(k*(n-k)))

with B = u*(t**b - s**b)*t**(k-b) + w*(t**a - s**a)*t**(k-a), since
a*b + k*r = k*(n-k). So the average is one integer sum over the common
denominator v**n * t**E, E the largest k*(n-k), reduced once at the end;
it is exact by construction. The 4-part summand (`log_term` over
`composition_iter`) is kept as an independent oracle, next to a
brute-force oracle that integrates the concept count over the entire
sample space (guarded to n <= 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .context import count_concepts
from .errors import InputError, SizeError, fraction_text, integer, quote
from .logspace import log_one_minus_pow, log_sum_exp
from .model import ModelParams, context_log_probability, enumerate_sample_space

MAX_BRUTEFORCE_N = 5
MAX_EXPECT_N = 2000
MAX_EXACT_N = 192
MAX_EXACT_BITS = 2**15
# log_term takes n up to the split term's bound, so that n!, a*b and every
# other count it converts to float stays in range.
MAX_TERM_N = 10**12


@dataclass(frozen=True)
class Composition4:
    """An ordered 4-tuple of nonnegative integers (a, b, c, d)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for name, part in vars(self).items():
            object.__setattr__(self, name, integer(part, f"composition part {name}", low=0))

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d


@dataclass(frozen=True)
class ExpectationReport:
    """Result of evaluating the average-concept-count sum."""

    params: ModelParams
    log_value: float
    value: float
    terms_evaluated: int
    terms_skipped_zero: int


def composition_count(n: int) -> int:
    """Number of length-4 compositions of n: C(n+3, 3)."""
    return math.comb(n + 3, 3)


def composition_iter(n: int) -> Iterator[Composition4]:
    """All length-4 compositions of n, lexicographic in (a, b, c)."""
    n = integer(n, "n", low=1)

    def generate() -> Iterator[Composition4]:
        for a in range(n + 1):
            for b in range(n - a + 1):
                for c in range(n - a - b + 1):
                    yield Composition4(a, b, c, n - a - b - c)

    return generate()


def log_term(params: ModelParams, comp: Composition4) -> float:
    """Log of one summand of the average-concept-count sum.

    Each factor with a positive exponent adds exponent * log(base), with
    log 0 = -inf, so the term is zero as soon as one such base is 0; in
    particular (1 - q**a)**d is zero for d > 0 with a == 0 (since q**0 is
    1), and likewise for the c-factor with b == 0. n <= MAX_TERM_N = 10**12
    is checked first.
    """
    integer(params.n, "n", high=MAX_TERM_N, bounded_by="one summand")
    if comp.total != params.n:
        raise InputError(
            f"composition {quote(comp)} sums to {quote(comp.total)}, expected n = {quote(params.n)}"
        )
    a, b, c, d = comp.a, comp.b, comp.c, comp.d
    p, q = params.p, params.q
    total = (
        math.lgamma(params.n + 1)
        - math.lgamma(a + 1)
        - math.lgamma(b + 1)
        - math.lgamma(c + 1)
        - math.lgamma(d + 1)
    )
    for count, log_base in (
        (a + c, math.log(p) if p > 0.0 else -math.inf),
        (b + d, math.log1p(-p) if p < 1.0 else -math.inf),
        (a * b, math.log(q) if q > 0.0 else -math.inf),
        (d, log_one_minus_pow(q, a)),
        (c, log_one_minus_pow(q, b)),
    ):
        if count:
            total += count * log_base
    return total


def _log_add_exp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)); -inf only when both are -inf."""
    if x < y:
        x, y = y, x
    if y == -math.inf:
        return x
    return x + math.log1p(math.exp(y - x))


def expected_concepts(params: ModelParams) -> ExpectationReport:
    """Average number of concepts under the (n, p, q) model, evaluated exactly.

    Sums all C(n+2, 2) collapsed terms, in (a, b) order, with
    :func:`log_sum_exp`; no cutoff is applied.

    ``log_value``'s error is absolute, not relative: up to a few ulp of ln n!.
    At q = 1, where E = 1 exactly, the computed ln E reaches -2.3e-14 at
    n = 40, -8.2e-14 at n = 200, -4.8e-13 at n = 1000 and -1.0e-12 at n = 2000
    (p from .01 to .99); at (2000, .1, 1) ``value`` is 0.9999999999991. Near
    E = 1 the relative error of ln E is large: at (80, 1e-6, 1 - 2**-30) ln E
    is 5.9e-12 and its relative error 1.4e-5, while ``value`` is accurate.

    n <= MAX_EXPECT_N = 2000 is checked before any work; n = 2000 takes
    about 2 s on one core of an Intel Xeon. ``value`` = exp(``log_value``)
    cannot overflow, since E <= 2**(n // 2) and MAX_EXPECT_N <= 2047; a
    larger bound must handle the overflow there.
    """
    n = integer(params.n, "n", high=MAX_EXPECT_N, bounded_by="float evaluation")
    p, q = params.p, params.q
    log_fact = [math.lgamma(k + 1) for k in range(n + 1)]
    log_miss = [log_one_minus_pow(q, k) for k in range(n + 1)]
    log_p = math.log(p) if p > 0.0 else -math.inf
    log_not_p = math.log1p(-p) if p < 1.0 else -math.inf
    log_q = math.log(q) if q > 0.0 else -math.inf
    skipped = 0

    def terms() -> Iterator[float]:
        nonlocal skipped
        for a in range(n + 1):
            row = []
            for b in range(n - a + 1):
                r = n - a - b
                term = log_fact[n] - log_fact[a] - log_fact[b] - log_fact[r]
                if a:
                    term += a * log_p
                if b:
                    term += b * log_not_p
                if a and b:
                    term += a * b * log_q
                if r:
                    term += r * _log_add_exp(log_p + log_miss[b], log_not_p + log_miss[a])
                row.append(term)
            skipped += row.count(-math.inf)
            yield from row

    log_value = log_sum_exp(terms())
    return ExpectationReport(
        params=params,
        log_value=log_value,
        value=math.exp(log_value),
        terms_evaluated=math.comb(n + 2, 2) - skipped,
        terms_skipped_zero=skipped,
    )


def _probability(value: object, name: str) -> Fraction:
    """value as a Fraction in [0, 1]; anything Fraction() refuses (None, a
    text it cannot read, nan, inf) is out of range too."""
    try:
        x = Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be in [0, 1], got {quote(value)}") from None
    if not 0 <= x <= 1:
        raise InputError(f"{name} must be in [0, 1], got {quote(fraction_text(x))}")
    return x


def expected_concepts_exact(n: int, p: Fraction, q: Fraction) -> Fraction:
    """Exact rational value of the average, for rational p and q.

    Used to calibrate the float path. The numerators are summed as
    integers over one common denominator (see the module docstring), so
    only the result is reduced. Their size is bounded before any work:
    n <= MAX_EXACT_N, and the common denominator v**n * t**E, measured as
    n * bits(v) + E * bits(t), at most MAX_EXACT_BITS = 2**15 bits. The
    slowest accepted input measured, n = 192 at p = 12345/33554393,
    q = 3/7 (32448 bits), takes 4.2 s on one core of an Intel Xeon.
    """
    n = integer(n, "n", low=1, high=MAX_EXACT_N, bounded_by="exact evaluation")
    p = _probability(p, "p")
    q = _probability(q, "q")
    u, v = p.numerator, p.denominator
    s, t = q.numerator, q.denominator
    top = (n // 2) * (n - n // 2)
    bits = n * v.bit_length() + top * t.bit_length()
    if bits > MAX_EXACT_BITS:
        raise SizeError(
            f"exact evaluation supports a common denominator of at most"
            f" {MAX_EXACT_BITS} bits, got up to {bits} at n = {n}"
        )
    w = v - u
    t_pow = [t**j for j in range(n + 1)]
    miss = [t_pow[j] - s**j for j in range(n + 1)]  # t**j * (1 - q**j)
    # Numerators grouped by k = max(a, b), which fixes the power of t.
    by_k = [0] * (n + 1)
    for a in range(n + 1):
        row = math.comb(n, a) * u**a
        s_a = s**a
        s_ab = w_b = 1
        for b in range(n - a + 1):
            k = max(a, b)
            bracket = u * miss[b] * t_pow[k - b] + w * miss[a] * t_pow[k - a]
            by_k[k] += row * math.comb(n - a, b) * w_b * s_ab * bracket ** (n - a - b)
            s_ab *= s_a
            w_b *= w
    total = sum(part * t ** (top - k * (n - k)) for k, part in enumerate(by_k))
    return Fraction(total, v**n * t**top)


def expected_concepts_bruteforce(params: ModelParams) -> float:
    """Average via direct integration: sum of count * probability over all contexts.

    Independent of the composition-sum formula; exponentially expensive.
    """
    n = integer(params.n, "n", high=MAX_BRUTEFORCE_N, bounded_by="brute-force averaging")
    return math.fsum(
        count_concepts(ctx) * math.exp(context_log_probability(params, ctx))
        for ctx in enumerate_sample_space(n)
    )
