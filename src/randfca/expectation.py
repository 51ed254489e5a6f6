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

For fixed (a, b) the sum over c + d = r = n - a - b is binomial, which
leaves the C(n+2, 2) collapsed terms over a + b <= n:

    n! / (a! b! r!) * p**a * (1-p)**b * q**(a*b)
      * (p*(1 - q**b) + (1-p)*(1 - q**a))**r

`expected_concepts` takes their logs (log-gamma factorials, the
(1 - q**k) factors via expm1/log1p, the bracket B as a log-sum of its two
nonnegative parts so it never cancels). It does not add all of them: each
row (fixed a) is unimodal in b, so one row kernel, `_windowed_log_sum`,
climbs to each row's mode and adds only the terms within
50 + 2 ln(n + 1) of the largest mode, with `logspace.log_sum_exp`, the
package's one log-sum-exp; what it leaves out is below e**-50 of the
average (the proof is in its docstring). The edges p in {0, 1} and
q in {0, 1} have closed forms. Its report counts the collapsed terms as a
full sum would meet them, `terms_evaluated` nonzero and
`terms_skipped_zero` zero; both follow from p and q in closed form.
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
from typing import TYPE_CHECKING, Iterator

from .context import count_concepts
from .errors import InputError, SizeError, fraction_text, integer, quote
from .logspace import log1mexp, log_one_minus_pow, log_sum_exp
from .model import ModelParams, context_log_probability, enumerate_sample_space
from .record import Record

if TYPE_CHECKING:
    from fractions import Fraction

MAX_BRUTEFORCE_N = 5
MAX_EXPECT_N = 2000
MAX_EXACT_N = 192
MAX_EXACT_BITS = 2**15
# log_term takes n up to the split term's bound, so that n!, a*b and every
# other count it converts to float stays in range.
MAX_TERM_N = 10**12


class Composition4(Record):
    """An ordered 4-tuple of nonnegative integers (a, b, c, d)."""

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        for name, part in ("a", a), ("b", b), ("c", c), ("d", d):
            self.__dict__[name] = integer(part, f"composition part {name}", low=0)

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d


class ExpectationReport(Record):
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


def expected_concepts(params: ModelParams) -> ExpectationReport:
    """Average number of concepts under the (n, p, q) model.

    At the edges the value is known in closed form: E = 1 at p in {0, 1}
    (one nonzero term, (a, b) = (0, n) or (n, 0)) and at q = 1 (the n + 1
    terms with r = 0, the binomial expansion of (p + 1 - p)**n), and
    E = 2 - p**n - (1-p)**n at q = 0 (the 2n terms with a = 0 < b or
    b = 0 < a). For interior p and q only (0, 0) is zero, and
    :func:`_windowed_log_sum` adds every term that can move ln E.
    ``terms_evaluated`` and ``terms_skipped_zero`` count the nonzero and
    zero terms among all C(n+2, 2) collapsed ones, so they follow from
    these cases too.

    ``log_value``'s error is absolute, not relative: up to a few ulp of ln n!.
    Near E = 1 its relative error is large: at (80, 1e-6, 1 - 2**-30) ln E
    is 5.9e-12 and its relative error 1.4e-5, while ``value`` is accurate.
    Every context has the concept (G, G'), so E >= 1, and a sum that rounds
    below ln 1 = 0 (as the interior sum does at (3, p, p), p = 1 - 1e-12,
    and the q = 0 form at n = 1) is returned as 0: the true ln E is >= 0,
    so this only shrinks the error, and ``log_value`` >= 0, ``value`` >= 1.

    n <= MAX_EXPECT_N = 2000 is checked before any work. At n = 2000 the
    widest windows, at q near .999, walk about 150,000 of the 2,003,001
    terms: (2000, .5, .999) takes about 0.07 s on one core of a 2-vCPU Intel
    Xeon VM under Python 3.11.7 (the full sum 1.2 s on an Intel Xeon core).
    ``value`` = exp(``log_value``) cannot overflow, since E <= 2**(n // 2)
    and MAX_EXPECT_N <= 2047; a larger bound must handle the overflow there.
    """
    n = integer(params.n, "n", high=MAX_EXPECT_N, bounded_by="float evaluation")
    p, q = params.p, params.q
    terms = math.comb(n + 2, 2)
    if p == 0.0 or p == 1.0:
        nonzero, log_value = 1, 0.0
    elif q == 1.0:
        nonzero, log_value = n + 1, 0.0
    elif q == 0.0:
        nonzero = 2 * n
        log_value = log_sum_exp((log1mexp(n * math.log(p)), log1mexp(n * math.log1p(-p))))
    else:
        nonzero, log_value = terms - 1, _windowed_log_sum(n, p, q)
    # E >= 1, so a sum rounded below ln 1 is raised to it.
    log_value = max(0.0, log_value)
    return ExpectationReport(
        params=params,
        log_value=log_value,
        value=math.exp(log_value),
        terms_evaluated=nonzero,
        terms_skipped_zero=terms - nonzero,
    )


def _windowed_log_sum(n: int, p: float, q: float) -> float:
    """ln E for 0 < p < 1 and 0 < q < 1, from the terms near each row's mode.

    Row a is the collapsed terms (a, b), b = 0..n-a. Each row is log-concave
    in b: -lgamma(b+1) - lgamma(r+1) is concave, b * ln(1-p) + a*b * ln q is
    linear, and r * ln B(b), with r = n - a - b and B the bracket, has second
    derivative r * (ln B)'' - 2 * (ln B)' <= 0, since ln B is concave and
    increasing in b (1 - q**b is). So each row is unimodal, and a climb
    from any start ends at its mode. The sum runs in three steps:

    1. Climb to each row's mode, starting from the previous row's mode
       (row 0 starts at b = 1, past its one zero term (0, 0)).
    2. Take top, the largest mode, and cut = top - 50 - 2 ln(n + 1).
    3. Skip each row whose mode is below the cut. Walk each other row out
       from its mode until a term falls below the cut, and add the walked
       terms, in (a, b) order, with :func:`log_sum_exp`. The walk evaluates
       each term inline, from parts hoisted per row and per column, in
       `term`'s operation order.

    By unimodality every term left out lies below the cut. There are
    C(n+2, 2) <= (n+1)**2 terms, so together they are below
    e**top * e**-50 <= e**-50 * E: ln E moves by less than 2e-22, far below
    the absolute error the float terms carry (a few ulp of ln n!). Each term
    is computed with the same operations in the same order as a full sum of
    all terms would, so only the terms left out can change the result.
    """
    log_p, log_not_p, log_q = math.log(p), math.log1p(-p), math.log(q)
    log_fact = [math.lgamma(k + 1) for k in range(n + 1)]
    log_miss = [-math.inf] + [log1mexp(k * log_q) for k in range(1, n + 1)]  # ln(1 - q**k)
    log_n_fact = log_fact[n]
    log_p_miss = [log_p + m for m in log_miss]  # ln(p * (1 - q**b))
    b_log_not_p = [b * log_not_p for b in range(n + 1)]
    log1p, exp = math.log1p, math.exp

    def term(a: int, b: int) -> float:
        """ln of term (a, b); -inf at the zero term (0, 0) and past the row's ends."""
        r = n - a - b
        if b < 0 or r < 0 or a == b == 0:
            return -math.inf
        x, y = log_p_miss[b], log_not_p + log_miss[a]
        if x < y:
            x, y = y, x
        return (
            log_n_fact - log_fact[a] - log_fact[b] - log_fact[r]
            + a * log_p + b_log_not_p[b] + a * b * log_q
            + r * (x + log1p(exp(y - x)))
        )

    # Each row's mode with the terms on either side of it, which the walk
    # starts from.
    rows = []
    b = 1
    for a in range(n + 1):
        b = min(b, n - a)
        left, top, right = term(a, b - 1), term(a, b), term(a, b + 1)
        while right > top:
            b += 1
            left, top, right = top, right, term(a, b + 1)
        while left > top:
            b -= 1
            left, top, right = term(a, b - 1), left, top
        rows.append((top, b, left, right))
    cut = max(rows)[0] - 50.0 - 2.0 * math.log(n + 1)
    logs = []
    for a, (top, mode, left, right) in enumerate(rows):
        if top < cut:
            continue
        if left < cut and right < cut:
            logs.append(top)
            continue
        # Walk out from the climb's terms next to the mode, with term(a, b) inline;
        # reversing after each direction leaves `reversed(walked)` in (a, b) order.
        head, ap, y_a = log_n_fact - log_fact[a], a * log_p, log_not_p + log_miss[a]
        walked, lo = [top], -1 if a else 0  # row 0 ends at b = 1, before term (0, 0)
        for log_t, bs in (left, range(mode - 2, lo, -1)), (right, range(mode + 2, n - a + 1)):
            for b in bs:
                if log_t < cut:
                    break
                walked.append(log_t)
                r = n - a - b
                x, y = log_p_miss[b], y_a
                if x < y:
                    x, y = y, x
                log_t = (
                    head - log_fact[b] - log_fact[r]
                    + ap + b_log_not_p[b] + a * b * log_q
                    + r * (x + log1p(exp(y - x)))
                )
            if log_t >= cut:
                walked.append(log_t)
            walked.reverse()
        logs += reversed(walked)
    return log_sum_exp(logs)


def _probability(value: object, name: str) -> Fraction:
    """value as a Fraction in [0, 1]: the one reader of a rational probability.

    A text's decimal exponent is bounded by MAX_EXACT_BITS before Fraction()
    builds 10**exponent. Fraction parses a mantissa of at most 2 x 4300
    digits (the interpreter's int limit), so past the bound a probability is
    0, above 1, or has a denominator over MAX_EXACT_BITS bits, which the
    exact sum refuses anyway. A value Fraction() refuses (None, a text it
    cannot read, nan, inf) cannot be parsed. A text is quoted as given,
    another value by its fraction.
    """
    from fractions import Fraction

    text = isinstance(value, str)
    try:
        _, marker, exponent = value.lower().rpartition("e") if text else ("", "", "")
        x = Fraction(value) if not marker or abs(int(exponent)) <= MAX_EXACT_BITS else None
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"cannot parse probability {quote(value)}") from None
    if x is None:
        raise InputError(f"probability {quote(value)} has an exponent beyond ±{MAX_EXACT_BITS}")
    if not 0 <= x <= 1:
        raise InputError(f"{name} must be in [0, 1], got {quote(value if text else fraction_text(x))}")
    return x


def expected_concepts_exact(n: int, p: Fraction, q: Fraction) -> Fraction:
    """Exact rational value of the average, for rational p and q.

    p and q are anything Fraction() reads, such as "1/3" or "1e-5", a
    text's decimal exponent at most MAX_EXACT_BITS in size. Used to
    calibrate the float path. The numerators are summed as integers over
    one common denominator (see the module docstring), so only the result
    is reduced. Their size is bounded before any work: n <= MAX_EXACT_N,
    and the common denominator v**n * t**E, measured as n * bits(v) +
    E * bits(t), at most MAX_EXACT_BITS = 2**15 bits. The slowest accepted
    input measured, n = 192 at p = 12345/33554393, q = 3/7 (32448 bits),
    takes 1.9-2.4 s on one core of a 2-vCPU Intel Xeon VM, Python 3.11.7.
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
        # coef = C(n, a) u**a C(n-a, b) (w s**a)**b; // is exact: C(n-a, b) (n-a-b) = C(n-a, b+1) (b+1)
        coef, ws, w_miss = math.comb(n, a) * u**a, w * s**a, w * miss[a]
        for b in range(n - a + 1):
            k = b if b > a else a
            bracket = u * miss[b] * t_pow[k - b] + w_miss * t_pow[k - a]
            by_k[k] += coef * bracket ** (n - a - b)
            coef = coef * (n - a - b) * ws // (b + 1)
    total = sum(part * t ** (top - k * (n - k)) for k, part in enumerate(by_k))
    from fractions import Fraction

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
