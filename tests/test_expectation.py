import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randfca import (
    Composition4,
    FormalContext,
    InputError,
    ModelParams,
    SizeError,
    composition_count,
    composition_iter,
    context_log_probability,
    expected_concepts,
    expected_concepts_bruteforce,
    expected_concepts_exact,
    log1mexp,
    log_one_minus_pow,
    log_sum_exp,
    log_term,
)

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def fraction_loop(n, p, q):
    """The collapsed (a, b) sum added term by term in Fractions: the oracle
    for the integer sum of `expected_concepts_exact`."""
    p = Fraction(p)
    q = Fraction(q)
    miss = [1 - q**k for k in range(n + 1)]
    total = Fraction(0)
    for a in range(n + 1):
        for b in range(n - a + 1):
            total += (
                math.comb(n, a)
                * math.comb(n - a, b)
                * p**a
                * (1 - p) ** b
                * q ** (a * b)
                * (p * miss[b] + (1 - p) * miss[a]) ** (n - a - b)
            )
    return total


def full_sum(params):
    """All C(n+2, 2) collapsed (a, b) terms, summed in logs in (a, b) order:
    the oracle for `expected_concepts`, which adds only the terms near each
    row's mode. Returns (ln E, nonzero terms, zero terms)."""
    n, p, q = params.n, params.p, params.q
    log_fact = [math.lgamma(k + 1) for k in range(n + 1)]
    log_miss = [log_one_minus_pow(q, k) for k in range(n + 1)]
    log_p = math.log(p) if p > 0.0 else -math.inf
    log_not_p = math.log1p(-p) if p < 1.0 else -math.inf
    log_q = math.log(q) if q > 0.0 else -math.inf
    terms = []
    for a in range(n + 1):
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
                term += r * log_sum_exp((log_p + log_miss[b], log_not_p + log_miss[a]))
            terms.append(term)
    zero = terms.count(-math.inf)
    return log_sum_exp(terms), len(terms) - zero, zero


# Rationals in [0, 1]: the corners, a half, and denominators up to 10**18.
probabilities = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**18),
)


class TestCompositions:
    @pytest.mark.parametrize("n,count", [(1, 4), (2, 10), (3, 20)])
    def test_counts(self, n, count):
        comps = list(composition_iter(n))
        assert len(comps) == count == composition_count(n)
        assert len(set(comps)) == count

    def test_all_sum_to_n(self):
        assert all(c.total == 7 for c in composition_iter(7))

    def test_lexicographic_in_abc(self):
        keys = [(c.a, c.b, c.c) for c in composition_iter(4)]
        assert keys == sorted(keys)

    def test_negative_part_rejected(self):
        with pytest.raises(InputError):
            Composition4(1, -1, 0, 0)

    def test_n_must_be_positive(self):
        with pytest.raises(InputError):
            list(composition_iter(0))


class TestLogTerm:
    def test_mixed_pair_term(self):
        # multinomial(2;1,1,0,0) * p * (1-p) * q = 2 * 1/4 * 1/2
        got = log_term(ModelParams(2, 0.5, 0.5), Composition4(1, 1, 0, 0))
        assert got == pytest.approx(math.log(0.25), rel=1e-15)

    def test_all_objects_term(self):
        got = log_term(ModelParams(2, 0.5, 0.5), Composition4(2, 0, 0, 0))
        assert got == pytest.approx(math.log(0.25), rel=1e-15)

    def test_zero_when_c_factor_vanishes(self):
        # b = 0 makes (1 - q**b) = 0 and c = 2 > 0
        assert log_term(ModelParams(2, 0.5, 0.5), Composition4(0, 0, 2, 0)) == -math.inf

    def test_zero_when_d_factor_vanishes(self):
        assert log_term(ModelParams(3, 0.5, 0.5), Composition4(0, 1, 0, 2)) == -math.inf

    def test_sum_mismatch_rejected(self):
        with pytest.raises(InputError):
            log_term(ModelParams(3, 0.5, 0.5), Composition4(1, 1, 0, 0))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_exactly_when_a_factor_with_positive_exponent_vanishes(self, n):
        for p in (0.0, 0.5, 1.0):
            for q in (0.0, 0.5, 1.0):
                for comp in composition_iter(n):
                    a, b, c, d = comp.a, comp.b, comp.c, comp.d
                    rule = (
                        (a + c > 0 and p == 0.0)
                        or (b + d > 0 and p == 1.0)
                        or (a * b > 0 and q == 0.0)
                        or (d > 0 and (a == 0 or q == 1.0))
                        or (c > 0 and (b == 0 or q == 1.0))
                    )
                    assert (log_term(ModelParams(n, p, q), comp) == -math.inf) == rule, (p, q, comp)

    def test_exponent_zero_never_zeroes_a_term(self):
        # p = 0 with a + c = 0 and q = 1 with c = d = 0 both survive
        got = log_term(ModelParams(2, 0.0, 1.0), Composition4(0, 2, 0, 0))
        assert got == pytest.approx(0.0, abs=1e-15)


class TestExpectedConcepts:
    @pytest.mark.parametrize("p", GRID)
    @pytest.mark.parametrize("q", GRID)
    def test_n1_is_exactly_one(self, p, q):
        report = expected_concepts(ModelParams(1, p, q))
        assert report.value == pytest.approx(1.0, abs=1e-15)

    def test_n2_half_half(self):
        report = expected_concepts(ModelParams(2, 0.5, 0.5))
        assert report.value == pytest.approx(1.25, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_q_one_collapses_to_one(self, n):
        report = expected_concepts(ModelParams(n, 0.3, 1.0))
        assert report.value == pytest.approx(1.0, abs=1e-12)

    def test_term_accounting(self):
        report = expected_concepts(ModelParams(6, 0.5, 0.5))
        assert report.terms_evaluated + report.terms_skipped_zero == math.comb(6 + 2, 2)
        assert report.value == pytest.approx(math.exp(report.log_value), rel=1e-15)

    def test_skipping_zero_terms_is_exact(self):
        params = ModelParams(5, 0.25, 0.75)
        terms = [log_term(params, c) for c in composition_iter(5)]
        skipped = log_sum_exp(t for t in terms if t != -math.inf)
        unskipped = log_sum_exp(terms)
        assert skipped == unskipped

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_bruteforce_on_grid(self, n):
        for p in GRID:
            for q in GRID:
                params = ModelParams(n, p, q)
                formula = expected_concepts(params).value
                oracle = expected_concepts_bruteforce(params)
                assert formula == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_object_attribute_symmetry(self, n):
        for p in GRID:
            for q in GRID:
                left = expected_concepts(ModelParams(n, p, q)).value
                right = expected_concepts(ModelParams(n, 1.0 - p, q)).value
                assert left == pytest.approx(right, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bounds_at_half_half(self, n):
        value = expected_concepts(ModelParams(n, 0.5, 0.5)).value
        assert 1.0 <= value <= 2.0**n

    def test_n_is_bounded_before_any_work(self):
        # n = 10**9 would first build two tables of n + 1 floats.
        for n in (2001, 10**9):
            with pytest.raises(SizeError, match=f"n <= 2000, got {n}"):
                expected_concepts(ModelParams(n, 0.5, 0.5))


class TestAgainstCompositionSum:
    """The collapsed (a, b) sum against the 4-part composition-sum oracle."""

    @staticmethod
    def oracle(params):
        return log_sum_exp(log_term(params, c) for c in composition_iter(params.n))

    @pytest.mark.parametrize("n", [*range(1, 13), 20, 30])
    def test_float_path(self, n):
        for p in GRID:
            for q in GRID:
                params = ModelParams(n, p, q)
                got = expected_concepts(params).log_value
                want = self.oracle(params)
                assert (got == -math.inf) == (want == -math.inf)
                if want != -math.inf:
                    assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [20, 40])
    @pytest.mark.parametrize(
        "p,q", [(Fraction(1, 3), Fraction(2, 5)), (Fraction(3, 4), Fraction(1, 8))]
    )
    def test_exact_path(self, n, p, q):
        want = math.exp(self.oracle(ModelParams(n, float(p), float(q))))
        assert float(expected_concepts_exact(n, p, q)) == pytest.approx(want, rel=1e-12)


# Nine probabilities, both ends and two points next to them included: an
# 81-point (p, q) grid.
FULL_GRID = (0.0, 1e-6, 0.1, 0.25, 0.5, 0.75, 0.9, 1 - 2**-30, 1.0)
# Probabilities at the float extremes, for the rows' shapes they give.
EXTREMES = (1e-300, 1e-12, 0.5, 1 - 1e-12, 1 - 2**-53)


class TestAgainstFullSum:
    """The windowed sum and the closed-form edges against every collapsed term."""

    @staticmethod
    def check(n, p, q):
        report = expected_concepts(ModelParams(n, p, q))
        want, nonzero, zero = full_sum(ModelParams(n, p, q))
        assert abs(report.log_value - want) <= 1e-12 * max(1.0, abs(want)), (n, p, q)
        assert (report.terms_evaluated, report.terms_skipped_zero) == (nonzero, zero), (n, p, q)

    @pytest.mark.parametrize("n", [*range(1, 30), 40, 80, 200])
    def test_on_the_grid(self, n):
        for p in FULL_GRID:
            for q in FULL_GRID:
                self.check(n, p, q)

    @pytest.mark.parametrize("p,q", [(0.5, 0.5), (0.9, 0.1), (0.5, 0.999)])
    def test_at_n_1000(self, p, q):
        self.check(1000, p, q)

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_at_extreme_interior_points(self, n):
        for p in EXTREMES:
            for q in EXTREMES:
                self.check(n, p, q)


# Zero, one, the float extremes and points between: at their (p, q) pairs
# the sums round below ln 1 = 0 before they are raised to it.
FLOOR_GRID = (0.0, 1e-300, 1e-12, 1e-6, 0.1, 0.25, 0.5, 0.75, 0.9, 1 - 2**-30, 1 - 1e-12, 1.0)


def test_average_is_never_below_one():
    """Every context has the concept (G, G'), so E >= 1: log_value >= 0 and
    value >= 1 over the grid, also where the interior sum (at (3, p, p),
    p = 1 - 1e-12) or the q = 0 form (at n = 1) rounds below ln 1."""
    points = [(n, p, q) for n in (1, 2, 3, 7, 40) for p in FLOOR_GRID for q in FLOOR_GRID]
    for n, p, q in points + [(2000, 1e-12, 1 - 1e-12)]:
        report = expected_concepts(ModelParams(n, p, q))
        assert report.log_value >= 0.0 and report.value >= 1.0, (n, p, q)


# ln E(n, p, q) from the collapsed (a, b) sum in 60-digit arithmetic (mpmath,
# term by term) over the exact binary values of p and q, checked against an
# 80-digit run; 25 digits kept. The first twelve are the benchmark's float
# points.
HIGH_PRECISION_LOG = {
    (40, 0.5, 0.5): "6.30128748438852190689864",
    (40, 0.1, 0.9): "3.437772639516226086151368",
    (40, 0.9, 0.1): "2.015914184310294920168867",
    (40, 0.5, 1.0): "0",
    (60, 0.5, 0.5): "8.261201714157196516870177",
    (60, 0.1, 0.9): "5.378804173792260386387575",
    (60, 0.9, 0.1): "2.618690349104073341055323",
    (60, 0.5, 1.0): "0",
    (80, 0.5, 0.5): "9.863771270619174122613204",
    (80, 0.1, 0.9): "7.272930086563922285222824",
    (80, 0.9, 0.1): "3.131055157287536578637642",
    (80, 0.5, 1.0): "0",
    (500, 0.5, 0.5): "24.43472263346676174610043",
    (80, 1e-6, 1 - 2**-30): "5.885952571823189471663771e-12",
}


@pytest.mark.parametrize("n,p,q", list(HIGH_PRECISION_LOG))
def test_log_value_against_high_precision_reference(n, p, q):
    """|got - want| <= 1e-12 * max(|want|, 1) at every point. The worst
    error measured is 3.8e-14, at (60, 0.5, 1.0), where ln E is 0. At
    (80, 1e-6, 1 - 2**-30) ln E is 5.9e-12 and the error 8.3e-17: a
    relative error of 1.4e-5 to ln E itself, since E = 1 + 5.9e-12 is
    summed in doubles."""
    want = float(HIGH_PRECISION_LOG[(n, p, q)])
    got = expected_concepts(ModelParams(n, p, q)).log_value
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


# The row kernel as it was before its walk evaluated each term inline, from
# parts hoisted per row and per column; kept verbatim, `term` call for call.
# A stored table of hex digits would pin the same bits only on the libm that
# made it; this reference runs on the same libm as the kernel it checks.
def walk_by_term_calls(n: int, p: float, q: float) -> float:
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
       terms, in (a, b) order, with :func:`log_sum_exp`.

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
    log1p, exp = math.log1p, math.exp

    def term(a: int, b: int) -> float:
        """ln of term (a, b); -inf at the zero term (0, 0) and past the row's ends."""
        r = n - a - b
        if b < 0 or r < 0 or a == b == 0:
            return -math.inf
        x, y = log_p + log_miss[b], log_not_p + log_miss[a]
        if x < y:
            x, y = y, x
        return (
            log_n_fact - log_fact[a] - log_fact[b] - log_fact[r]
            + a * log_p + b * log_not_p + a * b * log_q
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
        walked, b = [], mode - 1
        while left >= cut:
            walked.append(left)
            b -= 1
            left = term(a, b)
        logs += reversed(walked)
        logs.append(top)
        b = mode + 1
        while right >= cut:
            logs.append(right)
            b += 1
            right = term(a, b)
    return log_sum_exp(logs)


BIT_PINNED = {
    "full-grid": [(n, p, q) for n in (40, 80, 200, 1000, 2000) for p in FULL_GRID for q in FULL_GRID],
    "extremes": [(n, p, q) for n in (2, 3, 7, 40) for p in EXTREMES for q in EXTREMES],
    "benchmark": list(HIGH_PRECISION_LOG)[:12],
}


@pytest.mark.parametrize("points", BIT_PINNED.values(), ids=list(BIT_PINNED))
def test_log_value_is_bit_identical_to_the_walk_by_term_calls(points):
    """Every interior log_value equals, bit for bit, the walk that calls
    `term` for each term: hoisting a term's parts out of the walk keeps each
    operation and its order. The edges p, q in {0, 1} take closed forms."""
    differ = []
    for n, p, q in points:
        if 0.0 < p < 1.0 and 0.0 < q < 1.0:
            got = expected_concepts(ModelParams(n, p, q)).log_value
            want = max(0.0, walk_by_term_calls(n, p, q))
            if got.hex() != want.hex():
                differ.append(f"{(n, p, q)}: {got.hex()} != {want.hex()}")
    assert not differ, differ


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [40, 200, 1000])
def test_log_value_at_q_one_is_within_ulps_of_ln_n_factorial(n, p):
    """At q = 1 every context has the one concept (G, M), so E = 1 and
    ln E = 0, exactly: the closed form adds no rounding error, where the
    full sum's error is a few ulp of ln n!."""
    assert expected_concepts(ModelParams(n, p, 1.0)).log_value == 0.0


@pytest.mark.parametrize(
    "n,p,q", [(1, 0.5, 0.5), (40, 0.1, 0.9), (80, 1e-6, 1 - 2**-30), (2000, 0.5, 0.5)]
)
def test_logs_are_plain_floats(n, p, q):
    """A log is a float, with -inf as its only zero, and ``value`` is its
    exp: E <= 2**(n // 2) cannot overflow at any accepted n."""
    params = ModelParams(n, p, q)
    report = expected_concepts(params)
    objects_only = FormalContext(tuple(map(str, range(1, n + 1))), (), "")
    logs = [
        log_sum_exp([]),
        log_sum_exp([-math.inf]),
        log_sum_exp([-1.0, 0.0, 2.5]),
        log_term(params, Composition4(n, 0, 0, 0)),
        context_log_probability(params, objects_only),
        report.log_value,
    ]
    assert [type(log) for log in logs] == [float] * len(logs)
    assert logs[:2] == [-math.inf, -math.inf]
    assert report.value == math.exp(report.log_value)


class TestBruteforce:
    def test_n1_any_params(self):
        assert expected_concepts_bruteforce(ModelParams(1, 0.3, 0.9)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_n2_half_half(self):
        assert expected_concepts_bruteforce(ModelParams(2, 0.5, 0.5)) == pytest.approx(
            1.25, abs=1e-12
        )

    def test_q_one(self):
        assert expected_concepts_bruteforce(ModelParams(2, 0.5, 1.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_guard(self):
        with pytest.raises(SizeError):
            expected_concepts_bruteforce(ModelParams(6, 0.5, 0.5))


class TestExactRational:
    def test_n2_half_half_is_five_fourths(self):
        assert expected_concepts_exact(2, Fraction(1, 2), Fraction(1, 2)) == Fraction(5, 4)

    def test_matches_float_path(self):
        for n in (3, 6, 10):
            for p, q in ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 2))):
                exact = expected_concepts_exact(n, p, q)
                approx = expected_concepts(ModelParams(n, float(p), float(q))).value
                assert approx == pytest.approx(float(exact), rel=1e-12)

    def test_matches_bruteforce_exactly_at_corners(self):
        for q in (Fraction(0), Fraction(1)):
            exact = expected_concepts_exact(4, Fraction(1, 2), q)
            oracle = expected_concepts_bruteforce(ModelParams(4, 0.5, float(q)))
            assert float(exact) == pytest.approx(oracle, abs=1e-14)

    def test_guards(self):
        with pytest.raises(SizeError):
            expected_concepts_exact(193, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(SizeError):  # a common denominator of about 144000 bits
            expected_concepts_exact(
                96, Fraction(123456789012345678, 10**18 - 11), Fraction(10**18 - 1, 10**18)
            )
        with pytest.raises(InputError):
            expected_concepts_exact(3, Fraction(3, 2), Fraction(1, 2))

    def test_n_and_q_are_checked(self):
        half = Fraction(1, 2)
        with pytest.raises(InputError, match=r"^n must be >= 1, got 0$"):
            expected_concepts_exact(0, half, half)
        with pytest.raises(InputError, match=r"^q must be in \[0, 1\], got '3/2'$"):
            expected_concepts_exact(2, half, Fraction(3, 2))

    @pytest.mark.parametrize("p", ["1e-9999999", "0e99999999", "1E+32769"])
    def test_probability_exponent_is_bounded_before_parsing(self, p):
        started = time.perf_counter()
        with pytest.raises(InputError) as raised:
            expected_concepts_exact(2, p, "1/2")
        assert time.perf_counter() - started < 1.0
        assert str(raised.value) == f"probability {p!r} has an exponent beyond ±32768"

    @pytest.mark.parametrize("p", ["abc", "1/0", None, math.nan])
    def test_unreadable_probability_cannot_be_parsed(self, p):
        with pytest.raises(InputError, match=r"^cannot parse probability "):
            expected_concepts_exact(2, p, "1/2")

    def test_text_probability_is_quoted_as_given(self):
        assert expected_concepts_exact(1, "0e-32768", "1/2") == 1  # an exponent at the bound
        with pytest.raises(InputError, match=r"^q must be in \[0, 1\], got '1.5'$"):
            expected_concepts_exact(2, "1/2", "1.5")

    @pytest.mark.parametrize(
        "p",
        [Fraction(10**5000), Fraction(10**3001 + 1, 10**3001)],
        ids=["5001-digit-integer", "3002-digit-parts"],
    )
    def test_out_of_range_probability_is_quoted_short(self, p):
        # The first is past the interpreter's 4300-digit limit for int-to-str;
        # str() of the second is 6,005 characters long.
        with pytest.raises(InputError) as raised:
            expected_concepts_exact(2, p, Fraction(1, 2))
        message = str(raised.value)
        assert message.startswith("p must be in [0, 1], got '1000")
        assert len(message) < 200

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), probabilities, probabilities)
    @example(40, Fraction(123456789012345678, 10**18 - 11), Fraction(10**18 - 1, 10**18))
    def test_equals_fraction_loop(self, n, p, q):
        assert expected_concepts_exact(n, p, q) == fraction_loop(n, p, q)

    @pytest.mark.parametrize(
        "n,p,q",
        [
            (60, Fraction(1, 3), Fraction(2, 5)),
            (60, Fraction(3, 4), Fraction(1, 8)),
            (96, Fraction(1, 3), Fraction(2, 5)),
            (96, Fraction(3, 4), Fraction(1, 8)),
            # the benchmark's two rational evaluations
            (32, Fraction(1, 2), Fraction(1, 2)),
            (40, Fraction(1, 3), Fraction(2, 5)),
            # u = 0, w = 0, s = 0 and s = t: the running coefficient meets
            # its zero factors and still divides exactly by b + 1
            *(
                (n, Fraction(p), Fraction(q))
                for n in (1, 2, 3, 7, 12)
                for p in (0, "1/2", 1)
                for q in (0, "1/2", 1)
            ),
        ],
    )
    def test_equals_fraction_loop_at_fixed_points(self, n, p, q):
        assert expected_concepts_exact(n, p, q) == fraction_loop(n, p, q)
