import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from randfca import InputError, LogValue, log1mexp, log_one_minus_pow, log_sum_exp


def test_zero_state():
    zero = LogValue.zero()
    assert zero.is_zero
    assert zero.exp() == 0.0
    # -inf is the only zero, whichever constructor builds it.
    assert LogValue.from_log(-math.inf).is_zero
    assert LogValue.from_log(-math.inf) == zero
    assert LogValue.from_linear(0.0) == zero
    assert not LogValue.from_log(-1e308).is_zero


def test_from_linear_roundtrip():
    assert LogValue.from_linear(0.125).exp() == pytest.approx(0.125, rel=1e-15)
    assert LogValue.from_linear(0.0).is_zero
    with pytest.raises(InputError):
        LogValue.from_linear(-1.0)


def test_exp_overflows_to_inf():
    assert LogValue.from_log(1e4).exp() == float("inf")


def test_log1mexp_matches_naive_in_safe_range():
    for x in (-0.25, -0.5, -1.0, -3.0, -10.0):
        assert log1mexp(x) == pytest.approx(math.log(1 - math.exp(x)), rel=1e-13)


def test_log1mexp_endpoints():
    assert log1mexp(0.0) == float("-inf")
    assert log1mexp(-750.0) == pytest.approx(-math.exp(-750.0), abs=1e-300)
    with pytest.raises(InputError):
        log1mexp(0.5)


def test_log_one_minus_pow_conventions():
    # exponent 0 means the factor 1 - base**0 = 0
    assert log_one_minus_pow(0.5, 0) == float("-inf")
    assert log_one_minus_pow(1.0, 3) == float("-inf")
    assert log_one_minus_pow(0.0, 3) == 0.0
    assert log_one_minus_pow(0.5, 3) == pytest.approx(math.log(7 / 8), rel=1e-15)


def test_log_one_minus_pow_near_one_is_stable():
    # naive 1 - q**e would lose most digits here; oracle via exact rationals
    from fractions import Fraction

    q = 1.0 - 1e-12
    expected = math.log(float(1 - Fraction(q) ** 2))
    assert log_one_minus_pow(q, 2) == pytest.approx(expected, rel=1e-12)


@given(st.lists(st.floats(min_value=-600, max_value=600), min_size=1, max_size=50))
def test_log_sum_exp_matches_two_pass(values):
    got = log_sum_exp(values).log
    peak = max(values)
    expected = peak + math.log(math.fsum(math.exp(v - peak) for v in values))
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_log_sum_exp_of_nothing_is_zero_state():
    assert log_sum_exp([]).is_zero
    assert log_sum_exp([float("-inf")]).is_zero


def test_log_sum_exp_ignores_exact_zero_terms():
    with_zero = log_sum_exp([0.5, float("-inf"), -1.0])
    without = log_sum_exp([0.5, -1.0])
    assert with_zero == without
