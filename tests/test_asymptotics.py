import math
from fractions import Fraction

import pytest

from randfca import (
    DEFAULT_TABLE_NS,
    Composition4,
    DomainError,
    InputError,
    ModelParams,
    SizeError,
    bounded_correction,
    expected_concepts,
    log_split_term,
    log_term,
    relative_gap,
    round_half_up,
    split_indices,
    table_report,
    threshold_holds,
)
from randfca.asymptotics import MAX_SPLIT_N

# Golden 3-decimal gaps for n = 10^1 .. 10^10.
REFERENCE_GAPS = (1.467, 0.860, 0.646, 0.566, 0.477, 0.416, 0.386, 0.347, 0.316, 0.299)


class TestSplitIndices:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (10, (3, 3, 2, 2)),
            (7, (2, 3, 1, 1)),
            (1024, (10, 10, 502, 502)),
            (2, (1, 1, 0, 0)),
            (1, (0, 1, 0, 0)),
        ],
    )
    def test_examples(self, n, expected):
        split = split_indices(n)
        assert (split.a, split.b, split.c, split.d) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            split_indices(0)

    def test_validity_sweep(self):
        for n in range(1, 10**6 + 1):
            split = split_indices(n)
            assert split.a >= 0 and split.c >= 0
            assert split.a + split.b + split.c + split.d == n
            assert split.b - split.a == n % 2
            assert split.c == split.d

    def test_exact_at_powers_of_two(self):
        for k in range(1, 40):
            assert split_indices(2**k).a == k


class TestLogSplitTerm:
    def test_n10_hand_value(self):
        # multinomial(10;3,3,2,2) = 25200; 2^-(10+9); (7/8)^4
        expected = math.log(25200) - 19 * math.log(2) + 4 * math.log(7 / 8)
        assert log_split_term(10) == pytest.approx(expected, abs=1e-12)

    def test_n2_hand_value(self):
        assert log_split_term(2) == pytest.approx(math.log(0.25), abs=1e-12)

    def test_n1_warns(self):
        with pytest.warns(RuntimeWarning):
            value = log_split_term(1)
        assert value == pytest.approx(math.log(0.5), abs=1e-12)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_nonpositive(self, n):
        with pytest.raises(InputError, match=f"^n must be >= 1, got {n}$"):
            log_split_term(n)

    def test_split_is_a_composition(self):
        assert split_indices(10) == Composition4(3, 3, 2, 2)

    def test_refuses_n_past_its_accuracy(self):
        assert MAX_SPLIT_N == 10**12
        assert math.isfinite(log_split_term(MAX_SPLIT_N))
        with pytest.raises(SizeError):
            log_split_term(MAX_SPLIT_N + 1)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_multinomial_against_exact_factorials(self, n):
        split = split_indices(n)
        exact = Fraction(
            math.factorial(n),
            math.factorial(split.a)
            * math.factorial(split.b)
            * math.factorial(split.c)
            * math.factorial(split.d),
        ) * Fraction(1, 2**(n + split.a * split.b))
        exact *= (1 - Fraction(1, 2**split.a)) ** split.d
        exact *= (1 - Fraction(1, 2**split.b)) ** split.c
        assert log_split_term(n) == pytest.approx(
            math.log(exact.numerator) - math.log(exact.denominator), abs=1e-10
        )

    @pytest.mark.parametrize("n", range(2, 65))
    def test_agrees_with_generic_summand(self, n):
        split = split_indices(n)
        generic = log_term(
            ModelParams(n, 0.5, 0.5),
            Composition4(split.a, split.b, split.c, split.d),
        )
        assert abs(log_split_term(n) - generic) <= 1e-9

    @pytest.mark.parametrize("n", range(2, 65))
    def test_is_a_lower_bound_for_the_average(self, n):
        assert math.exp(log_split_term(n)) <= expected_concepts(
            ModelParams(n, 0.5, 0.5)
        ).value


class TestBoundedCorrection:
    def test_n10(self):
        assert bounded_correction(10) == pytest.approx(4 * math.log(7 / 8), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_zero_when_cd_vanish(self, n):
        assert bounded_correction(n) == 0.0

    def test_bound_holds_on_mixed_grid(self):
        ns = list(range(3, 2000)) + [10**k for k in range(4, 10)]
        for n in ns:
            assert abs(bounded_correction(n)) < 2.0


class TestRelativeGap:
    def test_reference_values(self):
        for n, expected in zip(DEFAULT_TABLE_NS, REFERENCE_GAPS):
            assert round_half_up(relative_gap(n), 3) == expected

    def test_rejects_small_n(self):
        with pytest.raises(DomainError, match="^relative gap requires n >= 2, got 1$"):
            relative_gap(1)

    def test_strictly_decreasing_on_power_grid(self):
        gaps = [relative_gap(n) for n in DEFAULT_TABLE_NS]
        assert all(late < early for early, late in zip(gaps, gaps[1:]))


class TestThreshold:
    def test_flip_between_steps_nine_and_ten(self):
        assert not threshold_holds(10**9)
        assert threshold_holds(10**10)

    def test_small_n_is_below(self):
        assert not threshold_holds(10)

    def test_rejects_small_n(self):
        # The one n >= 2 message of the gap, the threshold and the table.
        with pytest.raises(DomainError, match="^relative gap requires n >= 2, got 1$"):
            threshold_holds(1)


class TestTableReport:
    def test_empty(self):
        assert table_report([]) == []

    def test_single_row(self):
        (row,) = table_report([10])
        assert (row.split.a, row.split.b, row.split.c, row.split.d) == (3, 3, 2, 2)
        assert row.gap == pytest.approx(relative_gap(10), rel=1e-15)
        assert row.exceeds_threshold is False

    def test_split_term_is_evaluated_once_per_row(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return log_split_term(n)

        monkeypatch.setattr("randfca.asymptotics.log_split_term", counting)
        rows = table_report(DEFAULT_TABLE_NS)
        assert calls == list(DEFAULT_TABLE_NS)
        assert [row.log_term for row in rows] == [log_split_term(n) for n in DEFAULT_TABLE_NS]

    def test_row_consistency(self):
        for row in table_report([100, 10**6, 10**10]):
            assert row.gap >= 0
            assert row.exceeds_threshold == (row.log_term > math.log(row.n) ** 2)


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.1234, 3) == 0.123
        assert round_half_up(0.1239, 3) == 0.124
        assert round_half_up(2.5, 0) == 3.0

    def test_boundaries_resolve_on_the_exact_stored_value(self):
        # 0.2665 is stored slightly above the boundary, 0.1235 slightly below
        assert round_half_up(0.2665, 3) == 0.267
        assert round_half_up(0.1235, 3) == 0.123

    def test_places_reach_every_digit_of_a_float(self):
        # 5e-324 has 1074 digits after the point; the largest float, 309 before it.
        assert round_half_up(5e-324, 1074) == 5e-324
        assert round_half_up(1.7976931348623157e308, -1074) == 0.0
        assert round_half_up(-2.5, -1074) == 0.0
