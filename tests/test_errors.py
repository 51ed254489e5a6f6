import math
from fractions import Fraction

import pytest

from randfca import (
    Composition4,
    Concept,
    DomainError,
    FormalContext,
    InputError,
    ModelParams,
    SerializationError,
    SizeError,
    bounded_correction,
    composition_iter,
    context_log_probability,
    contranomial,
    count_concepts,
    empty_relation,
    enumerate_concepts,
    enumerate_sample_space,
    estimate,
    expected_concepts,
    expected_concepts_bruteforce,
    expected_concepts_exact,
    full_relation,
    log1mexp,
    log_one_minus_pow,
    log_split_term,
    log_term,
    round_half_up,
    sample_context,
    split_indices,
    table_report,
    write_cxt,
)

CTX = FormalContext(["g"], ["m"], "1")
HUGE = 10**5000
SMALL = ModelParams(3, 0.5, 0.5)


def _labelled_from_two(n):
    """A context whose n objects are labelled 2..n+1, so not a partition of 1..n."""
    return FormalContext([str(i) for i in range(2, n + 2)], [], "")


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: enumerate_concepts(CTX, "x" * 100000), InputError),
        (lambda: enumerate_concepts(CTX, []), InputError),  # unhashable
        (lambda: count_concepts(CTX, {}), InputError),
        (lambda: Concept(["x" * 100000], []), InputError),
        (lambda: Concept([-(10**5000)], []), InputError),
        (lambda: write_cxt(FormalContext(["g\n" + "x" * 10000], [], "")), SerializationError),
        (
            lambda: context_log_probability(ModelParams(3000, 0.5, 0.5), _labelled_from_two(3000)),
            InputError,
        ),
        (lambda: Composition4(10**5000, 0, 0, -1), InputError),
        # Each count argument: a non-integer, one far below its range, and
        # one far above it where the function has an upper bound.
        (lambda: sample_context(ModelParams(HUGE, 0.5, 0.5), 1), SizeError),
        (lambda: enumerate_sample_space(2.5), InputError),
        (lambda: enumerate_sample_space(-HUGE), InputError),
        (lambda: enumerate_sample_space(HUGE), SizeError),
        (lambda: Composition4(2.5, 0, 0, 0), InputError),
        (lambda: composition_iter(2.5), InputError),
        (lambda: composition_iter(-HUGE), InputError),
        (lambda: expected_concepts(ModelParams(HUGE, 0.5, 0.5)), SizeError),
        (lambda: expected_concepts_exact(2.5, 0.5, 0.5), InputError),
        (lambda: expected_concepts_exact(-HUGE, 0.5, 0.5), InputError),
        (lambda: expected_concepts_exact(HUGE, 0.5, 0.5), SizeError),
        (lambda: expected_concepts_bruteforce(ModelParams(HUGE, 0.5, 0.5)), SizeError),
        (lambda: split_indices(2.5), InputError),
        (lambda: split_indices(-HUGE), InputError),
        (lambda: log_split_term(2.5), InputError),
        (lambda: log_split_term(-HUGE), InputError),
        (lambda: log_split_term(HUGE), SizeError),
        (lambda: table_report([2.5]), InputError),
        (lambda: table_report([-HUGE]), DomainError),
        (lambda: table_report([HUGE]), SizeError),
        (lambda: contranomial(2.5), InputError),
        (lambda: contranomial(-HUGE), InputError),
        (lambda: empty_relation(2.5, 1), InputError),
        (lambda: empty_relation(-HUGE, 1), InputError),
        (lambda: full_relation(1, 2.5), InputError),
        (lambda: full_relation(1, -HUGE), InputError),
        (lambda: estimate(SMALL, 2.5, 0), InputError),
        (lambda: estimate(SMALL, -HUGE, 0), InputError),
        (lambda: estimate(SMALL, HUGE, 0), SizeError),
        (lambda: estimate(SMALL, 2, 0, workers=2.5), InputError),
        (lambda: estimate(SMALL, 2, 0, workers=-HUGE), InputError),
        (lambda: estimate(ModelParams(HUGE, 0.5, 0.5), 2, 0), SizeError),
        (lambda: log_one_minus_pow(0.5, 2.5), InputError),
        (lambda: log_one_minus_pow(0.5, -HUGE), InputError),
        (lambda: log_term(SMALL, Composition4(HUGE, 0, 0, 0)), InputError),
        (lambda: FormalContext.from_bit_rows(["g"], ["m"], [1.5]), InputError),
        (lambda: FormalContext.from_bit_rows(["g"], ["m"], 5), InputError),
        (lambda: contranomial(HUGE), SizeError),
        (lambda: empty_relation(HUGE, 1), SizeError),
        (lambda: full_relation(1, HUGE), SizeError),
        (lambda: bounded_correction(HUGE), SizeError),
        (lambda: log_term(ModelParams(10**400, 0.5, 0.5), Composition4(10**400, 0, 0, 0)), SizeError),
        (lambda: expected_concepts_exact(2, None, Fraction(1, 2)), InputError),
        (lambda: expected_concepts_exact(2, "abc", Fraction(1, 2)), InputError),
        (lambda: expected_concepts_exact(2, math.nan, Fraction(1, 2)), InputError),
        (lambda: expected_concepts_exact(2, math.inf, Fraction(1, 2)), InputError),
        (lambda: log1mexp(math.nan), InputError),
    ],
    ids=[
        "long-algorithm", "unhashable-algorithm", "unhashable-count-algorithm",
        "long-index", "huge-index", "long-label", "many-labels", "huge-part",
        "draw-huge-n",
        "sample-space-float-n", "sample-space-negative-n", "sample-space-huge-n",
        "float-part",
        "compositions-float-n", "compositions-negative-n",
        "expect-huge-n",
        "exact-float-n", "exact-negative-n", "exact-huge-n",
        "bruteforce-huge-n",
        "split-float-n", "split-negative-n",
        "split-term-float-n", "split-term-negative-n", "split-term-huge-n",
        "table-float-n", "table-negative-n", "table-huge-n",
        "contranomial-float-size", "contranomial-negative-size",
        "empty-float-objects", "empty-negative-objects",
        "full-float-attributes", "full-negative-attributes",
        "mc-float-samples", "mc-negative-samples", "mc-huge-samples",
        "mc-float-workers", "mc-negative-workers", "mc-huge-n",
        "float-exponent", "negative-exponent",
        "huge-composition-total",
        "float-bit-row", "bit-rows-not-a-sequence",
        "contranomial-huge-size", "empty-huge-objects", "full-huge-attributes",
        "correction-huge-n", "summand-huge-n",
        "exact-none-p", "exact-text-p", "exact-nan-p", "exact-inf-p",
        "log1mexp-nan",
    ],
)
def test_messages_quoting_a_callers_value_stay_short(call, error):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert len(str(raised.value)) < 200


def test_values_past_the_float_range_give_their_limit():
    assert str(log1mexp(-HUGE)) == "-0.0"
    assert str(log_one_minus_pow(0.5, HUGE)) == "-0.0"
    assert round_half_up(1e25) == 1e25
    assert round_half_up(-1.7976931348623157e308) == -1.7976931348623157e308
    assert round_half_up(-math.inf) == -math.inf
    assert round_half_up(math.inf) == math.inf
    assert math.isnan(round_half_up(math.nan))


def test_short_values_keep_their_repr():
    with pytest.raises(InputError, match=r"^unknown algorithm 'bogus'; expected one of"):
        enumerate_concepts(CTX, "bogus")
    with pytest.raises(InputError, match=r"^extent index -1 out of range \[0, 16777216\)$"):
        Concept([-1], [])
    with pytest.raises(InputError, match=r"^composition part b must be >= 0, got -1$"):
        Composition4(1, -1, 0, 0)
    with pytest.raises(InputError, match=r"^samples must be >= 2, got 1$"):
        estimate(SMALL, 1, 0)
    with pytest.raises(InputError, match=r"^object count must be >= 0, got -1$"):
        empty_relation(-1, 2)
    with pytest.raises(InputError, match=r"^n must be an integer, got 2\.5$"):
        ModelParams(2.5, 0.5, 0.5)
    with pytest.raises(SizeError, match=r"^the split term supports n <= 1000000000000, got 10"):
        log_split_term(10**12 + 1)


class _Count:
    """Not an int, but usable as one through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_an_object_with_index_is_taken_as_a_count():
    assert ModelParams(_Count(3), 0.5, 0.5).n == 3
    assert Composition4(_Count(3), 0, 0, 0) == Composition4(3, 0, 0, 0)
    assert contranomial(_Count(3)) == contranomial(3)
    assert split_indices(_Count(3)) == split_indices(3)
    assert log_one_minus_pow(0.5, _Count(3)) == log_one_minus_pow(0.5, 3)
    assert expected_concepts_exact(_Count(3), 0.5, 0.5) == expected_concepts_exact(3, 0.5, 0.5)
    assert estimate(SMALL, _Count(3), 1, workers=_Count(1)) == estimate(SMALL, 3, 1)
