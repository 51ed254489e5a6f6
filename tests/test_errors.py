import pytest

from randfca import (
    Composition4,
    Concept,
    FormalContext,
    InputError,
    ModelParams,
    SerializationError,
    context_log_probability,
    count_concepts,
    enumerate_concepts,
    write_cxt,
)

CTX = FormalContext(["g"], ["m"], "1")


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
    ],
    ids=[
        "long-algorithm", "unhashable-algorithm", "unhashable-count-algorithm",
        "long-index", "huge-index", "long-label", "many-labels", "huge-part",
    ],
)
def test_messages_quoting_a_callers_value_stay_short(call, error):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert len(str(raised.value)) < 200


def test_short_values_keep_their_repr():
    with pytest.raises(InputError, match=r"^unknown algorithm 'bogus'; expected one of"):
        enumerate_concepts(CTX, "bogus")
    with pytest.raises(InputError, match=r"^extent index -1 out of range \[0, 16777216\)$"):
        Concept([-1], [])
    with pytest.raises(InputError, match=r"^composition part b must be >= 0, got -1$"):
        Composition4(1, -1, 0, 0)
