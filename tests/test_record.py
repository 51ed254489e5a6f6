import pickle
from dataclasses import FrozenInstanceError

import pytest

from randfca import (
    AsymptoticRow,
    Composition4,
    Concept,
    CxtDocument,
    ExactComparison,
    ExpectationReport,
    FormalContext,
    McEstimate,
    ModelParams,
)

CTX = FormalContext(objects=["g1", "g2"], attributes=["m"], digits="10")
CTX_REPR = "FormalContext(objects=('g1', 'g2'), attributes=('m',), _rows=(1, 0))"
PARAMS = ModelParams(n=3, p=0.5, q=0.25)
SPLIT = Composition4(a=3, b=3, c=2, d=2)
ESTIMATE = McEstimate(
    params=PARAMS, samples=100, seed=1, mean=2.0, stderr=0.1,
    ci95_low=1.8, ci95_high=2.2, min_count=1, max_count=4,
)
ESTIMATE_REPR = (
    "McEstimate(params=ModelParams(n=3, p=0.5, q=0.25), samples=100, seed=1, mean=2.0,"
    " stderr=0.1, ci95_low=1.8, ci95_high=2.2, min_count=1, max_count=4)"
)

# Each record class with the keyword arguments of one instance, and its repr.
RECORDS = [
    (FormalContext, dict(objects=["g1", "g2"], attributes=["m"], digits="10"), CTX_REPR),
    (Concept, dict(extent=[0], intent=[1]), "Concept(extent=frozenset({0}), intent=frozenset({1}))"),
    (CxtDocument, dict(context=CTX, title="t"), f"CxtDocument(context={CTX_REPR}, title='t')"),
    (ModelParams, dict(n=3, p=0.5, q=0.25), "ModelParams(n=3, p=0.5, q=0.25)"),
    (Composition4, dict(a=1, b=2, c=3, d=4), "Composition4(a=1, b=2, c=3, d=4)"),
    (
        ExpectationReport,
        dict(params=PARAMS, log_value=1.5, value=4.5, terms_evaluated=10, terms_skipped_zero=0),
        "ExpectationReport(params=ModelParams(n=3, p=0.5, q=0.25), log_value=1.5, value=4.5,"
        " terms_evaluated=10, terms_skipped_zero=0)",
    ),
    (
        AsymptoticRow,
        dict(n=10, split=SPLIT, log_term=1.0, gap=0.5, exceeds_threshold=False),
        "AsymptoticRow(n=10, split=Composition4(a=3, b=3, c=2, d=2), log_term=1.0, gap=0.5,"
        " exceeds_threshold=False)",
    ),
    (
        McEstimate,
        dict(
            params=PARAMS, samples=100, seed=1, mean=2.0, stderr=0.1,
            ci95_low=1.8, ci95_high=2.2, min_count=1, max_count=4,
        ),
        ESTIMATE_REPR,
    ),
    (
        ExactComparison,
        dict(estimate=ESTIMATE, exact=2.0, z=0.0),
        f"ExactComparison(estimate={ESTIMATE_REPR}, exact=2.0, z=0.0)",
    ),
]


@pytest.mark.parametrize("cls,kwargs,text", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_every_record_keeps_its_contract(cls, kwargs, text):
    record = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert repr(record) == repr(by_position) == text
    assert record == by_position and hash(record) == hash(by_position)
    assert record != tuple(kwargs.values())
    # Fields are stored in declaration order however they are passed: the
    # CLI's payloads take their key order from vars() of a record.
    backwards = cls(**dict(reversed(kwargs.items())))
    assert list(vars(backwards))[: len(cls._fields)] == list(cls._fields)
    assert repr(backwards) == repr(by_position)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and repr(copy) == text
    assert vars(record)
    name = next(iter(kwargs))
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, None)
    with pytest.raises(FrozenInstanceError):
        delattr(record, name)
    assert repr(record) == text
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), None)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), **{name: next(iter(kwargs.values()))})


def test_an_empty_title_is_no_title():
    doc = CxtDocument(CTX, "")
    assert doc == CxtDocument(CTX) and doc.title is None
