"""Formal concept enumeration and average-case analysis of random contexts.

The package has three layers:

* contexts and concepts: :mod:`randfca.context` enumerates the concepts
  (maximal bicliques) of a finite formal context;
* the random model: :mod:`randfca.model` samples contexts where each of n
  universe elements becomes an object with probability p and each
  (object, attribute) pair is incident with probability q, and
  :mod:`randfca.expectation` evaluates the average concept count exactly,
  with :mod:`randfca.montecarlo` as a sampling cross-check;
* asymptotics: :mod:`randfca.asymptotics` tracks the dominant summand of
  the average at p = q = 1/2, whose superpolynomial growth is the reason
  "typical" contexts have many concepts.

File formats and the command-line front end live in :mod:`randfca.cxt`
and :mod:`randfca.cli`.
"""

from .asymptotics import (
    DEFAULT_TABLE_NS,
    AsymptoticRow,
    bounded_correction,
    log_split_term,
    relative_gap,
    round_half_up,
    split_indices,
    table_report,
    threshold_holds,
)
from .context import (
    Concept,
    FormalContext,
    contranomial,
    count_concepts,
    derive_attributes,
    derive_objects,
    empty_relation,
    enumerate_concepts,
    full_relation,
    is_concept,
)
from .cxt import CxtDocument, read_cxt, write_cxt
from .errors import (
    DomainError,
    InputError,
    InternalError,
    ParseError,
    RandFcaError,
    SerializationError,
    SizeError,
)
from .expectation import (
    Composition4,
    ExpectationReport,
    composition_count,
    composition_iter,
    expected_concepts,
    expected_concepts_bruteforce,
    expected_concepts_exact,
    log_term,
)
from .logspace import log1mexp, log_one_minus_pow, log_sum_exp
from .model import (
    ModelParams,
    Seed,
    context_log_probability,
    derive_seed,
    enumerate_sample_space,
    mix64,
    sample_context,
)
from .montecarlo import ExactComparison, McEstimate, compare_with_exact, estimate

__version__ = "0.1.0"

__all__ = [
    "AsymptoticRow",
    "Composition4",
    "Concept",
    "CxtDocument",
    "DEFAULT_TABLE_NS",
    "DomainError",
    "ExactComparison",
    "ExpectationReport",
    "FormalContext",
    "InputError",
    "InternalError",
    "McEstimate",
    "ModelParams",
    "ParseError",
    "RandFcaError",
    "Seed",
    "SerializationError",
    "SizeError",
    "bounded_correction",
    "compare_with_exact",
    "composition_count",
    "composition_iter",
    "context_log_probability",
    "contranomial",
    "count_concepts",
    "derive_attributes",
    "derive_objects",
    "derive_seed",
    "empty_relation",
    "enumerate_concepts",
    "enumerate_sample_space",
    "estimate",
    "expected_concepts",
    "expected_concepts_bruteforce",
    "expected_concepts_exact",
    "full_relation",
    "is_concept",
    "log1mexp",
    "log_one_minus_pow",
    "log_split_term",
    "log_sum_exp",
    "log_term",
    "mix64",
    "read_cxt",
    "relative_gap",
    "round_half_up",
    "sample_context",
    "split_indices",
    "table_report",
    "threshold_holds",
    "write_cxt",
]
