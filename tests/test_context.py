import dataclasses
import pickle
import random
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import randfca
from randfca import (
    Concept,
    CxtDocument,
    FormalContext,
    InputError,
    SizeError,
    contranomial,
    count_concepts,
    derive_attributes,
    derive_objects,
    empty_relation,
    enumerate_concepts,
    full_relation,
    is_concept,
    read_cxt,
    write_cxt,
)
from randfca import context
from randfca.context import MAX_CONCEPT_INDEX
from randfca.cxt import cross_rows

from conftest import build_context, contexts, random_context


class TestConstruction:
    def test_duplicate_object_labels_rejected(self):
        with pytest.raises(InputError, match="^object labels must be pairwise distinct$"):
            FormalContext(("a", "a"), ("x",), "10")

    def test_duplicate_attribute_labels_rejected(self):
        with pytest.raises(InputError, match="^attribute labels must be pairwise distinct$"):
            FormalContext(("a",), ("x", "x"), b"10")

    @pytest.mark.parametrize("form", [str, str.encode], ids=["str", "bytes"])
    @pytest.mark.parametrize("digits", ["10100", "1010101"], ids=["short", "long"])
    def test_digit_count_must_be_objects_times_attributes(self, digits, form):
        with pytest.raises(InputError, match=rf"^expected 2 \* 3 incidence digits, got {len(digits)}$"):
            FormalContext(("a", "b"), ("x", "y", "z"), form(digits))

    @pytest.mark.parametrize("form", [str, str.encode], ids=["str", "bytes"])
    @pytest.mark.parametrize(
        "digits,bad",
        [("1_0", 1), (" 1", 0), ("102", 2), ("X", 0), ("0+1", 1), ("1\n", 1)],
        ids=["underscore", "space", "two", "cross", "sign", "newline"],
    )
    def test_digits_other_than_0_and_1_rejected(self, digits, bad, form):
        # int(..., 2) reads "1_0", " 1" and "+1"; here no digit may shift a column.
        attributes = tuple(f"m{j}" for j in range(len(digits)))
        shown = re.escape(repr(form(digits[bad])))
        with pytest.raises(InputError, match=rf"^incidence digit {bad} is {shown}, not '0' or '1'$"):
            FormalContext(("g",), attributes, form(digits))

    def test_non_ascii_digit_rejected(self):
        with pytest.raises(InputError, match="^incidence digit 1 is '\u0661', not '0' or '1'$"):
            FormalContext(("g",), ("x", "y"), "1\u0661")

    @pytest.mark.parametrize("digits", [[[True]], [1], None], ids=["bool-matrix", "int-list", "none"])
    def test_digits_of_another_type_rejected(self, digits):
        with pytest.raises(InputError, match="^incidence digits must be str or bytes, got "):
            FormalContext(("g",), ("m",), digits)

    def test_equality_is_structural(self):
        a = build_context(2, 2, [0b01, 0b10])
        b = FormalContext(("g1", "g2"), ("m1", "m2"), "1001")
        assert a == b
        assert hash(a) == hash(b)
        assert a == FormalContext(("g1", "g2"), ("m1", "m2"), b"1001")

    def test_labels_do_not_affect_concepts(self):
        plain = build_context(2, 2, [0b01, 0b10])
        renamed = FormalContext.from_bit_rows(("x", "y"), ("u", "v"), plain._rows)
        assert enumerate_concepts(plain) == enumerate_concepts(renamed)

    def test_bit_rows_wider_than_the_attributes_are_masked(self):
        wide = build_context(2, 2, [0b1101, -1])
        assert wide == build_context(2, 2, [0b01, 0b11])
        assert cross_rows(wide) == ["X.", "XX"]

    def test_bit_row_count_mismatch_rejected(self):
        with pytest.raises(InputError):
            FormalContext.from_bit_rows(("a", "b"), ("x",), [1])


class TestDerivations:
    def test_contranomial_row_readoff(self):
        ctx = contranomial(2)
        assert derive_objects(ctx, {0}) == {1}

    def test_empty_object_set_derives_all_attributes(self):
        ctx = contranomial(3)
        assert derive_objects(ctx, set()) == {0, 1, 2}

    def test_full_relation_all_objects(self):
        ctx = full_relation(3, 2)
        assert derive_objects(ctx, {0, 1, 2}) == {0, 1}

    def test_contranomial_column_readoff(self):
        ctx = contranomial(2)
        assert derive_attributes(ctx, {1}) == {0}

    def test_empty_attribute_set_derives_all_objects(self):
        ctx = empty_relation(2, 2)
        assert derive_attributes(ctx, set()) == {0, 1}

    def test_empty_relation_attribute_derivation_empty(self):
        ctx = empty_relation(2, 2)
        assert derive_attributes(ctx, {0}) == set()

    def test_out_of_range_index_rejected(self):
        ctx = contranomial(2)
        with pytest.raises(InputError):
            derive_objects(ctx, {2})
        with pytest.raises(InputError):
            derive_attributes(ctx, {-1})

    @pytest.mark.parametrize("index", [0.5, "0", None])
    def test_non_integer_index_rejected(self, index):
        ctx = contranomial(2)
        with pytest.raises(InputError):
            derive_objects(ctx, [index])
        with pytest.raises(InputError):
            is_concept(ctx, [0], [index])


class TestIsConcept:
    def test_full_relation_top(self):
        ctx = full_relation(2, 2)
        assert is_concept(ctx, {0, 1}, {0, 1})

    def test_empty_relation_all_objects_no_attributes(self):
        ctx = empty_relation(2, 2)
        assert is_concept(ctx, {0, 1}, set())

    def test_empty_pair_is_not_a_concept_here(self):
        # deriving the empty object set gives all attributes, not none
        ctx = empty_relation(2, 2)
        assert not is_concept(ctx, set(), set())


class TestConcept:
    @given(ctx=contexts(max_objects=5, max_attributes=5))
    def test_built_from_any_index_collection_equals_the_enumerated_one(self, ctx):
        for concept in enumerate_concepts(ctx):
            extent, intent = concept.extent, concept.intent
            assert isinstance(extent, frozenset) and isinstance(intent, frozenset)
            for built in (
                Concept(sorted(extent, reverse=True), sorted(intent)),
                Concept(set(extent), set(intent)),
                Concept((i for i in extent), (j for j in intent)),
            ):
                assert built == concept
                assert hash(built) == hash(concept)
                assert (built.extent, built.intent) == (extent, intent)

    def test_is_immutable(self):
        concept = Concept({0}, {1})
        for name in ("extent", "intent", "_extent", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(concept, name, frozenset())
        assert concept == Concept({0}, {1})

    def test_repr_shows_the_index_sets(self):
        assert repr(Concept([2, 0], [])) == "Concept(extent=frozenset({0, 2}), intent=frozenset())"

    def test_survives_a_pickle_round_trip(self):
        for concept in enumerate_concepts(contranomial(3)):
            copy = pickle.loads(pickle.dumps(concept))
            assert copy == concept and hash(copy) == hash(concept)
            assert (copy.extent, copy.intent) == (concept.extent, concept.intent)

    @pytest.mark.parametrize("index", [-1, 0.5, 1.0, "1", None])
    def test_negative_or_non_integer_index_rejected(self, index):
        with pytest.raises(InputError):
            Concept([0, index], [])
        with pytest.raises(InputError):
            Concept([], [index])

    @pytest.mark.parametrize(
        "index", [10**5000, 2**62, MAX_CONCEPT_INDEX], ids=["10^5000", "2^62", "bound"]
    )
    def test_index_past_the_bound_is_refused_before_its_mask_is_built(self, index):
        for extent, intent in (([0, index], []), ([], [index])):
            started = time.perf_counter()
            with pytest.raises(InputError) as raised:
                Concept(extent, intent)
            assert time.perf_counter() - started < 1.0
            assert len(str(raised.value)) < 200

    def test_largest_index_below_the_bound_is_taken(self):
        top = MAX_CONCEPT_INDEX - 1
        assert MAX_CONCEPT_INDEX == 2**24
        assert Concept([top], [top])._extent == 1 << top


class TestEnumeration:
    def test_contranomial_3_has_8_concepts(self):
        assert count_concepts(contranomial(3)) == 8

    def test_empty_relation_two_concepts(self):
        concepts = enumerate_concepts(empty_relation(2, 2))
        assert concepts == [
            Concept(frozenset(), frozenset({0, 1})),
            Concept(frozenset({0, 1}), frozenset()),
        ]

    def test_full_relation_single_concept(self):
        concepts = enumerate_concepts(full_relation(2, 3))
        assert concepts == [Concept(frozenset({0, 1}), frozenset({0, 1, 2}))]

    def test_single_cross(self):
        assert count_concepts(full_relation(1, 1)) == 1

    def test_single_missing_cross(self):
        assert count_concepts(empty_relation(1, 1)) == 2

    def test_contranomial_4_has_16_concepts(self):
        assert count_concepts(contranomial(4)) == 16

    @pytest.mark.parametrize("k", range(1, 13))
    def test_contranomial_counts_are_powers_of_two(self, k):
        assert count_concepts(contranomial(k)) == 2**k

    def test_no_objects_still_one_concept(self):
        assert count_concepts(empty_relation(0, 3)) == 1

    def test_no_attributes_still_one_concept(self):
        assert count_concepts(empty_relation(3, 0)) == 1

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InputError):
            enumerate_concepts(contranomial(2), algorithm="magic")
        with pytest.raises(InputError):
            count_concepts(contranomial(2), algorithm="magic")

    def test_scan_guard(self):
        with pytest.raises(SizeError):
            enumerate_concepts(empty_relation(21, 1), algorithm="scan")
        with pytest.raises(SizeError):
            count_concepts(empty_relation(21, 1), algorithm="scan")

    @pytest.mark.parametrize("algorithm", ["intersection", "cbo", "scan"])
    @pytest.mark.parametrize(
        "ctx",
        [contranomial(4), build_context(5, 4, [0b0011, 0b0110, 0b1100, 0b1001, 0b0101])],
        ids=["contranomial4", "5x4"],
    )
    def test_cap_accepts_at_it_and_refuses_one_past_it(self, monkeypatch, algorithm, ctx):
        want = enumerate_concepts(ctx, algorithm)
        monkeypatch.setattr("randfca.context.MAX_CONCEPTS", len(want))
        assert enumerate_concepts(ctx, algorithm) == want
        assert count_concepts(ctx, algorithm) == len(want)
        monkeypatch.setattr("randfca.context.MAX_CONCEPTS", len(want) - 1)
        message = rf"^enumeration supports concepts <= {len(want) - 1}, got {len(want)}$"
        with pytest.raises(SizeError, match=message):
            enumerate_concepts(ctx, algorithm)
        with pytest.raises(SizeError, match=message):
            count_concepts(ctx, algorithm)

    @pytest.mark.parametrize("algorithm", ["intersection", "cbo"])
    def test_contranomial_30_is_refused_past_the_cap(self, algorithm):
        ctx = contranomial(30)
        with pytest.raises(SizeError, match=r"^enumeration supports concepts <= 262144, got "):
            count_concepts(ctx, algorithm)

    @pytest.mark.parametrize("algorithm", ["intersection", "cbo"])
    def test_chain_deeper_than_the_recursion_limit(self, algorithm):
        # Object i has attributes i..k-1, so the concepts form one chain of
        # length k; a recursive close-by-one would nest k calls deep.
        script = textwrap.dedent(
            f"""
            import sys
            from randfca import FormalContext, count_concepts, enumerate_concepts

            k = 150
            labels = [str(i) for i in range(k)]
            full = (1 << k) - 1
            ctx = FormalContext.from_bit_rows(
                labels, labels, [full ^ ((1 << i) - 1) for i in range(k)]
            )
            sys.setrecursionlimit(100)
            print(count_concepts(ctx, {algorithm!r}), len(enumerate_concepts(ctx, {algorithm!r})))
            """
        )
        src = str(Path(randfca.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{script}"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["150", "150"]

    def test_algorithms_agree_on_seeded_contexts(self):
        for trial in range(60):
            ctx = random_context(random.Random(trial))
            via_cbo = enumerate_concepts(ctx, algorithm="close-by-one")
            via_scan = enumerate_concepts(ctx, algorithm="closure-scan")
            via_intersection = enumerate_concepts(ctx, algorithm="intersection")
            assert via_cbo == via_scan == via_intersection
            assert (
                count_concepts(ctx, "cbo")
                == count_concepts(ctx, "scan")
                == count_concepts(ctx, "intersection")
                == len(via_cbo)
            )

    def test_output_is_sorted_by_extent_bit_pattern(self):
        ctx = contranomial(3)
        masks = [
            sum(1 << i for i in concept.extent) for concept in enumerate_concepts(ctx)
        ]
        assert masks == sorted(masks)

    def test_every_output_is_a_concept_and_unique(self):
        for trial in range(30):
            ctx = random_context(random.Random(1000 + trial))
            concepts = enumerate_concepts(ctx)
            assert len(set(concepts)) == len(concepts)
            for concept in concepts:
                assert is_concept(ctx, concept.extent, concept.intent)


class TestBuilders:
    def test_contranomial_1_is_a_single_empty_cell(self):
        ctx = contranomial(1)
        assert cross_rows(ctx) == ["."]

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_contranomial_is_full_but_for_the_diagonal(self, k):
        full = (1 << k) - 1
        labels = [str(i) for i in range(1, k + 1)]
        rows = [full ^ 1 << i for i in range(k)]
        assert contranomial(k) == FormalContext.from_bit_rows(labels, labels, rows)

    def test_contranomial_requires_positive_size(self):
        with pytest.raises(InputError):
            contranomial(0)

    def test_full_relation_all_true(self):
        assert cross_rows(full_relation(2, 2)) == ["XX", "XX"]

    def test_negative_sizes_rejected(self):
        with pytest.raises(InputError):
            empty_relation(-1, 2)


@given(contexts(), st.data())
def test_galois_connection(ctx, data):
    g, m = len(ctx.objects), len(ctx.attributes)
    objs = frozenset(data.draw(st.sets(st.integers(0, g - 1)) if g else st.just(set())))
    attrs = frozenset(data.draw(st.sets(st.integers(0, m - 1)) if m else st.just(set())))
    lhs = objs <= derive_attributes(ctx, attrs)
    rhs = attrs <= derive_objects(ctx, objs)
    assert lhs == rhs


@given(contexts(), st.data())
def test_extensive_and_idempotent(ctx, data):
    g = len(ctx.objects)
    objs = frozenset(data.draw(st.sets(st.integers(0, g - 1)) if g else st.just(set())))
    once = derive_objects(ctx, objs)
    closed = derive_attributes(ctx, once)
    assert objs <= closed
    assert derive_objects(ctx, closed) == once


@given(contexts(), st.data())
def test_derivation_is_antitone(ctx, data):
    g = len(ctx.objects)
    small = frozenset(data.draw(st.sets(st.integers(0, g - 1)) if g else st.just(set())))
    extra = frozenset(data.draw(st.sets(st.integers(0, g - 1)) if g else st.just(set())))
    large = small | extra
    assert derive_objects(ctx, large) <= derive_objects(ctx, small)


@given(contexts(max_objects=6, max_attributes=6))
def test_enumeration_algorithms_agree(ctx):
    assert enumerate_concepts(ctx, "close-by-one") == enumerate_concepts(ctx, "closure-scan")


def _shaped_contexts(side: int) -> st.SearchStrategy[FormalContext]:
    """Contexts of at most side x side with fewer, more or as many objects
    as attributes, a third of the draws each: the intersection traversal
    closes the rows of the first and last, the columns of the second."""
    fewer = st.integers(0, side - 1).flatmap(lambda g: contexts(g, side, g, g + 1))
    more = st.integers(0, side - 1).flatmap(lambda m: contexts(side, m, m + 1, m))
    square = st.integers(0, side).flatmap(lambda k: contexts(k, k, k, k))
    return st.one_of(fewer, more, square)


@given(_shaped_contexts(6))
@example(build_context(0, 3, []))
@example(build_context(3, 0, [0, 0, 0]))
@example(build_context(0, 0, []))
def test_intersection_matches_closure_scan(ctx):
    concepts = enumerate_concepts(ctx, "closure-scan")
    assert enumerate_concepts(ctx, "intersection") == concepts
    assert count_concepts(ctx, "intersection") == len(concepts)


@given(_shaped_contexts(30))
@example(build_context(0, 30, []))
@example(build_context(30, 0, [0] * 30))
def test_intersection_matches_close_by_one(ctx):
    concepts = enumerate_concepts(ctx, "close-by-one")
    assert enumerate_concepts(ctx, "intersection") == concepts
    assert count_concepts(ctx, "intersection") == len(concepts)


# Side lengths at and around the byte boundaries of a mask, so that the byte
# tables of the intersection derivation have full, partial and no blocks.
_BYTE_SIDES = (0, 1, 7, 8, 9, 16, 17)


def _pairs(ctx: FormalContext, algorithm: str) -> list[tuple[int, int]]:
    return sorted(context._TRAVERSALS[algorithm](ctx))


# The (g, m) pairs run both orientations, as g > m closes the columns. At
# q = .15 most closed sets have no more bits than their masks have bytes,
# so their other side is derived bit by bit; at q = .85 most are derived
# through the byte tables. Both ways run at both densities and orientations.
@pytest.mark.parametrize("q", [0.15, 0.85], ids=["sparse", "dense"])
@pytest.mark.parametrize("m", _BYTE_SIDES)
@pytest.mark.parametrize("g", _BYTE_SIDES)
def test_intersection_pairs_match_the_oracles_across_byte_boundaries(g, m, q):
    rng = random.Random(f"{g} {m} {q}")
    ctx = build_context(g, m, [sum(1 << j for j in range(m) if rng.random() < q) for _ in range(g)])
    pairs = _pairs(ctx, "intersection")
    assert pairs == _pairs(ctx, "close-by-one")
    if g <= context.MAX_SCAN_OBJECTS:
        assert pairs == _pairs(ctx, "closure-scan")


@pytest.mark.parametrize(
    "g, m, want",
    [(3, 0, [(0b111, 0)]), (0, 3, [(0, 0b111)]), (0, 0, [(0, 0)]), (9, 0, [(0x1FF, 0)])],
    ids=["no-attributes", "no-objects", "neither", "no-attributes-over-a-byte"],
)
def test_intersection_pairs_with_a_zero_width_side(g, m, want):
    assert list(context._intersection(build_context(g, m, [0] * g))) == want


# Rows and a width m; the rows carry bits at and above m too.
_ROWS_AND_WIDTH = st.integers(0, 12).flatmap(
    lambda m: st.tuples(st.lists(st.integers(0, 2 ** (m + 8) - 1), max_size=12), st.just(m))
)


@given(_ROWS_AND_WIDTH)
@example(([], 5))
@example(([3, 256], 0))
@example(([], 0))
def test_columns_are_the_transpose_of_the_rows(rows_and_width):
    rows, m = rows_and_width
    objects = tuple(f"g{i}" for i in range(len(rows)))
    attributes = tuple(f"m{j}" for j in range(m))
    kept = tuple(r & ((1 << m) - 1) for r in rows)
    cols = tuple(sum(1 << i for i, r in enumerate(kept) if r >> j & 1) for j in range(m))
    digits = "".join("1" if r >> j & 1 else "0" for r in kept for j in range(m))
    from_bits = FormalContext.from_bit_rows(objects, attributes, rows)
    for ctx in (
        from_bits,
        FormalContext(objects, attributes, digits),
        FormalContext(objects, attributes, digits.encode()),
        read_cxt(write_cxt(CxtDocument(from_bits))).context,
    ):
        assert (ctx._rows, ctx._cols) == (kept, cols)
