"""Finite formal contexts and their concepts.

A context is a finite bipartite incidence structure: a list of objects, a
list of attributes, and a cross table between them. Deriving a set of
objects yields the attributes they all share; deriving a set of attributes
yields the objects that have them all. A concept is a pair (extent,
intent) fixed by both derivations, i.e. a maximal rectangle of crosses in
the cross table (a maximal biclique of the bipartite incidence graph).

Empty derivations follow the ambient-set convention: the common attributes
of no objects are all attributes, and dually. This is what makes contexts
with an empty side have exactly one concept.

A context is built from its row-major incidence digits: the |G|*|M|
characters '1' (incident) or '0', str or bytes, of the cross table read
row by row, attribute 0 first; this module alone maps them to bits, and
refuses any other length or character. ``from_bit_rows`` writes integer
bit rows as such digits. Incidence is stored once, as those digits; each
side's integer bit words, the rows or the columns, are built from them the
first time that side is read, and kept, so derivation is a word-wise AND,
and a count builds only the side it closes. A concept likewise holds its
two sides as bit masks, and builds their index sets on demand. Three
traversals are provided, and both listing and counting run through each:

* ``intersection``: the intents are the full attribute set and every
  intersection of object rows (Norris 1978), so closing the rows under
  intersection in a set yields each intent once, with no closure and no
  canonicity test. The smaller side's words are the ones closed. The
  family does not depend on their order, but the work does, so a side
  whose table has more than 200 cells is reordered (a smaller one loses
  more to the reordering than it saves): sparsest word first, as its
  intersections are mostly sets already found; or, above density 3/4,
  where an intersection's zeros are the union of its words' zeros, each
  word once the positions of its zeros are all taken, most zeros first.
  Below density 1/4 each word's intersections, mostly duplicates, are
  first deduplicated in a small set of their own. The production
  traversal; it holds one int per concept. A listing then derives the
  other side of each closed set through byte tables (Arlazarov, Dinic,
  Kronrod & Faradzev 1970): per block of 8 words, the AND of the words at
  each byte value's set bits, built on first use, so a set takes one
  lookup per byte of its mask. A set with no more bits than its mask has
  bytes takes one AND per bit instead, the cheaper way for it; counting
  derives nothing.
* ``close-by-one``: canonical depth-first generation over an explicit
  stack, so no context depth meets Python's recursion limit; each closed
  extent is produced exactly once. Its memory grows only with the depth
  of the context, so it is the low-memory counter, and the independent
  oracle past closure-scan's size guard.
* ``closure-scan``: checks all 2**|G| candidate extents for closedness.
  Exponential by construction, guarded to |G| <= 20; the small oracle.

Listing and counting refuse a context, with a SizeError, once its traversal
has found more than MAX_CONCEPTS = 2**18 concepts, so they share one work
bound: intersection checks it once per word it closes, and the other two
have their pair streams stopped where an algorithm's name is looked up.

All types are immutable after construction and safe to share across
threads. A side is built on first read by functools.cached_property, so
two threads that read a side not yet built may both build it (Python 3.12
on; before, its lock lets one build); they get equal words, and the context
keeps one of them. Enumeration itself is single-threaded.
"""

from __future__ import annotations

import operator
from functools import cached_property, reduce
from itertools import compress, count, islice
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import InputError, integer, quote
from .record import Record

MAX_SCAN_OBJECTS = 20

# Concept(extent, intent) takes indices below this bound, so its masks stay
# under 2 MB and a larger index is refused before any mask is built; a
# context that wide would need about a gigabyte for its labels alone.
MAX_CONCEPT_INDEX = 2**24

# Listing and counting refuse a context as soon as its traversal has found
# more concepts than this, as a SizeError. A contranomial(18) listing, at
# the bound, raises the peak RSS of `concepts --json` by about 240 MB.
MAX_CONCEPTS = 2**18

# contranomial, empty_relation and full_relation take at most this many
# objects and attributes each, refused before any label is built;
# contranomial(5000) takes about 0.4 s and 90 MB.
MAX_BUILT_SIDE = 5000

# _closed_sets reorders a closed side whose table has more than this many
# cells. Below it reordering costs more than it saves: mean closure per
# sample over 300 samples of master seed 8 at (20, .5, .5), tables of at
# most 100 cells, 9.4 us in the words' own order and 10.6 us reordered.
# Against a guard of more than 16 words instead, this cut took (30, .5,
# .5) from 53.0 to 48.6 us, (30, .5, .9) 77.0 to 64.5, (40, .5, .1) 16.3
# to 16.1 and (40, .5, .9) 694 to 678 (medians of interleaved runs).
_ORDERED_MIN_CELLS = 200
# Above this density such a side is closed in _by_last_zero's order, below
# it sparsest word first. Counted over the samples of more than 16 words
# among 100 at n = 40, ascending order formed fewer intersections than the
# last-zero order up to density .65 and more from .7 on: 0.81 against 0.68
# million at .75, and 1.45 against 0.54 million at .9, where descending
# popcount order formed 0.87 million and the words' own order 0.89 million.
_DENSE_DENSITY = 0.75
# Below this density each word's intersections are deduplicated in a set of
# their own before they join the family. On rows in ascending order, that
# cut the closure by 20-28% at densities .05 to .24, 16% at .26 and 3-10%
# at .3 to .4, and made it slower from .45 on (18-22% at .5).
_SPARSE_DENSITY = 0.25

_T = TypeVar("_T")


class FormalContext(Record):
    """An immutable (objects, attributes, incidence) triple.

    Labels are carried for presentation and file round-trips only; they
    never affect semantics. Equality is structural over (labels,
    incidence). The incidence is stored as its validated row-major digits,
    bytes of b'0' and b'1'. Its bit rows (bit j of row i set iff object i
    has attribute j) and bit columns are built from the digits the first
    time each is read, and kept; the repr shows the rows.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    _digits: bytes
    # _rows and _cols, the bit words of each side, are no fields: each is
    # derived from _digits on first use, so both are left out of equality,
    # hash and pickles.

    def __init__(
        self, objects: Sequence[str], attributes: Sequence[str], digits: str | bytes
    ) -> None:
        """Build from row-major incidence digits; the only code mapping a digit to a bit."""
        objects = tuple(objects)
        attributes = tuple(attributes)
        if len(set(objects)) != len(objects):
            raise InputError("object labels must be pairwise distinct")
        if len(set(attributes)) != len(attributes):
            raise InputError("attribute labels must be pairwise distinct")
        # A non-ASCII character becomes '?', which the digit check refuses.
        data = digits.encode("ascii", "replace") if isinstance(digits, str) else digits
        if not isinstance(data, bytes):
            raise InputError(f"incidence digits must be str or bytes, got {type(digits).__name__}")
        g, m = len(objects), len(attributes)
        if len(data) != g * m:
            raise InputError(f"expected {g} * {m} incidence digits, got {len(data)}")
        if data.translate(None, b"01"):
            k = len(data) - len(data.lstrip(b"01"))
            raise InputError(f"incidence digit {k} is {quote(digits[k : k + 1])}, not '0' or '1'")
        self.__dict__.update(objects=objects, attributes=attributes, _digits=data)

    @classmethod
    def from_bit_rows(
        cls, objects: Sequence[str], attributes: Sequence[str], rows: Sequence[int]
    ) -> "FormalContext":
        """Build from integer bit rows (bit j of row i = incidence); bits >= |M| are ignored."""
        try:
            rows = [operator.index(row) for row in rows]
        except TypeError:
            raise InputError(f"bit rows must be a sequence of ints, got {quote(rows)}") from None
        return cls(objects, attributes, _bit_row_digits(rows, len(objects), len(attributes)))

    @cached_property
    def _rows(self) -> tuple[int, ...]:
        # Reversed, the digits hold the last row first, each as its numeral.
        g, m, data = len(self.objects), len(self.attributes), self._digits[::-1]
        return tuple([int(data[k * m : k * m + m] or b"0", 2) for k in reversed(range(g))])

    @cached_property
    def _cols(self) -> tuple[int, ...]:
        # Column j is every m-th reversed digit from place m - 1 - j: its numeral.
        m, data = len(self.attributes), self._digits[::-1]
        return tuple([int(data[m - 1 - j :: m] or b"0", 2) for j in range(m)])

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(objects={self.objects!r},"
            f" attributes={self.attributes!r}, _rows={self._rows!r})"
        )

    def __getstate__(self) -> dict[str, object]:
        return dict(zip(self._fields, self._values()))

    @property
    def object_count(self) -> int:
        return len(self.objects)

    @property
    def attribute_count(self) -> int:
        return len(self.attributes)

    @property
    def incidence_count(self) -> int:
        """Number of incident (object, attribute) pairs."""
        return self._digits.count(b"1")

    def _intent_of(self, extent_mask: int) -> int:
        """Attributes shared by every object in the mask (all if empty)."""
        return _meet(self._rows, extent_mask, (1 << len(self.attributes)) - 1)

    def _extent_of(self, intent_mask: int) -> int:
        """Objects having every attribute in the mask (all if empty)."""
        return _meet(self._cols, intent_mask, (1 << len(self.objects)) - 1)


def _bit_row_digits(rows: Sequence[int], g: int, m: int) -> str:
    """The row-major incidence digits of g bit rows m wide, bits >= m ignored."""
    if len(rows) != g:
        raise InputError(f"incidence has {len(rows)} rows, expected {g}")
    # The bit `top` keeps each numeral's leading zeros; [:0:-1] reverses and drops it.
    top = 1 << m
    return "".join([f"{r & (top - 1) | top:b}"[:0:-1] for r in rows])


def _meet(words: tuple[int, ...], mask: int, result: int) -> int:
    """`result` ANDed with words[k] for every set bit k of `mask`."""
    while mask:
        low = mask & -mask
        result &= words[low.bit_length() - 1]
        mask ^= low
    return result


class _ByteTable(dict):
    """The combinations of up to 8 words, keyed by byte value: entry v is
    `combine` folded over the words at v's set bits, from entry 0, the
    empty combination. A missing entry is built from the entry of v
    without its top bit in one step, so entries are built on first use
    (Arlazarov, Dinic, Kronrod & Faradzev 1970)."""

    def __init__(self, words: Sequence[_T], combine: Callable[[_T, _T], _T], empty: _T) -> None:
        super().__init__({0: empty})
        self.words, self.combine = words, combine

    def __missing__(self, v: int) -> _T:
        top = v.bit_length() - 1
        entry = self[v] = self.combine(self[v ^ (1 << top)], self.words[top])
        return entry


def _byte_tables(words: Sequence[_T], combine: Callable[[_T, _T], _T], empty: _T) -> list[_ByteTable]:
    """One _ByteTable per block of 8 words, in order, so that table k reads
    byte k of mask.to_bytes(len(tables), "little"); dict.__getitem__ on a
    table builds a missing entry."""
    return [_ByteTable(words[k : k + 8], combine, empty) for k in range(0, len(words), 8)]


class Concept(Record):
    """An (extent, intent) pair of index sets, fixed by both derivations.

    Each side is stored as a bit mask (bit i set iff index i is in it), so
    a listing holds two ints per concept; its frozenset is built on access.
    Equality and hashing are over the masks.
    """

    _extent: int
    _intent: int

    def __init__(self, extent: Iterable[int], intent: Iterable[int]) -> None:
        set_ = object.__setattr__
        set_(self, "_extent", _indices_to_mask(extent, MAX_CONCEPT_INDEX, "extent", "a concept"))
        set_(self, "_intent", _indices_to_mask(intent, MAX_CONCEPT_INDEX, "intent", "a concept"))

    @classmethod
    def _from_masks(cls, pairs: Iterable[tuple[int, int]]) -> list["Concept"]:
        """One concept per (extent, intent) mask pair, taken as they are."""
        new, set_ = cls.__new__, object.__setattr__
        concepts = []
        for extent, intent in pairs:
            concept = new(cls)
            set_(concept, "_extent", extent)
            set_(concept, "_intent", intent)
            concepts.append(concept)
        return concepts

    @property
    def extent(self) -> frozenset[int]:
        return _mask_to_set(self._extent)

    @property
    def intent(self) -> frozenset[int]:
        return _mask_to_set(self._intent)

    def __repr__(self) -> str:
        return f"Concept(extent={self.extent!r}, intent={self.intent!r})"


def _indices_to_mask(indices: Iterable[int], size: int, kind: str, bounded_by: str) -> int:
    """The bit mask of the indices, each an int in [0, size) passed through
    errors.integer, which names `bounded_by` for one past the top."""
    mask, what = 0, f"{kind} index"
    for i in indices:
        mask |= 1 << integer(i, what, 0, size - 1, bounded_by)
    return mask


# Maps each binary digit to a byte that itertools.compress reads as false or true.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _members(items: Iterable[_T], mask: int) -> Iterator[_T]:
    """The items whose index has its bit set in the mask, in index order."""
    # bin(mask)[:1:-1] is the binary digits of mask, least significant first
    return compress(items, bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS))


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(_members(count(), mask))


def derive_objects(ctx: FormalContext, objects: Iterable[int]) -> frozenset[int]:
    """Attributes common to every object in the set (all of them if empty)."""
    mask = _indices_to_mask(objects, len(ctx.objects), "object", "the context")
    return _mask_to_set(ctx._intent_of(mask))


def derive_attributes(ctx: FormalContext, attributes: Iterable[int]) -> frozenset[int]:
    """Objects having every attribute in the set (all of them if empty)."""
    mask = _indices_to_mask(attributes, len(ctx.attributes), "attribute", "the context")
    return _mask_to_set(ctx._extent_of(mask))


def is_concept(
    ctx: FormalContext, objects: Iterable[int], attributes: Iterable[int]
) -> bool:
    """True iff deriving either side of the pair yields the other."""
    extent = _indices_to_mask(objects, len(ctx.objects), "object", "the context")
    intent = _indices_to_mask(attributes, len(ctx.attributes), "attribute", "the context")
    return ctx._intent_of(extent) == intent and ctx._extent_of(intent) == extent


def _closed_sets(ctx: FormalContext) -> tuple[set[int], bool]:
    """The full set and every intersection of rows, each once, and whether
    they were taken over the transpose.

    The context's rows give its intents. When there are fewer columns than
    rows, the columns are closed instead, and give its extents. The side is
    picked from the label counts, so only its words are built; the other
    side's are built only for _by_last_zero, which reads them. The family
    does not depend on the order the words are closed in, but the work
    does, as each word is intersected with every set found so far. So a
    closed side whose table has more than _ORDERED_MIN_CELLS cells is
    reordered to keep the family small for longer: sparsest word first,
    whose intersections are mostly sets already held, or, above
    _DENSE_DENSITY, in the order of _by_last_zero. Below _SPARSE_DENSITY
    each word's intersections are gathered in a set of their own first:
    most are duplicates, which that small set drops before they reach the
    large one. A smaller table keeps the plain loop in its own order, as
    reordering would cost more than it saves. The count is checked against
    MAX_CONCEPTS once per word, so at most about twice the cap is ever
    held; the count a refusal quotes depends on the order.
    """
    g, m = len(ctx.objects), len(ctx.attributes)
    transposed = m < g
    words, full = (ctx._cols, (1 << g) - 1) if transposed else (ctx._rows, (1 << m) - 1)
    closed = {full}
    cells = g * m
    if cells > _ORDERED_MIN_CELLS:
        density = ctx.incidence_count / cells
        if density < _SPARSE_DENSITY:
            for word in sorted(words, key=int.bit_count):
                closed |= {c & word for c in closed}
                if len(closed) > MAX_CONCEPTS:
                    _refuse_past_cap(len(closed))
            return closed, transposed
        if density > _DENSE_DENSITY:
            words = _by_last_zero(words, ctx._rows if transposed else ctx._cols)
        else:
            words = sorted(words, key=int.bit_count)
    for word in words:
        # The list is complete before the set grows.
        closed.update([c & word for c in closed])
        if len(closed) > MAX_CONCEPTS:
            _refuse_past_cap(len(closed))
    return closed, transposed


def _by_last_zero(words: Sequence[int], others: Sequence[int]) -> list[int]:
    """The words in the order their zeros are all covered, as the bit
    positions are taken most zeros first.

    The zeros of an intersection are the union of its words' zeros, so the
    sets closed from words whose zeros lie within r positions number at
    most 2**r. Taking the positions with the most zeros first, and each
    word as soon as its last zero's position is taken, keeps r small for as
    long as it can. `others` is the transpose of `words`: bit i of
    others[j] is bit j of words[i].
    """
    every, last = (1 << len(words)) - 1, [0] * len(words)
    for rank, other in enumerate(sorted(others, key=int.bit_count)):
        for i in _members(range(len(words)), every ^ other):
            last[i] = rank
    return [words[i] for i in sorted(range(len(words)), key=last.__getitem__)]


def _refuse_past_cap(found: int) -> None:
    """The SizeError for a traversal that has found more than MAX_CONCEPTS
    concepts, quoting the number found so far."""
    integer(found, "concepts", high=MAX_CONCEPTS, bounded_by="enumeration")


def _intersection(ctx: FormalContext) -> Iterator[tuple[int, int]]:
    """All (extent, intent) mask pairs, each exactly once.

    Derives the other side of each closed set, the AND of the words at its
    set bits (the columns, or the rows for a set closed over the
    transpose, an extent, whose pair is swapped back). A set of more bits
    than it has bytes takes one lookup per byte in the words' byte tables;
    a sparser one takes one AND per set bit.
    """
    closed, transposed = _closed_sets(ctx)
    words, full = ctx._cols, (1 << len(ctx.objects)) - 1
    if transposed:
        words, full = ctx._rows, (1 << len(ctx.attributes)) - 1
    tables = _byte_tables(words, operator.and_, full)
    nb, get, and_ = len(tables), dict.__getitem__, operator.and_
    derived = (
        reduce(and_, map(get, tables, c.to_bytes(nb, "little")), full)
        if c.bit_count() > nb
        else _meet(words, c, full)
        for c in closed
    )
    # derived iterates the unchanged set too, so it follows closed's order.
    return zip(closed, derived) if transposed else zip(derived, closed)


def _close_by_one(ctx: FormalContext) -> Iterator[tuple[int, int]]:
    """Yield all (extent, intent) mask pairs, each exactly once.

    Canonical generation over an explicit stack: from a closed extent, try
    adding each object above its branching point and keep the closure only
    when it introduces no object below that point. Holds one stack entry
    per pending branch, so its memory grows only with the context's depth.
    Counts nothing: _traversal stops the stream past MAX_CONCEPTS pairs.
    """
    # The words in locals: CPython 3.11 does not specialise a load of a
    # cached_property's name, so the loop would pay for one per branch.
    rows, cols, n_objects = ctx._rows, ctx._cols, len(ctx.objects)
    everyone = (1 << n_objects) - 1
    extent = _meet(cols, (1 << len(ctx.attributes)) - 1, everyone)
    stack = [(extent, ctx._intent_of(extent), 0)]
    while stack:
        extent, intent, start = stack.pop()
        yield extent, intent
        for g in range(start, n_objects):
            if extent >> g & 1:
                continue
            new_intent = intent & rows[g]
            new_extent = _meet(cols, new_intent, everyone)
            below = (1 << g) - 1
            if (new_extent & below) == (extent & below):
                stack.append((new_extent, new_intent, g + 1))


def _closure_scan(ctx: FormalContext) -> Iterator[tuple[int, int]]:
    """Check every candidate extent for closedness. 2**|G| candidates, so
    the object count is bounded by MAX_SCAN_OBJECTS through errors.integer,
    checked when the first pair is asked for. Counts nothing: _traversal
    stops the stream past MAX_CONCEPTS pairs."""
    n_objects = len(ctx.objects)
    integer(n_objects, "object count", high=MAX_SCAN_OBJECTS, bounded_by="closure-scan")
    rows, cols = ctx._rows, ctx._cols
    every, everyone = (1 << len(ctx.attributes)) - 1, (1 << n_objects) - 1
    for extent in range(1 << n_objects):
        intent = _meet(rows, extent, every)
        if _meet(cols, intent, everyone) == extent:
            yield extent, intent


_TRAVERSALS = {
    "intersection": _intersection,
    "close-by-one": _close_by_one,
    "cbo": _close_by_one,
    "closure-scan": _closure_scan,
    "scan": _closure_scan,
}


def _traversal(algorithm: str) -> Callable[[FormalContext], Iterator[tuple[int, int]]]:
    """The named traversal, from a context to its (extent, intent) mask
    pairs; the one lookup of an algorithm's name. Close-by-one's and
    closure-scan's streams are stopped here, by a SizeError, at the first
    pair past MAX_CONCEPTS; intersection checks the cap per word itself."""
    try:
        traversal = _TRAVERSALS[algorithm]
    except (KeyError, TypeError):  # TypeError: an unhashable algorithm
        raise InputError(
            f"unknown algorithm {quote(algorithm)}; expected one of {tuple(_TRAVERSALS)}"
        ) from None
    if traversal is _intersection:
        return traversal

    def capped(ctx: FormalContext) -> Iterator[tuple[int, int]]:
        pairs = traversal(ctx)
        yield from islice(pairs, MAX_CONCEPTS)
        if next(pairs, None) is not None:
            _refuse_past_cap(MAX_CONCEPTS + 1)

    return capped


def enumerate_concepts(
    ctx: FormalContext, algorithm: str = "intersection"
) -> list[Concept]:
    """All concepts of the context, each exactly once.

    Output order is canonical: ascending by the extent bit pattern read as
    an integer (object 0 = least significant bit), so repeated runs and
    all algorithms produce identical lists. Past MAX_CONCEPTS concepts
    the traversal raises SizeError.
    """
    return Concept._from_masks(sorted(_traversal(algorithm)(ctx), key=operator.itemgetter(0)))


def count_concepts(ctx: FormalContext, algorithm: str = "intersection") -> int:
    """Number of concepts, by the same traversal; builds and sorts nothing.

    ``intersection`` counts its closed sets and derives no extents.
    """
    traversal = _traversal(algorithm)
    if traversal is _intersection:
        return len(_closed_sets(ctx)[0])
    return sum(1 for _ in traversal(ctx))


def contranomial(k: int) -> FormalContext:
    """The k x k context with incidence everywhere except the diagonal.

    Has exactly 2**k concepts, the worst case for k objects.
    """
    k = integer(k, "contranomial size", low=1, high=MAX_BUILT_SIDE, bounded_by="building a context")
    labels = tuple(str(i) for i in range(1, k + 1))
    # The diagonal's zeros are every (k + 1)-th digit, from the first.
    return FormalContext(labels, labels, (("0" + "1" * k) * k)[: k * k])


def empty_relation(g: int, m: int) -> FormalContext:
    """A g x m context with no incident pairs."""
    return _constant_relation(g, m, "0")


def full_relation(g: int, m: int) -> FormalContext:
    """A g x m context where every pair is incident."""
    return _constant_relation(g, m, "1")


def _constant_relation(g: int, m: int, digit: str) -> FormalContext:
    g = integer(g, "object count", low=0, high=MAX_BUILT_SIDE, bounded_by="building a context")
    m = integer(m, "attribute count", low=0, high=MAX_BUILT_SIDE, bounded_by="building a context")
    return FormalContext(*_default_labels(g, m), digit * (g * m))


def _default_labels(g: int, m: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The labels g1..g<g> for objects and m1..m<m> for attributes."""
    return tuple(f"g{i}" for i in range(1, g + 1)), tuple(f"m{j}" for j in range(1, m + 1))
