"""Random contexts over the universe {1, ..., n}.

Each universe element becomes an object with probability p (otherwise an
attribute), then each realized (object, attribute) pair is incident with
probability q, all draws independent. The probability of one specific
context (G, M, I) is therefore

    p**|G| * (1-p)**|M| * q**|I| * (1-q)**(|G|*|M| - |I|).

Determinism contract
--------------------
A seed is an int, taken modulo 2**64; any other value is an InputError.
All randomness flows through SplitMix64 with the standard constants
(increment 0x9E3779B97F4A7C15, multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB). Draws are consumed in a fixed order: one 64-bit word
per side assignment for elements 1..n, then one word per incidence pair in
row-major (object, attribute) order over the realized sides. A Bernoulli(p)
draw is true iff the word is below int(p * 2**64).

Sample k of a batch uses ``derive_seed(master, k)``, the (k+1)-th output of
the SplitMix64 stream seeded with the master seed, so batched results never
depend on how samples are scheduled across workers.

The sampler computes the words up to _LANES at a time, one per 128-bit lane
of a Python integer, so each step of mix64 is one big-integer operation
for all of them. That changes how the words are computed, not which:
the stream, its order and the Bernoulli rule are as stated above, and
where a chunk of lanes ends never changes a draw. A word's threshold
follows from its place in the stream: word k <= n is a side word, drawn at
p, and every later word an incidence word, drawn at q. So a chunk's
constants, its lane constants and threshold lanes, depend on its size, the
number of side words it holds and (p, q) alone, not on a seed; each is
built once per process and kept in one bounded memo under that key.

A draw computes its words in one pass or two. When 0 < p < 1 and the
incidence words it would draw beyond those expected cost less than a second
pass (see _words_ahead), one pass draws words 1 .. n + floor(n**2 / 4): the
n side words at p, then at q every incidence word that any split of the
sides can need; the words past those the split needs are dropped.
Otherwise the side words come first and the incidence words in a second
pass, from word n + 1. Either way word k is the same word, so which pass
computes it never changes a draw. The incidence digits, in draw order, are
the context's row-major digits, which its constructor takes as they are.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

from .context import FormalContext
from .errors import InputError, integer, quote
from .record import Record

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB

MAX_SAMPLE_SPACE_N = 6
# A draw at this n has up to n**2 / 4 incidence digits; at p = 1/2 `gen`
# takes about 1.3 s and writes 6 MB.
MAX_DRAW_N = 5000

# Words per chunk, at 16 bytes of lane each: this bounds the integers a
# sampling call works on, whatever the context size.
_LANES = 1024
# A sampling pass's fixed cost, counted in the words a pass computes in the
# same time; set from a grid of measured draw times (see _words_ahead).
_PASS_COST = 20
# Byte 8 of a lane (bit 64) is 1 iff its word failed the Bernoulli draw.
_NEGATED_DIGITS = bytes.maketrans(b"\x00\x01", b"10")
# Side digits (b"1" object) to compress() selectors for each side.
_OBJECT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_ATTRIBUTE_FLAGS = bytes.maketrans(b"01", b"\x01\x00")


def _master_of(seed: int) -> int:
    """The seed modulo 2**64."""
    return integer(seed, "seed") & MASK64


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit scrambler."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX_MULT_1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX_MULT_2) & MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, index: int) -> int:
    """Seed for batch sample `index` (the SplitMix64 output at that offset)."""
    index = integer(index, "sample index", low=0)
    return _derived_seed(_master_of(master), index)


def _derived_seed(master: int, index: int) -> int:
    """derive_seed without its checks, for a master already taken modulo
    2**64 and an int index >= 0, as Monte Carlo's per-sample path has them."""
    return mix64((master + GOLDEN_GAMMA * (index + 1)) & MASK64)


@functools.lru_cache(maxsize=64)
def _chunk_constants(size: int, head: int, p: float, q: float) -> tuple[int, int, int, int]:
    """(ones, mask, steps, biases) over `size` 128-bit lanes, of a chunk
    whose first `head` words draw at p and whose others draw at q: lane i
    holds 1, 2**64 - 1, (i + 1) * GOLDEN_GAMMA mod 2**64 and 2**64 - T
    respectively, T being int(t * 2**64) for the lane's probability t.
    P(word < T) = t up to 1 ulp of t; exact at 0, 1 and dyadics.

    A draw at a fixed (n, p, q) meets the same few keys again and again, so
    each is built once per process and kept in a bounded memo. The
    benchmark's mc points meet three; an entry holds at most 64 KB, at
    1024 lanes.
    """
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * size, "little")
    steps = b"".join(
        (k * GOLDEN_GAMMA & MASK64).to_bytes(16, "little") for k in range(1, size + 1)
    )
    head_ones = ones & ((1 << 128 * head) - 1)
    biases = (ones << 64) - int(p * 2.0**64) * head_ones - int(q * 2.0**64) * (ones - head_ones)
    return ones, ones * MASK64, int.from_bytes(steps, "little"), biases


def _bernoulli_digits(params: ModelParams, seed: int, start: int, count: int) -> bytes:
    """Bernoulli outcomes of words start + 1 .. start + count of the
    stream, word k being mix64(seed + k * GOLDEN_GAMMA), as ASCII digits
    (b"1" true): Bernoulli(p) for the side words, k <= n, and Bernoulli(q)
    for every later word. They are computed in chunks of at most _LANES
    words.

    Each step of mix64 runs on all lanes of a chunk at once. The mask keeps
    each lane's value in its low 64 bits before every product, so a product
    by a 64-bit multiplier never reaches the next lane. Adding 2**64 - T
    then sets bit 64 of a lane iff its word is not below its threshold T.
    """
    lanes, n, p, q = _LANES, params.n, params.p, params.q
    end = start + count
    chunks = []
    for first in range(start, end, lanes):
        # Conditional expressions, not min() and max(): they cost less at
        # the few lanes of a small draw.
        size = end - first if end - first < lanes else lanes
        head = 0 if first >= n else n - first if n - first < size else size
        ones, mask, steps, biases = _chunk_constants(size, head, p, q)
        x = (((seed + first * GOLDEN_GAMMA) & MASK64) * ones + steps) & mask
        x = (((x ^ (x >> 30)) & mask) * _MIX_MULT_1) & mask
        x = (((x ^ (x >> 27)) & mask) * _MIX_MULT_2) & mask
        # Bits 64..96 of each lane are clear here, so bit 64 of the sum is
        # the carry out of the lane's 64-bit value.
        x = (x ^ (x >> 31)) + biases
        chunks.append(x.to_bytes(16 * size, "little")[8::16])
    return b"".join(chunks).translate(_NEGATED_DIGITS)


class ModelParams(Record):
    """Model parameters: universe size n, object probability p, incidence probability q."""

    n: int
    p: float
    q: float

    def __init__(self, n: int, p: float, q: float) -> None:
        self.__dict__["n"] = integer(n, "n", low=1)
        for name, value in ("p", p), ("q", q):
            try:
                x = float(value)
            except (TypeError, ValueError):
                raise InputError(f"cannot parse probability {quote(value)}") from None
            except OverflowError:
                x = value  # an int or fraction past the float range, quoted as given
            if not 0.0 <= x <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {quote(x)}")
            self.__dict__[name] = x


@functools.lru_cache(maxsize=16)
def _words_ahead(n: int, p: float) -> int:
    """How many incidence words a draw takes in the sides' pass: all that
    any split can need, floor(n**2 / 4), or none.

    Drawing them all costs the words beyond the expected n(n - 1)p(1 - p);
    it saves the second pass, which is needed unless every element falls
    on one side, with probability 1 - p**n - (1 - p)**n. So they are drawn
    when the extra words cost less than that share of one pass's fixed
    cost, _PASS_COST: never at p = 0 or 1, where that share is 0.
    """
    most = n * n // 4
    extra = most - n * (n - 1) * p * (1.0 - p)
    return most if extra < _PASS_COST * (1.0 - p**n - (1.0 - p) ** n) else 0


def _draw(params: ModelParams, seed: int) -> tuple[bytes, bytes]:
    """The side digits of elements 1..n (b"1" object) and the row-major
    incidence digits of the objects against the attributes they leave;
    n is bounded by MAX_DRAW_N, checked before any draw."""
    master = _master_of(seed)
    n = integer(params.n, "n", high=MAX_DRAW_N, bounded_by="drawing a context")
    ahead = _words_ahead(n, params.p)
    words = _bernoulli_digits(params, master, 0, n + ahead)
    sides = words[:n]
    g = sides.count(b"1")
    need = g * (n - g)
    # The incidence words follow, one per pair in row-major order: drawn
    # with the sides, or else in a pass of their own.
    if need <= ahead:
        return sides, words[n : n + need]
    return sides, _bernoulli_digits(params, master, n, need)


def sample_context(params: ModelParams, seed: int) -> FormalContext:
    """Draw one random context; a pure function of (params, seed).

    Element i keeps its universe label str(i); objects and attributes each
    appear in ascending universe order.
    """
    sides, digits = _draw(params, seed)
    return FormalContext._from_fields(*_universe_labels(sides), digits)


@functools.lru_cache(maxsize=1)
def _labels(n: int) -> tuple[str, ...]:
    """The universe labels str(1)..str(n), kept for the last n asked for."""
    return tuple(map(str, range(1, n + 1)))


def _universe_labels(sides: bytes) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The labels str(i) of the objects (side b"1") and of the attributes
    (side b"0") among elements 1..n, each in ascending order."""
    labels = _labels(len(sides))
    # Each tuple is built from a list: tuple() of an iterator grows its
    # result in steps, which fragments the heap over many samples.
    objects = tuple([*itertools.compress(labels, sides.translate(_OBJECT_FLAGS))])
    attributes = tuple([*itertools.compress(labels, sides.translate(_ATTRIBUTE_FLAGS))])
    return objects, attributes


def _check_universe_labels(ctx: FormalContext, n: int) -> None:
    """The labels must be str(1)..str(n), each once: n labels among which
    each of those n appears. The length is checked first, so the labels of
    a context of another size are never built."""
    labels = ctx.objects + ctx.attributes
    if len(labels) != n or not set(labels).issuperset(_labels(n)):
        raise InputError(
            f"context labels must partition 1..{quote(n)}, got {quote(sorted(labels))}"
        )


def context_log_probability(params: ModelParams, ctx: FormalContext) -> float:
    """Log of the model probability of one specific context.

    Each factor with a positive exponent adds exponent * log(base), with
    log 0 = -inf, so the probability is zero when such a base vanishes
    (e.g. p == 1 but the context has attributes). Factors with exponent 0
    contribute 1 regardless of the base.
    """
    _check_universe_labels(ctx, params.n)
    g = ctx.object_count
    m = ctx.attribute_count
    incident = ctx.incidence_count
    absent = g * m - incident
    total = 0.0
    for count, prob in (
        (g, params.p),
        (m, 1.0 - params.p),
        (incident, params.q),
        (absent, 1.0 - params.q),
    ):
        if count:
            total += count * (math.log(prob) if prob > 0.0 else -math.inf)
    return total


def enumerate_sample_space(n: int) -> Iterator[FormalContext]:
    """Every context on the universe {1, ..., n}, exactly once.

    All 2**n side assignments, times all 2**(|G|*|M|) incidence relations;
    the count grows doubly exponentially, hence the small-n guard.
    """
    n = integer(n, "n", low=1, high=MAX_SAMPLE_SPACE_N, bounded_by="sample space enumeration")

    def generate() -> Iterator[FormalContext]:
        for sides in itertools.product(b"10", repeat=n):
            objects, attributes = _universe_labels(bytes(sides))
            for digits in itertools.product("10", repeat=len(objects) * len(attributes)):
                yield FormalContext(objects, attributes, "".join(digits))

    return generate()
