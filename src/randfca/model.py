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
where a chunk of lanes ends never changes a draw. The incidence digits,
in draw order, are the context's row-major digits, which its constructor
takes as they are.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .context import FormalContext
from .errors import InputError, integer, quote

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
# Byte 8 of a lane (bit 64) is 1 iff its word failed the Bernoulli draw.
_NEGATED_DIGITS = bytes.maketrans(b"\x00\x01", b"10")


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
    m = _master_of(master)
    return mix64((m + GOLDEN_GAMMA * (index + 1)) & MASK64)


def _threshold(p: float) -> int:
    # P(word < threshold) = p up to 1 ulp of p; exact at 0, 1 and dyadics.
    return int(p * 18446744073709551616.0)


@functools.lru_cache(maxsize=1)
def _lane_constants(lanes: int) -> tuple[int, int, int]:
    """(ones, mask, steps) over `lanes` 128-bit lanes: lane i holds 1,
    2**64 - 1 and (i + 1) * GOLDEN_GAMMA mod 2**64 respectively."""
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * lanes, "little")
    steps = b"".join(
        (k * GOLDEN_GAMMA & MASK64).to_bytes(16, "little") for k in range(1, lanes + 1)
    )
    return ones, ones * MASK64, int.from_bytes(steps, "little")


def _bernoulli_digits(seed: int, start: int, count: int, p: float) -> Iterator[bytes]:
    """Bernoulli(p) outcomes of words start + 1 .. start + count of the
    stream, word k being mix64(seed + k * GOLDEN_GAMMA), as ASCII digits
    (b"1" true) in chunks of at most _LANES words.

    Each step of mix64 runs on all lanes of a chunk at once. The mask keeps
    each lane's value in its low 64 bits before every product, so a product
    by a 64-bit multiplier never reaches the next lane. Adding 2**64 - T
    then sets bit 64 of a lane iff its word is not below the threshold T.
    """
    lanes = _LANES
    full_ones, full_mask, full_steps = _lane_constants(lanes)
    bias = (1 << 64) - _threshold(p)
    for first in range(start, start + count, lanes):
        size = min(lanes, start + count - first)
        ones, mask, steps = full_ones, full_mask, full_steps
        if size < lanes:
            low = (1 << 128 * size) - 1
            ones, mask, steps = ones & low, mask & low, steps & low
        x = (((seed + first * GOLDEN_GAMMA) & MASK64) * ones + steps) & mask
        x = (((x ^ (x >> 30)) & mask) * _MIX_MULT_1) & mask
        x = (((x ^ (x >> 27)) & mask) * _MIX_MULT_2) & mask
        # Bits 64..96 of each lane are clear here, so bit 64 of the sum is
        # the carry out of the lane's 64-bit value.
        x = (x ^ (x >> 31)) + bias * ones
        yield x.to_bytes(16 * size, "little")[8::16].translate(_NEGATED_DIGITS)


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: universe size n, object probability p, incidence probability q."""

    n: int
    p: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", integer(self.n, "n", low=1))
        for name in ("p", "q"):
            value = getattr(self, name)
            try:
                x = float(value)
            except (TypeError, ValueError, OverflowError):
                x = math.nan  # out of range, like any value float() refuses
            if not 0.0 <= x <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {quote(value)}")
            object.__setattr__(self, name, x)


def _draw(params: ModelParams, seed: int) -> tuple[str, bytes]:
    """The side digits of elements 1..n ("1" object) and the row-major
    incidence digits of the objects against the attributes they leave;
    n is bounded by MAX_DRAW_N, checked before any draw."""
    master = _master_of(seed)
    n = integer(params.n, "n", high=MAX_DRAW_N, bounded_by="drawing a context")
    sides = b"".join(_bernoulli_digits(master, 0, n, params.p)).decode()
    g = sides.count("1")
    # The incidence words follow, one per pair in row-major order.
    return sides, b"".join(_bernoulli_digits(master, n, g * (n - g), params.q))


def sample_context(params: ModelParams, seed: int) -> FormalContext:
    """Draw one random context; a pure function of (params, seed).

    Element i keeps its universe label str(i); objects and attributes each
    appear in ascending universe order.
    """
    sides, digits = _draw(params, seed)
    return FormalContext(*_universe_labels(sides), digits)


def _universe_labels(sides: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The labels str(i) of the objects (side "1") and of the attributes
    (side "0") among elements 1..n, each in ascending order."""
    objects = tuple([str(i) for i, side in enumerate(sides, 1) if side == "1"])
    attributes = tuple([str(i) for i, side in enumerate(sides, 1) if side == "0"])
    return objects, attributes


def _check_universe_labels(ctx: FormalContext, n: int) -> None:
    """The labels must be str(1)..str(n), each once; the length is checked
    first, so the set of n labels is built only for a context that size."""
    labels = ctx.objects + ctx.attributes
    if len(labels) != n or set(labels) != {str(i) for i in range(1, n + 1)}:
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
        for sides in itertools.product("10", repeat=n):
            objects, attributes = _universe_labels(sides)
            for digits in itertools.product("10", repeat=len(objects) * len(attributes)):
                yield FormalContext(objects, attributes, "".join(digits))

    return generate()
