import hashlib
import itertools
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randfca import model
from randfca import (
    FormalContext,
    InputError,
    ModelParams,
    SizeError,
    context_log_probability,
    derive_seed,
    enumerate_sample_space,
    estimate,
    mix64,
    sample_context,
)
from randfca.errors import quote


class TestParams:
    def test_validation(self):
        with pytest.raises(InputError):
            ModelParams(0, 0.5, 0.5)
        with pytest.raises(InputError):
            ModelParams(3, -0.1, 0.5)
        with pytest.raises(InputError):
            ModelParams(3, 0.5, 1.5)
        with pytest.raises(InputError):
            ModelParams(3, float("nan"), 0.5)

    @pytest.mark.parametrize(
        "args",
        [
            (2, 10**400, 0.5),  # float() overflows
            (2, Fraction(10**5000), 0.5),
            (2, "abc", 0.5),  # float() refuses a text
            (2, "x" * 100000, 0.5),
            (2, None, 0.5),
            (2, Fraction(10**5000 + 1, 10**4999), 0.5),  # past the int-to-str limit
            (-(10**5000), 0.5, 0.5),
        ],
        ids=["int-overflow", "fraction-overflow", "text", "long-text", "none", "huge-fraction", "huge-n"],
    )
    def test_unusable_values_are_input_errors_with_short_messages(self, args):
        with pytest.raises(InputError) as raised:
            ModelParams(*args)
        assert len(str(raised.value)) < 200

    def test_short_values_are_shown_by_their_repr(self):
        with pytest.raises(InputError, match=r"^p must be in \[0, 1\], got 2\.0$"):
            ModelParams(2, 2.0, 0.5)
        with pytest.raises(InputError, match=r"^cannot parse probability 'abc'$"):
            ModelParams(2, 0.5, "abc")
        assert ModelParams(2, "0.25", "1") == ModelParams(2, 0.25, 1.0)

    @pytest.mark.parametrize(
        "value,message",
        [
            (None, "cannot parse probability None"),
            ("abc", "cannot parse probability 'abc'"),
            ([0.5], "cannot parse probability [0.5]"),
            # Past the float range: quoted as given.
            (10**400, f"p must be in [0, 1], got {'1' + '0' * 39}... (401 characters)"),
            # Otherwise the number read is quoted.
            ("1.5", "p must be in [0, 1], got 1.5"),
            (Fraction(3, 2), "p must be in [0, 1], got 1.5"),
        ],
        ids=["none", "text", "list", "int-overflow", "text-above-one", "fraction-above-one"],
    )
    def test_each_refusal_is_worded_by_what_float_makes_of_it(self, value, message):
        with pytest.raises(InputError) as raised:
            ModelParams(2, value, 0.5)
        assert str(raised.value) == message

    def test_seed_wraps_to_64_bits(self):
        for seed, master in ((-1, 2**64 - 1), (2**64 + 5, 5)):
            assert derive_seed(seed, 3) == derive_seed(master, 3)
            assert estimate(ModelParams(2, 0.5, 0.5), 2, seed).seed == master


class TestSeedDerivation:
    def test_known_stream(self):
        # SplitMix64 outputs for master seed 0 (standard test vector)
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_seed(0, 1) == 0x6E789E6AA1B965F4
        assert derive_seed(0, 2) == 0x06C45D188009454F

    def test_negative_index_rejected(self):
        with pytest.raises(InputError):
            derive_seed(0, -1)

    @pytest.mark.parametrize("index", [1.5, "1", None])
    def test_non_integer_index_rejected(self, index):
        message = rf"^sample index must be an integer, got {re.escape(quote(index))}$"
        with pytest.raises(InputError, match=message):
            derive_seed(0, index)

    @pytest.mark.parametrize("seed", [2.5, "7", None])
    def test_non_integer_seed_rejected(self, seed):
        # int() would truncate 2.5 and parse "7"; a seed must be an int.
        params = ModelParams(2, 0.5, 0.5)
        message = rf"^seed must be an integer, got {re.escape(quote(seed))}$"
        calls = (
            lambda: derive_seed(seed, 0),
            lambda: sample_context(params, seed),
            lambda: estimate(params, 2, seed),
        )
        for call in calls:
            with pytest.raises(InputError, match=message):
                call()


class TestSampling:
    def test_p_one_gives_all_objects(self):
        ctx = sample_context(ModelParams(5, 1.0, 1.0), 123)
        assert ctx.objects == ("1", "2", "3", "4", "5")
        assert ctx.attributes == ()
        assert ctx.incidence_count == 0

    def test_p_zero_gives_all_attributes(self):
        ctx = sample_context(ModelParams(4, 0.0, 0.3), 9)
        assert ctx.objects == ()
        assert ctx.attributes == ("1", "2", "3", "4")

    def test_q_extremes(self):
        full = sample_context(ModelParams(6, 0.5, 1.0), 3)
        assert full.incidence_count == full.object_count * full.attribute_count
        empty = sample_context(ModelParams(6, 0.5, 0.0), 3)
        assert empty.incidence_count == 0

    @pytest.mark.parametrize(
        "params,seed,objects,attributes,rows",
        [
            ((10, 0.5, 0.5), 2, ("5", "6", "9"), ("1", "2", "3", "4", "7", "8", "10"), (107, 111, 48)),
            ((9, 0.3, 0.8), 12345, ("1", "2", "3", "4", "7"), ("5", "6", "8", "9"), (14, 12, 13, 15, 15)),
            ((10, 0.7, 0.15), 2**63 + 7, ("1", "2", "4", "8", "10"), ("3", "5", "6", "7", "9"), (1, 1, 1, 0, 0)),
        ],
    )
    def test_pinned_draws(self, params, seed, objects, attributes, rows):
        # The exact contexts the SplitMix64 stream yields; any change to the
        # draw order or the Bernoulli rule changes them.
        ctx = sample_context(ModelParams(*params), seed)
        assert ctx == FormalContext.from_bit_rows(objects, attributes, rows)

    def test_deterministic(self):
        params = ModelParams(10, 0.4, 0.6)
        assert sample_context(params, 77) == sample_context(params, 77)

    def test_labels_are_universe_numbers_in_order(self):
        ctx = sample_context(ModelParams(8, 0.5, 0.5), 5)
        merged = sorted(int(x) for x in ctx.objects + ctx.attributes)
        assert merged == list(range(1, 9))
        assert list(ctx.objects) == sorted(ctx.objects, key=int)

    def test_different_seeds_differ_somewhere(self):
        params = ModelParams(12, 0.5, 0.5)
        drawn = {sample_context(params, s) for s in range(20)}
        assert len(drawn) > 1


class TestLogProbability:
    def test_mixed_context_with_cross(self):
        ctx = FormalContext(("1",), ("2",), "1")
        got = context_log_probability(ModelParams(2, 0.5, 0.5), ctx)
        assert got == pytest.approx(math.log(1 / 8), rel=1e-15)

    def test_objects_only(self):
        ctx = FormalContext(("1", "2"), (), "")
        got = context_log_probability(ModelParams(2, 0.5, 0.5), ctx)
        assert got == pytest.approx(math.log(1 / 4), rel=1e-15)

    def test_zero_state_when_p_is_one_but_attributes_exist(self):
        ctx = FormalContext(("1",), ("2",), "0")
        assert context_log_probability(ModelParams(2, 1.0, 0.5), ctx) == -math.inf
        # In general: zero exactly when a factor with positive exponent vanishes.
        for n in (1, 2, 3):
            for ctx in enumerate_sample_space(n):
                g, m, incident = ctx.object_count, ctx.attribute_count, ctx.incidence_count
                for p in (0.0, 0.5, 1.0):
                    for q in (0.0, 0.5, 1.0):
                        rule = (
                            (g > 0 and p == 0.0)
                            or (m > 0 and p == 1.0)
                            or (incident > 0 and q == 0.0)
                            or (g * m - incident > 0 and q == 1.0)
                        )
                        got = context_log_probability(ModelParams(n, p, q), ctx)
                        assert (got == -math.inf) == rule, (p, q, ctx)

    def test_label_partition_enforced(self):
        ctx = FormalContext(("1", "3"), (), "")
        with pytest.raises(InputError):
            context_log_probability(ModelParams(2, 0.5, 0.5), ctx)
        with pytest.raises(InputError):
            context_log_probability(ModelParams(3, 0.5, 0.5), ctx)

    def test_non_numeric_labels_rejected(self):
        ctx = FormalContext(("a",), (), "")
        with pytest.raises(InputError):
            context_log_probability(ModelParams(1, 0.5, 0.5), ctx)

    @pytest.mark.parametrize(
        "objects,attributes",
        [((" 1", "+2"), ("0_3",)), (("01",), ("2", "3")), (("1", "\u0662"), ("3",)), (("1",), ("1", "3"))],
        ids=["space-sign-underscore", "leading-zero", "arabic-indic-two", "repeated"],
    )
    def test_labels_that_only_parse_as_integers_rejected(self, objects, attributes):
        # int() reads each of these as a number of 1..3; only "1", "2", "3" are labels.
        ctx = FormalContext(objects, attributes, "0" * (len(objects) * len(attributes)))
        with pytest.raises(InputError, match=r"^context labels must partition 1\.\.3, got "):
            context_log_probability(ModelParams(3, 0.5, 0.5), ctx)


class TestSampleSpace:
    @pytest.mark.parametrize("n,size", [(1, 2), (2, 6), (3, 26), (4, 162)])
    def test_sizes(self, n, size):
        space = list(enumerate_sample_space(n))
        assert len(space) == size
        assert len(set(space)) == size

    def test_guard(self):
        with pytest.raises(SizeError):
            list(enumerate_sample_space(7))
        with pytest.raises(InputError):
            list(enumerate_sample_space(0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_probabilities_normalize(self, n, p):
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            params = ModelParams(n, p, q)
            total = math.fsum(
                math.exp(context_log_probability(params, ctx))
                for ctx in enumerate_sample_space(n)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sampling_frequencies_match_probabilities(self):
        # n = 2 for speed; the full n = 3 check runs in the acceptance suite
        params = ModelParams(2, 0.5, 0.5)
        draws = 4000
        observed = Counter(
            sample_context(params, derive_seed(2024, k)) for k in range(draws)
        )
        for ctx in enumerate_sample_space(2):
            expected = math.exp(context_log_probability(params, ctx))
            se = math.sqrt(expected * (1 - expected) / draws)
            assert abs(observed[ctx] / draws - expected) <= 5 * se


@given(st.integers(0, 2**64 - 1), st.integers(0, 500))
def test_derived_seeds_fit_in_64_bits(master, index):
    assert 0 <= derive_seed(master, index) < 2**64


def _per_word_sample(params, seed):
    """The sampler word by word, kept as an oracle: word k is
    mix64(seed + k * gamma); the n side words come first, then the incidence
    words row-major; a draw is true iff its word is below int(p * 2**64).
    Returns (objects, attributes, rows, columns)."""
    words = map(mix64, itertools.count(seed + 0x9E3779B97F4A7C15, 0x9E3779B97F4A7C15))
    p_threshold = int(params.p * 2.0**64)
    q_threshold = int(params.q * 2.0**64)
    is_object = [next(words) < p_threshold for _ in range(params.n)]
    objects = tuple(str(i + 1) for i in range(params.n) if is_object[i])
    attributes = tuple(str(i + 1) for i in range(params.n) if not is_object[i])
    m = len(attributes)
    rows = tuple(sum(1 << j for j in range(m) if next(words) < q_threshold) for _ in objects)
    cols = tuple(sum(1 << i for i, r in enumerate(rows) if r >> j & 1) for j in range(m))
    return objects, attributes, rows, cols


_PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 1 - 2**-53]),
    st.integers(1, 53).flatmap(lambda k: st.integers(0, 2**k).map(lambda a: a / 2**k)),
    st.floats(0.0, 1.0),
)


@pytest.mark.parametrize("lanes", [1, 3, 7, model._LANES])
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 90),
    p=_PROBABILITIES,
    q=_PROBABILITIES,
    seed=st.integers(0, 2**64 - 1),
)
def test_packed_sampler_matches_the_per_word_oracle(lanes, n, p, q, seed):
    # Small chunks put chunk edges inside rows and at the end of the side
    # draws; none of them may change a draw.
    params = ModelParams(n, p, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_LANES", lanes)
        ctx = sample_context(params, seed)
    assert (ctx.objects, ctx.attributes, ctx._rows, ctx._cols) == _per_word_sample(params, seed)


def _per_word_digits(params, seed, start, count):
    """The digits of words start + 1 .. start + count, word by word, kept as
    an oracle: word k is mix64(seed + k * gamma), drawn at p for k <= n and
    at q after."""
    thresholds = int(params.p * 2.0**64), int(params.q * 2.0**64)
    return bytes(
        b"01"[mix64(seed + k * 0x9E3779B97F4A7C15) < thresholds[k > params.n]]
        for k in range(start + 1, start + count + 1)
    )


def test_chunks_are_capped_by_the_lane_constant(monkeypatch):
    # Words 4..15 of a draw at n = 6: the first chunk holds the last three
    # side words, the others none.
    keys = []
    chunk_constants = model._chunk_constants
    monkeypatch.setattr(model, "_LANES", 5)
    monkeypatch.setattr(model, "_chunk_constants", lambda *key: keys.append(key) or chunk_constants(*key))
    params = ModelParams(6, 0.5, 0.25)
    digits = model._bernoulli_digits(params, 12345, 3, 12)
    assert keys == [(5, 3, 0.5, 0.25), (5, 0, 0.5, 0.25), (2, 0, 0.5, 0.25)]
    assert digits == _per_word_digits(params, 12345, 3, 12)
    ones, mask, steps, biases = chunk_constants(5, 3, 0.5, 0.25)
    assert ones.bit_length() == mask.bit_length() - 63 == 128 * 4 + 1
    assert steps.bit_length() <= 128 * 4 + 64
    assert biases.bit_length() <= 128 * 4 + 64


def test_chunk_constants_are_kept_per_threshold_pair():
    # At one seed, p = .5 and q = .5 or .9 draw the same sides, so the
    # second q meets every chunk size and head the first one cached, under
    # another threshold; an entry served across thresholds would change a
    # draw. The second seed meets each key again.
    hits = model._chunk_constants.cache_info().hits
    for n in range(1, 41):
        for q in (0.5, 0.9):
            params = ModelParams(n, 0.5, q)
            for seed in (1000 + n, 2000 + n):
                ctx = sample_context(params, seed)
                assert (ctx.objects, ctx.attributes, ctx._rows, ctx._cols) == _per_word_sample(params, seed)
    info = model._chunk_constants.cache_info()
    assert info.hits > hits and info.currsize <= info.maxsize


@pytest.mark.parametrize("n", [1, 2, 5, 9, 10, 40])
def test_universe_labels_match_the_per_element_construction(n):
    rng = random.Random(n)
    for _ in range(20):
        sides = bytes(rng.choice(b"01") for _ in range(n))
        want = (
            tuple(str(i) for i, side in enumerate(sides, 1) if side == ord("1")),
            tuple(str(i) for i, side in enumerate(sides, 1) if side == ord("0")),
        )
        assert model._universe_labels(sides) == want


@pytest.mark.parametrize(
    "params,digest",
    [
        ((40, 0.5, 0.1), "2c3e613674049cf6d28c21b5132ce258f02465afdadc7fbea547958c7efc986d"),
        ((40, 0.5, 0.9), "c8d5498d0521d3fbe2d68038142e0a8e37a6df7f4d18cea6c0da5e4030845e7b"),
        ((20, 0.5, 0.5), "620ee6d769ad3669eef222c961259b43fdfa30d97bae50dcd9a7de0f9dcc8615"),
    ],
)
def test_pinned_batch(params, digest):
    # Samples 0..199 of master seed 8, as the Monte Carlo estimator draws
    # them; the digests were recorded from the word-by-word sampler.
    h = hashlib.sha256()
    for k in range(200):
        ctx = sample_context(ModelParams(*params), derive_seed(8, k))
        h.update(repr((ctx.objects, ctx._rows)).encode())
    assert h.hexdigest() == digest


def test_draw_size_is_bounded_before_any_draw(monkeypatch):
    def boom(*args):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(model, "_bernoulli_digits", boom)
    with pytest.raises(SizeError, match="n <= 5000, got 5001"):
        sample_context(ModelParams(5001, 0.5, 0.5), 1)


def _one_pass(n, p):
    return model._words_ahead(n, p) > 0


def _one_pass_band(n):
    """The probabilities p at which a draw at n (2 <= n < 80) takes one
    pass: an interval about 1/2, which the rule is symmetric about; its
    lower end found by bisection."""
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if _one_pass(n, mid) else (mid, hi)
    return hi, 1.0 - hi


_ONE_PASS = st.integers(2, 79).flatmap(lambda n: st.tuples(st.just(n), st.floats(*_one_pass_band(n))))
_ANY = st.tuples(st.integers(1, 100), _PROBABILITIES)


@pytest.mark.parametrize("lanes", [1, 3, 7, model._LANES])
@pytest.mark.parametrize("one_pass", [True, False], ids=["one-pass", "two-pass"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), q=_PROBABILITIES, seed=st.integers(0, 2**64 - 1))
def test_draws_on_both_sides_of_the_pass_rule_match_the_per_word_oracle(lanes, one_pass, data, q, seed):
    # A one-pass draw computes words 1 .. n + n**2 // 4 and drops those past
    # the split's need; a two-pass draw computes the sides, then the
    # incidence words. Small chunks put chunk edges at the join between the
    # two and among the dropped words; none of them may change a draw.
    n, p = data.draw(_ONE_PASS if one_pass else _ANY)
    assume(_one_pass(n, p) == one_pass)
    params = ModelParams(n, p, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_LANES", lanes)
        ctx = sample_context(params, seed)
    assert (ctx.objects, ctx.attributes, ctx._rows, ctx._cols) == _per_word_sample(params, seed)


@pytest.mark.parametrize(
    "n,p,ahead",
    [
        (1, 0.5, 0),  # one element: no split has an incidence pair
        (2, 0.5, 1),
        (20, 0.5, 100),  # the benchmark's points draw in one pass
        (40, 0.5, 400),
        (70, 0.5, 1225),  # 1295 words: the pass spans a chunk edge
        (20, 0.05, 0),  # sparse sides: most of n**2 / 4 would be dropped
        (40, 0.1, 0),
        (90, 0.5, 0),  # 2025 words for an expected 2002.5
        (500, 0.5, 0),
        (20, 0.0, 0),  # one side only: no incidence word is ever needed
        (20, 1.0, 0),
    ],
)
def test_the_pass_rule(n, p, ahead):
    assert model._words_ahead(n, p) == ahead


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5000), p=_PROBABILITIES)
def test_a_draw_takes_every_incidence_word_ahead_or_none(n, p):
    assert model._words_ahead(n, p) in (0, n * n // 4)


def test_the_chunk_constant_memo_stays_within_its_maxsize():
    # More distinct keys than the memo holds: chunk sizes 1..99, each
    # starting at the middle of the side words, at two threshold pairs.
    # Entries are evicted, and a draw after that still matches the oracle.
    before = model._chunk_constants.cache_info()
    for count in range(1, 100):
        for q in (0.25, 0.75):
            params = ModelParams(count, 0.5, q)
            digits = model._bernoulli_digits(params, count, count // 2, count)
            assert digits == _per_word_digits(params, count, count // 2, count)
    info = model._chunk_constants.cache_info()
    assert info.misses - before.misses > info.maxsize and info.currsize <= info.maxsize
    params = ModelParams(30, 0.5, 0.5)
    ctx = sample_context(params, 3)
    assert (ctx.objects, ctx.attributes, ctx._rows, ctx._cols) == _per_word_sample(params, 3)


@pytest.mark.parametrize("lanes", [1, 3, 7, model._LANES])
@pytest.mark.parametrize("where", ["before", "at", "after"])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 60), p=_PROBABILITIES, q=_PROBABILITIES, seed=st.integers(0, 2**64 - 1))
def test_a_word_draws_at_the_probability_its_place_gives(lanes, where, data, n, p, q, seed):
    # A window of words that starts among the side words, at the last of
    # them or past them, whatever the chunk edges: words up to n draw at p,
    # every later word at q.
    starts = {"before": st.integers(0, n - 1), "at": st.just(n), "after": st.integers(n + 1, 3 * n)}
    start = data.draw(starts[where])
    count = data.draw(st.integers(0, 2 * n + 20))
    params = ModelParams(n, p, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_LANES", lanes)
        digits = model._bernoulli_digits(params, seed, start, count)
    assert digits == _per_word_digits(params, seed, start, count)


@given(st.integers(-(2**70), 2**70), st.integers(0, 2**40))
def test_the_unchecked_seed_formula_is_derive_seeds(master, index):
    assert model._derived_seed(master & model.MASK64, index) == derive_seed(master, index)


@given(
    n=st.integers(1, 40),
    p=_PROBABILITIES,
    q=_PROBABILITIES,
    seed=st.integers(0, 2**64 - 1),
)
def test_a_sampled_context_equals_the_checked_construction(n, p, q, seed):
    params = ModelParams(n, p, q)
    ctx = sample_context(params, seed)
    assert list(vars(ctx)) == ["objects", "attributes", "_digits"]
    assert (type(ctx.objects), type(ctx.attributes), type(ctx._digits)) == (tuple, tuple, bytes)
    sides, digits = model._draw(params, seed)
    checked = FormalContext(*model._universe_labels(sides), digits)
    assert ctx == checked and hash(ctx) == hash(checked)
    assert pickle.dumps(ctx) == pickle.dumps(checked)
    assert pickle.loads(pickle.dumps(ctx)) == checked
    assert repr(ctx) == repr(checked)
