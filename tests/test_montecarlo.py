import math
import os
import pickle
import re
import time
from fractions import Fraction

import pytest

from randfca import (
    InputError,
    InternalError,
    ModelParams,
    SizeError,
    compare_with_exact,
    count_concepts,
    enumerate_sample_space,
    estimate,
    expected_concepts,
    expected_concepts_exact,
)
from randfca import montecarlo
from randfca.cli import main
from randfca.model import _master_of, derive_seed


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test, on four usable CPUs.

    At the end, each must have been reaped and no file descriptor left open.
    """
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    fds = _open_fds()
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert _open_fds() == fds


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_n1_is_constant():
    result = estimate(ModelParams(1, 0.5, 0.5), 100, 0)
    assert result.mean == 1.0
    assert result.stderr == 0.0
    assert result.ci95_low == result.ci95_high == 1.0
    assert result.min_count == result.max_count == 1


def test_q_one_is_constant():
    result = estimate(ModelParams(10, 0.5, 1.0), 100, 4)
    assert result.mean == 1.0
    assert result.stderr == 0.0


def test_estimates_track_the_exact_value():
    params = ModelParams(8, 0.5, 0.5)
    result = estimate(params, 4000, 11)
    exact = expected_concepts(params).value
    assert abs(result.mean - exact) <= 5 * result.stderr
    assert result.min_count >= 1
    assert result.ci95_low <= result.mean <= result.ci95_high


def _exact_moments(n, p, q):
    """(E[C], E[C**2]) of the concept count C over every context on
    {1, ..., n}, each weighted by its exact probability: the brute-force
    oracle of the count's second moment, for n <= 5 and p, q anything
    Fraction() reads."""
    p, q = Fraction(p), Fraction(q)
    first = second = Fraction(0)
    for ctx in enumerate_sample_space(n):
        g, m, crosses = ctx.object_count, ctx.attribute_count, ctx.incidence_count
        weight = p**g * (1 - p) ** m * q**crosses * (1 - q) ** (g * m - crosses)
        count = count_concepts(ctx)
        first += weight * count
        second += weight * count * count
    return first, second


def test_the_second_moment_oracle():
    # n = 2: one object and one attribute (probability 2p(1 - p)) without
    # their cross (1 - q) give two concepts; every other context gives one.
    assert _exact_moments(2, "1/2", "1/2") == (Fraction(5, 4), Fraction(7, 4))
    assert _exact_moments(1, "1/3", "2/5") == (1, 1)
    for n in range(1, 6):
        for p, q in (("1/2", "1/2"), ("1/3", "2/5"), ("4/5", "1/7")):
            first, second = _exact_moments(n, p, q)
            assert first == expected_concepts_exact(n, p, q)
            assert second >= first**2


@pytest.mark.parametrize("p,q,seed", [(0.5, 0.5, 1), (1 / 3, 0.4, 2), (0.8, 1 / 7, 3)])
def test_estimates_track_the_exact_value_in_exact_sigmas(p, q, seed):
    # The bound is K exact standard deviations of the mean, sigma / sqrt(N),
    # with sigma from the exact second moment rather than from the sample.
    # By the central limit theorem a correct sampler exceeds it with
    # probability P(|Z| > 4) = 6.3e-5 per point, so about 1.9e-4 for the
    # three points; the seeds are fixed, so a pass stays a pass.
    k, samples = 4, 10000
    first, second = _exact_moments(5, p, q)  # p and q as the model reads them
    sigma = math.sqrt(second - first**2)
    result = estimate(ModelParams(5, p, q), samples, seed)
    assert abs(result.mean - float(first)) <= k * sigma / math.sqrt(samples)


def test_worker_count_does_not_change_results():
    params = ModelParams(7, 0.4, 0.6)
    serial = estimate(params, 500, 21, workers=1)
    parallel = estimate(params, 500, 21, workers=3)
    assert serial == parallel


def test_pool_is_capped_at_the_cpu_count(forks):
    # min(workers, samples, CPUs) processes: the caller and one child per
    # other block.
    params = ModelParams(6, 0.5, 0.5)
    for workers, samples in ((10**6, 8), (3, 8), (2, 8), (10**6, 2), (3, 5)):
        before = len(forks)
        assert estimate(params, samples, 3, workers=workers) == estimate(params, samples, 3)
        assert len(forks) - before == min(workers, samples, 4) - 1


def test_cpu_count_follows_the_affinity_mask(monkeypatch):
    def boom():
        raise AssertionError("forked")

    params = ModelParams(6, 0.5, 0.5)
    serial = estimate(params, 50, 1)
    monkeypatch.setattr(os, "fork", boom, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert estimate(params, 50, 1, workers=2) == serial
    # Without an affinity mask, the CPU count; and 1 when that is unknown.
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert estimate(params, 50, 1, workers=2) == serial


def test_without_fork_the_caller_counts_every_block(monkeypatch):
    params = ModelParams(6, 0.5, 0.5)
    serial = estimate(params, 50, 1)
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert estimate(params, 50, 1, workers=3) == serial


def test_each_write_end_is_closed_in_the_caller_before_the_next_fork(forks, monkeypatch):
    # Otherwise a later child would hold an earlier child's write end, and
    # the caller's read of that pipe would never meet EOF.
    writes, closed = [], set()
    pipe, close, fork = os.pipe, os.close, os.fork

    def recording_pipe():
        ends = pipe()
        writes.append(ends[1])
        return ends

    def recording_close(fd):
        closed.add(fd)
        close(fd)

    def checking_fork():
        assert set(writes[:-1]) <= closed
        return fork()

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "close", recording_close)
    monkeypatch.setattr(os, "fork", checking_fork)
    params = ModelParams(6, 0.5, 0.5)
    assert estimate(params, 40, 2, workers=4) == estimate(params, 40, 2)
    assert len(writes) == len(forks) == 3
    assert set(writes) <= closed


def _failing_at(monkeypatch, failures):
    # Sample k raises, exits or hangs as failures[k] says; the others count.
    count = montecarlo._count_sample

    def failing(params, master, k):
        failure = failures.get(k)
        if failure is None:
            return count(params, master, k)
        if failure == "hang":
            time.sleep(60)
        if isinstance(failure, int):
            os._exit(failure)
        raise failure

    monkeypatch.setattr(montecarlo, "_count_sample", failing)


@pytest.mark.parametrize(
    "failing,first", [((4, 7), 4), ((1, 4, 7), 1), ((7,), 7), ((2, 3), 2)]
)
def test_the_first_failing_block_raises(forks, monkeypatch, failing, first):
    # Three blocks of 9 samples: 0-2 in the caller, 3-5 and 6-8 in children.
    _failing_at(monkeypatch, {k: ValueError(f"sample {k}") for k in failing})
    with pytest.raises(ValueError, match=f"^sample {first}$"):
        estimate(ModelParams(6, 0.5, 0.5), 9, 1, workers=3)
    assert len(forks) == 2


def test_a_child_that_ends_without_a_result_is_an_internal_error(forks, monkeypatch, capsys):
    # Two blocks of 10 samples; sample 7 is in the child's.
    _failing_at(monkeypatch, {7: 3})
    message = "a Monte Carlo worker ended without a result (exit code 3)"
    with pytest.raises(InternalError, match=re.escape(message)):
        estimate(ModelParams(6, 0.5, 0.5), 10, 1, workers=2)
    argv = ["mc", "--n", "6", "--p", ".5", "--q", ".5", "--samples", "10", "--seed", "1"]
    assert main(argv + ["--workers", "2"]) == 2
    assert capsys.readouterr() == ("", f"internal error: {message}\n")
    assert len(forks) == 2


def test_a_result_that_does_not_unpickle_is_an_internal_error(forks, monkeypatch):
    # The fork inherits the patched dumps, so the child writes bytes that
    # are no pickle.
    monkeypatch.setattr(pickle, "dumps", lambda obj: b"not a pickle")
    with pytest.raises(InternalError, match=re.escape("without a result (exit code 0)")):
        estimate(ModelParams(6, 0.5, 0.5), 10, 1, workers=2)
    assert len(forks) == 1


class _TwoPartError(Exception):
    # Pickles, but does not unpickle: its one argument is the joined message.
    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


def test_a_child_exception_that_does_not_pickle_arrives_as_an_internal_error(
    forks, monkeypatch
):
    class LocalError(Exception):
        pass

    params = ModelParams(6, 0.5, 0.5)
    for error, name in ((LocalError("no pickle"), "LocalError"), (_TwoPartError("a", "b"), "_TwoPartError")):
        _failing_at(monkeypatch, {7: error})
        with pytest.raises(InternalError, match=f"^{name}: {error}$"):
            estimate(params, 10, 1, workers=2)
    assert len(forks) == 2


def test_a_sample_past_the_concept_cap_in_a_child_fails_as_in_the_caller(
    forks, monkeypatch, capsys
):
    # At seed 3 the largest count of samples 5-9 exceeds that of samples
    # 0-4; with that cap, the first sample past it is in the child's block.
    params, seed = ModelParams(12, 0.5, 0.5), 3
    counts = [montecarlo._count_sample(params, _master_of(seed), k) for k in range(10)]
    cap = max(counts[:5])
    assert max(counts[5:]) > cap
    monkeypatch.setattr("randfca.context.MAX_CONCEPTS", cap)
    messages = []
    for workers in (1, 2):
        with pytest.raises(SizeError) as refused:
            estimate(params, 10, seed, workers=workers)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("enumeration supports concepts <= ")
    argv = ["mc", "--n", "12", "--p", ".5", "--q", ".5", "--samples", "10", "--seed", "3"]
    for workers in ("1", "2"):
        assert main(argv + ["--workers", workers]) == 1
        assert capsys.readouterr() == ("", f"error: {messages[0]}\n")
    assert len(forks) == 2


def test_failures_kill_the_children_still_counting(forks, monkeypatch):
    # The caller's block fails, or the first child's, while a later child
    # would count for a minute: it is killed and reaped at once.
    for failures in ({2: ValueError("caller"), 5: "hang"}, {4: ValueError("child"), 7: "hang"}):
        _failing_at(monkeypatch, failures)
        started = time.perf_counter()
        with pytest.raises(ValueError):
            estimate(ModelParams(6, 0.5, 0.5), 9, 1, workers=3)
        assert time.perf_counter() - started < 10
    assert len(forks) == 4


@pytest.mark.parametrize("workers, counted", [(1, 10), (2, 5)])
def test_each_sample_is_drawn_and_counted_through_the_module_names(forks, monkeypatch, workers, counted):
    # perfbench/tracing.py times the draw and the count by wrapping the
    # names randfca.montecarlo.sample_context and count_concepts. At two
    # workers the caller counts block 0, samples 0 to 4, and a forked child
    # the rest, out of sight of these wrappers.
    params, samples, seed = ModelParams(8, 0.5, 0.5), 10, 4
    serial = estimate(params, samples, seed)
    drawn, counted_contexts = [], []
    sample_context, count_concepts = montecarlo.sample_context, montecarlo.count_concepts

    def drawing(*args):
        ctx = sample_context(*args)
        drawn.append((args[1], ctx))
        return ctx

    def counting(ctx):
        counted_contexts.append(ctx)
        return count_concepts(ctx)

    monkeypatch.setattr(montecarlo, "sample_context", drawing)
    monkeypatch.setattr(montecarlo, "count_concepts", counting)
    assert estimate(params, samples, seed, workers=workers) == serial
    master = _master_of(seed)
    assert [seed for seed, _ in drawn] == [derive_seed(master, k) for k in range(counted)]
    assert len(counted_contexts) == counted
    assert all(a is b for a, (_, b) in zip(counted_contexts, drawn))


def test_reproducible():
    params = ModelParams(6, 0.5, 0.5)
    assert estimate(params, 300, 5) == estimate(params, 300, 5)


def test_more_samples_shrink_stderr():
    params = ModelParams(8, 0.5, 0.5)
    small = estimate(params, 2000, 8)
    large = estimate(params, 4000, 8)
    assert large.stderr <= small.stderr * 1.2


def test_compare_with_exact_small_case():
    comparison = compare_with_exact(ModelParams(2, 0.5, 0.5), 5000, 13)
    assert comparison.exact == pytest.approx(1.25, abs=1e-12)
    assert abs(comparison.z) <= 5


def test_compare_with_exact_degenerate_stderr():
    comparison = compare_with_exact(ModelParams(1, 0.3, 0.9), 100, 2)
    assert comparison.estimate.stderr == 0.0
    assert comparison.z == 0.0


def test_guards():
    with pytest.raises(InputError):
        estimate(ModelParams(3, 0.5, 0.5), 1, 0)
    with pytest.raises(InputError):
        estimate(ModelParams(3, 0.5, 0.5), 10, 0, workers=0)
    with pytest.raises(SizeError):
        estimate(ModelParams(41, 0.5, 0.5), 10, 0)


def test_sample_count_is_bounded_before_any_sample(monkeypatch):
    def boom(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr("randfca.montecarlo.sample_context", boom)
    for samples in (10**5 + 1, 10**12):
        with pytest.raises(SizeError, match=f"supports samples <= 100000, got {samples}"):
            estimate(ModelParams(1, 0.5, 0.5), samples, 1)


@pytest.mark.parametrize(
    "n,samples,most", [(40, 6251, 6250), (11, 10**5, 82644), (20, 100001, 25000)]
)
def test_samples_times_n_squared_is_bounded_before_any_sample(monkeypatch, n, samples, most):
    def boom(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr("randfca.montecarlo.sample_context", boom)
    started = time.perf_counter()
    message = f"Monte Carlo at n = {n} supports samples <= {most}, got {samples}"
    with pytest.raises(SizeError, match=message):
        estimate(ModelParams(n, 0.5, 0.85), samples, 1)
    assert time.perf_counter() - started < 1.0


def test_one_sample_limit_at_every_n(monkeypatch):
    # The largest accepted count is min(10**5, 10**7 // n**2); one more is
    # refused before any draw.
    def boom(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr("randfca.montecarlo.sample_context", boom)
    for n in range(1, 41):
        most = min(10**5, 10**7 // n**2)
        with pytest.raises(AssertionError, match="a sample was drawn"):
            estimate(ModelParams(n, 0.5, 0.5), most, 1)
        with pytest.raises(SizeError, match=f"supports samples <= {most}, got {most + 1}$"):
            estimate(ModelParams(n, 0.5, 0.5), most + 1, 1)


def test_samples_times_n_squared_at_the_bound_is_accepted(monkeypatch):
    # 6250 * 40**2 == MAX_MC_WORK: accepted, so the check reaches the draws.
    def boom(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr("randfca.montecarlo.sample_context", boom)
    with pytest.raises(AssertionError, match="a sample was drawn"):
        estimate(ModelParams(40, 0.5, 0.85), 6250, 1)
