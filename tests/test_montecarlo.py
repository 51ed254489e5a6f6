import os
import time

import pytest

from randfca import (
    InputError,
    ModelParams,
    SizeError,
    compare_with_exact,
    estimate,
    expected_concepts,
)


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


def test_worker_count_does_not_change_results():
    params = ModelParams(7, 0.4, 0.6)
    serial = estimate(params, 500, 21, workers=1)
    parallel = estimate(params, 500, 21, workers=3)
    assert serial == parallel


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    # The pool is replaced by an in-process fake, so no process is started.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    params = ModelParams(6, 0.5, 0.5)
    result = estimate(params, 8, 3, workers=10**6)
    assert len(sizes) == 1
    assert sizes[0] <= (os.cpu_count() or 1)
    assert result == estimate(params, 8, 3, workers=1)


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
