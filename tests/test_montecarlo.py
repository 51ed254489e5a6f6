import os

import pytest

from randfca import (
    InputError,
    ModelParams,
    Seed,
    SizeError,
    compare_with_exact,
    estimate,
    expected_concepts,
)


def test_n1_is_constant():
    result = estimate(ModelParams(1, 0.5, 0.5), 100, Seed(0))
    assert result.mean == 1.0
    assert result.stderr == 0.0
    assert result.ci95_low == result.ci95_high == 1.0
    assert result.min_count == result.max_count == 1


def test_q_one_is_constant():
    result = estimate(ModelParams(10, 0.5, 1.0), 100, Seed(4))
    assert result.mean == 1.0
    assert result.stderr == 0.0


def test_estimates_track_the_exact_value():
    params = ModelParams(8, 0.5, 0.5)
    result = estimate(params, 4000, Seed(11))
    exact = expected_concepts(params).value
    assert abs(result.mean - exact) <= 5 * result.stderr
    assert result.min_count >= 1
    assert result.ci95_low <= result.mean <= result.ci95_high


def test_worker_count_does_not_change_results():
    params = ModelParams(7, 0.4, 0.6)
    serial = estimate(params, 500, Seed(21), workers=1)
    parallel = estimate(params, 500, Seed(21), workers=3)
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
    result = estimate(params, 8, Seed(3), workers=10**6)
    assert len(sizes) == 1
    assert sizes[0] <= (os.cpu_count() or 1)
    assert result == estimate(params, 8, Seed(3), workers=1)


def test_reproducible():
    params = ModelParams(6, 0.5, 0.5)
    assert estimate(params, 300, Seed(5)) == estimate(params, 300, Seed(5))


def test_more_samples_shrink_stderr():
    params = ModelParams(8, 0.5, 0.5)
    small = estimate(params, 2000, Seed(8))
    large = estimate(params, 4000, Seed(8))
    assert large.stderr <= small.stderr * 1.2


def test_compare_with_exact_small_case():
    comparison = compare_with_exact(ModelParams(2, 0.5, 0.5), 5000, Seed(13))
    assert comparison.exact == pytest.approx(1.25, abs=1e-12)
    assert abs(comparison.z) <= 5


def test_compare_with_exact_degenerate_stderr():
    comparison = compare_with_exact(ModelParams(1, 0.3, 0.9), 100, Seed(2))
    assert comparison.estimate.stderr == 0.0
    assert comparison.z == 0.0


def test_guards():
    with pytest.raises(InputError):
        estimate(ModelParams(3, 0.5, 0.5), 1, Seed(0))
    with pytest.raises(InputError):
        estimate(ModelParams(3, 0.5, 0.5), 10, Seed(0), workers=0)
    with pytest.raises(SizeError):
        estimate(ModelParams(41, 0.5, 0.5), 10, Seed(0))


def test_sample_count_is_bounded_before_any_sample(monkeypatch):
    def boom(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr("randfca.montecarlo.sample_context", boom)
    for samples in (10**5 + 1, 10**12):
        with pytest.raises(SizeError, match=f"at most 100000 samples, got {samples}"):
            estimate(ModelParams(1, 0.5, 0.5), samples, Seed(1))
