"""Monte Carlo estimation of the average concept count.

Samples are embarrassingly parallel: sample k uses the derived seed
``derive_seed(master, k)``, and statistics are reduced over the sample
index order, so the result is bit-identical whatever the worker count.
"""

from __future__ import annotations

import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .context import count_concepts
from .errors import InputError, SizeError
from .expectation import expected_concepts
from .model import ModelParams, Seed, SeedLike, derive_seed, sample_context

MAX_MC_N = 40

# Normal 95% quantile; adequate since estimates use thousands of samples.
Z95 = 1.96


@dataclass(frozen=True)
class McEstimate:
    """Sample statistics of the concept count over independent contexts."""

    params: ModelParams
    samples: int
    seed: Seed
    mean: float
    stderr: float
    ci95_low: float
    ci95_high: float
    min_count: int
    max_count: int


@dataclass(frozen=True)
class ExactComparison:
    """A Monte Carlo estimate next to the exactly evaluated average."""

    estimate: McEstimate
    exact: float
    z: float


def _count_block(job: tuple[ModelParams, int, int, int]) -> list[int]:
    params, master, start, stop = job
    return [
        count_concepts(sample_context(params, derive_seed(master, k)))
        for k in range(start, stop)
    ]


def _sample_counts(
    params: ModelParams, master: int, samples: int, workers: int
) -> list[int]:
    if workers == 1:
        return _count_block((params, master, 0, samples))
    block = -(-samples // workers)
    jobs = [
        (params, master, start, min(start + block, samples))
        for start in range(0, samples, block)
    ]
    # A fork pool starts all its processes at the first submit: no more than
    # there are blocks, or CPUs to run them.
    with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
        return [count for counts in pool.map(_count_block, jobs) for count in counts]


def estimate(
    params: ModelParams, samples: int, seed: SeedLike, workers: int = 1
) -> McEstimate:
    """Estimate the average concept count from independent samples.

    Bit-identical for fixed (params, samples, seed) regardless of
    `workers`.
    """
    if samples < 2:
        raise InputError(f"need at least 2 samples, got {samples}")
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    if params.n > MAX_MC_N:
        raise SizeError(
            f"sampling supports n <= {MAX_MC_N} (concept counts may explode), got {params.n}"
        )
    master = seed if isinstance(seed, Seed) else Seed(seed)
    counts = _sample_counts(params, master.master, samples, workers)
    mean = math.fsum(counts) / samples
    stderr = statistics.stdev(counts) / math.sqrt(samples)
    return McEstimate(
        params=params,
        samples=samples,
        seed=master,
        mean=mean,
        stderr=stderr,
        ci95_low=mean - Z95 * stderr,
        ci95_high=mean + Z95 * stderr,
        min_count=min(counts),
        max_count=max(counts),
    )


def compare_with_exact(
    params: ModelParams, samples: int, seed: SeedLike, workers: int = 1
) -> ExactComparison:
    """Estimate and compare against the exact composition-sum value.

    z is the standardized deviation (mean - exact) / stderr; a degenerate
    stderr of 0 yields z = 0 when the mean matches the exact value and
    +/-inf otherwise.
    """
    result = estimate(params, samples, seed, workers=workers)
    exact = expected_concepts(params).value
    if result.stderr > 0.0:
        z = (result.mean - exact) / result.stderr
    elif math.isclose(result.mean, exact, rel_tol=1e-12, abs_tol=1e-12):
        z = 0.0
    else:
        z = math.copysign(float("inf"), result.mean - exact)
    return ExactComparison(estimate=result, exact=exact, z=z)
