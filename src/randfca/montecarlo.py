"""Monte Carlo estimation of the average concept count.

The unit of work is the sample index: sample k counts the concepts of the
context drawn from the derived seed ``derive_seed(master, k)``. With W
workers the indices are mapped over a process pool in chunks of
ceil(samples / W) consecutive indices, and the counts come back in index
order, so the result is bit-identical whatever the worker count.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

from .context import count_concepts
from .errors import SizeError, integer, quote
from .expectation import expected_concepts
from .model import ModelParams, _master_of, derive_seed, sample_context

# Past this n, the concept count of one sample may explode.
MAX_MC_N = 40
# At n = 10, p = q = 1/2, this many samples take about 3.4 s on one core.
MAX_MC_SAMPLES = 10**5
# A bound on samples * n**2, since a sample's cost grows with n: at n = 40,
# p = 1/2, q = .85, the 6250 samples it allows take about 10 s on one core.
MAX_MC_WORK = 10**7

# Normal 95% quantile; adequate since estimates use thousands of samples.
Z95 = 1.96


@dataclass(frozen=True)
class McEstimate:
    """Sample statistics of the concept count over independent contexts."""

    params: ModelParams
    samples: int
    seed: int  # the master seed, modulo 2**64
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


def _count_sample(params: ModelParams, master: int, k: int) -> int:
    # Both names are looked up here at call time, so a wrapper installed on
    # this module sees every sample drawn in this process.
    return count_concepts(sample_context(params, derive_seed(master, k)))


def estimate(
    params: ModelParams, samples: int, seed: int, workers: int = 1
) -> McEstimate:
    """Estimate the average concept count from independent samples.

    Bit-identical for fixed (params, samples, seed) regardless of
    `workers`. n is bounded by MAX_MC_N, then samples by one limit,
    min(MAX_MC_SAMPLES, MAX_MC_WORK // n**2), all checked before any work.
    """
    samples = integer(samples, "samples", low=2)
    workers = integer(workers, "workers", low=1)
    n = integer(params.n, "n", high=MAX_MC_N, bounded_by="Monte Carlo")
    most = min(MAX_MC_SAMPLES, MAX_MC_WORK // n**2)
    if samples > most:
        at = f" at n = {n}" if most < MAX_MC_SAMPLES else ""
        raise SizeError(f"Monte Carlo{at} supports at most {most} samples, got {quote(samples)}")
    master = _master_of(seed)
    count = functools.partial(_count_sample, params, master)
    if workers == 1:
        counts = list(map(count, range(samples)))
    else:
        # Imported here, not at the top, so that start-up never loads the pool.
        from concurrent.futures import ProcessPoolExecutor

        block = -(-samples // workers)
        # A fork pool starts all its processes at the first submit: no more
        # than there are blocks, or CPUs to run them.
        with ProcessPoolExecutor(min(-(-samples // block), os.cpu_count() or 1)) as pool:
            counts = list(pool.map(count, range(samples), chunksize=block))
    mean = math.fsum(counts) / samples
    import statistics  # imported here, not at the top, to keep start-up short

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
    params: ModelParams, samples: int, seed: int, workers: int = 1
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
