"""Monte Carlo estimation of the average concept count.

The unit of work is the sample index: sample k counts the concepts of the
context drawn from the derived seed ``derive_seed(master, k)``. With W
workers, P = min(W, samples, usable CPUs) processes count P contiguous
blocks of indices: the caller counts the first block, and each other block
runs in a forked child that sends its counts back through a pipe. The counts
are joined in index order, so the result is bit-identical whatever the
worker count. Where os.fork does not exist, the caller counts every block.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable, NoReturn

from .context import count_concepts
from .errors import InternalError, integer
from .expectation import expected_concepts
from .model import ModelParams, _derived_seed, _master_of, sample_context
from .record import Record

# Past this n, the concept count of one sample may explode.
MAX_MC_N = 40
# At n = 10, p = q = 1/2, this many samples take about 3.4 s on one core.
MAX_MC_SAMPLES = 10**5
# A bound on samples * n**2, since a sample's cost grows with n: at n = 40,
# p = 1/2, q = .85, the 6250 samples it allows take about 10 s on one core.
MAX_MC_WORK = 10**7

# Normal 95% quantile; adequate since estimates use thousands of samples.
Z95 = 1.96


class McEstimate(Record):
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


class ExactComparison(Record):
    """A Monte Carlo estimate next to the average expected_concepts computes."""

    estimate: McEstimate
    exact: float
    z: float


def _count_sample(params: ModelParams, master: int, k: int) -> int:
    # Both names are looked up here at call time, so a wrapper installed on
    # this module sees every sample drawn in this process.
    return count_concepts(sample_context(params, _derived_seed(master, k)))


def estimate(
    params: ModelParams, samples: int, seed: int, workers: int = 1
) -> McEstimate:
    """Estimate the average concept count from independent samples.

    Bit-identical for fixed (params, samples, seed) regardless of
    `workers`: _counts splits the samples among at most `workers`
    processes, forking all but the caller, so call it with workers > 1 only
    from a process with no other threads; no process outlives the call.
    n is bounded by MAX_MC_N, then samples by one limit,
    min(MAX_MC_SAMPLES, MAX_MC_WORK // n**2), all checked by errors.integer
    before any work; past the sample limit its refusal names n when the work
    bound is the smaller one ("Monte Carlo at n = 20 supports samples <= 25000").
    """
    samples = integer(samples, "samples", low=2)
    workers = integer(workers, "workers", low=1)
    n = integer(params.n, "n", high=MAX_MC_N, bounded_by="Monte Carlo")
    most = min(MAX_MC_SAMPLES, MAX_MC_WORK // n**2)
    at = f" at n = {n}" if most < MAX_MC_SAMPLES else ""
    integer(samples, "samples", high=most, bounded_by=f"Monte Carlo{at}")
    master = _master_of(seed)
    counts = _counts(functools.partial(_count_sample, params, master), samples, workers)
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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _counts(count: Callable[[int], int], samples: int, workers: int) -> list[int]:
    """count(k) for k in range(samples), in index order.

    The indices are cut into P = min(workers, samples, usable CPUs)
    contiguous blocks. The caller counts block 0 while one forked child per
    other block counts that block and pickles the result into a pipe; the
    caller then reads the pipes in block order and reaps each child. The
    first failing block in index order raises: a child's exception is raised
    again here, and a child that ends without a result, or with an exception
    that does not pickle, gives an InternalError. On any failure the
    unreaped children are killed and reaped. With P = 1, or where os.fork
    does not exist, the caller counts every index itself.
    """
    processes = min(workers, samples, _usable_cpus())
    if processes == 1 or not hasattr(os, "fork"):
        return list(map(count, range(samples)))
    # Imported here, not at the top, so that start-up loads neither.
    import pickle
    import signal

    cuts = [samples * block // processes for block in range(processes + 1)]
    children = []  # (pid, read end of its pipe) of each unreaped child, in block order
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _send(write, count, range(start, stop))
            except BaseException:
                os.close(read)
                raise
            finally:
                # Closed in the caller at once, so no later child holds it
                # and the read meets EOF when this child exits.
                os.close(write)
            children.append((pid, open(read, "rb")))
        counts = list(map(count, range(cuts[1])))
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            try:
                ok, result = pickle.loads(data)
            except Exception:
                code = os.waitstatus_to_exitcode(status)
                raise InternalError(
                    f"a Monte Carlo worker ended without a result (exit code {code})"
                ) from None
            if not ok:
                raise result
            counts += result
        return counts
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(write: int, count: Callable[[int], int], indices: range) -> NoReturn:
    """In a forked child: pickle (True, the counts of `indices`) or (False,
    the exception that stopped them) into the pipe end `write`, and exit."""
    import pickle

    try:
        try:
            data = pickle.dumps((True, list(map(count, indices))))
        except BaseException as exc:
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)  # an exception that pickles may still not load
            except Exception:
                data = pickle.dumps((False, InternalError(f"{type(exc).__name__}: {exc}")))
        with open(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def compare_with_exact(
    params: ModelParams, samples: int, seed: int, workers: int = 1
) -> ExactComparison:
    """Estimate and compare against the average that expected_concepts
    computes (the windowed float sum, or its closed form at the edges).

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
