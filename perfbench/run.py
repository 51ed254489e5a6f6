"""randfca benchmark: one closed-loop client driving the CLI in-process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload expect --seed 1 --seconds 30 --trace 0

Every time is a wall time scaled to a reference host speed by probes run
between operations (hostspeed.py), because the hosts this runs on are
shared and their speed drifts by tens of percent within minutes.

`--trace 0` measures the end-to-end metrics with nothing wrapped.
`--trace 1` runs the loop untraced for half the time, then with spans
around each layer's public calls for the other half, and prints the
per-layer metrics. Human-readable lines come first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from hostspeed import HostSpeed, at_reference
from tracing import Tracer
from workloads import WORKLOADS, CheckError

ROOT = Path.cwd()
SRC = ROOT / "src"
# setup_s times a fresh interpreter after every cycle, so that its samples
# span the run like the other metrics do, and at least this many in all.
SETUP_MIN_SAMPLES = 7
# The child probes the host itself: it may run on the other CPU, whose speed
# can differ from this process's. It prints its set-up time and the probes.
SETUP_CODE = f"""
import sys, time
sys.path[:0] = [{str(Path(__file__).resolve().parent)!r}, 'src']
from hostspeed import probe
before = probe()
start = time.perf_counter()
from randfca.cli import main
try:
    main(['expect', '--help'])
except SystemExit:
    pass
elapsed = time.perf_counter() - start
print(elapsed, before, probe(), file=sys.stderr)
"""
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Client:
    """Runs CLI operations in-process and keeps what the checks need."""

    def __init__(self, workload, main, outdir: Path, tracer: Tracer | None) -> None:
        self.workload = workload
        self.main = main
        self.outdir = outdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}  # op index -> digest of its first output
        self.passed = Counter()  # op index -> outputs identical to the first
        self.host = HostSpeed()

    def call(self, argv, group: str = "") -> tuple[int, str, float]:
        """One operation: (exit code or -1 if it raised, stdout, wall ns at the
        reference host speed). The host must have been probed just before."""
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer if self.tracer is not None and self.tracer.installed else None
        if tracer is not None:
            tracer.group = group
            span = tracer.begin()
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(list(argv))
        except (Exception, SystemExit) as exc:  # any escape is a failed operation
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.end("cli.op", span)
            tracer.counters[(group, "cli.op")]["output_bytes"] += len(out.getvalue())
        scaled = self.host.scale(elapsed)
        if tracer is not None:
            tracer.commit(scaled / elapsed)
        if code != 0:
            self.errors.append(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()[-300:]}")
        return code, out.getvalue(), scaled

    def cycles(self, seconds: float, group: str, after_cycle=None) -> list[list[float]]:
        """Whole cycles through the op list until `seconds` have passed.

        Returns the wall time in ns of every op at the reference host
        speed, one list per cycle. `after_cycle` runs between cycles,
        outside their timing.
        """
        cycles = []
        start = time.perf_counter()
        self.host.resume()
        while not cycles or time.perf_counter() - start < seconds:
            cycle = []
            for index, op in enumerate(self.workload.ops):
                code, out, elapsed = self.call(op.argv, f"{group}/{op.tag}")
                cycle.append(elapsed)
                self.record(index, code, out)
            cycles.append(cycle)
            if after_cycle is not None:
                after_cycle()
        return cycles

    def record(self, index: int, code: int, out: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return
        cut = out.rfind('"wall_time_ms"')
        digest = hashlib.sha256(out[:cut].encode()).hexdigest()
        if index not in self.digests:
            self.digests[index] = digest
            (self.outdir / f"op{index}.json").write_text(out)
        if digest == self.digests[index]:
            self.passed[index] += 1
        else:
            self.failed += 1
            self.errors.append(f"{self.workload.ops[index].label}: output differs from its first run")

    def check(self) -> None:
        """Check each op's first output; a failure fails every identical output."""

        def run(argv, group):
            self.host.resume()
            code, out, _ = self.call(argv, group)
            return code, out

        for index in sorted(self.digests):
            op = self.workload.ops[index]
            try:
                envelope = json.loads((self.outdir / f"op{index}.json").read_text())
                self.workload.check(op, envelope, run)
            except (CheckError, LookupError, TypeError, ValueError, ArithmeticError,
                    AttributeError) as exc:  # malformed output fails the op, not the run
                self.failed += self.passed[index]
                self.errors.append(f"{op.label}: check failed: {type(exc).__name__}: {exc}")


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(pct / 100 * len(ordered)) - 1]


def time_setup() -> float:
    """Seconds, at the reference host speed, that a fresh interpreter takes to
    import the CLI and build its parser."""
    done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE], cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          check=True)
    elapsed, before, after = map(float, done.stderr.split())
    return at_reference(elapsed, before, after)


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def ops_per_s(cycles: list[list[float]]) -> float:
    """Ops per second of the median cycle, robust to a briefly slow machine."""
    return len(cycles[0]) / (1e-9 * statistics.median(sum(cycle) for cycle in cycles))


def end_to_end(client: Client, seconds: float) -> dict[str, float]:
    time_setup()  # page in the interpreter before the timed ones
    setup_times: list[float] = []
    cycles = client.cycles(seconds, "loop", lambda: setup_times.append(time_setup()))
    report_ops(client, cycles)
    latencies = [ns / 1e6 for cycle in cycles for ns in cycle]
    pct = client.workload.tail_pct
    # A pool worker starts as a fork of this process, so it, not a set-up
    # interpreter (about 18 MB), is the largest child.
    rss = peak_rss_mb(client.workload.uses_pool)
    client.check()
    while len(setup_times) < SETUP_MIN_SAMPLES:
        setup_times.append(time_setup())
    metrics = {
        "ops_per_s": ops_per_s(cycles),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": nearest_rank(latencies, pct),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    beyond = len(latencies) - math.ceil(pct / 100 * len(latencies))
    print(f"samples: {len(latencies)} in {len(cycles)} cycles;"
          f" latency_tail_ms is p{pct:g}, {beyond} samples beyond it")
    print("cycle times (s, reference speed): " + " ".join(f"{sum(c) / 1e9:.3f}" for c in cycles))
    factors = client.host.factors
    print(f"host slowdown against the reference speed: median {statistics.median(factors):.3f},"
          f" range {min(factors):.3f}..{max(factors):.3f} over {len(factors)} probes")
    return metrics


def layer_metrics(t: Tracer, cycles: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced loop, per cycle unless the unit says otherwise.

    The mc replay (each op once with one worker, in-process) supplies the
    per-sample times of `model` and `context`, which pool workers hide.
    """
    loop, replay = "loop/", "replay/"

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_cycle(x: float) -> float:
        return x / cycles

    float_s = t.total_s("expectation.float", loop)
    terms = t.count("expectation.float", "terms", loop)
    read_s = t.total_s("cxt.read", loop)
    sample_s = t.total_s("model.sample", replay)
    count_s = t.total_s("context.count", replay)
    estimate_s = t.total_s("montecarlo.estimate", loop)
    m = {
        "cli.self_s": (per_cycle(t.self_s("cli.op", loop)), "s/cycle"),
        "cli.output_bytes": (per_cycle(t.count("cli.op", "output_bytes", loop)), "B/cycle"),
        "cxt.read_s": (per_cycle(read_s), "s/cycle"),
        "cxt.read_mb_per_s": (ratio(t.count("cxt.read", "bytes", loop) / 1e6, read_s), "MB/s"),
    }
    for kind in ("count_only", "listing"):
        group = f"{loop}{kind}"
        enumerate_s = t.total_s("context.enumerate", group)
        concepts = t.count("context.enumerate", "concepts", group)
        m[f"context.{kind}.enumerate_s"] = (per_cycle(enumerate_s), "s/cycle")
        m[f"context.{kind}.concepts_per_s"] = (ratio(concepts, enumerate_s), "1/s")
    m["context.count_s"] = (ratio(count_s, t.calls("context.count", replay)), "s/sample")
    m["model.sample_s"] = (ratio(sample_s, t.calls("model.sample", replay)), "s/sample")
    m["model.draws_per_s"] = (ratio(t.count("model.sample", "draws", replay), sample_s), "1/s")
    m["montecarlo.estimate_s"] = (per_cycle(estimate_s), "s/cycle")
    m["montecarlo.parallel_efficiency"] = (
        ratio(sample_s + count_s, 2 * per_cycle(estimate_s)), "ratio")
    m["expectation.float_s"] = (per_cycle(float_s), "s/cycle")
    m["expectation.exact_s"] = (per_cycle(t.total_s("expectation.exact", loop)), "s/cycle")
    m["expectation.terms"] = (per_cycle(terms), "count/cycle")
    m["expectation.zero_term_ratio"] = (
        ratio(t.count("expectation.float", "zero_terms", loop), terms), "ratio")
    m["expectation.terms_per_s"] = (ratio(terms, float_s), "1/s")
    m["asymptotics.table_s"] = (per_cycle(t.total_s("asymptotics.table", loop)), "s/cycle")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


def report_ops(client: Client, cycles: list[list[float]]) -> None:
    for op, times in zip(client.workload.ops, zip(*cycles)):
        print(f"  {statistics.median(times) / 1e6:10.2f} ms  x{len(times):<3d} {op.label}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "randfca" / "cli.py").is_file():
        print(f"error: no randfca sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import randfca.cli

    if Path(randfca.cli.__file__).resolve().parent != (SRC / "randfca").resolve():
        print(f"error: imported randfca from {randfca.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)).relative_to(ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        client = Client(workload, randfca.cli.main, workdir, tracer)
        print(f"workload {workload.name}: {len(workload.ops)} ops per cycle, seed {args.seed}")
        if tracer is None:
            values = end_to_end(client, args.seconds)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        else:
            untraced = client.cycles(args.seconds / 2, "untraced")
            try:
                tracer.install()
            except AttributeError as exc:
                print(f"error: cannot wrap a traced name: {exc}", file=sys.stderr)
                return 2
            try:
                traced = client.cycles(args.seconds / 2, "loop")
                client.check()
            finally:
                tracer.uninstall()
            report_ops(client, traced)
            missing = sorted((set(workload.spans) | {"cli.op"}) - tracer.fired())
            if missing:
                print(f"error: spans never fired: {missing}; was a wrapped name renamed?",
                      file=sys.stderr)
                return 2
            values = layer_metrics(tracer, len(traced), ops_per_s(traced) / ops_per_s(untraced))
            metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    for error in client.errors[:20]:
        print(f"FAILED {error}")
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:.6g} {entry['unit']}")
    print(f"error_ratio {client.failed / client.attempted:.6g} "
          f"({client.failed} of {client.attempted} ops)")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
