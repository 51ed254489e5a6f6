"""The benchmark's workloads: operations, inputs made from the seed, checks.

Each workload is a fixed list of CLI operations that one client cycles
through in a closed loop. The seed decides the order of the list and every
random input (context files, Monte Carlo seeds); the program only ever sees
the generated inputs. Checks run on the first output of each operation,
outside the timed region; later outputs of the same operation must be
byte-identical to it (the report's wall-time field aside).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


class CheckError(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    tag: str  # groups spans by kind of operation in the traced run


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Workload:
    name = ""
    # Spans the traced run must see; one missing means a wrapped name moved.
    spans: tuple[str, ...] = ()
    # Percentile of latency_tail_ms, fixed so that a faster or slower
    # program, which completes more or fewer cycles, is compared at the same
    # rank. It is the highest multiple of 5 that leaves at least 10 samples
    # beyond it in a 30 s run even when the host runs a third slower than
    # usual, and whose rank falls inside the samples of one operation rather
    # than on the edge between two, where one sample more or less in a run
    # moves it from one operation's time to another's.
    tail_pct = 85.0
    uses_pool = False  # peak_rss_mb adds the largest pool worker

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.ops = self.make_ops()
        self.rng.shuffle(self.ops)

    def make_ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, envelope: dict, run) -> None:
        """Raise CheckError if the op's parsed JSON report is wrong.

        `run(argv, group)` runs one more CLI operation in-process and
        returns (exit code, stdout); the traced run records its spans
        under `group`.
        """
        raise NotImplementedError


# --- expect ---------------------------------------------------------------

EXPECT_NS = (40, 60, 80)
EXPECT_PQ = ((0.5, 0.5), (0.1, 0.9), (0.9, 0.1), (0.5, 1.0))
# ln E(n, p, q), summed term by term in 60-digit arithmetic (mpmath) over
# the exact binary values of p and q; independent of the program.
EXPECT_LOG = {
    (40, 0.5, 0.5): 6.301287484388522,
    (40, 0.1, 0.9): 3.437772639516226,
    (40, 0.9, 0.1): 2.015914184310295,
    (40, 0.5, 1.0): 0.0,
    (60, 0.5, 0.5): 8.261201714157197,
    (60, 0.1, 0.9): 5.37880417379226,
    (60, 0.9, 0.1): 2.618690349104073,
    (60, 0.5, 1.0): 0.0,
    (80, 0.5, 0.5): 9.863771270619175,
    (80, 0.1, 0.9): 7.272930086563922,
    (80, 0.9, 0.1): 3.1310551572875367,
    (80, 0.5, 1.0): 0.0,
}
# ln of the exact rational averages.
RATIONAL_LOG = {
    (32, "1/2", "1/2"): 5.366865807070348,
    (40, "1/3", "2/5"): 5.247584218519972,
}
EXPECT_REL_TOL = 1e-12
# gap_3dp of the default asymptotic table, n = 10**1 .. 10**10.
GAP_3DP = (1.467, 0.860, 0.646, 0.566, 0.477, 0.416, 0.386, 0.347, 0.316, 0.299)


class Expect(Workload):
    """Exact averages: the composition sum in `expectation`/`logspace`."""

    name = "expect"
    spans = ("expectation.float", "expectation.exact", "asymptotics.table")

    def make_ops(self) -> list[Op]:
        ops = [
            Op(f"expect n={n} p={p:g} q={q:g}",
               ("expect", "--json", "--n", str(n), "--p", f"{p:g}", "--q", f"{q:g}"),
               "float")
            for n in EXPECT_NS
            for p, q in EXPECT_PQ
        ]
        ops += [
            Op(f"expect --rational n={n} p={p} q={q}",
               ("expect", "--json", "--rational", "--n", str(n), "--p", p, "--q", q),
               "rational")
            for n, p, q in RATIONAL_LOG
        ]
        ops.append(Op("asymptotic", ("asymptotic", "--json"), "asymptotic"))
        return ops

    def check(self, op: Op, envelope: dict, run) -> None:
        payload = envelope["payload"]
        if op.tag == "asymptotic":
            rows = payload["rows"]
            _require([row["n"] for row in rows] == [10**k for k in range(1, 11)],
                     "asymptotic rows are not n = 10^1..10^10")
            _require(tuple(row["gap_3dp"] for row in rows) == GAP_3DP,
                     f"gap_3dp {[row['gap_3dp'] for row in rows]} != {GAP_3DP}")
            flags = [row["exceeds_threshold"] for row in rows]
            _require(flags[8] is False and flags[9] is True,
                     f"threshold does not flip between 10^9 and 10^10: {flags}")
            return
        n = int(op.argv[op.argv.index("--n") + 1])
        p = op.argv[op.argv.index("--p") + 1]
        q = op.argv[op.argv.index("--q") + 1]
        log_value = payload["log_value"]
        _require(log_value is not None, "log_value is null")
        if op.tag == "float":
            want = EXPECT_LOG[(n, float(p), float(q))]
            _require(_close(log_value, want, EXPECT_REL_TOL),
                     f"log_value {log_value!r} != reference {want!r}")
            return
        exact = Fraction(payload["exact"])
        exact_log = math.log(float(exact))
        want = RATIONAL_LOG[(n, p, q)]
        _require(_close(exact_log, want, EXPECT_REL_TOL),
                 f"ln(exact) {exact_log!r} != reference {want!r}")
        _require(_close(log_value, exact_log, EXPECT_REL_TOL),
                 f"float log {log_value!r} disagrees with ln(exact) {exact_log!r}")
        _require(abs(payload["value"] - float(exact)) <= EXPECT_REL_TOL * float(exact),
                 f"float value {payload['value']!r} disagrees with exact {float(exact)!r}")


# --- concepts -------------------------------------------------------------

# (n, q, target concept count, also run with --count-only) at p = 1/2.
# Each context is drawn from the random model conditioned on |G| = |M| = n/2
# and on its concept count lying within CONCEPT_BAND of the target (near
# the median at that point), so that the work of a run hardly depends on
# the seed: at (44, 0.9) unconditioned counts range from about 2.5k to 21k,
# and at a given count an op took up to 38% longer with more objects than
# attributes than the other way round. The three smaller files are only
# listed; the other three are also counted. That leaves 9 ops per cycle, so
# that the median falls in the middle of the contranomial's --count-only
# samples and the p80 rank among its listing's samples: both inputs are
# the same for every seed.
CONCEPT_POINTS = (
    (40, 0.5, 550, False),
    (44, 0.9, 9500, True),
    (60, 0.5, 4000, False),
    (200, 0.2, 11500, True),
    (300, 0.05, 800, False),
)
CONCEPT_BAND = 0.03
MAX_DRAWS = 1000
CONTRANOMIAL_K = 14


def _sample_rows(rng: random.Random, objects: int, attributes: int, q: float) -> list[int]:
    """Bit rows of a context with each incidence present with probability q."""
    return [
        sum(1 << j for j in range(attributes) if rng.random() < q)
        for _ in range(objects)
    ]


def _intent_count(attributes: int, rows: list[int]) -> int:
    """Number of concepts, found without the program.

    The intents of a context are the full attribute set and every
    intersection of object rows, so closing {full} under intersection with
    each row in turn yields each intent once.
    """
    intents = {(1 << attributes) - 1}
    for row in rows:
        intents |= {intent & row for intent in intents}
    return len(intents)


def _cxt_text(objects: list[str], attributes: list[str], rows: list[int]) -> str:
    lines = ["B", "", str(len(objects)), str(len(attributes)), "", *objects, *attributes]
    lines += ["".join("X" if r >> j & 1 else "." for j in range(len(attributes))) for r in rows]
    return "\n".join(lines) + "\n"


class Concepts(Workload):
    """Concept listings of a few larger contexts: `cxt`, `context`, `cli`."""

    name = "concepts"
    tail_pct = 80.0
    spans = ("cxt.read", "context.enumerate")

    def make_ops(self) -> list[Op]:
        from randfca import FormalContext

        self.contexts = {}  # file name -> (context, concept count)
        ops = []

        def add(filename: str, objects: list[str], attributes: list[str], rows: list[int],
                count: int, count_only: bool = True) -> None:
            path = self.workdir / filename
            path.write_text(_cxt_text(objects, attributes, rows))
            self.contexts[filename] = (FormalContext.from_bit_rows(objects, attributes, rows), count)
            base = ("concepts", "--in", str(path), "--json")
            if count_only:
                ops.append(Op(f"concepts --count-only {filename} ({count})", base + ("--count-only",), "count_only"))
            ops.append(Op(f"concepts {filename} ({count})", base, "listing"))

        for n, q, target, count_only in CONCEPT_POINTS:
            for _ in range(MAX_DRAWS):
                g, m = n // 2, n - n // 2
                rows = _sample_rows(self.rng, g, m, q)
                count = _intent_count(m, rows)
                if abs(count - target) <= CONCEPT_BAND * target:
                    break
            else:
                raise RuntimeError(f"no context at n={n} q={q} within the band in {MAX_DRAWS} draws")
            objects = [f"g{i}" for i in range(1, g + 1)]
            attributes = [f"m{j}" for j in range(1, m + 1)]
            add(f"n{n}_q{q:g}.cxt", objects, attributes, rows, count, count_only)
        k = CONTRANOMIAL_K
        labels = [str(i) for i in range(1, k + 1)]
        rows = [((1 << k) - 1) ^ (1 << i) for i in range(k)]
        add(f"contranomial{k}.cxt", labels, labels, rows, 2**k)
        return ops

    def check(self, op: Op, envelope: dict, run) -> None:
        from randfca import is_concept

        ctx, want = self.contexts[Path(op.argv[2]).name]
        payload = envelope["payload"]
        _require(payload["count"] == want, f"count {payload['count']} != {want}")
        if op.tag == "count_only":
            _require("concepts" not in payload, "--count-only listed the concepts")
            return
        listing = payload["concepts"]
        _require(len(listing) == want, f"listing has {len(listing)} concepts, count is {want}")
        objects = {label: i for i, label in enumerate(ctx.objects)}
        attributes = {label: j for j, label in enumerate(ctx.attributes)}
        seen = set()
        for concept in listing:
            extent = [objects[label] for label in concept["extent"]]
            intent = [attributes[label] for label in concept["intent"]]
            _require(is_concept(ctx, extent, intent), f"not a concept: {concept}")
            seen.add(frozenset(extent))
        _require(len(seen) == want, "listing repeats a concept")


# --- mc -------------------------------------------------------------------

# (n, q, samples, Monte Carlo seeds per cycle) at p = 1/2, two workers.
# Five ops per cycle, an odd count, keep the median inside the samples of
# the three (20, 0.5) ops; p70 falls in the middle of the (40, 0.1) op's
# samples, and most of the cycle's time is the (40, 0.9) op.
MC_POINTS = ((20, 0.5, 2000, 3), (40, 0.1, 1000, 1), (40, 0.9, 100, 1))
# Monte Carlo seeds that do not come from the workload seed. The concept
# count of a (40, 0.9) context is heavy-tailed, so over 100 samples the
# op's time varied from 1.2 to 1.8 s between Monte Carlo seeds 1 to 10,
# which alone would fill much of the bounds; its seed is fixed, near the
# middle of that range, and the workload seed only shuffles it into the
# cycle.
MC_FIXED_SEEDS = {(40, 0.9): 8}
MC_WORKERS = 2
# |z| of the estimate against the exact average; at 100+ samples a larger
# deviation means the sampler or the counter is wrong.
MC_MAX_Z = 6.0


class MonteCarlo(Workload):
    """Many small contexts sampled and counted: `model`, `context`, `montecarlo`."""

    name = "mc"
    tail_pct = 70.0
    uses_pool = True
    spans = ("montecarlo.compare", "montecarlo.estimate", "expectation.float",
             "model.sample", "context.count")

    def make_ops(self) -> list[Op]:
        ops = []
        for n, q, samples, seeds in MC_POINTS:
            for _ in range(seeds):
                seed = MC_FIXED_SEEDS.get((n, q))
                if seed is None:
                    seed = self.rng.getrandbits(63)
                ops.append(Op(
                    f"mc n={n} q={q:g} samples={samples} seed={seed}",
                    ("mc", "--json", "--workers", str(MC_WORKERS), "--compare-exact",
                     "--n", str(n), "--p", "0.5", "--q", f"{q:g}",
                     "--samples", str(samples), "--seed", str(seed)),
                    f"n{n}_q{q:g}",
                ))
        return ops

    def check(self, op: Op, envelope: dict, run) -> None:
        payload = envelope["payload"]
        z = payload["z"]
        _require(z is not None and abs(z) <= MC_MAX_Z, f"|z| = {z} exceeds {MC_MAX_Z}")
        serial = list(op.argv)
        serial[serial.index("--workers") + 1] = "1"
        code, out = run(serial, f"replay/{op.tag}")
        _require(code == 0, f"workers=1 rerun exited {code}")
        rerun = json.loads(out)["payload"]
        differ = sorted(k for k in payload.keys() | rerun.keys()
                        if k != "workers" and payload.get(k) != rerun.get(k))
        _require(not differ, f"workers=1 rerun differs in {differ}")


WORKLOADS = {w.name: w for w in (Expect, Concepts, MonteCarlo)}
