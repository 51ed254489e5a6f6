"""Spans around the public calls each randfca layer exposes.

The program is not edited: the tracer replaces a module attribute (the name
a caller looks the function up by at call time) with a wrapper that records
a span and restores the original afterwards. A span's self time is its
duration minus the time covered by the spans it directly encloses. The
spans of one operation are held back until the operation's host-speed
scale is known (`commit`).

Spans are recorded only in the process that created the tracer; a forked
pool worker inherits the wrappers but calls straight through, because what
it would record is lost when it exits.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict


def _concepts(counters, result, args):
    counters["concepts"] += len(result)


def _terms(counters, result, args):
    total = result.terms_evaluated + result.terms_skipped_zero
    counters["terms"] += total
    counters["zero_terms"] += result.terms_skipped_zero


def _cxt_bytes(counters, result, args):
    data = args[0]
    counters["bytes"] += len(data.encode("utf-8") if isinstance(data, str) else data)


def _draws(counters, result, args):
    counters["draws"] += args[0].n + result.object_count * result.attribute_count


# (module, attribute callers look up, span name, counter on the result).
TARGETS = (
    ("randfca.cli", "read_cxt", "cxt.read", _cxt_bytes),
    ("randfca.cli", "enumerate_concepts", "context.enumerate", _concepts),
    ("randfca.cli", "expected_concepts", "expectation.float", _terms),
    ("randfca.cli", "expected_concepts_exact", "expectation.exact", None),
    ("randfca.cli", "compare_with_exact", "montecarlo.compare", None),
    ("randfca.cli", "table_report", "asymptotics.table", None),
    ("randfca.montecarlo", "estimate", "montecarlo.estimate", None),
    ("randfca.montecarlo", "expected_concepts", "expectation.float", _terms),
    ("randfca.montecarlo", "sample_context", "model.sample", _draws),
    ("randfca.montecarlo", "count_concepts", "context.count", None),
)


class Tracer:
    """Aggregated spans and counters, keyed by (group, span name).

    `group` is set by the caller before each operation (for example
    ``"loop/listing"``) so that one layer's time can be split by the kind
    of operation that caused it.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.group = ""
        # (group, name) -> [calls, total_ns, self_ns], the times scaled to the
        # reference host speed (hostspeed.py) by `commit`
        self.spans: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0, 0])
        self._pending: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        # (group, name) -> counter name -> value
        self.counters: dict[tuple[str, str], dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._open: list[int] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target; raises if a target name no longer exists."""
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)  # AttributeError: target renamed
            setattr(module, attr, self._wrap(original, name, counter))
            self._patched.append((module, attr, original))

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin(self) -> int:
        self._open.append(0)
        return time.perf_counter_ns()

    def end(self, name: str, start: int) -> int:
        elapsed = time.perf_counter_ns() - start
        child = self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        record = self._pending[(self.group, name)]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - child
        return elapsed

    def commit(self, scale: float) -> None:
        """Add the spans recorded since the last commit, times `scale`."""
        for key, (calls, total, own) in self._pending.items():
            record = self.spans[key]
            record[0] += calls
            record[1] += total * scale
            record[2] += own * scale
        self._pending.clear()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            start = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(name, start)
            if counter is not None:
                counter(self.counters[(self.group, name)], result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def fired(self) -> set[str]:
        return {name for (_, name), record in self.spans.items() if record[0]}

    def _matching(self, table: dict, name: str, group_prefix: str):
        return (value for (group, span), value in table.items()
                if span == name and group.startswith(group_prefix))

    def total_s(self, name: str, group_prefix: str = "") -> float:
        return 1e-9 * sum(r[1] for r in self._matching(self.spans, name, group_prefix))

    def self_s(self, name: str, group_prefix: str = "") -> float:
        return 1e-9 * sum(r[2] for r in self._matching(self.spans, name, group_prefix))

    def calls(self, name: str, group_prefix: str = "") -> int:
        return sum(r[0] for r in self._matching(self.spans, name, group_prefix))

    def count(self, name: str, key: str, group_prefix: str = "") -> int:
        return sum(c[key] for c in self._matching(self.counters, name, group_prefix))
