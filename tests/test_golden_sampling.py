"""Golden digests of `gen` and `mc`: each command's exit code, stdout and stderr.

The manifest, golden_sampling.json next to this file, maps each command
line to its exit code, the sha256 of its stdout with the JSON envelope's
`wall_time_ms` set to 0, and its stderr, as golden_concepts.json does for
`concepts`. It pins `gen` at n = 1, 20 and 40 in both formats, and
`mc --json --compare-exact` at the benchmark's three (n, q) points, 200
samples each, at one worker and at two (forked) workers. A change that
alters an output regenerates the manifest with

    PYTHONPATH=src python tests/test_golden_sampling.py

and names every changed entry, and why it changed, in CHANGES.md.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from test_golden_concepts import _run

MANIFEST = Path(__file__).with_name("golden_sampling.json")

GEN = (("1", "0.5", "0.5"), ("20", "0.5", "0.5"), ("40", "0.5", "0.9"))
MC_POINTS = (("20", "0.5"), ("40", "0.1"), ("40", "0.9"))


def _commands() -> list[tuple[str, ...]]:
    """Every command line of the manifest, in its order."""
    commands = []
    for n, p, q in GEN:
        gen = ("gen", "--n", n, "--p", p, "--q", q, "--seed", "31")
        commands += [gen, (*gen, "--format", "json")]
    for n, q in MC_POINTS:
        mc = ("mc", "--json", "--compare-exact", "--n", n, "--p", "0.5", "--q", q)
        commands += [(*mc, "--samples", "200", "--seed", "8", "--workers", w) for w in ("1", "2")]
    return commands


@functools.cache
def _manifest() -> dict[str, dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_lists_every_command():
    assert list(_manifest()) == [" ".join(argv) for argv in _commands()]


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_output_matches_the_manifest(argv):
    assert _run(argv) == _manifest()[" ".join(argv)]


if __name__ == "__main__":
    manifest = {" ".join(argv): _run(argv) for argv in _commands()}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
