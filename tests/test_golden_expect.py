"""Golden digests of `expect`, `asymptotic` and `verify`: each command's
exit code, stdout and stderr.

The manifest, golden_expect.json next to this file, maps each command line
to its exit code, the sha256 of its stdout with the JSON envelope's
`wall_time_ms` set to 0, and its stderr, as golden_concepts.json does for
`concepts`. It pins every float `expect` op of the benchmark (n = 40, 60
and 80 at four (p, q) points), the benchmark's two `--rational` ops and
the one at n = 128, each in text and `--json`; `asymptotic` in both
formats; and `verify --max-n 4 --json`. The float outputs depend on the
last bits of libm's lgamma, log1p and exp, so they are pinned on glibc, the
libm CI runs on, and the test is skipped on any other C library. A change
that alters an output regenerates the manifest with

    PYTHONPATH=src python tests/test_golden_expect.py

and names every changed entry, and why it changed, in CHANGES.md.
"""

from __future__ import annotations

import functools
import json
import platform
from pathlib import Path

import pytest

from test_golden_concepts import _run

MANIFEST = Path(__file__).with_name("golden_expect.json")

FLOAT_NS = ("40", "60", "80")
FLOAT_PQ = (("0.5", "0.5"), ("0.1", "0.9"), ("0.9", "0.1"), ("0.5", "1"))
RATIONAL = (("32", "1/2", "1/2"), ("40", "1/3", "2/5"), ("128", "1/3", "2/5"))

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="float outputs are pinned on glibc's libm"
)


def _commands() -> list[tuple[str, ...]]:
    """Every command line of the manifest, in its order."""
    commands = []
    for n in FLOAT_NS:
        for p, q in FLOAT_PQ:
            expect = ("expect", "--n", n, "--p", p, "--q", q)
            commands += [expect, ("expect", "--json", *expect[1:])]
    for n, p, q in RATIONAL:
        expect = ("expect", "--rational", "--n", n, "--p", p, "--q", q)
        commands += [expect, ("expect", "--json", *expect[1:])]
    commands += [("asymptotic",), ("asymptotic", "--json"), ("verify", "--max-n", "4", "--json")]
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
