"""Golden digests of `concepts`: each command's exit code, stdout and stderr.

The manifest, golden_concepts.json next to this file, maps each command
line to its exit code, the sha256 of its stdout with the JSON envelope's
`wall_time_ms` set to 0, and its stderr. The inputs are contranomial(14)
and three `gen`-made contexts: sparse and wide, dense, and with more
objects than attributes; each is listed in text, `--json`, `--count-only`,
`--json --algo cbo`, and `--algo scan` where it has at most 20 objects.
The `gen` commands are entries too, so the inputs are pinned with the
outputs. A change that alters an output regenerates the manifest with

    PYTHONPATH=src python tests/test_golden_concepts.py

and names every changed entry, and why it changed, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from randfca import CxtDocument, contranomial, write_cxt
from randfca.cli import main

MANIFEST = Path(__file__).with_name("golden_concepts.json")

# Input file name -> the `gen` options that write it, or None for contranomial(14).
INPUTS = {
    "contranomial14.cxt": None,
    "sparse_wide.cxt": ("--n", "150", "--p", "0.15", "--q", "0.08", "--seed", "2"),  # 14 x 136
    "dense.cxt": ("--n", "44", "--p", "0.4", "--q", "0.9", "--seed", "4"),  # 14 x 30
    "tall.cxt": ("--n", "28", "--p", "0.65", "--q", "0.5", "--seed", "3"),  # 17 x 11
}
MODES = ((), ("--json",), ("--count-only",), ("--json", "--algo", "cbo"), ("--algo", "scan"))


def _commands() -> list[tuple[str, ...]]:
    """Every command line of the manifest, in its order; all four inputs
    have at most 20 objects, so each is also listed by closure-scan."""
    commands = [("gen", *options) for options in INPUTS.values() if options is not None]
    for name in INPUTS:
        commands += [("concepts", "--in", name, *mode) for mode in MODES]
    return commands


def _run(argv: tuple[str, ...]) -> dict:
    """One in-process run: exit code, masked stdout's sha256, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out.getvalue())
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
        "stderr": err.getvalue(),
    }


def _outcomes(workdir: Path) -> dict[str, dict]:
    """Write the inputs into workdir and run every command there, so that
    the `--in` values the JSON envelope echoes are the bare file names."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, options in INPUTS.items():
            if options is None:
                Path(name).write_text(write_cxt(CxtDocument(contranomial(14))), encoding="utf-8")
            else:
                assert main(["gen", *options, "--out", name]) == 0
        return {" ".join(argv): _run(argv) for argv in _commands()}
    finally:
        os.chdir(previous)


@pytest.fixture(scope="module")
def observed(tmp_path_factory) -> dict[str, dict]:
    return _outcomes(tmp_path_factory.mktemp("golden"))


@functools.cache
def _manifest() -> dict[str, dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_lists_every_command():
    assert list(_manifest()) == [" ".join(argv) for argv in _commands()]


@pytest.mark.parametrize("command", [" ".join(argv) for argv in _commands()])
def test_output_matches_the_manifest(observed, command):
    assert observed[command] == _manifest()[command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        manifest = _outcomes(Path(workdir))
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
