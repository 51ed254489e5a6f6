"""Golden outputs of the CLI's help and of its refusals: each command's exit
code, stdout and stderr.

The manifest, golden_cli.json next to this file, maps each command line to
its exit code, the sha256 of its stdout and its stderr, as
golden_concepts.json does for `concepts`. It has two parts:

* "help": the `--help` of the parser and of each of the six commands, at
  80 columns. argparse lays help out differently from one Python version
  to the next, so this part is kept per version ("3.10", "3.11"), and a
  version with no entry skips it.
* "refusals": inputs that the commands refuse, at least one per command,
  each with exit code 1 and its one-line message. A line "a | b" runs b
  on a's output, as a shell pipe does; the last one pipes a context with
  more than context.MAX_CONCEPTS concepts into `concepts --count-only`.

A change that alters an output regenerates the manifest with

    PYTHONPATH=src python tests/test_golden_cli.py [PYTHON ...]

which rewrites the running version's help entries and the refusals, and
the help entries of each other interpreter PYTHON named (for example
python3.10), and keeps every other version's help entries. Another
interpreter runs each help line as `PYTHON -m randfca` in a subprocess,
so it needs no pytest. The change names every changed entry, and why it
changed, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from randfca.cli import main

MANIFEST = Path(__file__).with_name("golden_cli.json")
SRC = Path(__file__).resolve().parents[1] / "src"
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"

HELP = ["--help"] + [
    f"{command} --help" for command in ("gen", "concepts", "expect", "mc", "asymptotic", "verify")
]
REFUSALS = [
    "gen --n 5001 --p 0.5 --q 0.5 --seed 1",
    "gen --n 2 --p abc --q 0.5 --seed 1",
    "gen --n 2 --p 0.5 --q 0.5 --seed 1 --format json | concepts",
    "gen --n 40 --p 0.8 --q 0.5 --seed 1 | concepts --algo scan",
    "expect --n 2001 --p 0.5 --q 0.5",
    "expect --rational --n 2 --p 1e5000 --q 1/2",
    "mc --n 41 --p 0.5 --q 0.5 --samples 2 --seed 1",
    "mc --n 20 --p 0.5 --q 0.5 --samples 100001 --seed 1",
    "mc --n 2 --p 0.5 --q 0.5 --samples 2 --seed 1 --workers 0",
    "asymptotic --ns ,",
    "verify --max-n 6",
    "gen --n 60 --p 0.5 --q 0.9 --seed 1 | concepts --count-only",
]


def _run(line: str) -> dict:
    """One in-process run of `line` at 80 columns: exit code, stdout's
    sha256 and stderr of its last stage. Each stage reads the one before
    it from stdin, and must succeed for the next one to run."""
    stdin = b""
    for i, stage in enumerate(line.split(" | ")):
        if i:
            assert code == 0, (line, err.getvalue())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
            stack.enter_context(mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin))))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            try:
                code = main(stage.split())
            except SystemExit as exit:  # --help ends through argparse
                code = exit.code
        stdin = out.getvalue().encode("utf-8")
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdin).hexdigest(),
        "stderr": err.getvalue(),
    }


def _help_in(python: str) -> tuple[str, dict[str, dict]]:
    """The version of interpreter `python` and its help entries, each line
    run as `python -m randfca` in a subprocess at 80 columns."""
    env = dict(os.environ, COLUMNS="80", PYTHONIOENCODING="utf-8", PYTHONPATH=str(SRC))
    version = "import sys; print('%d.%d' % sys.version_info[:2])"
    entries = {}
    for line in HELP:
        done = subprocess.run([python, "-m", "randfca", *line.split()], capture_output=True, env=env)
        entries[line] = {
            "exit": done.returncode,
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
            "stderr": done.stderr.decode("utf-8"),
        }
    done = subprocess.run([python, "-c", version], capture_output=True, env=env, check=True)
    return done.stdout.decode().strip(), entries


@functools.cache
def _manifest() -> dict[str, dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_lists_every_command():
    assert list(_manifest()["refusals"]) == REFUSALS
    for entries in _manifest()["help"].values():
        assert list(entries) == HELP


@pytest.mark.parametrize("line", HELP)
def test_help_matches_the_manifest(line):
    if VERSION not in _manifest()["help"]:
        pytest.skip(f"no help entries pinned for Python {VERSION}")
    assert _run(line) == _manifest()["help"][VERSION][line]


def test_help_in_a_subprocess_matches_the_in_process_run():
    # The generator writes another interpreter's entries through _help_in;
    # in this interpreter it gives what _run gives.
    assert _help_in(sys.executable) == (VERSION, {line: _run(line) for line in HELP})


@pytest.mark.parametrize("line", REFUSALS)
def test_refusal_matches_the_manifest(line):
    outcome = _run(line)
    assert outcome["exit"] == 1 and outcome["stderr"].startswith("error: ")
    assert outcome == _manifest()["refusals"][line]


if __name__ == "__main__":
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {"help": {}}
    manifest["help"][VERSION] = {line: _run(line) for line in HELP}
    manifest["help"].update(_help_in(python) for python in sys.argv[1:])
    manifest["help"] = dict(sorted(manifest["help"].items()))
    manifest["refusals"] = {line: _run(line) for line in REFUSALS}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
