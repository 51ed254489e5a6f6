"""Smoke test of the benchmark: one short cycle per workload and trace mode.

    python3 perfbench/smoke.py

Run from the root of a checkout. Asserts that every metric BENCHMARK.json
names is printed with its unit, that no operation failed, and that the
benchmark refuses to run in a directory without the program's sources.
Takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def run(spec: dict, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    argv = spec["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run(spec, workload, trace, root)
            assert done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
                f"{workload} trace {trace}: error_ratio is not 0\n{done.stdout}")
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in wanted}, (
                f"{workload} trace {trace}: metrics {units} do not match BENCHMARK.json")
            print(f"ok {workload} trace {trace}: {result['attempted']} ops")

    # A directory holding only BENCHMARK.json and the benchmark.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as bare:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(root / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(spec, spec["workloads"][0]["name"], 0, Path(bare))
        assert done.returncode != 0 and not done.stdout.strip(), "ran without the program"
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
