"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads expect,concepts,mc --seeds 1-10 \
        [--trace 0] [--append perfbench/trajectory.json --label "..."]

For every workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, and flags an
end-to-end metric whose spread exceeds a third of its bound in
BENCHMARK.json. With --append the summary is added to a trajectory file,
together with the machine it ran on. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", default=None, help="trajectory JSON file to append to")
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    command = spec["command"]
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = 0
        for seed in seeds_from(args.seeds):
            argv = command + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(argv, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary[workload] = {"failed": failed, "metrics": {}}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload]["metrics"][name] = {
                "unit": units[name], "runs": len(series), "median": median,
                "q1": q1, "q3": q3, "spread": spread,
            }
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = f"  SPREAD ABOVE {bounds[name] / 3:.3f}"
                ok = False
            print(f"  {workload:9s} {name:36s} median {median:.6g} {units[name]}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}{flag}")
    if args.append:
        path = Path(args.append)
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append({
            "label": args.label,
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "cpu": cpu_model()},
            "run_seconds": spec["run_seconds"],
            "seeds": seeds_from(args.seeds),
            "trace": args.trace,
            "workloads": summary,
        })
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
