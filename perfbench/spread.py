#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workload protocol --runs 10 [--seconds 20] [--first-seed 1]

Runs run.py once per seed, one run after another, and prints for every
metric the median of the runs and the spread, the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median.  The spread of each metric must stay well inside its bound in
BENCHMARK.json for a comparison of two commits to mean anything.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    machine = None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        )
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        machine = machine or next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("machine "))
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: {result['failed']} of {result['attempted']} experiments failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
    summary = {name: {"median": statistics.median(v), "spread": spread(v), "runs": len(v)}
               for name, v in values.items()}
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "machine": machine,
                      "metrics": summary}))


if __name__ == "__main__":
    main()
