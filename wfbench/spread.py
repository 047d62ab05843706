"""Run one workload on ten consecutive seeds and summarise each metric.

    python3 wfbench/spread.py --workload corpus-q --first 0

Each run is a child process, run from the repository root as
``run.py --workload W --seed N --seconds S --trace 0``, with S the
``run_seconds`` of BENCHMARK.json.  Prints every run's result line, then one
JSON object: per end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first", type=int, default=0)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict = {}
    for seed in range(args.first, args.first + RUNS):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(child.stdout.splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        if not result["correct"]:
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(json.dumps({"workload": args.workload, "seeds": [args.first, args.first + RUNS - 1],
                      "seconds": seconds,
                      "metrics": {name: summary(v) for name, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
