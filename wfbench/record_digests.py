"""Write digests.json: for each workload and each seed in SEEDS, the sha256
of the first round's outputs (dim, case and wire-format basis of every op).

    python3 wfbench/record_digests.py

Every output is checked first, and nothing is written if the checker
rejects one.  Rerun it only for a change that is meant to alter outputs.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEEDS = range(16)


def main() -> int:
    table: dict = {}
    for name in workloads.NAMES:
        for seed in SEEDS:
            r = run.set_up(name, seed)
            r.run_round(r.workload.first, [])
            run.reject(r)
            if r.outcomes.failed():
                print(f"{name} seed {seed}: {r.outcomes.failed()} outputs failed; "
                      f"nothing written", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = run.digest(r)
            print(f"{name} seed {seed}: {table[name][str(seed)]}")
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
