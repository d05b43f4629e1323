"""Record the output digest of every input of every workload.

    python3 bench/record_digests.py

Runs each workload's operations at both sizes, checks every output
with the workload's own invariants, and rewrites bench/digests.json.  Run
it only on a commit whose outputs are known to be right: the benchmark
counts any later difference as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    table = {}
    for name in workloads.SIZES:
        digests = table[name] = {}
        for size in ("full", "min"):
            for unit in workloads.population(name, size):
                for op in unit:
                    canon, problem = op.check(op.run())
                    key = op.key()
                    if problem:
                        raise SystemExit(f"{name} {key}: {problem}")
                    digests[key] = workloads.digest(canon)
        print(f"{name}: {len(digests)} inputs", file=sys.stderr)
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
