"""One benchmark pass in a fresh interpreter: set up, run, check, report.

Started by run.py, never imported.  Prints one JSON object as its last line
of standard output.  Times are CLOCK_MONOTONIC readings, which run.py can
subtract from its own readings because both processes share the clock.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--spans", help="trace, and write the spans to this file")
    args = parser.parse_args()

    sys.path[:0] = [str(SRC), str(HERE)]
    from reference import calibrate

    ref_start = calibrate()
    import heckecell

    if Path(heckecell.__file__).resolve().parent != SRC / "heckecell":
        raise SystemExit(f"imported heckecell from {heckecell.__file__}, not from {SRC}")

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-{args.size}")
        tracer.install()
    import workloads

    try:
        digests = workloads.load_digests(args.workload)
        ops = workloads.build(args.workload, args.seed, args.size)
        t0 = time.monotonic()
        records = workloads.execute(ops, digests, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    result = {
        "first_op": t0,
        # Reference loop time over set-up: the runs at start and around the first operation.
        "setup_ref_s": (ref_start + records[0].ref_seconds) / 2 if records else ref_start,
        # Seconds as measured, without the reference loops between operations.
        "solve_s": sum(r.seconds for r in records),
        "cpu_s": sum(r.cpu_seconds for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [[r.key, r.digest, r.problem] for r in records],
        "op_s": [r.seconds for r in records],
        "op_cpu_s": [r.cpu_seconds for r in records],
        "op_ref_s": [r.ref_seconds for r in records],
    }
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
