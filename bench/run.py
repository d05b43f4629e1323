"""Cold-process benchmark of heckecell.

    python3 bench/run.py --workload {kl-sweep,decompose,cellular} --seed N
                         --seconds S --trace {0,1} [--size {full,min}]

Runs the workload in fresh child interpreters, strictly one at a time,
until S seconds have passed (at least MIN_PASSES passes).  Every pass
repeats the same seeded operations, in the same order, from cold caches, so
operation i does the same work in every pass.  The end-to-end metrics are:

    solve_s      wall seconds from the first operation to the last verified
                 result: the sum over operations of each one's median
                 latency (checks included) over the passes
    cpu_s        user + system CPU seconds of the child over the operations,
                 summed the same way
    setup_s      median over passes of the seconds from starting the child
                 to its first operation
    peak_rss_mb  median over passes of the peak resident memory of the child

The three times are at the host's nominal speed: each is divided by the
time of the reference loop (reference.py) run next to it, and multiplied
by the loop's nominal time REF_S.  The host's speed drifts by up to 1.7x
for minutes at a time, and a median over the passes of one run does not
remove that.  The times as measured are printed on the text lines.
failed_ops, the share of operations that raised or gave a wrong output,
is printed with them.  With --trace 1 untraced and traced passes alternate,
and the per-layer metrics of the traced passes are reported instead,
together with the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("kl-sweep", "decompose", "cellular")
MIN_PASSES = 3
# A run never starts a pass that could end after this many seconds.
TIME_LIMIT_S = 150.0

END_TO_END = (("solve_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, size: str, spans_path, timeout: float) -> dict:
    """One child process; returns its report with setup_s filled in."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: never leave it running
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"child exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["first_op"] - start
    return report


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heckecell").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the enclosing git checkout, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = git / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "heckecell" / "__init__.py").is_file():
        print(f"no heckecell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One span file per workload: the latest traced pass overwrites it.
    spans_path = OUT / f"spans-{args.workload}-{args.size}.bin"

    started = time.monotonic()
    plain, traced = [], []
    try:
        while True:
            elapsed = time.monotonic() - started
            passes = len(plain) + len(traced)
            done = elapsed >= args.seconds and (
                len(traced) >= 1 if args.trace else len(plain) >= MIN_PASSES)
            last = max((p["wall_s"] for p in plain + traced), default=0.0)
            if done or (passes and elapsed + 2 * last > TIME_LIMIT_S):
                break
            use_trace = bool(args.trace) and len(plain) > len(traced)
            budget = TIME_LIMIT_S + 20 - elapsed
            t = time.monotonic()
            report = run_pass(args.workload, args.seed, args.size,
                              spans_path if use_trace else None, budget)
            report["wall_s"] = time.monotonic() - t
            (traced if use_trace else plain).append(report)
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    reports = plain + traced
    attempted = sum(len(r["ops"]) for r in reports)
    problems = [(i, op) for r in reports for i, op in enumerate(r["ops"]) if op[2]]
    # Every pass ran the same inputs, so every pass must give the same outputs.
    same = all(r["ops"] == reports[0]["ops"] for r in reports)
    for i, (key, _, problem) in problems[:20]:
        print(f"FAILED op {i} [{key}]: {problem}", file=sys.stderr)

    end_to_end = {
        "solve_s": {"value": nominal_sum(plain, "op_s"), "unit": "s"},
        "cpu_s": {"value": nominal_sum(plain, "op_cpu_s"), "unit": "s"},
        "setup_s": {"value": REF_S * statistics.median(r["setup_s"] / r["setup_ref_s"]
                                                       for r in plain), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                        "unit": "MB"},
    }
    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced),
                             "unit": _layer_unit(name)}
        # As measured, on the clock the spans use; the overhead at nominal speed.
        metrics["trace.solve_s"] = {
            "value": statistics.median(r["solve_s"] for r in traced), "unit": "s"}
        metrics["trace.untraced_solve_s"] = {
            "value": statistics.median(r["solve_s"] for r in plain), "unit": "s"}
        metrics["trace.overhead"] = {
            "value": nominal_sum(traced, "op_s") / end_to_end["solve_s"]["value"],
            "unit": "ratio"}
    else:
        metrics = end_to_end

    provenance = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "python": platform.python_version(),
        "cpus": os.cpu_count(), "commit": git_commit(), "source_sha256": source_digest(),
        "passes": len(plain), "traced_passes": len(traced),
        "ops_per_pass": len(reports[0]["ops"]),
    }
    for name, unit in END_TO_END:
        raw = (f" (as measured: median {statistics.median(r[name] for r in plain):.4f} {unit}"
               f" over {len(plain)} passes)" if unit == "s" else "")
        print(f"{name:12s} {end_to_end[name]['value']:.4f} {unit}{raw}")
    print(f"{'failed_ops':12s} {len(problems) / attempted:.4f} share "
          f"({len(problems)} of {attempted})")
    print(_latency_line(sorted(t for r in plain for t in r["op_s"])))
    print("provenance " + json.dumps(provenance))

    result = {
        "correct": not problems and same,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }
    record = dict(provenance, result=result,
                  passes_detail=[dict({k: r[k] for k in ("setup_s", "setup_ref_s", "solve_s",
                                                         "cpu_s", "peak_rss_mb")},
                                      nominal_solve_s=nominal_sum([r], "op_s")) for r in plain])
    with open(OUT / f"result-{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def nominal_sum(reports: list, key: str) -> float:
    """Sum over operations of each one's median time over the passes, every
    time taken at nominal host speed: divided by the reference loop time
    measured around that operation, times REF_S."""
    per_op = zip(*([t / ref for t, ref in zip(r[key], r["op_ref_s"])] for r in reports))
    return REF_S * sum(statistics.median(times) for times in per_op)


def _latency_line(op_s: list) -> str:
    """Median operation latency and the highest of p99.9/p99/p90 that has
    at least ten samples above it."""
    n = len(op_s)
    text = f"{'op_ms':12s} p50 {1000 * op_s[n // 2]:.3f}"
    for q in (0.999, 0.99, 0.9):
        if n * (1 - q) >= 10:
            text += f" p{100 * q:g} {1000 * op_s[int(q * n)]:.3f}"
            break
    return text + f" ms over {n} operations"


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_ms"):
        return "ms"
    if suffix == "hit_ratio":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
