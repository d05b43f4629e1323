"""Tests of the benchmark itself.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run_min(name, tracer=None):
    if tracer:
        tracer.install()
    try:
        ops = workloads.build(name, seed=3, size="min")
        return workloads.execute(ops, workloads.load_digests(name), tracer)
    finally:
        if tracer:
            tracer.uninstall()


@pytest.mark.parametrize("name", WORKLOADS)
def test_digests_identical_with_tracing_on_and_off(name):
    plain = _run_min(name)
    traced = _run_min(name, spans.Tracer("test"))
    assert [(r.key, r.digest) for r in plain] == [(r.key, r.digest) for r in traced]
    assert all(r.problem is None for r in plain + traced)


def test_traced_run_leaves_library_classes_unchanged():
    classes = {layer[1] for layer in spans.LAYERS}
    before = {cls: dict(vars(cls)) for cls in classes}
    tracer = spans.Tracer("test")
    _run_min("cellular", tracer)
    for cls in classes:
        after = dict(vars(cls))
        assert after.keys() == before[cls].keys()
        assert all(after[k] is before[cls][k] for k in after), cls.__name__
    assert tracer.metrics()["hecke.mul.calls"] > 0


def test_execute_times_reference_loop_and_restores_sigalrm():
    def spin():
        end = time.perf_counter() + 3.5 * workloads.TICK_S
        while time.perf_counter() < end:
            pass
        return "done"

    op = workloads.Op(lambda: "spin", spin, lambda out: (out, None))
    before = signal.getsignal(signal.SIGALRM)
    [record] = workloads.execute([op], {"spin": workloads.digest("done")})
    assert record.problem is None
    assert record.ref_seconds > 0
    # Three or so in-operation reference loops were taken out of its time.
    assert 3.0 * workloads.TICK_S < record.seconds < 3.5 * workloads.TICK_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _bench(args, cwd=ROOT):
    cmd = [sys.executable, *BENCHMARK["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", WORKLOADS)
def test_min_run_has_no_failed_ops(name):
    proc = _bench(["--workload", name, "--seed", "5", "--seconds", "0",
                   "--trace", "0", "--size", "min"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["correct"] and result["attempted"] > 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert "failed_ops" in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench(["--workload", "decompose", "--seed", "5", "--seconds", "0",
                   "--trace", "1", "--size", "min"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    header, arrays = spans.read_spans(ROOT / ".bench_out" / "spans-decompose-min.bin")
    assert header["names"][0] == spans.OP_SPAN
    assert len(arrays["start"]) == header["spans"] > 0
    assert all(e >= s for s, e in zip(arrays["start"], arrays["end"]))


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
