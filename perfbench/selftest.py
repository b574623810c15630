#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` names the benchmark's workloads and
that self time subtracts only same-thread children, runs every workload at a small N with and without tracing and checks that
each named metric is printed with its unit, shows that a deliberately
wrong output is counted as a failed op, and that the benchmark refuses to
run without the simulator sources.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL_N = 1 << 14

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import run  # noqa: E402


def check_manifest() -> None:
    doc = json.loads(run.SPEC.read_text())
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)


def check_printed(workload: str, trace: int) -> None:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--n", str(SMALL_N)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = out.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert doc["correct"] is True and doc["failed"] == 0, doc
    wanted = json.loads(run.SPEC.read_text())["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in wanted], workload
    for m in wanted:
        name, unit = m["name"], m["unit"]
        assert doc["metrics"][name]["unit"] == unit, name
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines[:-1]), f"{name} not printed with {unit}"
    raw = ["fail_ratio"] + ([] if trace else
                           ["op_wall_s", "host_slowness", "setup_wall_s", "setup_slowness"])
    for name in raw:
        assert any(line.split()[:1] == [name] for line in lines[:-1]), name


def check_self_time() -> None:
    """A span's self time excludes its same-thread children only: a call
    running meanwhile on another thread is not subtracted."""
    tracer = layers.Tracer(run.OUT)
    inner = tracer._wrap(lambda: time.sleep(0.03), "inner",
                         layers.Target("", None, (), "inner"))

    def body() -> None:
        other = threading.Thread(target=inner)
        other.start()
        time.sleep(0.02)
        inner()
        other.join(timeout=5)
        assert not other.is_alive()

    tracer._wrap(body, "outer", layers.Target("", None, (), "outer"))()
    t = tracer.totals()
    assert t["self_ns"]["outer"] >= 0.02e9, t["self_ns"]
    assert t["self_ns"]["inner"] >= 0.06e9, t["self_ns"]
    assert len({span[1] for span in t["spans"] if span[3] == "inner"}) == 2


def check_wrong_output_counted() -> None:
    def corrupt(k: int, values):
        if k % 2:
            return values
        values = values.copy()
        values[0] += 1
        return values

    doc = run.run_workload("sort_seq", seed=1, seconds=0.0, trace=False,
                           n=SMALL_N, corrupt=corrupt)
    # ops 1..attempted; every even-numbered one was corrupted
    assert doc["failed"] == doc["attempted"] // 2 > 0, doc
    assert all("numpy reference" in r for r in doc["failures"]), doc["failures"]


def check_refuses_without_sources() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sort_seq",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and '"metrics"' not in out.stdout, out


def main() -> int:
    check_manifest()
    check_self_time()
    print("ok: self time subtracts same-thread children only")
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            check_printed(workload, trace)
            print(f"ok: {workload} trace={trace} prints every metric with its unit")
    check_wrong_output_counted()
    print("ok: a wrong output is counted as a failed op")
    check_refuses_without_sources()
    print("ok: refuses to run without the simulator sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
