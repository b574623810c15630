#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the EM-CGM simulator.

Run from the repository root::

    python3 perfbench/run.py --workload sort_seq --seed 1 --seconds 20 --trace 0

One client drives the public API (``em_sort`` / ``em_permute``) in a closed
loop: one op at a time on the same generated inputs, because a simulation
job waits for its result.  Every op's output is checked against the numpy
reference and its logical ``IOStats`` against the warm-up op's (and, at the
default seed and size, against ``pinned.json``); a mismatch or an exception
counts as a failed op and the run goes on.

``--trace 0`` reports the end-to-end metrics with tracing off.  The host
is shared and its speed swings by up to 2x for minutes at a time, so a
fixed calibration kernel of the same kind of work runs between the timed
calls, and ``op_s`` and ``setup_s`` are median wall seconds divided by the
median slowness it shows (see :class:`Calibration`); the wall seconds are
printed beside them and kept in the result file.  ``--trace 1``
interleaves untraced, traced and ``InMemoryEngine`` ops and reports the
per-layer metrics of :mod:`layers` plus the trace overhead.  Human-readable
lines (host, seed, every metric with its unit, the failure ratio) come
first; the last line of standard output is the JSON result.  The result
with its per-op samples and host is also written to ``.perfbench/`` in the
repository root, together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 0
MIN_OPS = 3
SETUP_SAMPLES = 7
PINNED = Path(__file__).resolve().parent / "pinned.json"
#: names and units of the metrics each mode reports
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402


def py_loop(_keys) -> None:
    """Interpreter-bound work: small-int dict lookups and stores."""
    d: dict[int, int] = {}
    for i in range(500_000):
        d[i & 4095] = d.get((i * 7) & 4095, 0) + i


def np_sort(keys) -> None:
    """Numpy-bound work: the stable argsort the sorts spend their compute in."""
    np.argsort(keys, kind="stable")


#: calibration kernels and their seconds on a nominal (unloaded) host
KERNELS = {"py_loop": (py_loop, 0.080), "np_sort": (np_sort, 0.030)}


class Calibration:
    """The host's current slowness: 1.0 on a nominal host, 2.0 when the same
    work takes twice as long.

    Each call times the given kernels once on fixed inputs (independent of
    the seed and of the simulator) and returns the mean of their times over
    their nominal times.  A median time divided by the median slowness
    measured between the timed calls is that time on the nominal host; the
    kernels are chosen to do the kind of work the timed call is bound by.
    """

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self.kernels = [KERNELS[k] for k in kernels]
        self.keys = np.random.default_rng(0x5EED).integers(0, 1 << 62, 1 << 18)
        self()  # warm-up

    def __call__(self) -> float:
        total = 0.0
        for kernel, nominal in self.kernels:
            t0 = time.perf_counter()
            kernel(self.keys)
            total += (time.perf_counter() - t0) / nominal
        return total / len(self.kernels)


class Workload:
    """Inputs built from the seed, the op on them, and its reference."""

    #: default input size
    N = 0
    #: the calibration kernels that do the kind of work the op is bound by
    CALIBRATION: tuple[str, ...]

    def __init__(self, seed: int, n: int, scratch: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.n = n
        self.scratch = scratch

    def keys(self):
        info = np.iinfo(np.int64)
        return self.rng.integers(info.min, info.max, self.n, dtype=np.int64,
                                 endpoint=True)

    def run(self, engine: str, invoke):
        """One op; *invoke(fn, *args, **kwargs)* times exactly the em_* call."""
        raise NotImplementedError


class SortSeq(Workload):
    N = 1 << 21
    CALIBRATION = ("np_sort",)

    def __init__(self, seed, n, scratch) -> None:
        super().__init__(seed, n, scratch)
        from repro import MachineConfig

        self.data = self.keys()
        self.cfg = MachineConfig(N=n, v=8, D=2, B=16)
        self.expected = np.sort(self.data)

    def run(self, engine, invoke):
        from repro import em_sort

        return invoke(em_sort, self.data, self.cfg, engine=engine)


class PermuteFar(Workload):
    N = 1 << 20
    CALIBRATION = ("py_loop",)

    def __init__(self, seed, n, scratch) -> None:
        super().__init__(seed, n, scratch)
        from repro import MachineConfig

        self.values = self.keys()
        self.dest = self.rng.permutation(n)
        self.cfg = MachineConfig(N=n, v=8, D=2, B=16)
        self.expected = np.empty_like(self.values)
        self.expected[self.dest] = self.values

    def run(self, engine, invoke):
        from repro import em_permute

        return invoke(em_permute, self.values, self.dest, self.cfg, engine=engine)


class SortService(Workload):
    """A job-service sort: each op gets a fresh checkpoint manager and
    event bus, the way ``WorkerPool`` runs every job."""

    N = 1 << 20
    CALIBRATION = ("py_loop", "np_sort")

    def __init__(self, seed, n, scratch) -> None:
        super().__init__(seed, n, scratch)
        from repro import MachineConfig

        self.data = self.keys()
        self.cfg = MachineConfig(N=n, v=8, p=4, D=2, B=16, workers=2)
        self.expected = np.sort(self.data)
        self.ops = 0

    def run(self, engine, invoke):
        from repro import em_sort
        from repro.faults.checkpoint import CheckpointManager
        from repro.obs.bus import EventBus

        if engine == "memory":
            return invoke(em_sort, self.data, self.cfg, engine=engine)
        self.ops += 1
        ckpt = self.scratch / f"ckpt-{self.ops}"
        try:
            return invoke(em_sort, self.data, self.cfg, engine=engine,
                          checkpoint=CheckpointManager(str(ckpt), keep=2),
                          tracer=EventBus(monitor=False))
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)


WORKLOADS = {
    "sort_seq": (SortSeq, "seq"),
    "permute_far": (PermuteFar, "seq"),
    "sort_service": (SortService, "par"),
}


def logical(res) -> dict:
    """The exact logical counters of one EM op."""
    return {"io": res.report.io.as_dict(), "supersteps": res.report.supersteps,
            "rounds": res.report.rounds}


def host_info() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds fresh interpreters spend on ``import repro``, and the host
    slowness (interpreter-bound, as an import is) measured between them."""
    code = ("import time; t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    cal = Calibration(("py_loop",))
    samples, slowness = [], [cal()]
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             check=True, capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout.strip()))
        slowness.append(cal())
    return samples, slowness


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Runner:
    """Runs and checks ops; failures are counted, never raised."""

    def __init__(self, workload: Workload, io_ref: dict | None, corrupt=None) -> None:
        self.w = workload
        self.io_ref = io_ref
        #: test hook: maps (op number, output) to the output that is checked
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, engine: str, wrap=None, after=None) -> float | None:
        """One checked op -> its seconds, or None when it failed.

        *wrap(fn, *args, **kwargs)* calls the em_* function (the tracer's
        root frame); *after()* runs once the output has been checked, and
        an exception from it fails the op too.
        """
        self.attempted += 1
        elapsed = 0.0

        def invoke(fn, *args, **kwargs):
            nonlocal elapsed
            call = fn if wrap is None else (lambda *a, **k: wrap(fn, *a, **k))
            t0 = time.perf_counter()
            out = call(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            return out

        # the previous op's garbage must not be collected inside this one
        gc.collect()
        try:
            res = self.w.run(engine, invoke)
            values = res.values
            if self.corrupt is not None:
                values = self.corrupt(self.attempted, values)
            if not np.array_equal(values, self.w.expected):
                raise AssertionError("output differs from the numpy reference")
            if engine != "memory":
                got = logical(res)
                if self.io_ref is None:
                    self.io_ref = got
                elif got != self.io_ref:
                    raise AssertionError("logical IOStats differ from the reference op")
            if after is not None:
                after()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            self.failed += 1
            self.reasons.append(f"op {self.attempted} ({engine}): {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None
        return elapsed


def median_or_fail(samples: list[float], what: str) -> float:
    if not samples:
        raise SystemExit(f"error: no {what} op succeeded; nothing to report")
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n: int | None = None, corrupt=None) -> dict:
    """Run one benchmark; returns the result document."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"error: no simulator sources at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    # the benchmark measures the defaults: no REPRO_* knob from the caller
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    import repro  # noqa: F401

    cls, engine = WORKLOADS[name]
    size = n or cls.N
    scratch = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        w = cls(seed, size, scratch)
        io_ref = None
        if seed == DEFAULT_SEED and size == cls.N:
            io_ref = json.loads(PINNED.read_text())[name]
        runner = Runner(w, io_ref, corrupt)
        runner.op(engine)  # warm-up: caches, allocator, reference IOStats
        metrics: dict[str, float] = {}
        samples: dict[str, list] = {}
        raw: dict[str, tuple[float, str]] = {}
        start = time.perf_counter()
        if not trace:
            cal = Calibration(cls.CALIBRATION)
            times, slowness = [], [cal()]
            rounds = 0  # attempts, not successes: a failing program must not spin
            while rounds < MIN_OPS or time.perf_counter() - start < seconds:
                rounds += 1
                t = runner.op(engine)
                slowness.append(cal())
                if t is not None:
                    times.append(t)
            wall, slow = median_or_fail(times, "untraced"), statistics.median(slowness)
            # before any subprocess: a forked child starts with this RSS
            metrics["peak_rss_mb"] = peak_rss_mb()
            setup, setup_slowness = measure_setup()
            setup_wall, setup_slow = statistics.median(setup), statistics.median(setup_slowness)
            metrics["op_s"] = wall / slow
            metrics["setup_s"] = setup_wall / setup_slow
            raw.update(op_wall_s=(wall, "s"), host_slowness=(slow, "ratio"),
                       setup_wall_s=(setup_wall, "s"), setup_slowness=(setup_slow, "ratio"))
            samples.update(op_wall_s=times, host_slowness=slowness,
                           setup_wall_s=setup, setup_slowness=setup_slowness)
        else:
            tracer = layers.Tracer(scratch)
            plain, traced, memory, per_op = [], [], [], []
            spans = []

            def collect() -> None:
                totals = tracer.collect_op()
                per_op.append(layers.layer_metrics(totals))
                spans.append(totals["spans"])

            rounds = 0
            while rounds < MIN_OPS or time.perf_counter() - start < seconds:
                rounds += 1
                t = runner.op(engine)
                if t is not None:
                    plain.append(t)
                tracer.install()
                tracer.begin_op()
                try:
                    t = runner.op(engine, wrap=tracer.root, after=collect)
                finally:
                    tracer.uninstall()
                if t is not None:
                    traced.append(t)
                t = runner.op("memory")
                if t is not None:
                    memory.append(t)
            base = median_or_fail(plain, "untraced")
            for key in per_op[0] if per_op else ():
                metrics[key] = statistics.median(op[key] for op in per_op)
            metrics["memory_engine_ratio"] = median_or_fail(memory, "memory") / base
            metrics["trace.overhead_ratio"] = median_or_fail(traced, "traced") / base
            metrics["pdm.parallel_ios"] = runner.io_ref["io"]["parallel_ios"]
            metrics["cgm.supersteps"] = runner.io_ref["supersteps"]
            samples.update(untraced_s=plain, traced_s=traced, memory_s=memory,
                           layers=per_op)
            write_spans(OUT / f"spans-{name}-seed{seed}.jsonl", spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    wanted = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    if sorted(m["name"] for m in wanted) != sorted(metrics):
        raise SystemExit(f"error: measured {sorted(metrics)} but {SPEC.name} names "
                         f"{sorted(m['name'] for m in wanted)}")
    return {
        "workload": name, "seed": seed, "n": size, "trace": int(trace),
        "host": host_info(), "seconds": seconds,
        "attempted": runner.attempted, "failed": runner.failed,
        "failures": runner.reasons,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "samples": samples,
    }


def write_spans(path: Path, per_op: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(per_op):
            for pid, tid, thread, fn, layer, t0, t1, depth in spans:
                fh.write(json.dumps({
                    "op": k, "pid": pid, "tid": tid, "thread": thread, "fn": fn,
                    "layer": layer, "start_ns": t0, "end_ns": t1, "depth": depth,
                }) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="input size (default: the workload's own)")
    args = ap.parse_args(argv)
    doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.n)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1))
    h = doc["host"]
    print(f"host: nproc={h['nproc']} cpu={h['cpu']!r} python={h['python']} "
          f"numpy={h['numpy']}")
    print(f"workload={doc['workload']} seed={doc['seed']} n={doc['n']} "
          f"trace={doc['trace']} seconds={doc['seconds']}")
    for name, m in [*doc["metrics"].items(), *doc["raw"].items()]:
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    ratio = doc["failed"] / doc["attempted"]
    print(f"  {'fail_ratio':34s} {ratio:.6g} ratio "
          f"({doc['failed']} failed / {doc['attempted']} attempted)")
    for reason in doc["failures"]:
        print(f"  failed: {reason}")
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
