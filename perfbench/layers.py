"""Per-layer tracing for the perfbench benchmark.

The benchmark measures the simulator from outside.  :meth:`Tracer.install`
wraps the public functions of each ``repro`` layer listed in
:data:`TARGETS` (no file under ``src/`` changes) and
:meth:`Tracer.uninstall` puts the originals back, so untraced ops run the
unmodified code.

Accounting.  Every wrapped call pushes a frame on a per-thread stack.  On
return, the call's duration minus the time of wrapped calls made inside it
*on the same thread* is added to its layer's self time, and the whole
duration is added to the parent frame's child time.  Self time is therefore
the span minus its children on the same thread: the prefetch thread's
``try_gather`` -> ``TrackArena.gather`` calls are never subtracted from an
engine-thread span.  Calls on the hot per-block entry points (``hot=True``)
only update a count and the accumulated timers; every other call is also
kept in memory as a span ``(function, layer, start_ns, end_ns, depth)`` of
its thread, and the spans are written out when the benchmark ends.

Forked workers inherit the installed wrappers.  The wrapper around
``run_worker_session`` drops the state inherited from the parent when a
worker starts and dumps the worker's accumulators and spans to a file when
the session returns; the parent folds those files into the op.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

_now = time.perf_counter_ns

#: layer of the op's root frame: its self time is the op wall minus every
#: top-level layer span on the engine thread (``cgm.engine.self_s``).
ROOT_LAYER = "cgm.engine"


# -- counters taken at the wrapped boundaries --------------------------------
# Each takes (counts, args, kwargs, result, nested, pre); *nested* is true
# when the caller is a wrapped call of the same layer (so a block moved by
# TrackArena.scatter -> put is counted once), *pre* is the ``before`` hook's
# value.


def _one(key: str) -> Callable:
    def count(counts, args, kwargs, result, nested, pre) -> None:
        counts[key] += 1

    return count


def _serialized(counts, args, kwargs, result, nested, pre) -> None:
    counts["util.items.bytes"] += len(result)


def _deserialized(counts, args, kwargs, result, nested, pre) -> None:
    counts["util.items.bytes"] += len(args[0])


def _arena_rows(counts, args, kwargs, result, nested, pre) -> None:
    if not nested:
        counts["pdm.arena.blocks"] += len(args[1])


def _arena_gather(counts, args, kwargs, result, nested, pre) -> None:
    counts["pdm.arena.gathers"] += 1
    if result:
        counts["pdm.arena.gather_hits"] += 1
        counts["pdm.arena.blocks"] += len(args[1])


def _arena_block(counts, args, kwargs, result, nested, pre) -> None:
    if not nested:
        counts["pdm.arena.blocks"] += 1


def _record(counts, args, kwargs, result, nested, pre) -> None:
    counts["pdm.io_stats.blocks"] += args[1] + args[2]


def _record_batch(counts, args, kwargs, result, nested, pre) -> None:
    counts["pdm.io_stats.blocks"] += kwargs["n_read"] + kwargs["n_written"]


def _reader_hits(args) -> int:
    return args[0].hits


def _pipeline_get(counts, args, kwargs, result, nested, pre) -> None:
    counts["pdm.pipeline.gets"] += 1
    counts["pdm.pipeline.hits"] += args[0].hits - pre


def _fleet_start(counts, args, kwargs, result, nested, pre) -> None:
    counts["core.workers.sessions"] += args[0].n_workers


def _exchange(counts, args, kwargs, result, nested, pre) -> None:
    outgoing = args[1]
    counts["core.transport.packets"] += len(outgoing)
    nbytes = 0
    for items in outgoing.values():
        for _src, bundle in items:
            payload = bundle[2]
            size = getattr(payload, "nbytes", None)
            nbytes += size if size is not None else sum(len(b) for b in payload)
    counts["core.transport.bytes"] += nbytes


def _checkpoint(counts, args, kwargs, result, nested, pre) -> None:
    counts["faults.checkpoint.bytes"] += os.path.getsize(result)


@dataclass(frozen=True)
class Target:
    """Functions of one owner (a class, or the module when ``owner`` is
    None) wrapped as one layer."""

    module: str
    owner: str | None
    names: tuple[str, ...]
    layer: str
    count: Callable | None = None
    hot: bool = False
    before: Callable | None = None


TARGETS = (
    Target("repro.algorithms.sorting", "SampleSort", ("setup", "round", "finish"),
           "algorithms", _one("algorithms.calls")),
    Target("repro.algorithms.permutation", "CGMPermute", ("setup", "round", "finish"),
           "algorithms", _one("algorithms.calls")),
    Target("repro.util.items", None, ("serialize",), "util.items", _serialized),
    Target("repro.util.items", None, ("deserialize",), "util.items", _deserialized),
    Target("repro.core.layouts", None,
           ("consecutive_addresses", "consecutive_addresses_np"), "core.layouts"),
    Target("repro.core.layouts", "MessageMatrix",
           ("message_addresses", "message_addresses_np",
            "inbox_addresses", "inbox_addresses_np"), "core.layouts"),
    Target("repro.core.layouts", "RegionAllocator", ("alloc", "free"), "core.layouts"),
    # finish_read is wrapped too, so that pdm.pipeline.wait_s is the wait
    # in DoubleBufferedReader.get and not the accounting after it
    Target("repro.pdm.disk_array", "DiskArray",
           ("read_run", "write_stream", "read_blocks", "write_blocks", "finish_read"),
           "pdm.disk_array"),
    Target("repro.pdm.disk_array", "DiskArray", ("parallel_io",), "pdm.disk_array",
           _one("pdm.disk_array.parallel_io_calls"), hot=True),
    Target("repro.pdm.arena", "TrackArena", ("scatter",), "pdm.arena", _arena_rows),
    Target("repro.pdm.arena", "TrackArena", ("gather",), "pdm.arena", _arena_gather),
    Target("repro.pdm.arena", "TrackArena", ("put", "get"), "pdm.arena",
           _arena_block, hot=True),
    Target("repro.pdm.disk_array", None, ("greedy_batch_widths",), "pdm.io_stats"),
    Target("repro.pdm.io_stats", "IOStats", ("record",), "pdm.io_stats", _record, hot=True),
    Target("repro.pdm.io_stats", "IOStats", ("record_batch",), "pdm.io_stats",
           _record_batch),
    Target("repro.pdm.pipeline", "DoubleBufferedReader", ("get",), "pdm.pipeline",
           _pipeline_get, before=_reader_hits),
    Target("repro.core.workers", "LocalFleet", ("start",), "core.workers", _fleet_start),
    Target("repro.core.workers", "LocalFleet", ("result",), "core.workers"),
    Target("repro.core.transport.base", "Transport", ("exchange",), "core.transport",
           _exchange),
    Target("repro.faults.checkpoint", "CheckpointManager", ("save",),
           "faults.checkpoint", _checkpoint),
    Target("repro.obs.bus", "EventBus", ("emit",), "obs.bus", _one("obs.bus.events")),
)


class _ThreadState:
    """Accumulators and spans of one thread; only that thread writes them."""

    __slots__ = ("tid", "thread", "stack", "self_ns", "fn_ns", "counts", "spans")

    def __init__(self) -> None:
        self.tid = threading.get_ident()
        self.thread = threading.current_thread().name
        self.stack: list[list] = []
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.fn_ns: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []


def empty_totals() -> dict[str, Any]:
    return {"self_ns": defaultdict(int), "fn_ns": defaultdict(int),
            "counts": defaultdict(int), "spans": []}


def merge_totals(into: dict[str, Any], part: dict[str, Any]) -> None:
    for key in ("self_ns", "fn_ns", "counts"):
        for name, value in part[key].items():
            into[key][name] += value
    into["spans"].extend(part["spans"])


class Tracer:
    """Installs the layer wrappers and owns their per-thread state."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = dump_dir
        self._saved: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Drop every accumulator and span (start of an op or a worker)."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
            return st

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn: Callable, qualname: str, target: Target) -> Callable:
        tracer, layer, hot = self, target.layer, target.hot
        count, before = target.count, target.before

        def wrapped(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            nested = bool(stack) and stack[-1][0] == layer
            pre = before(args) if before is not None else None
            frame = [layer, 0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                dur = t1 - t0
                st.self_ns[layer] += dur - frame[1]
                st.fn_ns[qualname] += dur
                if stack:
                    stack[-1][1] += dur
                if not hot:
                    st.spans.append((qualname, layer, t0, t1, len(stack)))
            if count is not None:
                count(st.counts, args, kwargs, result, nested, pre)
            return result

        return wrapped

    def root(self, fn: Callable, *args, **kwargs):
        """Call *fn* inside the op's root frame on the calling thread."""
        return self._wrap(fn, "op", Target("", None, (), ROOT_LAYER))(*args, **kwargs)

    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every target; a function bound by name in other repro
        modules (``from repro.util.items import serialize``) is re-bound
        there too.  Raises if a target no longer exists."""
        if self._saved:
            raise RuntimeError("layer wrappers already installed")
        for t in TARGETS:
            mod = importlib.import_module(t.module)
            owner = mod if t.owner is None else getattr(mod, t.owner)
            for name in t.names:
                orig = owner.__dict__[name]
                qualname = name if t.owner is None else f"{t.owner}.{name}"
                new = self._wrap(orig, qualname, t)
                if t.owner is not None:
                    self._patch(owner, name, new)
                    continue
                for m in list(sys.modules.values()):
                    if (getattr(m, "__name__", "").startswith("repro")
                            and m.__dict__.get(name) is orig):
                        self._patch(m, name, new)
        workers = importlib.import_module("repro.core.workers")
        self._patch(workers, "run_worker_session",
                    self._session(workers.run_worker_session))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    def _session(self, fn: Callable) -> Callable:
        tracer = self

        def run_worker_session(*args, **kwargs):
            # runs in a forked worker: drop the parent's inherited frames
            tracer.reset()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.dump_worker()

        return run_worker_session

    # -- collection -------------------------------------------------------

    def totals(self) -> dict[str, Any]:
        """This process's accumulators and spans, folded over threads."""
        out = empty_totals()
        pid = os.getpid()
        with self._lock:
            states = list(self._states)
        for st in states:
            merge_totals(out, {
                "self_ns": st.self_ns, "fn_ns": st.fn_ns, "counts": st.counts,
                "spans": [(pid, st.tid, st.thread) + s for s in st.spans],
            })
        return out

    def dump_worker(self) -> None:
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.totals()))
        os.replace(tmp, path)

    def begin_op(self) -> None:
        """Start a traced op: no state or worker dump of an earlier one."""
        self.reset()
        for path in self.dump_dir.glob("worker-*.json"):
            path.unlink()

    def collect_op(self) -> dict[str, Any]:
        """Fold this process and every worker dump of the finished op;
        raises when a worker session that started did not report."""
        out = self.totals()
        dumps = sorted(self.dump_dir.glob("worker-*.json"))
        for path in dumps:
            merge_totals(out, json.loads(path.read_text()))
            path.unlink()
        expected = out["counts"]["core.workers.sessions"]
        if len(dumps) != expected:
            raise RuntimeError(
                f"{expected} worker sessions started but {len(dumps)} reported spans"
            )
        return out


def layer_metrics(t: dict[str, Any]) -> dict[str, float]:
    """Per-layer metric values of one traced op from its folded totals."""
    self_ns, fn_ns, counts = t["self_ns"], t["fn_ns"], t["counts"]

    def s(layer: str) -> float:
        return self_ns[layer] / 1e9

    def ratio(num: float, den: float) -> float:
        # a layer that did no work reports 0, not an undefined ratio
        return num / den if den else 0.0

    return {
        "algorithms.self_s": s("algorithms"),
        "algorithms.calls": counts["algorithms.calls"],
        "util.items.self_s": s("util.items"),
        "util.items.bytes": counts["util.items.bytes"],
        "util.items.ns_per_byte": ratio(self_ns["util.items"], counts["util.items.bytes"]),
        "core.layouts.self_s": s("core.layouts"),
        "pdm.disk_array.self_s": s("pdm.disk_array"),
        "pdm.disk_array.parallel_io_calls": counts["pdm.disk_array.parallel_io_calls"],
        "pdm.arena.self_s": s("pdm.arena"),
        "pdm.arena.blocks": counts["pdm.arena.blocks"],
        "pdm.arena.gather_hit_ratio": ratio(counts["pdm.arena.gather_hits"],
                                            counts["pdm.arena.gathers"]),
        "pdm.io_stats.self_s": s("pdm.io_stats"),
        "pdm.io_stats.ns_per_block": ratio(self_ns["pdm.io_stats"],
                                           counts["pdm.io_stats.blocks"]),
        "pdm.pipeline.wait_s": s("pdm.pipeline"),
        "pdm.pipeline.hit_ratio": ratio(counts["pdm.pipeline.hits"],
                                        counts["pdm.pipeline.gets"]),
        "core.workers.start_s": fn_ns["LocalFleet.start"] / 1e9,
        "core.workers.wait_s": fn_ns["LocalFleet.result"] / 1e9,
        "core.transport.self_s": s("core.transport"),
        "core.transport.packets": counts["core.transport.packets"],
        "core.transport.bytes": counts["core.transport.bytes"],
        "faults.checkpoint.self_s": s("faults.checkpoint"),
        "faults.checkpoint.bytes": counts["faults.checkpoint.bytes"],
        "obs.bus.self_s": s("obs.bus"),
        "obs.bus.events": counts["obs.bus.events"],
        "cgm.engine.self_s": s(ROOT_LAYER),
    }
