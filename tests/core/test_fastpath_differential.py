"""Differential testing: the batched path vs per-op service, whole programs.

A clean run moves every stream through the arena in batches
(``write_stream``/``read_run``).  The same run under an *empty* fault plan
services every block through per-op ``parallel_io`` and
``IOStats.record`` instead, because a fault-injected array draws its
faults access by access.  The two must agree exactly: same outputs, same
logical ``IOStats``, same trace *event streams* (modulo wall-clock tags
and physical events), on every engine, in balanced and direct routing.

Hypothesis drives the workload shape (seed, size) with a small example
budget — each example runs full simulations on both paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm.config import MachineConfig
from repro.em.runner import em_permute, em_sort, em_transpose
from repro.faults.injector import FaultyDiskArray
from repro.faults.plan import FaultPlan
from repro.obs.bench_store import measured_from_report
from repro.obs.trace import JsonlRecorder
from repro.pdm.disk_array import DiskArray

#: tags that legitimately differ between two runs (timing, filesystem)
#: "seq" joined the fuzzy tags when physical kinds (below) appeared: the
#: batched path's extra physical events shift later sequence numbers,
#: while the *relative* order of logical events — what seq pinned — is
#: still asserted by the normalized list order.
_FUZZY_TAGS = ("seq", "ts", "wall_s", "path", "backoff_s")

#: *physical* event kinds describe how a backend serviced the logical
#: I/O (speculative prefetch batches, arena storage growth); a faulted
#: run never prefetches.  Like the fuzzy tags, they are excluded from the
#: identity comparison, which pins the *logical* event stream (same
#: precedent as io_fault in tests/core/test_workers.py).
_PHYSICAL_KINDS = ("prefetch", "arena_grow")


@pytest.fixture(autouse=True)
def _clean_baseline(monkeypatch):
    # the batched side must be a clean run even under the CI fault lane
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def _normalize(events):
    return [
        {k: v for k, v in ev.items() if k not in _FUZZY_TAGS}
        for ev in events
        if ev.get("kind") not in _PHYSICAL_KINDS
    ]


def _run_both(op, *args, seed: int = 0, **kw):
    """Run *op* clean and under an empty fault plan; returns
    (batched, per_op, batched_trace, per_op_trace)."""
    out = []
    for faults in (None, FaultPlan(seed=seed)):
        tracer = JsonlRecorder()
        res = op(*args, tracer=tracer, faults=faults, **kw)
        out.append((res, tracer.events))
    (fast, t_fast), (ref, t_ref) = out
    return fast, ref, t_fast, t_ref


def _assert_identical(fast, ref, t_fast, t_ref):
    assert np.array_equal(fast.values, ref.values)
    assert measured_from_report(fast.report) == measured_from_report(ref.report)
    assert fast.report.io.as_dict() == ref.report.io.as_dict()
    assert fast.report.io_max.as_dict() == ref.report.io_max.as_dict()
    assert _normalize(t_fast) == _normalize(t_ref)


@pytest.mark.parametrize("balanced", [False, True], ids=["direct", "balanced"])
@pytest.mark.parametrize("engine", ["seq", "par"])
class TestSortIdentity:
    @settings(max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=2**31), log_n=st.integers(min_value=10, max_value=12))
    def test_outputs_stats_traces_identical(self, engine, balanced, seed, log_n):
        n = 1 << log_n
        data = np.random.default_rng(seed).integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=4, p=2 if engine == "par" else 1, D=2, B=64)
        runs = _run_both(em_sort, data, cfg, seed=seed, engine=engine, balanced=balanced)
        _assert_identical(*runs)
        assert np.array_equal(runs[0].values, np.sort(data))


def test_transpose_identity_seq():
    mat = np.arange(64 * 64, dtype=np.int64).reshape(64, 64)
    cfg = MachineConfig(N=mat.size, v=4, D=2, B=64)
    fast, ref, t_fast, t_ref = _run_both(em_transpose, mat, cfg, engine="seq")
    _assert_identical(fast, ref, t_fast, t_ref)
    assert np.array_equal(fast.values, mat.T)


def test_permute_past_2_19_stays_on_the_batched_path(clean_io_probe):
    """Regression for the far-track cliff: at N=2^19 the message matrix
    reaches track 2^20, where an earlier arena diverted every far track
    to a side dict and each read fell back to one ``parallel_io`` call
    per batch.  The clean run must make no such call, and still match the
    per-op service of the same run exactly."""
    n = 1 << 19
    rng = np.random.default_rng(19)
    values = rng.integers(0, 2**50, n)
    dest = rng.permutation(n)
    cfg = MachineConfig(N=n, v=8, D=2, B=16)
    fast = em_permute(values, dest, cfg, engine="seq")
    assert clean_io_probe.arrays
    assert all(type(a) is DiskArray for a in clean_io_probe.arrays)
    assert clean_io_probe.calls == []

    clean_io_probe.arrays.clear()
    ref = em_permute(values, dest, cfg, engine="seq", faults=FaultPlan(seed=19))
    # the injector advances once per parallel I/O it services: every
    # logical I/O of the reference run went through per-op parallel_io
    [arr] = clean_io_probe.arrays
    assert isinstance(arr, FaultyDiskArray)
    assert arr.injector.op_index == ref.report.io.parallel_ios > 0

    expected = np.empty_like(values)
    expected[dest] = values
    assert np.array_equal(fast.values, expected)
    assert np.array_equal(fast.values, ref.values)
    assert fast.report.io.as_dict() == ref.report.io.as_dict()
    assert fast.report.io_max.as_dict() == ref.report.io_max.as_dict()


class TestProcessEngineIdentity:
    """The multi-core backend: small workloads, real subprocesses."""

    def test_sort_identical_with_workers(self):
        n = 1 << 12
        data = np.random.default_rng(7).integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=4, p=2, D=2, B=64, workers=2)
        _assert_identical(*_run_both(em_sort, data, cfg, seed=7, engine="par"))

    def test_fast_process_matches_reference_inprocess(self):
        """Cross-backend too: batched workers == per-op in-process run."""
        n = 1 << 12
        data = np.random.default_rng(8).integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=4, p=2, D=2, B=64)
        proc = em_sort(data, cfg.with_(workers=2), engine="par")
        inproc = em_sort(data, cfg, engine="par", faults=FaultPlan(seed=8))
        assert np.array_equal(proc.values, inproc.values)
        assert measured_from_report(proc.report) == measured_from_report(inproc.report)
