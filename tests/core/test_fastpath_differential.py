"""Differential testing: fast path vs reference path, whole programs.

``REPRO_FASTPATH=0`` must be a pure implementation switch — same outputs,
same logical ``IOStats``, same trace *event streams* (modulo wall-clock
tags), on every engine, in balanced and direct routing, and under fault
injection (where the engine drops to the reference path internally but
must still behave identically whichever way the flag points).

Hypothesis drives the workload shape (seed, size) with a small example
budget — each example runs full simulations on both paths.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm.config import MachineConfig
from repro.em.runner import em_permute, em_sort, em_transpose
from repro.obs.bench_store import measured_from_report
from repro.obs.trace import JsonlRecorder
from repro.pdm import fastpath
from repro.pdm.disk_array import DiskArray

FAULT_PLAN = str(
    Path(__file__).resolve().parents[2] / "benchmarks" / "fault_plans" / "ci_transient.json"
)

#: tags that legitimately differ between two runs (timing, filesystem)
#: "seq" joined the fuzzy tags when physical kinds (below) appeared: the
#: fast path's extra physical events shift later sequence numbers, while
#: the *relative* order of logical events — what seq pinned — is still
#: asserted by the normalized list order.
_FUZZY_TAGS = ("seq", "ts", "wall_s", "path", "backoff_s")

#: *physical* event kinds describe how a backend serviced the logical
#: I/O (speculative prefetch batches, arena storage growth), so they
#: exist only on the fast path — like the fuzzy tags, they are excluded
#: from the identity comparison, which pins the *logical* event stream
#: (same precedent as io_fault in tests/core/test_workers.py).
_PHYSICAL_KINDS = ("prefetch", "arena_grow")


@pytest.fixture(autouse=True)
def _restore_fastpath_env():
    was = fastpath.enabled()
    yield
    fastpath.set_enabled(was)


def _normalize(events):
    return [
        {k: v for k, v in ev.items() if k not in _FUZZY_TAGS}
        for ev in events
        if ev.get("kind") not in _PHYSICAL_KINDS
    ]


def _sort_both(cfg: MachineConfig, data: np.ndarray, engine: str, **kw):
    """Run em_sort on both paths; returns (fast, ref, fast_trace, ref_trace)."""
    out = []
    for enabled in (True, False):
        fastpath.set_enabled(enabled)
        tracer = JsonlRecorder()
        res = em_sort(data, cfg, engine=engine, tracer=tracer, **kw)
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
        self_args = _sort_both(cfg, data, engine, balanced=balanced)
        _assert_identical(*self_args)
        assert np.array_equal(self_args[0].values, np.sort(data))


def test_transpose_identity_seq():
    mat = np.arange(64 * 64, dtype=np.int64).reshape(64, 64)
    cfg = MachineConfig(N=mat.size, v=4, D=2, B=64)
    out = []
    for enabled in (True, False):
        fastpath.set_enabled(enabled)
        tracer = JsonlRecorder()
        res = em_transpose(mat, cfg, engine="seq", tracer=tracer)
        out.append((res, tracer.events))
    (fast, t_fast), (ref, t_ref) = out
    _assert_identical(fast, ref, t_fast, t_ref)
    assert np.array_equal(fast.values, mat.T)


def test_permute_past_2_19_stays_on_the_batched_path(monkeypatch):
    """Regression for the far-track cliff: at N=2^19 the message matrix
    reaches track 2^20, where the old arena diverted every far track to a
    side dict and each read fell back to one ``parallel_io`` call per
    batch.  The fast path must make no such call, and still match the
    reference path exactly."""
    n = 1 << 19
    rng = np.random.default_rng(19)
    values = rng.integers(0, 2**50, n)
    dest = rng.permutation(n)
    cfg = MachineConfig(N=n, v=8, D=2, B=16)
    calls = []
    real_parallel_io = DiskArray.parallel_io

    def counting(self, ops):
        calls.append(len(ops))
        return real_parallel_io(self, ops)

    monkeypatch.setattr(DiskArray, "parallel_io", counting)
    fastpath.set_enabled(True)
    fast = em_permute(values, dest, cfg, engine="seq")
    assert calls == []
    fastpath.set_enabled(False)
    ref = em_permute(values, dest, cfg, engine="seq")
    assert calls, "the reference path runs through parallel_io"
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
        fast, ref, t_fast, t_ref = _sort_both(cfg, data, "par")
        _assert_identical(fast, ref, t_fast, t_ref)

    def test_fast_process_matches_reference_inprocess(self):
        """Cross-backend too: worker fast path == in-process reference."""
        n = 1 << 12
        data = np.random.default_rng(8).integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=4, p=2, D=2, B=64)
        fastpath.set_enabled(True)
        proc = em_sort(data, cfg.with_(workers=2), engine="par")
        fastpath.set_enabled(False)
        inproc = em_sort(data, cfg, engine="par")
        assert np.array_equal(proc.values, inproc.values)
        assert measured_from_report(proc.report) == measured_from_report(inproc.report)


class TestFaultsIdentity:
    """Under a fault plan the engine pins itself to the reference disk
    machinery; the env flag must then change nothing at all."""

    @settings(max_examples=4)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_sort_identical_under_ci_transient_plan(self, seed):
        n = 1 << 11
        data = np.random.default_rng(seed).integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=4, D=2, B=64)
        fast, ref, t_fast, t_ref = _sort_both(cfg, data, "seq", faults=FAULT_PLAN)
        _assert_identical(fast, ref, t_fast, t_ref)
        f_fast = [e for e in _normalize(t_fast) if "fault" in str(e.get("kind", ""))]
        f_ref = [e for e in _normalize(t_ref) if "fault" in str(e.get("kind", ""))]
        assert f_fast == f_ref

    def test_par_engine_under_faults(self):
        n = 1 << 11
        data = np.random.default_rng(3).integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=4, p=2, D=2, B=64)
        fast, ref, t_fast, t_ref = _sort_both(cfg, data, "par", faults=FAULT_PLAN)
        _assert_identical(fast, ref, t_fast, t_ref)
