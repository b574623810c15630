"""Wall-clock price of the EM simulation, and how it scales.

Every other bench gates *modeled* cost — parallel I/O counts, which are
deterministic and machine-independent.  This one gates the *simulator's
own* running time, on the same workloads two of the paper benches use,
scaled up until the I/O layer dominates:

* ``fig5_sort`` — Figure 5 Group A sorting at N=2^18 (the group-A bench
  sweeps up to 2^16 with B=64; here B=16 so the stream has enough blocks
  per superstep for batching to matter, exactly the regime Fig. 8's
  block-size sweep explores);
* ``theorem3_p{2,4}`` — the Theorem 3 processor-scaling sort on the
  in-process parallel engine.

``test_wallclock_memory_ratio`` times each workload on its EM engine and
on ``InMemoryEngine``, the same CGM program with no disks, and records
``memory_ratio = t(InMemoryEngine) / t(EM)`` under ``timings``: the
share of the EM run that is the program itself rather than the price of
simulating the PDM.  The ratio depends far less on the host's speed
than either time, so the perf-smoke CI lane gates it one-sided with ``--timing-floor``
against the committed baseline (absolute seconds go to ``extra``:
provenance, never gated).  The EM run must also make exactly zero
per-op ``DiskArray.parallel_io`` calls — every stream of a clean run
takes the batched arena path — and produce outputs and logical
``IOStats`` that ``repro bench --compare`` gates exactly.

``test_permute_scaling`` and ``test_sort_scaling`` gate how the wall
time grows with N: seq ``em_permute`` at N=2^18..2^20 (2^19 is the first
size whose message matrix reaches track 2^20) and seq ``em_sort`` at
N=2^19..2^22, each with the one-sided bound ``t(2N) / t(N) <= 3``.  The
simulated parallel I/Os grow linearly, so the simulator's own time must
too — a storage path that degrades past some track index shows up here
as a ratio of ~10.

The timings double as the telemetry bus's disabled-path perf smoke: the
bench pins ``REPRO_TRACE`` off and asserts the engines run on the
zero-cost ``NULL_RECORDER``, so the ``--timing-floor`` gate in CI also
catches an accidentally always-on bus (its per-event overhead would sink
the measured ratios).
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.core.par_engine import ParEMEngine
from repro.em.runner import em_permute, em_sort, make_engine
from repro.pdm.disk_array import DiskArray
from repro.util.rng import make_rng

from conftest import print_table


@pytest.fixture(autouse=True)
def _trace_pinned_off(monkeypatch):
    """Timings gate the untraced path; a stray REPRO_TRACE would skew them."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)


V, D, B = 8, 2, 16
REPS = 3
#: repetitions of each side of a t(InMemoryEngine) / t(EM) ratio: its
#: runs take tens of milliseconds, so more of them are cheap and steady
#: the best-of minimum
RATIO_REPS = 7

#: name -> (N, p, engine)
CONFIGS = {
    "fig5_sort": (1 << 18, 1, "seq"),
    "theorem3_p2": (1 << 17, 2, "par"),
    "theorem3_p4": (1 << 17, 4, "par"),
}


#: (N, ...) sizes of the scaling gates, and their bound on t(2N) / t(N)
PERMUTE_SCALING_NS = (1 << 18, 1 << 19, 1 << 20)
SORT_SCALING_NS = (1 << 19, 1 << 20, 1 << 21, 1 << 22)
SCALING_BOUND = 3.0


@pytest.fixture
def clean_io_probe(monkeypatch):
    """Per-op ``DiskArray.parallel_io`` calls made by clean in-process EM
    runs, and the disk arrays those runs built.  Fault plans (whose arrays
    service every access per op) and worker processes (out of the
    counter's reach) are cleared; the test asserts every array is a plain
    ``DiskArray``, so a zero count cannot pass without checking anything."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    probe = SimpleNamespace(calls=[], arrays=[])
    parallel_io = DiskArray.parallel_io
    make_array = ParEMEngine._make_array

    def counting(self, ops):
        probe.calls.append(len(ops))
        return parallel_io(self, ops)

    def recording(self, real):
        arr = make_array(self, real)
        probe.arrays.append(arr)
        return arr

    monkeypatch.setattr(DiskArray, "parallel_io", counting)
    monkeypatch.setattr(ParEMEngine, "_make_array", recording)
    return probe


def _best_of(*runs, reps=REPS):
    """``(best-of-reps wall time, last result)`` of each run, after one
    warmup call each (allocator, caches).  The runs are timed in turn
    within each repetition, so a slow spell of the host hits every side
    of a ratio alike rather than one of them."""
    for run in runs:
        run()
    best = [float("inf")] * len(runs)
    results = [None] * len(runs)
    for _ in range(reps):
        for i, run in enumerate(runs):
            t0 = time.perf_counter()
            results[i] = run()
            best[i] = min(best[i], time.perf_counter() - t0)
    return list(zip(best, results))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_wallclock_memory_ratio(name, bench_store, clean_io_probe):
    N, p, engine = CONFIGS[name]
    data = make_rng(0).integers(0, 2**50, N)
    cfg = MachineConfig(N=N, v=V, p=p, D=D, B=B)

    # disabled-path guarantee: the timed engines must see the no-op
    # recorder — the timing floor then also gates bus-off overhead
    assert make_engine(cfg, engine).tracer.enabled is False, (
        "wall-clock bench must run untraced (is REPRO_TRACE set?)"
    )

    (em_s, em), (mem_s, mem) = _best_of(
        lambda: em_sort(data, cfg, engine=engine),
        lambda: em_sort(data, cfg, engine="memory"),
        reps=RATIO_REPS,
    )
    assert clean_io_probe.arrays
    assert all(type(a) is DiskArray for a in clean_io_probe.arrays)
    assert clean_io_probe.calls == [], (
        f"{name}: {len(clean_io_probe.calls)} per-op parallel_io calls — "
        "a stream fell back to the per-block loop"
    )

    assert np.array_equal(em.values, np.sort(data))
    assert np.array_equal(em.values, mem.values)

    ratio = mem_s / em_s
    print_table(
        f"wall-clock: {name} (N={N}, p={p}, B={B}, engine={engine})",
        ["engine", "best of {}".format(RATIO_REPS), "t(memory) / t(EM)"],
        [
            ["memory", f"{mem_s * 1e3:.1f} ms", ""],
            [engine, f"{em_s * 1e3:.1f} ms", f"{ratio:.2f}"],
        ],
    )
    bench_store.record(
        name,
        cfg=cfg,
        report=em.report,
        timings={"memory_ratio": ratio},
        extra={"em_s": em_s, "memory_s": mem_s, "engine": engine, "reps": RATIO_REPS},
    )


def _assert_scaling(label, ns, case, bench_store):
    """Best-of-REPS seq-engine time per size N; ``case(cfg)`` returns the
    run and its expected output.  Every ``t(2N) / t(N)`` must stay within
    SCALING_BOUND."""
    times = []
    for n in ns:
        cfg = MachineConfig(N=n, v=V, D=D, B=B)
        run, expected = case(cfg)
        [(best, res)] = _best_of(run)
        assert np.array_equal(res.values, expected)
        times.append(best)
        bench_store.record(
            f"{label}_scale_2^{n.bit_length() - 1}",
            cfg=cfg,
            report=res.report,
            extra={"em_s": best, "engine": "seq", "reps": REPS},
        )
    ratios = [b / a for a, b in zip(times, times[1:])]
    print_table(
        f"wall-clock scaling: em_{label} (seq, B={B}, bound t(2N)/t(N) <= "
        f"{SCALING_BOUND})",
        ["N", "best of {}".format(REPS), "t(N) / t(N/2)"],
        [
            [f"2^{n.bit_length() - 1}", f"{t * 1e3:.1f} ms", f"{r:.2f}" if r else ""]
            for n, t, r in zip(ns, times, [None, *ratios])
        ],
    )
    for n, r in zip(ns[1:], ratios):
        assert r <= SCALING_BOUND, (
            f"em_{label} at N=2^{n.bit_length() - 1} took {r:.2f}x the time "
            f"of N/2 (bound {SCALING_BOUND}) — a storage path falls off a cliff"
        )


def test_permute_scaling(bench_store):
    def case(cfg):
        rng = make_rng(0)
        values = rng.integers(0, 2**50, cfg.N)
        dest = rng.permutation(cfg.N)
        expected = np.empty_like(values)
        expected[dest] = values
        return lambda: em_permute(values, dest, cfg, engine="seq"), expected

    _assert_scaling("permute", PERMUTE_SCALING_NS, case, bench_store)


def test_sort_scaling(bench_store):
    def case(cfg):
        data = make_rng(0).integers(0, 2**50, cfg.N)
        return lambda: em_sort(data, cfg, engine="seq"), np.sort(data)

    _assert_scaling("sort", SORT_SCALING_NS, case, bench_store)
