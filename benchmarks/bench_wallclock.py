"""Wall-clock speedup of the vectorized fast path vs the reference path.

Every other bench gates *modeled* cost — parallel I/O counts, which are
deterministic and machine-independent.  This one gates the *simulator's
own* running time: the batched NumPy gather/scatter fast path
(``REPRO_FASTPATH=1``, the default) against the per-block reference loop
(``REPRO_FASTPATH=0``), on the same workloads two of the paper benches
use, scaled up until the I/O layer dominates:

* ``fig5_sort`` — Figure 5 Group A sorting at N=2^18 (the group-A bench
  sweeps up to 2^16 with B=64; here B=16 so the stream has enough blocks
  per superstep for vectorization to matter, exactly the regime Fig. 8's
  block-size sweep explores);
* ``theorem3_p{2,4}`` — the Theorem 3 processor-scaling sort on the
  in-process parallel engine.

Both paths must produce bit-identical outputs and logical ``IOStats`` —
asserted here on every run, and the deterministic counters recorded in
the store are gated exactly by ``repro bench --compare``.  The speedup
ratio is recorded under ``timings`` so the perf-smoke CI lane can gate it
with the one-sided ``--timing-floor`` check (absolute seconds go to
``extra``: provenance, never gated).

An in-test floor guards local runs too: ``REPRO_WALLCLOCK_FLOOR``
(default 1.5) is deliberately far below the committed baseline's ratios —
wall-clock is fuzzy, the floor only has to catch "fast path silently fell
back to the reference loop".

``test_permute_scaling`` gates how the fast path's wall time grows with
N: ``em_permute`` on the seq engine at N=2^18, 2^19 and 2^20 (2^19 is the
first size whose message matrix reaches track 2^20), with the one-sided
bound ``t(2N) / t(N) <= 3``.  The simulated parallel I/Os grow linearly,
so the simulator's own time must too — a storage path that degrades past
some track index shows up here as a ratio of ~10.

The timings double as the telemetry bus's disabled-path perf smoke: the
bench pins ``REPRO_TRACE`` off and asserts the engines run on the
zero-cost ``NULL_RECORDER``, so the ``--timing-floor`` gate in CI also
catches an accidentally always-on bus (its per-event overhead would sink
the measured speedups).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_permute, em_sort, make_engine
from repro.obs.bench_store import measured_from_report
from repro.pdm import fastpath
from repro.util.rng import make_rng

from conftest import print_table


@pytest.fixture(autouse=True)
def _trace_pinned_off(monkeypatch):
    """Timings gate the untraced path; a stray REPRO_TRACE would skew them."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)

V, D, B = 8, 2, 16
REPS = 3

#: name -> (N, p, engine)
CONFIGS = {
    "fig5_sort": (1 << 18, 1, "seq"),
    "theorem3_p2": (1 << 17, 2, "par"),
    "theorem3_p4": (1 << 17, 4, "par"),
}


#: em_permute sizes of the scaling gate, and its bound on t(2N) / t(N)
SCALING_NS = (1 << 18, 1 << 19, 1 << 20)
SCALING_BOUND = 3.0


def _floor() -> float:
    try:
        return float(os.environ.get("REPRO_WALLCLOCK_FLOOR", "1.5"))
    except ValueError:
        return 1.5


def _best_of(run):
    """Best-of-REPS wall time of ``run()`` after a warmup call (allocator,
    caches), and the last result."""
    run()
    best = float("inf")
    res = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        res = run()
        best = min(best, time.perf_counter() - t0)
    return best, res


def _timed_run(data: np.ndarray, cfg: MachineConfig, engine: str, enabled: bool):
    """Best-of-REPS wall time and the last result, with the path pinned."""
    was = fastpath.enabled()
    fastpath.set_enabled(enabled)
    try:
        return _best_of(lambda: em_sort(data, cfg, engine=engine))
    finally:
        fastpath.set_enabled(was)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_wallclock_speedup(name, bench_store):
    N, p, engine = CONFIGS[name]
    data = make_rng(0).integers(0, 2**50, N)
    cfg = MachineConfig(N=N, v=V, p=p, D=D, B=B)

    # disabled-path guarantee: the timed engines must see the no-op
    # recorder — the timing floor below then also gates bus-off overhead
    assert make_engine(cfg, engine).tracer.enabled is False, (
        "wall-clock bench must run untraced (is REPRO_TRACE set?)"
    )

    fast_s, fast = _timed_run(data, cfg, engine, enabled=True)
    ref_s, ref = _timed_run(data, cfg, engine, enabled=False)

    # the fast path is an implementation of the same model, not a variant:
    # outputs and every logical cost counter must be bit-identical
    assert np.array_equal(fast.values, ref.values)
    assert np.array_equal(fast.values, np.sort(data))
    fast_m = measured_from_report(fast.report)
    ref_m = measured_from_report(ref.report)
    assert fast_m == ref_m, f"{name}: IOStats diverged between paths"
    assert fast.report.io.as_dict() == ref.report.io.as_dict()

    speedup = ref_s / fast_s
    floor = _floor()
    print_table(
        f"wall-clock: {name} (N={N}, p={p}, B={B}, engine={engine})",
        ["path", "best of {}".format(REPS), "speedup"],
        [
            ["reference", f"{ref_s * 1e3:.1f} ms", ""],
            ["fast", f"{fast_s * 1e3:.1f} ms", f"{speedup:.2f}x"],
        ],
    )
    bench_store.record(
        name,
        cfg=cfg,
        report=fast.report,
        timings={"speedup": speedup},
        extra={"fast_s": fast_s, "ref_s": ref_s, "engine": engine, "reps": REPS},
    )
    assert speedup >= floor, (
        f"{name}: fast path only {speedup:.2f}x over reference "
        f"(floor {floor}) — did it fall back to the per-block loop?"
    )


def test_permute_scaling(bench_store):
    times = []
    for n in SCALING_NS:
        rng = make_rng(0)
        values = rng.integers(0, 2**50, n)
        dest = rng.permutation(n)
        cfg = MachineConfig(N=n, v=V, D=D, B=B)
        best, res = _best_of(lambda: em_permute(values, dest, cfg, engine="seq"))
        expected = np.empty_like(values)
        expected[dest] = values
        assert np.array_equal(res.values, expected)
        times.append(best)
        bench_store.record(
            f"permute_scale_2^{n.bit_length() - 1}",
            cfg=cfg,
            report=res.report,
            extra={"fast_s": best, "engine": "seq", "reps": REPS},
        )
    ratios = [b / a for a, b in zip(times, times[1:])]
    print_table(
        f"wall-clock scaling: em_permute (seq, B={B}, bound t(2N)/t(N) <= "
        f"{SCALING_BOUND})",
        ["N", "best of {}".format(REPS), "t(N) / t(N/2)"],
        [
            [f"2^{n.bit_length() - 1}", f"{t * 1e3:.1f} ms", f"{r:.2f}" if r else ""]
            for n, t, r in zip(SCALING_NS, times, [None, *ratios])
        ],
    )
    for n, r in zip(SCALING_NS[1:], ratios):
        assert r <= SCALING_BOUND, (
            f"em_permute at N=2^{n.bit_length() - 1} took {r:.2f}x the time "
            f"of N/2 (bound {SCALING_BOUND}) — a storage path falls off a cliff"
        )
