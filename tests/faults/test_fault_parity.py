"""Fault-injected runs pinned to a committed fixture.

Every access of a fault-injected array draws its faults in FIFO order,
so any change to how the disk layer services a faulted run — its storage,
its batching, the order it touches tracks in — shows up here as a changed
output digest, ``IOStats``, ``FaultStats`` or fault event.  The fixture
``fault_parity.json`` holds those values for the CI transient plan (seq
and par engines, two input seeds each) and for a scheduled plan with torn
writes and a dead disk.

Regenerate it only for a change that is meant to alter fault behaviour::

    PYTHONPATH=src python -m tests.faults.test_fault_parity --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort
from repro.faults.plan import DiskDeath, FaultPlan, ScheduledFault
from repro.obs.trace import JsonlRecorder

FIXTURE = Path(__file__).with_name("fault_parity.json")
CI_PLAN = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "fault_plans" / "ci_transient.json"
)

#: torn writes on both reals plus a dead disk on real 0 that dies after
#: its blocks are written, so the migration and the remapped reads run
DEAD_TORN_PLAN = FaultPlan(
    seed=7,
    p_transient_read=0.02,
    p_transient_write=0.01,
    p_torn_write=0.01,
    schedule=(
        ScheduledFault(real=0, op=2, disk=0, kind="torn_write"),
        ScheduledFault(real=1, op=5, disk=0, kind="torn_write"),
        ScheduledFault(real=0, op=40, disk=2, kind="transient_read"),
    ),
    dead_disks=(DiskDeath(real=0, disk=3, after_op=30),),
)

#: case name -> (engine, plan, input seed, D)
CASES = {
    "ci_transient-seq-0": ("seq", "ci", 0, 2),
    "ci_transient-seq-1": ("seq", "ci", 1, 2),
    "ci_transient-par-0": ("par", "ci", 0, 2),
    "ci_transient-par-1": ("par", "ci", 1, 2),
    "dead_torn-par-0": ("par", "dead_torn", 0, 4),
}

_EVENT_KINDS = ("io_fault", "disk_dead")
_FUZZY_TAGS = ("seq", "ts", "wall_s", "span", "parent")


def run_case(name: str) -> dict:
    engine, plan_name, seed, D = CASES[name]
    plan = FaultPlan.from_json(str(CI_PLAN)) if plan_name == "ci" else DEAD_TORN_PLAN
    n = 1 << 12
    cfg = MachineConfig(N=n, v=4, p=2 if engine == "par" else 1, D=D, B=64)
    data = np.random.default_rng(seed).integers(0, 2**50, n)
    tracer = JsonlRecorder()
    res = em_sort(data, cfg, engine=engine, faults=plan, tracer=tracer)
    assert np.array_equal(res.values, np.sort(data))
    return {
        "digest": hashlib.sha256(res.values.tobytes()).hexdigest(),
        "io": res.report.io.as_dict(),
        "io_max": res.report.io_max.as_dict(),
        "fault_stats": res.report.fault_stats.as_dict(),
        "events": [
            {k: v for k, v in ev.items() if k not in _FUZZY_TAGS}
            for ev in tracer.events
            if ev["kind"] in _EVENT_KINDS
        ],
    }


def _canonical(doc):
    # JSON round trip, so tuples and lists compare equal to the fixture
    return json.loads(json.dumps(doc, sort_keys=True))


@pytest.mark.parametrize("name", sorted(CASES))
def test_faulted_run_matches_fixture(name, monkeypatch):
    # the fixture pins the in-process engines: the process backend stages
    # a real's remote bundles at exchange time, so the order of its ops,
    # and with it which access draws which fault, is its own
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    expected = json.loads(FIXTURE.read_text())[name]
    got = _canonical(run_case(name))
    assert got["digest"] == expected["digest"]
    assert got["io"] == expected["io"]
    assert got["io_max"] == expected["io_max"]
    assert got["fault_stats"] == expected["fault_stats"]
    assert got["events"] == expected["events"]


def test_fixture_exercises_every_fault_kind():
    """The pinned runs must cover retries, tears, a death and remaps, or a
    change to those paths would pass without being checked."""
    doc = json.loads(FIXTURE.read_text())
    assert set(doc) == set(CASES)
    total: dict[str, float] = {}
    for case in doc.values():
        for key, val in case["fault_stats"].items():
            total[key] = total.get(key, 0) + val
    for key in ("transient_read_faults", "transient_write_faults", "torn_writes",
                "retries", "dead_disks", "migrated_blocks", "remapped_accesses"):
        assert total[key] > 0, key
    kinds = {ev["kind"] for case in doc.values() for ev in case["events"]}
    assert kinds == set(_EVENT_KINDS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.faults.test_fault_parity --write")
    doc = {name: run_case(name) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
