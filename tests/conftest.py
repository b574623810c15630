"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.cgm.config import MachineConfig

# Deterministic property testing: examples are derived from the test body
# (derandomize), not a per-run entropy source, so CI and local runs explore
# the same cases and there are no flaky examples.  Select a different
# profile with HYPOTHESIS_PROFILE if exploratory fuzzing is wanted.
settings.register_profile(
    "repro-deterministic", derandomize=True, deadline=None, max_examples=60
)
settings.register_profile("repro-explore", deadline=None, max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro-deterministic"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_cfg() -> MachineConfig:
    """A machine comfortably inside every paper constraint."""
    return MachineConfig(N=1 << 14, v=8, D=2, B=64)


def all_engine_kinds() -> list[str]:
    return ["memory", "seq", "vm", "par"]


def cfg_for(kind: str, base: MachineConfig) -> MachineConfig:
    """Adapt a config to an engine kind (par needs p > 1)."""
    if kind == "par":
        return base.with_(p=max(2, min(4, base.v)))
    return base


@pytest.fixture
def clean_io_probe(monkeypatch):
    """Count the ``DiskArray.parallel_io`` calls of clean in-process EM runs.

    A zero-call check is about the clean batched path, so the probe clears
    ``REPRO_FAULTS`` (a plan swaps in ``FaultyDiskArray``, whose own
    ``parallel_io`` the counter cannot see) and ``REPRO_WORKERS`` (worker
    processes are out of its reach).  It also records every disk array
    the EM engines build, so a test can assert they are plain
    ``DiskArray`` and the count cannot pass without checking anything.
    """
    from types import SimpleNamespace

    from repro.core.par_engine import ParEMEngine
    from repro.pdm.disk_array import DiskArray

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
