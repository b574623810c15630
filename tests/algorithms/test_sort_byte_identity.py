"""Byte identity of the simulated sample sort with a global stable sort.

`SampleSort` sorts 1-D bool/integer data by value (an unstable SIMD
sort) and everything else by a stable argsort of its keys.  Both must
produce exactly the bytes of ``data[np.argsort(keys, kind="stable")]``:
for bool/integer dtypes equal keys are bit-identical, and for floats
(±0.0, NaNs with differing payloads) and key-sorted rows only a stable
sort keeps the input order of equal keys.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.collectives import partition_array
from repro.algorithms.sorting import SampleSort
from repro.cgm.config import MachineConfig
from repro.em.runner import em_run, em_sort

ENGINES = ("memory", "seq")


def _cfg(n: int) -> MachineConfig:
    return MachineConfig(N=n, v=4, D=2, B=16)


def _stable(data: np.ndarray) -> np.ndarray:
    return data[np.argsort(data, kind="stable")]


def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _integer_data(dtype: np.dtype, n: int, distinct: int, seed: int) -> np.ndarray:
    """*n* values drawn from a pool of the dtype's extremes plus random
    values; a small pool means many duplicates."""
    rng = np.random.default_rng(seed)
    if dtype.kind == "b":
        return rng.integers(0, 2, n).astype(bool)
    info = np.iinfo(dtype)
    extremes = [info.min, info.min + 1, 0, 1, info.max - 1, info.max]
    if info.min < 0:
        extremes.append(-1)
    pool = np.concatenate([
        np.array(extremes, dtype=dtype),
        rng.integers(info.min, info.max, distinct, dtype=dtype, endpoint=True),
    ])
    return rng.choice(pool, n)


#: float64 bit patterns that compare equal but differ in bytes
_FLOAT_BITS = np.array(
    [
        0x0000000000000000,  # +0.0
        0x8000000000000000,  # -0.0
        0x7FF8000000000000,  # quiet NaN
        0x7FF8000000000001,  # NaN, other payload
        0xFFF8000000000000,  # NaN, sign bit set
        0x7FF0000000000001,  # signalling NaN
        0x7FF0000000000000,  # +inf
        0xFFF0000000000000,  # -inf
        0x3FF0000000000000,  # 1.0
        0xBFF0000000000000,  # -1.0
    ],
    dtype=np.uint64,
)


class TestValueSortDtypes:
    @settings(max_examples=12, deadline=None)
    @given(
        dtype=st.sampled_from(["int8", "int64", "uint64", "bool"]),
        n=st.integers(300, 3000),
        distinct=st.integers(1, 64),
        seed=st.integers(0, 10_000),
    )
    def test_integer_and_bool_match_stable_sort(self, dtype, n, distinct, seed):
        data = _integer_data(np.dtype(dtype), n, distinct, seed)
        want = _stable(data)
        for engine in ENGINES:
            _assert_same_bytes(em_sort(data, _cfg(n), engine=engine).values, want)

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(300, 3000), seed=st.integers(0, 10_000))
    def test_float_zeros_and_nan_payloads_keep_stable_order(self, n, seed):
        rng = np.random.default_rng(seed)
        bits = rng.choice(_FLOAT_BITS, n)
        data = bits.view(np.float64)
        want = _stable(data)
        # the input really has equal keys whose bytes differ
        assert np.unique(bits).size > np.unique(data).size
        for engine in ENGINES:
            _assert_same_bytes(em_sort(data, _cfg(n), engine=engine).values, want)


class TestKeyedRows:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rows_by_key_column_keep_stable_row_order(self, engine, rng):
        n = 2048
        keys = rng.integers(0, 9, n)  # few distinct keys: long runs of ties
        rows = np.column_stack([np.arange(n), keys, rng.integers(0, 2**40, n)])
        cfg = _cfg(n)
        inputs = partition_array(rows, cfg.v)
        res = em_run(SampleSort(key_column=1), inputs, cfg, engine)
        got = np.concatenate(res.outputs)
        _assert_same_bytes(got, rows[np.argsort(keys, kind="stable")])
