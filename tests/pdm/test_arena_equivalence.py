"""Three-way storage equivalence: dict model, RAM arena, mmap arena.

One logical track store, three implementations.  The hypothesis suites
drive the *same* randomized operation sequence through all three and
assert that every observable — returned bytes, ``SimulationError`` parity
on free-track reads, occupancy, snapshots, side-dict fallbacks for
oversized payloads, shadow-region tracks — is identical.  The boundary
classes pin the page edge (``PAGE_ROWS - 1`` / ``PAGE_ROWS``), the fault
injector's shadow tracks at ``(1 << 40) + 3``, last-wins duplicates in a
scatter that spans pages, and that only touched pages cost memory.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdm.arena import PAGE_ROWS, TrackArena
from repro.pdm.disk import Disk
from repro.pdm.mmap_arena import MmapTrackArena
from repro.util.validation import SimulationError
from tests.pdm.dict_disk import DictDisk

D = 2
BB = 8  # block bytes


@pytest.fixture
def trio():
    """One dict-model disk bank plus RAM- and mmap-arena banks."""
    ram = TrackArena(D, BB)
    mm = MmapTrackArena(D, BB)
    banks = (
        [DictDisk(d) for d in range(D)],
        [Disk(d, arena=ram) for d in range(D)],
        [Disk(d, arena=mm) for d in range(D)],
    )
    yield banks
    mm.close()


def _read_all(banks, disk: int, track: int):
    """Read one address through every backend; returns the common result.

    Either all three return the same bytes or all three raise the same
    canonical error — anything else is an equivalence bug.
    """
    results = []
    for bank in banks:
        try:
            results.append(bank[disk].read(track))
        except SimulationError as exc:
            results.append(str(exc))
    assert results[0] == results[1] == results[2], (disk, track, results)
    return results[0]


# ------------------------------------------------------------- op sequences

# Track values exercise the first page, the page edge, and the far shadow
# region (as the fault injector's remaps use), and payload sizes exercise
# full-stride, short (padded) and oversized (side dict).
_FAR = (1 << 40) + 3
_tracks = st.one_of(
    st.integers(min_value=0, max_value=24),
    st.sampled_from([PAGE_ROWS - 1, PAGE_ROWS, PAGE_ROWS + 5, _FAR]),
)
_payloads = st.binary(min_size=0, max_size=BB + 4)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, D - 1), _tracks, _payloads),
        st.tuples(st.just("read"), st.integers(0, D - 1), _tracks),
        st.tuples(st.just("free"), st.integers(0, D - 1), _tracks),
    ),
    max_size=30,
)


@given(ops=_ops)
def test_randomized_sequences_are_equivalent(ops):
    ram = TrackArena(D, BB)
    mm = MmapTrackArena(D, BB)
    try:
        banks = (
            [DictDisk(d) for d in range(D)],
            [Disk(d, arena=ram) for d in range(D)],
            [Disk(d, arena=mm) for d in range(D)],
        )
        for op in ops:
            if op[0] == "write":
                _, d, t, payload = op
                for bank in banks:
                    bank[d].write(t, payload)
            elif op[0] == "read":
                _, d, t = op
                _read_all(banks, d, t)
            else:
                _, d, t = op
                for bank in banks:
                    bank[d].free(t)
        for d in range(D):
            ref = banks[0][d]
            for bank in banks[1:]:
                assert bank[d].snapshot_tracks() == ref.snapshot_tracks()
                assert bank[d].tracks_in_use == ref.tracks_in_use
                assert bank[d].max_track() == ref.max_track()
                assert bank[d].blocks_read == ref.blocks_read
                assert bank[d].blocks_written == ref.blocks_written
    finally:
        mm.close()


@settings(max_examples=25)
@given(
    addrs=st.lists(
        st.tuples(st.integers(0, D - 1), st.integers(0, 15)),
        min_size=1,
        max_size=16,
    ),
    payload=st.binary(min_size=0, max_size=16 * BB),
)
def test_batch_scatter_gather_matches_dict_writes(addrs, payload):
    """A full-stride batch scatter equals per-track dict writes, and both
    arenas gather back the identical bytes."""
    n = len(addrs)
    raw = payload.ljust(n * BB, b"\x00")[: n * BB]
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(n, BB)
    disks = np.asarray([a for a, _ in addrs], dtype=np.int64)
    tracks = np.asarray([t for _, t in addrs], dtype=np.int64)

    ref = [DictDisk(d) for d in range(D)]
    for (d, t), i in zip(addrs, range(n)):
        ref[d].write(t, rows[i].tobytes())

    ram = TrackArena(D, BB)
    mm = MmapTrackArena(D, BB)
    try:
        for arena in (ram, mm):
            arena.scatter(disks, tracks, rows)
            for d in range(D):
                assert arena.snapshot(d) == ref[d].snapshot_tracks()
            uniq = sorted(set(addrs))
            ud = np.asarray([a for a, _ in uniq], dtype=np.int64)
            ut = np.asarray([t for _, t in uniq], dtype=np.int64)
            out = np.empty((len(uniq), BB), dtype=np.uint8)
            assert arena.gather(ud, ut, out)
            expect = b"".join(ref[d].read(t) for d, t in uniq)
            assert out.tobytes() == expect
    finally:
        mm.close()


def test_occupancy_mask_parity_after_frees(trio):
    banks = trio
    for bank in banks:
        bank[0].write(0, b"A" * BB)
        bank[0].write(1, b"B" * BB)
        bank[1].write(2, b"C" * BB)
        bank[0].free(1)
        bank[1].free(9)  # freeing an unwritten track is a no-op everywhere
    for d in range(D):
        assert (
            banks[0][d].snapshot_tracks()
            == banks[1][d].snapshot_tracks()
            == banks[2][d].snapshot_tracks()
        )
    assert _read_all(banks, 0, 0) == b"A" * BB
    assert "unwritten track 1" in _read_all(banks, 0, 1)


def test_snapshots_port_across_all_backends(trio):
    """A snapshot taken on any backend restores into any other."""
    src_bank = trio[2]  # mmap
    src_bank[0].write(3, b"x" * BB)
    src_bank[0].write(_FAR, b"far")
    src_bank[0].write(5, b"odd-size-payload")  # > BB: side dict
    snap = src_bank[0].snapshot_tracks()
    for dest_bank in trio[:2]:
        dest_bank[0].restore_tracks(snap)
        assert dest_bank[0].snapshot_tracks() == snap
        assert dest_bank[0].read(_FAR) == b"far"
        assert dest_bank[0].read(5) == b"odd-size-payload"


# ------------------------------------------------------------ page boundary


def _rows(payload: bytes) -> np.ndarray:
    return np.frombuffer(payload, dtype=np.uint8).reshape(len(payload), 1)


def _i64(*values: int) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


class _Boundary:
    """Page-edge regressions, run against both arena backends.

    Uses ``block_bytes=1`` so every page is ``PAGE_ROWS`` bytes.
    """

    def make(self) -> TrackArena:
        raise NotImplementedError

    def teardown_arena(self, arena: TrackArena) -> None:
        arena.close()

    def test_put_one_below_stays_dense(self):
        a = self.make()
        try:
            a.put(0, PAGE_ROWS - 1, b"z")
            assert a.get(0, PAGE_ROWS - 1) == b"z"
            assert not a._side[0], "a block-sized put must not use the side dict"
            assert list(a._pages[0]) == [0]
        finally:
            self.teardown_arena(a)

    def test_put_at_boundary_opens_next_page(self):
        a = self.make()
        try:
            a.put(0, PAGE_ROWS, b"w")
            assert a.get(0, PAGE_ROWS) == b"w"
            assert a.get(0, PAGE_ROWS - 1) is None
            assert not a._side[0]
            assert list(a._pages[0]) == [1], "page 0 was never touched"
        finally:
            self.teardown_arena(a)

    def test_far_shadow_track_is_paged(self):
        a = self.make()
        try:
            a.scatter(_i64(0, 0), _i64(3, _FAR), _rows(b"nf"))
            assert a.get(0, _FAR) == b"f"
            assert sorted(a._pages[0]) == [0, _FAR // PAGE_ROWS]
            assert not a._side[0]
            assert a.max_track(0) == _FAR
            out = np.empty((2, 1), dtype=np.uint8)
            assert a.gather(_i64(0, 0), _i64(_FAR, 3), out)
            assert out.tobytes() == b"fn"
        finally:
            self.teardown_arena(a)

    def test_scatter_straddling_the_boundary(self):
        """A scatter that spans pages, out of page order and with duplicate
        addresses on both sides of the edge, resolves last-wins exactly as
        the sequential loop does."""
        a = self.make()
        try:
            tracks = _i64(PAGE_ROWS, PAGE_ROWS - 1, _FAR, PAGE_ROWS, PAGE_ROWS - 1)
            a.scatter(np.zeros(5, dtype=np.int64), tracks, _rows(b"abcde"))
            assert a.get(0, PAGE_ROWS - 1) == b"e"
            assert a.get(0, PAGE_ROWS) == b"d"
            assert a.get(0, _FAR) == b"c"
            assert a.tracks_in_use(0) == 3
            assert a.max_track(0) == _FAR
            # a dict round-trip carries all three across backends
            snap = a.snapshot(0)
            assert snap == {PAGE_ROWS - 1: b"e", PAGE_ROWS: b"d", _FAR: b"c"}
            b = TrackArena(1, 1)
            b.restore(0, snap)
            assert b.snapshot(0) == snap
        finally:
            self.teardown_arena(a)

    def test_scatter_overwrites_boundary_side_entries(self):
        a = self.make()
        try:
            a.put(0, PAGE_ROWS, b"old")  # longer than a block: side dict
            assert a._side[0] == {PAGE_ROWS: b"old"}
            out = np.empty((1, 1), dtype=np.uint8)
            assert not a.gather(_i64(0), _i64(PAGE_ROWS), out)
            a.scatter(_i64(0), _i64(PAGE_ROWS), _rows(b"n"))
            assert a.get(0, PAGE_ROWS) == b"n"
            assert not a._side[0]
        finally:
            self.teardown_arena(a)

    def test_gather_refuses_unallocated_page(self):
        a = self.make()
        try:
            a.put(0, PAGE_ROWS - 1, b"w")
            out = np.empty((1, 1), dtype=np.uint8)
            assert not a.gather(_i64(0), _i64(PAGE_ROWS), out)
            assert list(a._pages[0]) == [0], "gather must not allocate"
        finally:
            self.teardown_arena(a)

    def test_resident_bounded_by_touched_pages(self):
        a = self.make()
        try:
            for t in (0, 1, PAGE_ROWS - 1, 5 * PAGE_ROWS, _FAR):
                a.put(0, t, b"x")
            touched = 3  # pages 0, 5 and the shadow page
            assert len(a._pages[0]) == touched
            lens = touched * PAGE_ROWS * 4  # int32 byte lengths
            data = touched * a.page_bytes
            assert a.resident_nbytes() <= data + lens
            assert a.resident_nbytes() + a.spill_nbytes() == data + lens
        finally:
            self.teardown_arena(a)


class TestBoundaryRam(_Boundary):
    def make(self) -> TrackArena:
        return TrackArena(1, 1)


class TestBoundaryMmap(_Boundary):
    def make(self) -> TrackArena:
        return MmapTrackArena(1, 1)
