"""Paged per-disk track storage, the only store behind every disk.

The arena keeps each disk's tracks in fixed-size *pages*, not one
``bytes`` object per track: page ``track >> PAGE_SHIFT`` holds
``PAGE_ROWS`` rows of ``uint8`` (row stride = the block size in bytes)
plus a per-row byte length, so a whole parallel-I/O stream scatters or
gathers with a handful of NumPy fancy-indexing operations per touched
page.

Invariants that keep the arena equivalent to a ``dict[int, bytes]`` of
tracks (the model ``tests/pdm`` checks it against):

* the page map is a sparse ``dict`` — a page is allocated the first time
  a write touches it, so only touched pages use memory, any track index
  (the fault injector's shadow region at ``1 << 40`` included) takes the
  batched path, and growth never copies an existing page;
* a row is either *occupied* (byte length >= 0) or free (length -1) —
  reading a free track is a ``SimulationError``;
* rows are zero-padded past their length, mirroring ``pack_blocks``;
* payloads longer than a block (odd-sized single-track writes) do not
  fit a row and live in a per-disk side dict, their row left free.

``snapshot``/``restore`` produce and accept a ``dict[int, bytes]``, which
keeps engine checkpoints portable between arenas and engines.

Storage backends: this class allocates pages as in-memory arrays
(``REPRO_ARENA=ram``, the default);
:class:`repro.pdm.mmap_arena.MmapTrackArena` subclasses it to place them
in per-disk spill files for out-of-core runs (``REPRO_ARENA=mmap``).  Only
:meth:`_alloc_page` differs — every batch operation, invariant and
snapshot shape is shared.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

#: log2 of the rows per page: a page covers tracks ``[k << PAGE_SHIFT,
#: (k + 1) << PAGE_SHIFT)``.
PAGE_SHIFT = 12
PAGE_ROWS = 1 << PAGE_SHIFT
_ROW_MASK = PAGE_ROWS - 1

#: one page: its ``(PAGE_ROWS, block_bytes)`` rows and their byte lengths
#: (-1 = free)
Page = tuple[np.ndarray, np.ndarray]


def _page_groups(
    tracks: np.ndarray,
) -> Iterator[tuple[int, "slice | np.ndarray", np.ndarray]]:
    """Split *tracks* by page: yields ``(page, sel, rows)``.

    ``sel`` indexes *tracks* (a slice when they are already in page
    order) and ``rows`` are the in-page row numbers.  The split is stable,
    so duplicate addresses keep their order and a scatter stays last-wins.
    """
    pages = tracks >> PAGE_SHIFT
    lo = int(pages.min())
    if lo == int(pages.max()):
        yield lo, slice(None), tracks & _ROW_MASK
        return
    if bool((pages[1:] >= pages[:-1]).all()):
        order = None
        ordered = pages
    else:
        order = np.argsort(pages, kind="stable")
        ordered = pages[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, int(tracks.size)]):
        sel = slice(a, b) if order is None else order[a:b]
        yield int(ordered[a]), sel, tracks[sel] & _ROW_MASK


class TrackArena:
    """Paged track storage for the ``D`` disks of one array."""

    __slots__ = ("D", "block_bytes", "_pages", "_side", "on_grow")

    def __init__(self, D: int, block_bytes: int) -> None:
        self.D = D
        self.block_bytes = block_bytes
        #: optional observer called as ``on_grow(disk, tracks)`` when a
        #: write takes one disk's allocated page count to a new power of
        #: two — O(log pages) calls per disk (telemetry hook; never
        #: pickled — the owner re-attaches it when rebuilding an arena)
        self.on_grow: "Callable[[int, int], None] | None" = None
        self._pages: list[dict[int, Page]] = [{} for _ in range(D)]
        self._side: list[dict[int, bytes]] = [{} for _ in range(D)]

    @property
    def page_bytes(self) -> int:
        return PAGE_ROWS * self.block_bytes

    # -- page allocation ---------------------------------------------------

    def _page(self, disk: int, page: int) -> Page:
        """The page, allocated (zeroed, all rows free) on first touch."""
        pages = self._pages[disk]
        hit = pages.get(page)
        if hit is not None:
            return hit
        hit = (self._alloc_page(disk), np.full(PAGE_ROWS, -1, dtype=np.int32))
        pages[page] = hit
        return hit

    def _grew(self, disk: int, before: int) -> None:
        """Report growth if *disk*'s page count crossed a power of two
        since it was *before*."""
        count = len(self._pages[disk])
        if self.on_grow is not None and count.bit_length() > before.bit_length():
            self.on_grow(disk, count * PAGE_ROWS)

    def _alloc_page(self, disk: int) -> np.ndarray:
        """Zeroed ``(PAGE_ROWS, block_bytes)`` rows for one new page of
        *disk*.  The storage-backend hook: the base class allocates in
        RAM, the mmap subclass maps the next slot of the disk's spill
        file."""
        return np.zeros((PAGE_ROWS, self.block_bytes), dtype=np.uint8)

    # -- single-track operations (Disk delegates here) ---------------------

    def put(self, disk: int, track: int, payload: bytes) -> None:
        """Store one track (the dict-compatible slow entry point)."""
        n = len(payload)
        if n > self.block_bytes:
            self._free_row(disk, track)
            self._side[disk][track] = payload
            return
        self._side[disk].pop(track, None)
        before = len(self._pages[disk])
        data, lens = self._page(disk, track >> PAGE_SHIFT)
        self._grew(disk, before)
        r = track & _ROW_MASK
        data[r, :n] = np.frombuffer(payload, dtype=np.uint8)
        data[r, n:] = 0
        lens[r] = n

    def get(self, disk: int, track: int) -> bytes | None:
        """Fetch one track as ``bytes``, or ``None`` when unwritten."""
        side = self._side[disk]
        if side:
            hit = side.get(track)
            if hit is not None:
                return hit
        page = self._pages[disk].get(track >> PAGE_SHIFT) if track >= 0 else None
        if page is None:
            return None
        data, lens = page
        r = track & _ROW_MASK
        n = int(lens[r])
        return data[r, :n].tobytes() if n >= 0 else None

    def _free_row(self, disk: int, track: int) -> None:
        page = self._pages[disk].get(track >> PAGE_SHIFT) if track >= 0 else None
        if page is not None:
            page[1][track & _ROW_MASK] = -1

    def free(self, disk: int, track: int) -> None:
        self._side[disk].pop(track, None)
        self._free_row(disk, track)

    # -- bulk operations (DiskArray bulk path) -----------------------------

    def scatter(self, disks: np.ndarray, tracks: np.ndarray, rows: np.ndarray) -> None:
        """Store ``rows[i]`` (full block stride each) at ``(disks[i], tracks[i])``.

        Duplicate addresses within one call resolve last-wins, matching the
        sequential per-op loop.  Rows must already carry their padding;
        every stored track is marked full-stride.
        """
        bb = self.block_bytes
        for d in range(self.D):
            idx = np.flatnonzero(disks == d)
            if idx.size == 0:
                continue
            before = len(self._pages[d])
            for page, sel, r in _page_groups(tracks[idx]):
                data, lens = self._page(d, page)
                data[r] = rows[idx[sel]]
                lens[r] = bb
            self._grew(d, before)
            side = self._side[d]
            if side:
                for t in tracks[idx].tolist():
                    side.pop(t, None)

    def gather(self, disks: np.ndarray, tracks: np.ndarray, out: np.ndarray) -> bool:
        """Fill ``out[i]`` with the block at ``(disks[i], tracks[i])``.

        Returns ``False`` (*out* possibly part-filled) when any requested
        row is free or shorter than the full stride — a side-dict track
        always leaves its row free — and callers fall back to the
        per-track loop, which handles those and raises the
        canonical unwritten-track error.  Returns ``True`` on a completed
        gather.  Never allocates a page.
        """
        bb = self.block_bytes
        for d in range(self.D):
            idx = np.flatnonzero(disks == d)
            if idx.size == 0:
                continue
            pages = self._pages[d]
            for page, sel, r in _page_groups(tracks[idx]):
                hit = pages.get(page)
                if hit is None:
                    return False
                data, lens = hit
                if not (lens[r] == bb).all():
                    return False
                out[idx[sel]] = data[r]
        return True

    # -- inspection / checkpointing ----------------------------------------

    def tracks_in_use(self, disk: int) -> int:
        used = sum(int((lens >= 0).sum()) for _, lens in self._pages[disk].values())
        return used + len(self._side[disk])

    def resident_nbytes(self) -> int:
        """Host-memory footprint of the arena's storage.

        For the RAM backend this includes the allocated pages themselves;
        the mmap backend excludes them (they are file-backed and paged by
        the OS), which is what the scale benchmarks assert stays
        O(bookkeeping), not O(N).
        """
        total = sum(
            int(data.nbytes) for pages in self._pages for data, _ in pages.values()
        )
        return total + self._bookkeeping_nbytes()

    def _bookkeeping_nbytes(self) -> int:
        total = 0
        for d in range(self.D):
            total += sum(int(lens.nbytes) for _, lens in self._pages[d].values())
            total += sum(len(p) for p in self._side[d].values())
        return total

    def spill_nbytes(self) -> int:
        """Bytes held in spill files (0 for the in-memory backend)."""
        return 0

    def close(self) -> None:
        """Release backing storage (spill files for the mmap backend).

        The RAM arena has nothing to release; the method exists so callers
        can tear down any arena uniformly.
        """

    def max_track(self, disk: int) -> int:
        top = max(self._side[disk], default=-1)
        pages = self._pages[disk]
        for page in sorted(pages, reverse=True):
            used = np.flatnonzero(pages[page][1] >= 0)
            if used.size:
                return max(top, (page << PAGE_SHIFT) + int(used[-1]))
        return top

    def snapshot(self, disk: int) -> dict[int, bytes]:
        """The ``dict[int, bytes]`` view of one disk's tracks."""
        out: dict[int, bytes] = {}
        bb = self.block_bytes
        pages = self._pages[disk]
        for page in sorted(pages):
            data, lens = pages[page]
            rows = np.flatnonzero(lens >= 0)
            # one copy per page, then plain bytes slices per track
            blob = data[rows].tobytes()
            tracks = (rows + (page << PAGE_SHIFT)).tolist()
            for i, (t, n) in enumerate(zip(tracks, lens[rows].tolist())):
                out[t] = blob[i * bb : i * bb + n]
        out.update(self._side[disk])
        return out

    def restore(self, disk: int, tracks: dict[int, bytes]) -> None:
        for _, lens in self._pages[disk].values():
            lens.fill(-1)
        self._side[disk].clear()
        for t, payload in tracks.items():
            self.put(disk, t, payload)
