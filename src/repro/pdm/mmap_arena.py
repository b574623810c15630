"""Memory-mapped track storage: the out-of-core arena backend.

:class:`MmapTrackArena` keeps the exact :class:`~repro.pdm.arena.TrackArena`
contract — sparse page map, batch scatter/gather, dict-portable
``snapshot``/``restore`` — but places each disk's pages in a spill file
instead of in-memory arrays: page slot ``k`` of a disk is a
``numpy.memmap`` over bytes ``[k * page_bytes, (k + 1) * page_bytes)`` of
its file, slots handed out in first-touch order.  Simulated problem size
is then bounded by disk capacity, not host memory: the OS pages track
data in and out on demand, and the arena's own resident footprint is the
per-row byte lengths of the touched pages (4 bytes/track) plus whatever
the page cache chooses to keep.

Spill-directory lifecycle:

* every arena creates its own run-scoped directory
  (``mkdtemp(prefix="repro-arena-")``) under ``$REPRO_SPILL_DIR`` (default:
  the system temp dir), holding one ``disk<d>.bin`` file per simulated
  disk — worker processes of the multi-core backend each build their own
  arenas, so directories never collide across processes;
* a new page extends its file by one slot with ``ftruncate`` — the
  extension is a sparse hole, so untouched rows cost no physical disk and
  read back as zeros, exactly matching the RAM arena's ``np.zeros`` pages,
  and existing slots are never moved or remapped;
* ``$REPRO_SPILL_QUOTA`` (bytes, optional) bounds the total mapped size
  per arena, checked per page; a page past it raises
  :class:`SimulationError` instead of filling the volume;
* :meth:`close` unmaps and deletes the directory; a ``weakref.finalize``
  does the same at garbage collection, so abandoned arenas (a killed run)
  cannot leak spill files past interpreter exit.

Snapshots need no special handling: ``snapshot``/``restore`` are inherited
and produce/accept a ``dict[int, bytes]`` of tracks, so a checkpoint
written under ``REPRO_ARENA=mmap`` restores under ``ram`` bit-identically,
and vice versa.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from typing import IO

import numpy as np

from repro.pdm.arena import PAGE_ROWS, TrackArena
from repro.tune.runtime import RuntimeConfig, current
from repro.util.validation import SimulationError


def _cleanup(files: "list[IO[bytes]]", path: str) -> None:
    """Best-effort teardown shared by close() and the GC finalizer."""
    for f in files:
        try:
            f.close()
        except OSError:  # pragma: no cover - already closed
            pass
    shutil.rmtree(path, ignore_errors=True)


def spill_quota() -> int | None:
    """Per-arena spill byte limit from ``REPRO_SPILL_QUOTA`` (None = no cap).

    Parsed by the centralized knob layer: malformed values raise a named
    :class:`~repro.tune.knobs.KnobError` instead of being ignored.
    """
    return current().spill_quota


class MmapTrackArena(TrackArena):
    """Track arena whose pages live in per-disk spill files."""

    __slots__ = ("spill_dir", "_files", "_quota", "_finalizer", "__weakref__")

    def __init__(
        self,
        D: int,
        block_bytes: int,
        spill_dir: str | None = None,
        quota: int | None = None,
        runtime: RuntimeConfig | None = None,
    ) -> None:
        super().__init__(D, block_bytes)
        rt = runtime if runtime is not None else current()
        base = spill_dir or rt.spill_dir or None
        if base is not None:
            os.makedirs(base, exist_ok=True)
        self.spill_dir = tempfile.mkdtemp(prefix="repro-arena-", dir=base)
        self._files: list[IO[bytes]] = [
            open(os.path.join(self.spill_dir, f"disk{d}.bin"), "w+b")
            for d in range(D)
        ]
        self._quota = quota if quota is not None else rt.spill_quota
        self._finalizer = weakref.finalize(
            self, _cleanup, self._files, self.spill_dir
        )

    # -- page allocation ---------------------------------------------------

    def _alloc_page(self, disk: int) -> np.ndarray:
        if not self._files:
            raise SimulationError("mmap arena used after close()")
        pb = self.page_bytes
        if self._quota is not None:
            total = self.spill_nbytes()
            if total + pb > self._quota:
                raise SimulationError(
                    f"spill quota exceeded: disk {disk} needs a {pb}-byte "
                    f"page, arena already holds {total}, "
                    f"REPRO_SPILL_QUOTA={self._quota}"
                )
        slot = len(self._pages[disk])
        f = self._files[disk]
        f.truncate((slot + 1) * pb)
        f.flush()
        return np.memmap(
            f,
            dtype=np.uint8,
            mode="r+",
            offset=slot * pb,
            shape=(PAGE_ROWS, self.block_bytes),
        )

    # -- inspection --------------------------------------------------------

    def resident_nbytes(self) -> int:
        # the pages are file-backed: only bookkeeping is counted
        return self._bookkeeping_nbytes()

    def spill_nbytes(self) -> int:
        return sum(len(pages) for pages in self._pages) * self.page_bytes

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unmap, close and delete the spill directory (idempotent)."""
        if not self._files:
            return
        # drop the memmaps before deleting their backing files
        self._pages = [{} for _ in range(self.D)]
        files, self._files = self._files, []
        self._finalizer.detach()
        _cleanup(files, self.spill_dir)


def make_arena(
    D: int, block_bytes: int, runtime: RuntimeConfig | None = None
) -> TrackArena:
    """Build the track arena selected by ``REPRO_ARENA``.

    *runtime* is the engine's per-run knob snapshot; without one the
    current environment is resolved on the spot (module-level callers).
    """
    rt = runtime if runtime is not None else current()
    if rt.arena == "mmap":
        return MmapTrackArena(D, block_bytes, runtime=rt)
    return TrackArena(D, block_bytes)
