"""A single simulated disk: a direct-access sequence of tracks."""

from __future__ import annotations

from repro.pdm.arena import TrackArena
from repro.util.validation import SimulationError


class Disk:
    """One disk drive: tracks addressed by number, one block per track.

    Storage has two modes with identical semantics:

    * **dict mode** (default) — tracks materialized lazily in a
      ``dict[int, bytes]``.  This is the reference path and what a
      standalone ``Disk()`` always uses.
    * **arena mode** — when constructed by a fast-path
      :class:`~repro.pdm.disk_array.DiskArray`, reads and writes delegate
      to the shared paged :class:`~repro.pdm.arena.TrackArena` so bulk
      operations can bypass per-track Python entirely.  The arena is as
      sparse as the dict: only pages that hold a written track exist.

    Per-disk read/write counters feed the load-balance assertions in the
    tests: the paper's layouts are only correct if every disk services the
    same number of blocks (±1).
    """

    __slots__ = ("disk_id", "_tracks", "_arena", "blocks_read", "blocks_written")

    def __init__(self, disk_id: int, arena: TrackArena | None = None) -> None:
        self.disk_id = disk_id
        self._arena = arena
        self._tracks: dict[int, bytes] = {}
        self.blocks_read = 0
        self.blocks_written = 0

    def write(self, track: int, data: bytes) -> None:
        """Store one block at *track* (overwrites)."""
        if track < 0:
            raise SimulationError(f"negative track {track} on disk {self.disk_id}")
        if self._arena is not None:
            self._arena.put(self.disk_id, track, data)
        else:
            self._tracks[track] = data
        self.blocks_written += 1

    def read(self, track: int) -> bytes:
        """Fetch the block at *track*; reading an unwritten track is a bug."""
        if self._arena is not None:
            hit = self._arena.get(self.disk_id, track)
            if hit is None:
                raise SimulationError(
                    f"read of unwritten track {track} on disk {self.disk_id}"
                )
            self.blocks_read += 1
            return hit
        try:
            block = self._tracks[track]
        except KeyError:
            raise SimulationError(
                f"read of unwritten track {track} on disk {self.disk_id}"
            ) from None
        self.blocks_read += 1
        return block

    def free(self, track: int) -> None:
        """Discard the block at *track* (space reuse between supersteps)."""
        if self._arena is not None:
            self._arena.free(self.disk_id, track)
        else:
            self._tracks.pop(track, None)

    @property
    def tracks_in_use(self) -> int:
        if self._arena is not None:
            return self._arena.tracks_in_use(self.disk_id)
        return len(self._tracks)

    def max_track(self) -> int:
        """Highest track currently holding data, -1 if empty."""
        if self._arena is not None:
            return self._arena.max_track(self.disk_id)
        return max(self._tracks, default=-1)

    def snapshot_tracks(self) -> dict[int, bytes]:
        """Checkpoint view of the track store, identical in both modes."""
        if self._arena is not None:
            return self._arena.snapshot(self.disk_id)
        return dict(self._tracks)

    def restore_tracks(self, tracks: dict[int, bytes]) -> None:
        """Replace the track store from a :meth:`snapshot_tracks` dict."""
        if self._arena is not None:
            self._arena.restore(self.disk_id, tracks)
        else:
            self._tracks = dict(tracks)
