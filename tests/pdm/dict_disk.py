"""A dict-backed model of one disk, the executable spec for the arena.

:class:`DictDisk` has the interface of :class:`repro.pdm.disk.Disk` but
keeps its tracks in a plain ``dict[int, bytes]`` — the obvious, obviously
correct store.  The storage tests drive the same operations through it and
through arena-backed disks and require every observable to match.
"""

from __future__ import annotations

from repro.util.validation import SimulationError


class DictDisk:
    """One disk whose tracks are a ``dict[int, bytes]``."""

    def __init__(self, disk_id: int) -> None:
        self.disk_id = disk_id
        self._tracks: dict[int, bytes] = {}
        self.blocks_read = 0
        self.blocks_written = 0

    def write(self, track: int, data: bytes) -> None:
        if track < 0:
            raise SimulationError(f"negative track {track} on disk {self.disk_id}")
        self._tracks[track] = data
        self.blocks_written += 1

    def read(self, track: int) -> bytes:
        try:
            block = self._tracks[track]
        except KeyError:
            raise SimulationError(
                f"read of unwritten track {track} on disk {self.disk_id}"
            ) from None
        self.blocks_read += 1
        return block

    def free(self, track: int) -> None:
        self._tracks.pop(track, None)

    @property
    def tracks_in_use(self) -> int:
        return len(self._tracks)

    def max_track(self) -> int:
        return max(self._tracks, default=-1)

    def snapshot_tracks(self) -> dict[int, bytes]:
        return dict(self._tracks)

    def restore_tracks(self, tracks: dict[int, bytes]) -> None:
        self._tracks = dict(tracks)
