"""Arena switch and zero-copy containers for the batched I/O path.

The engines service whole parallel-I/O streams as single NumPy
gather/scatter operations over a paged per-disk track arena
(:mod:`repro.pdm.arena`).  The differential suite in
``tests/core/test_fastpath_differential.py`` pins that this path gives the
same outputs, ``IOStats`` and traces as servicing every block through a
per-op :meth:`~repro.pdm.disk_array.DiskArray.parallel_io`.  This module
holds the pieces the engines, the arena and the worker transports share:

* :func:`arena_kind` / :func:`set_arena_kind` — the ``REPRO_ARENA``
  storage selector for the paged track arena: ``ram``
  (default, in-memory NumPy pages) or ``mmap`` (file-backed
  :class:`~repro.pdm.mmap_arena.MmapTrackArena` for out-of-core runs).
* :class:`BlockRun` — a run of fixed-size blocks backed by one buffer,
  the zero-copy replacement for a ``list[bytes]`` of packed blocks.
* :class:`BufferPool` — bounded reuse of gather/scatter staging buffers,
  so a run does not allocate per parallel I/O.
"""

from __future__ import annotations

import numpy as np

from repro.tune import knobs as _knobs
from repro.tune.knobs import ARENA_KINDS
from repro.tune.runtime import current as _current


def arena_kind() -> str:
    """The arena storage backend selected by ``REPRO_ARENA``.

    ``ram`` (the default) keeps each disk's track pages as in-memory
    NumPy arrays; ``mmap`` places them in per-disk ``numpy.memmap``
    spill files under a run-scoped spill directory, so the
    simulated problem size is bounded by disk, not host memory.  An
    unknown value fails loudly (named :class:`~repro.tune.knobs.KnobError`)
    rather than silently running in the wrong mode.
    """
    return _current().arena


def set_arena_kind(kind: str) -> None:
    """Select the arena storage backend process-wide.

    Writes ``REPRO_ARENA`` (via the centralized knob layer) so child
    processes started afterwards (the workers backend) build the same
    storage.
    """
    if kind not in ARENA_KINDS:
        from repro.util.validation import ConfigurationError

        raise ConfigurationError(
            f"unknown arena kind {kind!r}; choose from {ARENA_KINDS}"
        )
    _knobs.set_env("REPRO_ARENA", kind)


class BlockRun:
    """``nblocks`` fixed-size blocks backed by a single buffer.

    The buffer may be up to one block shorter than ``nblocks *
    block_bytes``; the missing tail is implicit zero padding, exactly as
    :func:`repro.pdm.block.pack_blocks` pads the last block.  Keeping the
    padding implicit is what makes the container zero-copy: a serialized
    payload is wrapped as-is, and the scatter into the arena pads only the
    final track in place.
    """

    __slots__ = ("buf", "nblocks", "block_bytes")

    def __init__(
        self, buf: bytes | bytearray | memoryview | np.ndarray, nblocks: int, block_bytes: int
    ) -> None:
        nbytes = len(buf) if not isinstance(buf, np.ndarray) else int(buf.nbytes)
        if nbytes > nblocks * block_bytes:
            raise ValueError(
                f"buffer of {nbytes} bytes does not fit {nblocks} blocks "
                f"of {block_bytes} bytes"
            )
        self.buf = buf
        self.nblocks = nblocks
        self.block_bytes = block_bytes

    @property
    def nbytes(self) -> int:
        buf = self.buf
        return int(buf.nbytes) if isinstance(buf, np.ndarray) else len(buf)

    def to_blocks(self) -> list[bytes]:
        """Materialize one ``bytes`` per block (copies; the per-op path of
        fault-injected arrays only)."""
        bb = self.block_bytes
        data = bytes(self.buf).ljust(self.nblocks * bb, b"\x00")
        return [data[i * bb : (i + 1) * bb] for i in range(self.nblocks)]

    def __reduce__(self) -> tuple:
        # Pickling (Queue fallback in the workers backend) materializes the
        # buffer; shared-memory transport avoids this entirely.
        return (BlockRun, (bytes(self.buf), self.nblocks, self.block_bytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockRun(nblocks={self.nblocks}, block_bytes={self.block_bytes}, "
            f"nbytes={self.nbytes})"
        )


class BufferPool:
    """Bounded pool of reusable ``uint8`` staging buffers.

    ``take`` hands out a buffer of at least the requested size (callers
    slice to exact length); ``give`` returns it for reuse.  The pool keeps
    at most ``max_buffers`` and grows sizes geometrically so a long run
    converges on a handful of right-sized arenas instead of allocating per
    parallel I/O.
    """

    __slots__ = ("_free", "max_buffers")

    def __init__(self, max_buffers: int = 8) -> None:
        self._free: list[np.ndarray] = []
        self.max_buffers = max_buffers

    def take(self, nbytes: int) -> np.ndarray:
        best = -1
        for i, buf in enumerate(self._free):
            if buf.size >= nbytes and (best < 0 or buf.size < self._free[best].size):
                best = i
        if best >= 0:
            return self._free.pop(best)
        cap = 256
        while cap < nbytes:
            cap *= 2
        return np.empty(cap, dtype=np.uint8)

    def give(self, buf: np.ndarray) -> None:
        if buf.base is not None:  # only whole buffers come back
            return
        if len(self._free) < self.max_buffers:
            self._free.append(buf)
