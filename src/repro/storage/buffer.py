"""Buffer manager with LRU replacement and fine-grained latching.

The paper's system buffers disk pages with an LRU policy (Section IV).
This manager serves :class:`~repro.storage.page.Page` objects keyed by
``(file, page number)``, tracks pin counts so in-flight pages are never
evicted, writes dirty pages back on eviction, and exposes hit/miss
statistics used by tests and by the memory-hierarchy probes.

Concurrency follows the classic latching discipline:

* one **pool latch** protects the frame table — lookup, LRU reordering,
  installation, victim selection and statistics;
* **per-frame pin counts** (mutated only under the latch) guarantee a
  pinned page is never chosen for eviction, so a reader holding a pin
  can use its page without any lock;
* on a miss against a :class:`~repro.storage.heapfile.DiskFile`, the
  page **read happens outside the latch** — concurrent misses overlap
  their I/O waits, and the installer re-checks the frame table so two
  racing readers of one page share a single frame.

For :class:`~repro.storage.heapfile.MemoryFile` files the manager hands
out zero-copy views of the in-memory page, which keeps the hot query
paths allocation-free while preserving identical bookkeeping.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import BufferPoolError, StorageError
from repro.obs import record_page_access
from repro.storage.heapfile import HeapFile, MemoryFile
from repro.storage.page import Page
from repro.storage.schema import Schema


@dataclass
class BufferStats:
    """Counters exposed for tests, tuning and the hardware model."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0


@dataclass
class _Frame:
    page: Page
    file: HeapFile
    page_no: int
    pin_count: int = 0
    dirty: bool = False
    zero_copy: bool = field(default=False, repr=False)


class BufferManager:
    """A fixed-capacity page cache with LRU replacement.

    Args:
        capacity: maximum number of resident frames.  The paper sizes the
            pool to keep working sets memory resident; the default is
            generous for the benchmark scales used here.

    All public methods are safe to call from concurrent reader threads;
    writers (appends, dirty unpins) are additionally serialized by the
    owning table and the catalogue's exclusive gate.
    """

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise StorageError("buffer capacity must be positive")
        self.capacity = capacity
        self.stats = BufferStats()
        #: Pool latch: guards ``_frames``, pin counts and ``stats``.
        self._latch = threading.RLock()
        # dict preserves insertion order; we re-insert on access so the
        # first key is always the least recently used frame.
        self._frames: dict[tuple[int, int], _Frame] = {}
        #: file id → resident frame count, kept in step with ``_frames``
        #: so "is this file fully resident?" never walks the pool.
        self._resident: dict[int, int] = {}

    # -- public API -----------------------------------------------------------
    def get_page(self, file: HeapFile, page_no: int, schema: Schema) -> Page:
        """Pin and return the requested page.

        Callers must :meth:`unpin` the page when done.  For convenience in
        read-mostly scan code, see :meth:`scan_page` which pins and unpins
        around a single use.
        """
        key = (file.file_id, page_no)
        while True:
            with self._latch:
                frame = self._lookup(file, page_no)
                if frame is not None:
                    frame.pin_count += 1
                    return frame.page
            loaded = self._load(file, page_no, schema)
            with self._latch:
                # Only pin the frame if it is still the resident one; a
                # concurrent eviction between load and pin means retry.
                if self._frames.get(key) is loaded:
                    loaded.pin_count += 1
                    return loaded.page

    def unpin(self, file: HeapFile, page_no: int, dirty: bool = False) -> None:
        """Release one pin; mark the frame dirty if the caller wrote it."""
        key = (file.file_id, page_no)
        with self._latch:
            frame = self._frames.get(key)
            if frame is None or frame.pin_count <= 0:
                raise BufferPoolError(
                    f"unpin of page {page_no} that is not pinned"
                )
            frame.pin_count -= 1
            if dirty:
                frame.dirty = True

    @contextmanager
    def shared(
        self, file: HeapFile, page_no: int, schema: Schema
    ) -> Iterator[Page]:
        """Shared-read scope: the page stays pinned (hence resident and
        safe from eviction) for the duration of the ``with`` block."""
        page = self.get_page(file, page_no, schema)
        try:
            yield page
        finally:
            self.unpin(file, page_no)

    def scan_page(self, file: HeapFile, page_no: int, schema: Schema) -> Page:
        """Return a page for immediate, unpinned read access.

        The page stays resident under LRU like any other access; the
        caller promises not to hold the reference across evicting calls.
        This matches the paper's ``read_page`` used inside generated scan
        loops.  (Eviction never invalidates a returned ``Page`` — the
        object keeps its buffer — so a concurrent reader at worst keeps
        a private snapshot alive.)
        """
        with self._latch:
            frame = self._lookup(file, page_no)
            if frame is not None:
                return frame.page
        return self._load(file, page_no, schema).page

    def new_page(self, file: HeapFile, schema: Schema) -> tuple[int, Page]:
        """Append a fresh page to ``file`` and return it pinned."""
        page = Page(schema)
        page_no = file.append_page(bytes(page.data))
        zero_copy = isinstance(file, MemoryFile)
        if zero_copy:
            # The file now holds the page: serve its buffer, as a miss
            # would, instead of keeping a second copy in the frame.
            page = Page(schema, file.raw_page(page_no))
        with self._latch:
            frame = self._install(file, page_no, page)
            frame.zero_copy = zero_copy
            frame.pin_count += 1
            frame.dirty = True
            return page_no, frame.page

    def flush_all(self) -> None:
        """Write back every dirty frame (does not evict)."""
        with self._latch:
            for frame in self._frames.values():
                self._writeback(frame)

    def evict_all(self) -> None:
        """Drop all unpinned frames, writing dirty ones back."""
        with self._latch:
            for key in [
                k for k, f in self._frames.items() if f.pin_count == 0
            ]:
                self._evict(key)

    @property
    def num_resident(self) -> int:
        with self._latch:
            return len(self._frames)

    @property
    def num_pinned(self) -> int:
        """Frames currently pinned (0 when the pool is quiescent)."""
        with self._latch:
            return sum(1 for f in self._frames.values() if f.pin_count > 0)

    def resident_keys(self) -> Iterator[tuple[int, int]]:
        with self._latch:
            return iter(list(self._frames.keys()))

    def resident_pages(self, file: HeapFile) -> int:
        """How many of ``file``'s pages hold a frame right now.

        One dict read (atomic without the latch): the scheduler asks
        this per scanned table on every execution.
        """
        return self._resident.get(file.file_id, 0)

    # -- internals --------------------------------------------------------------
    def _lookup(self, file: HeapFile, page_no: int) -> _Frame | None:
        """Hit path; caller holds the latch."""
        key = (file.file_id, page_no)
        frame = self._frames.get(key)
        if frame is None:
            return None
        self.stats.hits += 1
        record_page_access(hit=True)
        # Move to MRU position.
        self._frames.pop(key)
        self._frames[key] = frame
        return frame

    def _load(self, file: HeapFile, page_no: int, schema: Schema) -> _Frame:
        """Miss path: fetch the page, then install under the latch.

        Memory files resolve to a zero-copy view (no I/O), so they are
        handled entirely under the latch; disk files read outside it so
        concurrent misses overlap their I/O, with a re-check on install
        so two racing readers of one page share a single frame.
        """
        key = (file.file_id, page_no)
        if isinstance(file, MemoryFile):
            with self._latch:
                frame = self._frames.get(key)
                if frame is not None:
                    return frame
                self.stats.misses += 1
                record_page_access(hit=False)
                page = Page(schema, file.raw_page(page_no))
                frame = self._install(file, page_no, page)
                frame.zero_copy = True
                return frame
        data = file.read_page(page_no)
        with self._latch:
            frame = self._frames.get(key)
            if frame is not None:
                # A racer installed the page while we read; our copy
                # becomes garbage and the shared frame wins.  The read
                # still happened, so it counts as a miss.
                self.stats.misses += 1
                record_page_access(hit=False)
                return frame
            self.stats.misses += 1
            record_page_access(hit=False)
            return self._install(file, page_no, Page(schema, data))

    def _install(self, file: HeapFile, page_no: int, page: Page) -> _Frame:
        # Caller holds the latch.
        while len(self._frames) >= self.capacity:
            victim = self._pick_victim()
            self._evict(victim)
        frame = _Frame(page=page, file=file, page_no=page_no)
        self._frames[(file.file_id, page_no)] = frame
        self._resident[file.file_id] = (
            self._resident.get(file.file_id, 0) + 1
        )
        return frame

    def _pick_victim(self) -> tuple[int, int]:
        for key, frame in self._frames.items():  # LRU order
            if frame.pin_count == 0:
                return key
        raise BufferPoolError("all buffer frames are pinned")

    def _evict(self, key: tuple[int, int]) -> None:
        frame = self._frames[key]
        if frame.pin_count:
            raise BufferPoolError(
                f"attempt to evict pinned page {key} "
                f"(pin count {frame.pin_count})"
            )
        del self._frames[key]
        remaining = self._resident[key[0]] - 1
        if remaining:
            self._resident[key[0]] = remaining
        else:
            del self._resident[key[0]]
        self._writeback(frame)
        self.stats.evictions += 1

    def _writeback(self, frame: _Frame) -> None:
        if frame.dirty:
            # Zero-copy frames share the file's buffer: nothing to copy,
            # but we still count the logical write-back.
            if not frame.zero_copy:
                frame.file.write_page(frame.page_no, bytes(frame.page.data))
            frame.dirty = False
            self.stats.writebacks += 1
