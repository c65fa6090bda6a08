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

Scans of a :class:`~repro.storage.heapfile.DiskFile` read through
:meth:`BufferManager.scan_ahead`, a sequential **read-ahead**: on the
second consecutive page read of a file it keeps the next
``2 * READ_AHEAD`` pages requested from a small pool of fetcher
threads, so the scan's page waits overlap its decoding (the GIL is
released while a fetch waits).  A scan that reaches an in-flight page
waits on that fetch.  Prefetches are best effort: one that fails is
dropped and the foreground read raises its own error, and one that
overlapped a write-back of its file is dropped rather than installed,
so a fetch never installs a page older than one a writer has written.
The table decides once which path its scans take (see
:class:`~repro.storage.table.Table`), so memory-file scans pay nothing.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import BufferPoolError, StorageError
from repro.obs import record_page_access
from repro.storage.heapfile import HeapFile, MemoryFile
from repro.storage.page import Page
from repro.storage.schema import Schema

#: Fetcher threads of the read-ahead; a sequential scan keeps twice as
#: many pages requested.  Measured at 4, 8 and 16 on a 2-vCPU host with
#: modelled 1 ms page reads (EXPERIMENTS.md, "Cold storage").
READ_AHEAD = 8


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
    #: Installed by the read-ahead and not read by a scan yet: the
    #: scan's first access counts as the miss the fetch saved it.
    prefetched: bool = field(default=False, repr=False)


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
        #: Pages a sequential scan keeps requested ahead of itself; at
        #: most a quarter of the pool, so prefetches never crowd out
        #: the pages a scan is about to read.
        self._window = min(2 * READ_AHEAD, capacity // 4)
        #: file id → [last page scanned, last page requested ahead].
        self._sequential: dict[int, list[int]] = {}
        #: (file id, page) → the fetch reading it.
        self._inflight: dict[tuple[int, int], Future] = {}
        #: file id → write-backs so far; a fetch that saw another count
        #: when it was requested may hold bytes older than the file's.
        self._written: dict[int, int] = {}
        #: The fetcher threads, started on the first read-ahead.
        self._fetchers: ThreadPoolExecutor | None = None

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

    def scan_ahead(self, file: HeapFile, page_no: int, schema: Schema) -> Page:
        """:meth:`scan_page` for a disk file, reading ahead of scans.

        A read of the page after the one last scanned in ``file``
        keeps the following pages requested from the fetcher threads;
        any other read starts nothing.  A page still in flight is
        waited for, and read in the foreground if its fetch was
        dropped.
        """
        key = (file.file_id, page_no)
        with self._latch:
            self._read_ahead(file, page_no, schema)
            frame = self._frames.get(key)
            if frame is not None:
                return self._scanned(key, frame).page
            pending = self._inflight.get(key)
        if pending is not None:
            pending.result()
            with self._latch:
                frame = self._frames.get(key)
                if frame is not None:
                    return self._scanned(key, frame).page
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
        """Drop all unpinned frames, writing dirty ones back (after
        in-flight prefetches land, so none refills the pool)."""
        self._drain()
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
        """How many of ``file``'s pages hold a frame right now."""
        file_id = file.file_id
        with self._latch:
            return sum(1 for key in self._frames if key[0] == file_id)

    def close(self) -> None:
        """Stop the read-ahead: wait for in-flight fetches and join the
        fetcher threads.  A later scan starts them again."""
        with self._latch:
            fetchers, self._fetchers = self._fetchers, None
            self._sequential.clear()
        if fetchers is not None:
            fetchers.shutdown(wait=True)

    # -- read-ahead ---------------------------------------------------------------
    def _read_ahead(self, file: HeapFile, page_no: int, schema: Schema) -> None:
        """Note a scan's read of ``page_no``; if it follows the last one,
        request the pages up to a window ahead.  Caller holds the latch."""
        file_id = file.file_id
        state = self._sequential.get(file_id)
        if state is None or state[0] != page_no - 1:
            self._sequential[file_id] = [page_no, page_no]
            return
        state[0] = page_no
        last = min(page_no + self._window, file.num_pages - 1)
        first = max(state[1], page_no) + 1
        if first > last:
            return
        state[1] = last
        fetchers = self._fetchers
        if fetchers is None:
            fetchers = self._fetchers = ThreadPoolExecutor(
                READ_AHEAD, thread_name_prefix="read-ahead"
            )
        written = self._written.get(file_id, 0)
        for ahead in range(first, last + 1):
            key = (file_id, ahead)
            if key not in self._frames and key not in self._inflight:
                self._inflight[key] = fetchers.submit(
                    self._prefetch, file, ahead, schema, written
                )

    def _prefetch(
        self, file: HeapFile, page_no: int, schema: Schema, written: int
    ) -> None:
        """Fetcher body: read one page and install it unpinned, unless
        it arrived meanwhile or its file was written back since the
        request."""
        key = (file.file_id, page_no)
        try:
            data = file.read_page(page_no)
            with self._latch:
                if (
                    key not in self._frames
                    and self._written.get(file.file_id, 0) == written
                ):
                    self._install(
                        file, page_no, Page(schema, data)
                    ).prefetched = True
        except (OSError, StorageError):
            # Dropped: the scan reads the page itself and raises its
            # own error (a closed file, a pool with every frame pinned).
            pass
        finally:
            with self._latch:
                self._inflight.pop(key, None)

    def _scanned(self, key: tuple[int, int], frame: _Frame) -> _Frame:
        """A scan's access to a resident frame; caller holds the latch.

        The first access to a prefetched page counts as a miss: the
        page came from the file for it."""
        if frame.prefetched:
            frame.prefetched = False
            self.stats.misses += 1
            record_page_access(hit=False)
        else:
            self.stats.hits += 1
            record_page_access(hit=True)
        self._frames.pop(key)
        self._frames[key] = frame
        return frame

    def _drain(self) -> None:
        """Wait until no prefetch is in flight."""
        while True:
            with self._latch:
                pending = list(self._inflight.values())
            if not pending:
                return
            wait(pending)

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
        self._writeback(frame)
        self.stats.evictions += 1

    def _writeback(self, frame: _Frame) -> None:
        if frame.dirty:
            # Zero-copy frames share the file's buffer: nothing to copy,
            # but we still count the logical write-back.
            if not frame.zero_copy:
                file_id = frame.file.file_id
                self._written[file_id] = self._written.get(file_id, 0) + 1
                frame.file.write_page(frame.page_no, bytes(frame.page.data))
            frame.dirty = False
            self.stats.writebacks += 1
