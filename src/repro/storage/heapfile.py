"""Heap files: ordered collections of raw pages.

The paper keeps each table in its own file on disk; the buffer manager
mediates access.  Two implementations share one interface:

* :class:`MemoryFile` — pages live in a Python list.  This is the default
  for benchmarks (the paper's data sets are memory resident too).
* :class:`DiskFile` — pages live in a real file, read/written with
  positioned I/O (``os.pread``/``os.pwrite``), so concurrent readers
  never contend on shared seek state; used to exercise the buffer
  manager's eviction/write-back path under genuine I/O.

Reads are safe from any number of threads.  Mutations (``write_page``,
``append_page``) take a per-file lock; higher layers additionally
serialize writers behind the catalogue's exclusive gate.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Iterator

from repro.errors import StorageError
from repro.obs import record_disk_read
from repro.storage.page import PAGE_SIZE

_file_ids = itertools.count(1)


class HeapFile:
    """Abstract page file.  Page numbers are dense, starting at zero."""

    def __init__(self) -> None:
        #: Unique id used by the buffer manager as part of the frame key.
        self.file_id = next(_file_ids)
        #: Serializes structural mutation (appends, writes).
        self._mutate = threading.Lock()

    @property
    def num_pages(self) -> int:
        raise NotImplementedError

    def read_page(self, page_no: int) -> bytearray:
        """Return a mutable copy of the page's bytes."""
        raise NotImplementedError

    def write_page(self, page_no: int, data: bytes) -> None:
        raise NotImplementedError

    def append_page(self, data: bytes) -> int:
        """Add a new page at the end of the file; returns its number."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources."""

    def _check_size(self, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise StorageError(
                f"page write must be {PAGE_SIZE} bytes, got {len(data)}"
            )

    def _check_page_no(self, page_no: int) -> None:
        if not 0 <= page_no < self.num_pages:
            raise StorageError(
                f"page {page_no} out of range (file has {self.num_pages})"
            )


class MemoryFile(HeapFile):
    """A heap file whose pages are held in memory."""

    def __init__(self) -> None:
        super().__init__()
        self._pages: list[bytearray] = []

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    def read_page(self, page_no: int) -> bytearray:
        self._check_page_no(page_no)
        return bytearray(self._pages[page_no])

    def write_page(self, page_no: int, data: bytes) -> None:
        self._check_page_no(page_no)
        self._check_size(data)
        with self._mutate:
            self._pages[page_no] = bytearray(data)

    def append_page(self, data: bytes) -> int:
        self._check_size(data)
        with self._mutate:
            self._pages.append(bytearray(data))
            return len(self._pages) - 1

    def raw_page(self, page_no: int) -> bytearray:
        """Zero-copy view of a page (memory files only).

        The buffer manager uses this to avoid double-buffering pages that
        already live in memory; callers must not resize the buffer.
        """
        self._check_page_no(page_no)
        return self._pages[page_no]


class DiskFile(HeapFile):
    """A heap file backed by an operating-system file.

    Page reads use ``os.pread`` — a positioned read with no shared file
    offset — so any number of threads can fetch different pages of the
    same file concurrently, and the I/O waits overlap.

    ``read_latency`` adds a modeled per-page fetch wait (seconds) on
    top of the real read — the disk-level analogue of the
    :mod:`repro.memsim` cache model, used by benchmarks to reproduce
    latency-bound storage (spinning or networked disks) deterministically
    on any machine.  Zero (the default) means real I/O only.
    """

    def __init__(
        self, path: str, create: bool = True, read_latency: float = 0.0
    ):
        super().__init__()
        self.path = path
        self.read_latency = read_latency
        mode = "r+b"
        if create and not os.path.exists(path):
            with open(path, "wb"):
                pass
        self._fh = open(path, mode)
        self._fd = self._fh.fileno()
        size = os.fstat(self._fd).st_size
        if size % PAGE_SIZE:
            raise StorageError(
                f"file {path!r} size {size} is not a multiple of the "
                f"page size"
            )
        self._num_pages = size // PAGE_SIZE

    @property
    def num_pages(self) -> int:
        return self._num_pages

    def read_page(self, page_no: int) -> bytearray:
        self._check_page_no(page_no)
        started = time.perf_counter()
        if self.read_latency:
            time.sleep(self.read_latency)
        data = os.pread(self._fd, PAGE_SIZE, page_no * PAGE_SIZE)
        if len(data) != PAGE_SIZE:
            raise StorageError(f"short read on page {page_no}")
        # Latency includes any modeled wait: that is the fetch time the
        # rest of the system observes.
        record_disk_read(time.perf_counter() - started)
        return bytearray(data)

    def write_page(self, page_no: int, data: bytes) -> None:
        self._check_page_no(page_no)
        self._check_size(data)
        with self._mutate:
            os.pwrite(self._fd, data, page_no * PAGE_SIZE)

    def append_page(self, data: bytes) -> int:
        self._check_size(data)
        with self._mutate:
            os.pwrite(self._fd, data, self._num_pages * PAGE_SIZE)
            self._num_pages += 1
            return self._num_pages - 1

    def drop_os_cache(self) -> None:
        """Advise the kernel to drop this file's cached pages.

        Benchmarks use this to measure genuinely cold scans; a no-op on
        platforms without ``posix_fadvise``.
        """
        os.fsync(self._fd)
        if hasattr(os, "posix_fadvise"):
            os.posix_fadvise(self._fd, 0, 0, os.POSIX_FADV_DONTNEED)

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "DiskFile":  # pragma: no cover - convenience
        return self

    def __exit__(self, *exc) -> None:  # pragma: no cover - convenience
        self.close()

    def iter_pages(self) -> Iterator[bytearray]:  # pragma: no cover
        for page_no in range(self._num_pages):
            yield self.read_page(page_no)
